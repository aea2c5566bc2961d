"""UE-side position estimators.

Covers top-4 anchor selection, RSS trilateration through a damped
Gauss-Newton fit of the Lambertian forward model, least-squares AoA from a
multi-PD array, the single-anchor hybrid RSS/AoA method, and the RIS
beam-scanning baseline.

Top-4 selection and the trilateration fit each have one implementation
that works on trial batches (top4_problem, solve_trilateration_batch), so
Monte Carlo drivers and the single-shot API share it; select_top4 and
rss_trilaterate are its single-trial case. The single-shot estimators
read only the channel.Measurement that channel.measure returns, the T = 1
slice of the batched sampler with the link_arrays table it read.

The trilateration problem is the (T, 4) top-4 anchor selection over the
shared link_arrays table (see top4_problem), so the model's distance and
emission terms are formed once per (trial, anchor). Each trial is refined
from one start: the least-squares intersection of the UE-to-anchor lines
that the receiver's own PD directions give (_line_start), or, for a trial
with fewer than two such lines or whose lines meet on one of its anchors,
the best point of a coarse grid. Trials stream through one
Levenberg-Marquardt working set (solve_trilateration_stream), which starts
each trial as it enters and yields the trials that stop at each step with
their places in the stream; each trial carries J^T J and J^T r, and a step
solves its damped 3x3 system by a written-out LDL^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import Measurement, PdArray, lambertian_gain
from .errors import (
    DegeneratePdGeometry,
    InsufficientAnchors,
    InsufficientPds,
    InvalidMeasurement,
    InvalidVector,
    NonConvergence,
    ScanFailed,
)
from .geometry import Vec3, segment_occluded
from .ris import Codebook, RisPanel, entry_direction_world, sweep_gains

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Scene

_B_FLOOR = 1e-9  # relative floor on cos terms; keeps fractional powers real
_MIN_SCAN_GAIN = 1e-6  # a beam sweep whose best gain is no higher fails
# Levenberg-Marquardt settings of the RSS fit
_MAX_ITERATIONS = 100
_TOLERANCE_M = 1e-9  # a step shorter than this ends a trial's iteration
_DAMPING_INIT = 1e-3
_DAMPING_FACTOR = 3.0
# coarse grid over the solver bounds; its best point starts a trial
# that has no line start
_GRID_POINTS_XY = 9
_GRID_POINTS_Z = 5
# the most trials the LM working set holds; its fit planes take about
# 0.7 kB per trial
_WORKING_SET_TRIALS = 2048
# the most trials whose model terms are formed at once: the line start and
# every LM evaluation run over a wider batch in slices of this width, so
# their temporaries do not grow with the batch
_SLICE_TRIALS = 512
# a 3x3 system of the line start is solved only when det > _RCOND * trace^3
_RCOND = 1e-9
# the six distinct entries (00, 11, 22, 01, 02, 12) of a symmetric 3x3 matrix
_SYM3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class LocalizationEstimate:
    position: Vec3
    method: str  # "rss", "rss_aoa" or "beam_scan"
    residual_w2: float
    anchors_used: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "anchors_used", tuple(self.anchors_used))
        if self.residual_w2 < 0.0:
            raise InvalidVector("residual must be non-negative")
        if not self.anchors_used:
            raise InvalidVector("an estimate must reference at least one anchor")


def _rank_top4(rss, los):
    """Rank anchors per trial; returns ((T, 4) selected indices, (T,) LoS counts).

    An anchor ranks by its strongest LoS photodetector; ties go to the
    lower anchor index. Anchors without LoS sort last, so a trial with
    fewer than four of them also selects non-LoS anchors.
    """
    has_los = los.any(axis=2)
    score = np.where(los, rss, -np.inf).max(axis=2)
    order = np.argsort(np.where(has_los, -score, np.inf), axis=1, kind="stable")
    return order[:, :4], has_los.sum(axis=1)


def select_top4(measurement: Measurement) -> list[int]:
    """Ids of the four anchors with the highest per-PD LoS RSS.

    Ranking uses each anchor's maximum over its photodetectors; ties go to
    the lower anchor id.
    """
    sel, n_los = _rank_top4(measurement.rss_w[None], measurement.los[None])
    if n_los[0] < 4:
        raise InsufficientAnchors(f"need 4 LoS anchors, have {n_los[0]}")
    return measurement.link["ids"][sel[0]].tolist()


def _link_coef(link):
    """(A, P) coefficients (m + 1) A G P_t / 2 pi of the Lambertian model per link."""
    coef = (link["m"][:, None] + 1.0) * link["pd_area"] * link["pd_gain"]
    return coef * link["tx"][:, None] / (2.0 * math.pi)


def top4_problem(arrays, rss, los):
    """Batched top-4 trilateration problem; returns (problem, valid).

    arrays comes from channel.link_arrays and rss and los have shape
    (T, A, P). The problem holds each trial's four selected anchors as
    "anchor" indices into that table, their positions and normals as
    (3, T, 4) coordinate planes and their m as (T, 4), plus the shared
    (3, P) pd_normal table. Only coef, rss and weight are (T, 4, P) row
    planes, one row per (selected anchor, PD) pair, with non-LoS rows
    zeroed and given weight 0 so all trials share one width. valid marks
    trials with at least four LoS anchors.
    """
    sel, n_los = _rank_top4(rss, los)
    rss_sel = np.take_along_axis(rss, sel[:, :, None], axis=1)  # (T, 4, P)
    los_sel = np.take_along_axis(los, sel[:, :, None], axis=1)
    coef = _link_coef(arrays)
    problem = {
        "anchor": sel,
        # take keeps the (3, T, 4) result C-contiguous, where [:, sel] would not
        "anchor_pos": arrays["anchor_pos"].T.take(sel, axis=1),
        "anchor_normal": arrays["anchor_normal"].T.take(sel, axis=1),
        "m": arrays["m"][sel],
        "pd_normal": arrays["pd_normal"].T,
        "coef": coef[sel],
        "rss": np.where(los_sel, rss_sel, 0.0),
        "weight": los_sel.astype(float),
    }
    return problem, n_los >= 4


# --------------------------------------------------------------------------
# Batched trilateration core
# --------------------------------------------------------------------------


def _dot3(a, b):
    """Dot product over a leading coordinate axis of length 3.

    Summing the three product planes adds left to right, so results are
    bitwise equal to a[0] * b[0] + a[1] * b[1] + a[2] * b[2].
    """
    return np.add.reduce(a * b, axis=0)


def _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef):
    """Forward RSS model P = C * b1^m * b2 / d^(m+3) for p of shape (3, T), on PD-major planes.

    anchor_pos and anchor_normal are (3, T, k) planes and m (T, k): v, d^2,
    d, b1, b1^m and d^(-3-m) are formed once per (trial, anchor). pd_normal
    (3, P, 1, 1) and coef (P, T, k) lead with the PD axis, so the power is
    (P, T, k) and every inner loop runs over a whole (T, k) plane. The
    geometry returned, (v, d^2, b1, b2), is what the gradient needs.
    """
    v = p[..., None] - anchor_pos
    d2 = _dot3(v, v)
    d = np.sqrt(d2)
    floor = _B_FLOOR * d
    b1 = np.maximum(_dot3(anchor_normal, v), floor)
    b2 = np.maximum(-_dot3(pd_normal, v[:, None]), floor)
    power = coef * b1**m * b2 * d ** (-3.0 - m)
    return power, (v, d2, b1, b2)


def _model_gradient(geom, anchor_normal, pd_normal, m, out=None):
    """dP/dp / P as (3, P, T, k) planes, from _model_power's geometry.

    With b1 and b2 floored above zero, dP/dp = P (m n_a / b1 - n_pd / b2
    - (m + 3) v / d^2); the two anchor terms are formed once per (trial,
    anchor). The planes are written into out when it is given, term by
    term in the order of that formula.
    """
    v, d2, b1, b2 = geom
    grad = np.divide(pd_normal, b2, out=out)
    np.subtract(((m / b1) * anchor_normal)[:, None], grad, out=grad)
    return np.subtract(grad, (((m + 3.0) / d2) * v)[:, None], out=grad)


def _solve_sym3(a, b, floor):
    """Solve the symmetric 3x3 systems a x = b by LDL^T, written out.

    a holds the six distinct entries (a00, a11, a22, a01, a02, a12) and b
    the three right-hand sides, each of shape (T,). Each pivot is clamped
    to at least floor: for a matrix whose smallest eigenvalue is at least
    floor the clamp never binds, and it keeps a rounded-down pivot of a
    nearly singular matrix positive. Returns x with shape (3, T).
    """
    a00, a11, a22, a01, a02, a12 = a
    d0 = np.maximum(a00, floor)
    l10 = a01 / d0
    l20 = a02 / d0
    d1 = np.maximum(a11 - l10 * a01, floor)
    l21 = (a12 - l20 * a01) / d1
    d2 = np.maximum(a22 - l20 * a02 - l21 * l21 * d1, floor)
    y1 = b[1] - l10 * b[0]
    x = np.empty_like(b)
    x[2] = (b[2] - l20 * b[0] - l21 * y1) / d2
    x[1] = y1 / d1 - l21 * x[2]
    x[0] = b[0] / d0 - l10 * x[1] - l20 * x[2]
    return x


def _normal_planes(jr):
    """The per-trial products of the (4, T, n) [J, r] planes as (4, 3, T):
    J^T J in [:3] and J^T r in [3]."""
    return np.matmul(jr[:3].transpose(1, 0, 2), jr.transpose(1, 2, 0)).T


def _lm_step(g, lam):
    """Damped Gauss-Newton step from the (4, 3, T) planes of _normal_planes; returns (3, T).

    Solves (J^T J + lam diag(J^T J) + ridge I) delta = -J^T r per trial;
    the ridge, 1e-12 of the largest diagonal entry, bounds every pivot
    from below so a rank-deficient J^T J still gives a finite step.
    """
    diag = g.diagonal(0, 0, 1).T
    ridge = 1e-12 * diag.max(axis=0) + 1e-300
    damped = diag + lam * diag + ridge
    return _solve_sym3((*damped, g[1, 0], g[2, 0], g[2, 1]), -g[3], ridge)


def _solve_regular(a, b):
    """Solve the symmetric 3x3 systems a x = b that are regular; returns (x, regular).

    a holds the six distinct entries (_SYM3) and b the three right-hand
    sides, elementwise over any trailing shape. A system is regular when
    det(a) > _RCOND * trace(a)^3, a scale-free test; every other system is
    replaced by I x = 0, so its x is 0 and no division meets a zero pivot.
    """
    a00, a11, a22, a01, a02, a12 = a
    det = a00 * (a11 * a22 - a12 * a12) - a01 * (a01 * a22 - a12 * a02) + a02 * (a01 * a12 - a11 * a02)
    regular = det > _RCOND * (a00 + a11 + a22) ** 3
    a = tuple(np.where(regular, x, float(i == j)) for x, (i, j) in zip(a, _SYM3))
    return _solve_sym3(a, np.where(regular, b, 0.0), 0.0), regular


def _line_start(problem):
    """Each trial's start from its selected anchors' angle-of-arrival lines.

    Over an anchor's LoS PDs the model reads r_p / coef_p = n_p . w with
    w = s (a - p) and s = b1^m / d^(m+3) > 0, so a linear fit gives the
    UE-to-anchor direction u = w / |w| (the fit aoa_direction makes). The
    point nearest the lines a_k + t u_k in least squares solves
    sum_k (I - u_k u_k^T) p = sum_k (I - u_k u_k^T) a_k: the multiple-PD
    AoA construction of Yang, Kim, Son & Han, J. Lightwave Technol. 32(14),
    2014. Every sum is written out per trial, so a trial rounds alike in
    any batch. Returns ((3, T) start, (T,) mask of the trials whose usable
    lines, at least two and not all parallel, fix the point).
    """
    n, weight = problem["pd_normal"], problem["weight"]
    y = weight * problem["rss"] / problem["coef"]
    w, _ = _solve_regular(
        [np.add.reduce(weight * (n[i] * n[j]), axis=-1) for i, j in _SYM3],
        np.stack([np.add.reduce(y * n[i], axis=-1) for i in range(3)]),
    )  # (3, T, 4); 0 for an anchor whose LoS PD normals do not span 3-D
    norm = np.sqrt(_dot3(w, w))
    line = norm > 0.0
    u = w / np.where(line, norm, 1.0)
    a = problem["anchor_pos"]
    proj_a = a - u * _dot3(u, a)
    return _solve_regular(
        [np.add.reduce(line * (float(i == j) - u[i] * u[j]), axis=-1) for i, j in _SYM3],
        np.add.reduce(line * proj_a, axis=-1),
    )


def _grid_candidates(lo, hi, nxy, nz):
    xs = np.linspace(lo[0], hi[0], nxy)
    ys = np.linspace(lo[1], hi[1], nxy)
    zs = np.linspace(lo[2], hi[2], nz)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()])  # (3, G)


def _start_rows(problem):
    """The one reading per selected anchor that scores the grid and sizes the box.

    It is each anchor's strongest LoS PD, or its first PD when it has
    none. Returns (pd, coef, rss), each of shape (T, 4).
    """
    pd = np.where(problem["weight"] > 0.0, problem["rss"], -np.inf).argmax(axis=2)
    coef, rss = (np.take_along_axis(problem[k], pd[..., None], axis=2)[..., 0] for k in ("coef", "rss"))
    return pd, coef, rss


def _solver_bounds(problem):
    """Search box from the problem's own readings: the anchors' extent,
    padded by 1.5 times the median reach over its trials plus 0.5 m, at
    most 50 m. rss_trilaterate derives its one trial's box here."""
    anchor_pos = problem["anchor_pos"]
    _, coef, rss = _start_rows(problem)
    # crude reach: on-axis inversion of every start-row measurement
    reach = np.sqrt(coef / np.maximum(rss, 1e-30))
    pad = min(float(np.median(reach.max(axis=-1))) * 1.5 + 0.5, 50.0)
    return anchor_pos.min(axis=(1, 2)) - pad, anchor_pos.max(axis=(1, 2)) + pad


def _grid_starts(problem, bounds):
    """Each trial's best point of a coarse grid over bounds, scored on its
    start rows (_start_rows); returns (3, T).

    The model is evaluated once, as a (G, R) table over the R distinct
    (anchor, PD, m) start rows of the batch, at most min(4T, A*P) per m
    value in it; each trial's cost is then a gather of its four columns.
    Keying on m as well lets trials of several m share a batch.
    """
    pd, coef, rss = _start_rows(problem)
    grid = _grid_candidates(bounds[0], bounds[1], _GRID_POINTS_XY, _GRID_POINTS_Z)
    key = problem["anchor"] * problem["pd_normal"].shape[1] + pd
    rows = np.stack([key.ravel(), problem["m"].ravel()], axis=1)  # the integer key is exact
    _, first, col = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    table, _ = _model_power(
        grid,
        problem["anchor_pos"].reshape(3, 1, -1)[..., first],
        problem["anchor_normal"].reshape(3, 1, -1)[..., first],
        problem["pd_normal"][:, None, None, pd.ravel()[first]],
        problem["m"].ravel()[first],
        coef.ravel()[first],
    )  # (1, G, R): every grid point against every distinct start row
    col, table = col.reshape(pd.shape), table[0]
    costs = sum((rss[:, k] - table[:, col[:, k]]) ** 2 for k in range(pd.shape[1]))
    # a grid point on one of a trial's anchors costs NaN there: it ranks last
    return grid[:, np.where(np.isnan(costs), np.inf, costs).argmin(axis=0)]


def _lm_buffer(t, k, p):
    """Room for _lm_evaluate over up to t trials of k anchors and p PDs: the (4, t,
    k, p) [J, r] planes, their PD-major view and the (3, p, t, k) gradient."""
    jr = np.empty((4, t, k, p))
    return jr, jr.transpose(0, 3, 1, 2), np.empty((3, p, t, k))


def _lm_evaluate(problem, p, buffer=None):
    """Cost at p of shape (3, T) and the (4, T, n) stack [J, r].

    r is the weighted residual and J its Jacobian, the gradient of the
    weighted model power with the sign flipped; the n = 4P rows run over
    the PDs of each selected anchor. Both are formed on PD-major (P, T, 4)
    planes and written through a transposed view into buffer's [J, r]
    planes (_lm_buffer), or a new one's; the model's array becomes the
    gradient's scale.
    """
    t = p.shape[1]
    jr, planes, grad = buffer or _lm_buffer(t, *problem["weight"].shape[1:])
    if t < jr.shape[1]:
        jr, planes, grad = jr[:, :t], planes[:, :, :t], grad[:, :, :t]
    pd_normal = problem["pd_normal"][:, :, None, None]
    weight = problem["weight"].transpose(2, 0, 1)
    model, geom = _model_power(
        p, problem["anchor_pos"], problem["anchor_normal"], pd_normal, problem["m"], problem["coef"].transpose(2, 0, 1)
    )
    np.multiply(weight, np.subtract(problem["rss"].transpose(2, 0, 1), model), out=planes[3])
    scale = np.negative(np.multiply(weight, model, out=model), out=model)  # -weight * model, bitwise
    np.multiply(scale, _model_gradient(geom, problem["anchor_normal"], pd_normal, problem["m"], out=grad), out=planes[:3])
    jr = jr.reshape(4, t, -1)
    return np.add.reduce(jr[3] ** 2, axis=-1), jr


_PLANE_KEYS = ("anchor_pos", "anchor_normal")  # (3, T, 4): trials on axis 1
_ROW_KEYS = ("anchor", "m", "coef", "rss", "weight")  # trials on axis 0


def _trials(problem, idx):
    """The trials idx of problem, in that order; pd_normal stays shared.
    A slice idx gives views."""
    sub = {k: v[:, idx] if k in _PLANE_KEYS else v[idx] for k, v in problem.items() if k != "pd_normal"}
    sub["pd_normal"] = problem["pd_normal"]
    return sub


def _sliced(fn, problem):
    """fn(sub, s) over problem's trials in slices s of at most _SLICE_TRIALS,
    sub the fit planes of trials s; its results, arrays with trials on the
    last axis, are joined. A batch no wider than a slice is passed whole."""
    t = problem["weight"].shape[0]
    if t <= _SLICE_TRIALS:
        return fn(problem, slice(None))
    cuts = [slice(a, a + _SLICE_TRIALS) for a in range(0, t, _SLICE_TRIALS)]
    parts = [fn(_trials(problem, s), s) for s in cuts]
    return tuple(np.concatenate(r, axis=-1) for r in zip(*parts))


def _evaluate_normal(problem, p, buffer):
    """Cost and _normal_planes at p of shape (3, T), in _sliced slices,
    whose planes pass through the front of buffer (_lm_buffer)."""

    def evaluate(sub, s):
        cost, jr = _lm_evaluate(sub, p[:, s], buffer)
        return cost, _normal_planes(jr)

    return _sliced(evaluate, problem)


def _starts(problem, bounds):
    """The (3, T) starts of problem's trials: the intersection of a trial's
    AoA lines (_line_start, in _sliced slices), or the best coarse-grid
    point (_grid_starts, over those trials only) for a trial with fewer than
    two usable, non-parallel lines or whose lines meet on one of its
    selected anchors, where the model has no value."""
    p0, lined = _sliced(lambda sub, s: _line_start(sub), problem)
    on_anchor = (p0[..., None] == problem["anchor_pos"]).all(axis=0).any(axis=-1)
    miss = np.flatnonzero(~lined | on_anchor)
    if miss.size:
        p0[:, miss] = _grid_starts(_trials(problem, miss), bounds)
    return p0


def solve_trilateration_stream(pieces, bounds, trials):
    """Fit the trials idx of each (problem, idx) in pieces; yields (at, p, cost, converged) as trials stop.

    A trial's place in the stream is its position among the pieces'
    trials in order. Each yield holds the trials that stopped at one
    Levenberg-Marquardt step: their (g,) places at, their (g, 3) points p,
    costs and converged flags. The trials pass through one working set of
    min(trials, _WORKING_SET_TRIALS) slots, trials bounding the sum of the
    pieces' len(idx). pieces is read as the set has room, and the trials a
    refill brings in are started from their slots (_starts); a slot that a
    stopped trial frees is refilled, so the tail of trials that run to the
    iteration cap is paid once per stream.
    Each trial carries its fit planes, point, cost, damping, iteration
    deadline, place and J^T J and J^T r (_normal_planes): a rejected step
    leaves them, an accepted one takes them from the trial evaluation. The
    live trials stay a prefix of the set, a freed slot taking a live trial
    from its back. Evaluations run in _sliced slices through one buffer.
    The problems share one link table; their m may differ, and they are
    left unchanged. bounds = (lo, hi) clamps every trial's points, so a
    trial's fit does not depend on the rest of the stream.
    """
    bounds = tuple(np.asarray(b, float) for b in bounds)
    lo, hi = bounds[0][:, None], bounds[1][:, None]
    width = max(1, min(trials, _WORKING_SET_TRIALS))
    # each piece's inbox entry [problem, the idx yet to enter], and the trials entered
    source, entered = (list(piece) for piece in pieces), 0
    inbox = next(source, None)  # the piece whose trials enter next
    if inbox is None:
        return
    k_n, p_n = inbox[0]["weight"].shape[1:]
    ws = {k: np.empty((3, width, k_n)) for k in _PLANE_KEYS}
    ws["anchor"], ws["m"] = np.empty((width, k_n), dtype=int), np.empty((width, k_n))
    ws["pd_normal"] = inbox[0]["pd_normal"]
    # coef, rss and weight as (T, 4, P) views of PD-major memory (_lm_evaluate)
    ws.update({k: np.empty((p_n, width, k_n)).transpose(1, 2, 0) for k in ("coef", "rss", "weight")})
    p, g, (cost, lam) = np.empty((3, width)), np.empty((4, 3, width)), np.empty((2, width))
    deadline, dest = np.empty((2, width), dtype=int)
    # every per-trial array of the set, as a view with its trials on axis 0
    slots = [ws[k].swapaxes(0, 1) for k in _PLANE_KEYS] + [ws[k] for k in _ROW_KEYS]
    slots += [p.T, g.transpose(2, 0, 1), cost, lam, deadline, dest]
    buffer = _lm_buffer(min(width, _SLICE_TRIALS), k_n, p_n)
    n = live_n = it = 0  # live trials, the width of the views below, iterations

    while True:
        at = n
        while n < width and (inbox or (inbox := next(source, None))):  # refill the free slots
            rows, inbox[1] = inbox[1][: width - n], inbox[1][width - n :]
            c = len(rows)
            for view, k in zip(slots, _PLANE_KEYS + _ROW_KEYS):
                view[n : n + c] = inbox[0][k][:, rows].swapaxes(0, 1) if k in _PLANE_KEYS else inbox[0][k][rows]
            dest[n : n + c] = np.arange(entered, entered + c)  # places are taken in order
            n, entered = n + c, entered + c
            if not len(inbox[1]):
                inbox = None  # a piece's arrays go once its last trial has entered
        if n != live_n:
            live, live_n = slice(0, n), n
            sub, p_l, cost_l, lam_l, g_l = _trials(ws, live), p[:, live], cost[live], lam[live], g[..., live]
        if n > at:
            new = slice(at, n)
            fresh = _trials(ws, new)
            p[:, new] = _starts(fresh, bounds).clip(lo, hi)
            cost[new], g[..., new] = _evaluate_normal(fresh, p[:, new], buffer)
            lam[new], deadline[new] = _DAMPING_INIT, it + _MAX_ITERATIONS
        if n == 0:
            return

        delta = _lm_step(g_l, lam_l)
        p_new = (p_l + delta).clip(lo, hi)
        cost_new, g_new = _evaluate_normal(sub, p_new, buffer)
        improve = np.isfinite(cost_new) & (cost_new < cost_l)
        stalled = improve & (cost_l - cost_new <= 1e-13 * cost_l + 1e-300)
        np.copyto(p_l, p_new, where=improve)
        np.copyto(cost_l, cost_new, where=improve)
        np.copyto(g_l, g_new, where=improve)
        lam_l[...] = np.where(improve, lam_l / _DAMPING_FACTOR, lam_l * _DAMPING_FACTOR).clip(1e-12, 1e15)
        it += 1

        # step below tolerance, or accepted steps no longer reduce the cost;
        # a trial that reaches its iteration cap stops unconverged
        converged = (np.sqrt(_dot3(delta, delta)) < _TOLERANCE_M) | stalled
        done = converged | (deadline[:n] <= it)
        if not done.any():
            continue
        gone = np.flatnonzero(done)
        yield dest[gone], p.T[gone], cost[gone], converged[gone]
        n -= gone.size
        holes = gone[gone < n]
        if holes.size:  # fill them with the live trials behind the new end
            movers = n + np.flatnonzero(~done[n:])
            for view in slots:
                view[holes] = view[movers]


def solve_trilateration_batch(problem: dict, bounds):
    """Fit positions for a batch of trials; returns (p, cost, converged).

    problem is a top4_problem: the (T, 4) anchor selection with its anchor
    planes, the shared PD normals, and (T, 4, P) coef, rss and a 0/1 weight
    masking unused rows. bounds = (lo, hi) is every trial's search box. p
    has shape (T, 3). It is the one-piece solve_trilateration_stream, with
    the fixed Levenberg-Marquardt settings above, whose results it places
    by trial; it leaves problem as it is.
    """
    t = problem["weight"].shape[0]
    p, cost, converged = np.empty((t, 3)), np.empty(t), np.zeros(t, bool)
    for at, *fit in solve_trilateration_stream([(problem, np.arange(t))], bounds, t):
        p[at], cost[at], converged[at] = fit
    return p, cost, converged


def rss_trilaterate(measurement: Measurement, bounds: tuple | None = None) -> LocalizationEstimate:
    """Position from the four strongest LoS anchors (known orientation).

    Minimizes sum_i (rss_i - P_t H_i(p))^2 over every line-of-sight
    photodetector reading of the selected anchors; fitting all PDs (rather
    than only each anchor's strongest) makes the position observable even
    for a symmetric coplanar anchor layout. The anchors and the receiver's
    PD normals are the measurement's link table. With no bounds the search
    box is derived from this measurement alone (_solver_bounds).
    """
    problem, valid = top4_problem(measurement.link, measurement.rss_w[None], measurement.los[None])
    if not valid[0]:
        n_los = np.count_nonzero(measurement.los.any(axis=1))
        raise InsufficientAnchors(f"need 4 LoS anchors, have {n_los}")
    if bounds is None:
        bounds = _solver_bounds(problem)
    p, cost, converged = solve_trilateration_batch(problem, bounds)
    if not converged[0]:
        raise NonConvergence("trilateration hit the iteration cap")
    ids = measurement.link["ids"][problem["anchor"][0]].tolist()
    return LocalizationEstimate(Vec3.from_array(p[0]), "rss", float(cost[0]), tuple(ids))


def _lit_pds(measurement: Measurement, anchor_id: int):
    """(row, rss, lit) of one anchor: its row, readings and illuminated PDs."""
    row = measurement.row(anchor_id)
    rss = measurement.rss_w[row]
    return row, rss, measurement.los[row] & (rss > 0.0)


def aoa_direction(measurement: Measurement, anchor_id: int) -> Vec3:
    """Unit UE-to-anchor direction from relative PD responses (world frame).

    With co-located PDs every response is r_i = c (u . n_i) G_i A_i for a
    common positive c, so the unnormalized direction follows from a linear
    least-squares fit over the illuminated detectors.
    """
    _, rss, lit = _lit_pds(measurement, anchor_id)
    n_lit = int(np.count_nonzero(lit))
    if n_lit < 3:
        raise InsufficientPds(f"need 3 illuminated PDs, have {n_lit}")
    link = measurement.link
    mat = (link["pd_area"] * link["pd_gain"])[lit, None] * link["pd_normal"][lit]
    if np.linalg.matrix_rank(mat, tol=1e-12 * np.abs(mat).max()) < 3:
        raise DegeneratePdGeometry("PD normals do not span 3-D space")
    w, *_ = np.linalg.lstsq(mat, rss[lit], rcond=None)
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise DegeneratePdGeometry("AoA solution degenerated to the zero vector")
    return Vec3.from_array(w / nrm)


def hybrid_rss_aoa(measurement: Measurement, anchor_id: int) -> LocalizationEstimate:
    """Single-anchor position: AoA direction plus RSS ranging.

    Distance comes from the strongest PD's power with the emission and
    incidence cosines taken from the estimated direction; the position is
    anchor - d * u.
    """
    row, rss, lit = _lit_pds(measurement, anchor_id)
    if not lit.any():
        raise InvalidMeasurement("no usable RSS from the anchor")
    u = aoa_direction(measurement, anchor_id).as_array()

    link = measurement.link
    anchor_pos, m = link["anchor_pos"][row], link["m"][row]
    best = int(np.argmax(np.where(lit, rss, -np.inf)))
    cos_phi = float(link["anchor_normal"][row] @ (-u))
    cos_psi = float(u @ link["pd_normal"][best])
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        raise InvalidMeasurement("estimated direction is outside the link geometry")
    d = math.sqrt(_link_coef(link)[row, best] * cos_phi**m * cos_psi / rss[best])
    position = anchor_pos - u * d

    h = lambertian_gain(
        anchor_pos, link["anchor_normal"][row], m, position,
        *(link[k][lit] for k in ("pd_normal", "pd_area", "pd_fov", "pd_gain")),
    )
    residual = float(np.sum((rss[lit] - link["tx"][row] * h) ** 2))
    return LocalizationEstimate(Vec3.from_array(position), "rss_aoa", residual, (int(link["ids"][row]),))


def scan_latency_ms(codebook: Codebook, dwell_ms: float) -> float:
    """Sweep duration: one dwell per beamsteer entry."""
    return len(codebook.azimuth_rad) * dwell_ms


def beam_scan_localize(
    scene: "Scene",
    panel: RisPanel,
    codebook: Codebook,
    ue: PdArray,
    dwell_ms: float = 1.0,
) -> tuple[LocalizationEstimate, float]:
    """Sweep every beamsteer entry and localize from the strongest beam.

    The UE metric per beam is the normalized beam gain at its position
    (zero when the RIS-UE path is occluded). The winning beam's direction
    is intersected with the UE's known height plane; latency accounts one
    dwell per entry.
    """
    pos = ue.pose.position
    latency = scan_latency_ms(codebook, dwell_ms)
    if segment_occluded(panel.center, pos, scene.room):
        raise ScanFailed("RIS-UE path occluded for every beam")
    gains = sweep_gains(codebook, panel, pos)
    best = int(np.argmax(gains))
    if gains[best] <= _MIN_SCAN_GAIN:
        raise ScanFailed("no beam exceeded the detection threshold")
    direction = entry_direction_world(panel, codebook.entry(best))
    dz = float(direction[2])
    if abs(dz) < 1e-12:
        raise ScanFailed("winning beam is parallel to the receiver height plane")
    t = (pos.z - panel.center.z) / dz
    if t <= 0.0:
        raise ScanFailed("winning beam does not reach the receiver height plane")
    est = panel.center.as_array() + t * direction
    return (
        LocalizationEstimate(Vec3.from_array(est), "beam_scan", 0.0, (panel.id,)),
        latency,
    )
