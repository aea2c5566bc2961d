"""UE-side position estimators.

Covers top-4 anchor selection, RSS trilateration through a damped
Gauss-Newton fit of the Lambertian forward model, least-squares AoA from a
multi-PD array, the single-anchor hybrid RSS/AoA method, and the RIS
beam-scanning baseline.

Top-4 selection and the trilateration fit each have one implementation
that works on trial batches (top4_problem, solve_trilateration_batch), so
Monte Carlo drivers and the single-shot API share it; select_top4 and
rss_trilaterate are its single-trial case. The single-shot estimators
read the channel.Measurement that channel.measure returns, the T = 1
slice of the batched sampler.

The trilateration problem stores each vector array coordinate-first, as
(3, T, n) planes, so every per-row quantity is a (T, n) plane. Each
Levenberg-Marquardt step forms J^T J and J^T r per trial from the
Jacobian planes and solves the damped 3x3 system by a written-out LDL^T.

The fit's coarse-grid starts are scored in one broadcast pass: the forward
model takes a grid axis after the coordinate axis, and grid points are
evaluated in blocks of at most _GRID_BLOCK_ELEMENTS (grid point, trial,
row) elements, so a single-trial fit scores all 405 default grid points
in one evaluation while a 10^4-trial batch keeps a small working set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import Measurement, OpticalAnchor, PdArray, lambertian_gain, link_arrays
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
# coarse start grid over the solver bounds, and the grid starts refined
# besides the linearized one
_GRID_POINTS_XY = 9
_GRID_POINTS_Z = 5
_MULTISTART = 2
# (grid point, trial, row) elements scored per block of grid starts; larger
# blocks save little time and grow the peak memory of big batches
_GRID_BLOCK_ELEMENTS = 1 << 14


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
    return measurement.anchor_ids[sel[0]].tolist()


def top4_problem(arrays, rss, los):
    """Batched top-4 trilateration problem; returns (problem, init_problem, valid).

    arrays comes from channel.link_arrays and rss and los have shape
    (T, A, P). The fit problem holds every (selected anchor, PD) pair of a
    trial, with non-LoS rows zeroed and given weight 0 so all trials share
    one width; the init problem holds the strongest PD of each selected
    anchor. Vector arrays are stored coordinate-first, as (3, T, n)
    planes. valid marks trials with at least four LoS anchors.
    """
    t_n, _, p_n = rss.shape
    sel, n_los = _rank_top4(rss, los)
    rss_sel = np.take_along_axis(rss, sel[:, :, None], axis=1)  # (T, 4, P)
    los_sel = np.take_along_axis(los, sel[:, :, None], axis=1)
    # take keeps the (3, T, 4) result C-contiguous, where [:, sel] would not
    anchor_pos = arrays["anchor_pos"].T.take(sel, axis=1)
    anchor_normal = arrays["anchor_normal"].T.take(sel, axis=1)
    tx = arrays["tx"][sel]
    m4 = arrays["m"][sel]

    shape = (t_n, 4 * p_n)  # rows run over the PDs of each selected anchor
    coef_full = (
        (m4[:, :, None] + 1.0)
        * arrays["pd_area"][None, None, :]
        * arrays["pd_gain"][None, None, :]
        * tx[:, :, None]
        / (2.0 * math.pi)
    )
    problem = {
        "anchor_pos": np.repeat(anchor_pos, p_n, axis=-1),
        "anchor_normal": np.repeat(anchor_normal, p_n, axis=-1),
        "pd_normal": np.broadcast_to(np.tile(arrays["pd_normal"].T, 4)[:, None], (3,) + shape),
        "m": np.repeat(m4, p_n, axis=1),
        "coef": coef_full.reshape(shape),
        "rss": np.where(los_sel, rss_sel, 0.0).reshape(shape),
        "weight": los_sel.astype(float).reshape(shape),
    }

    # each selected anchor's strongest LoS row; its first row if it has no LoS
    rows = np.arange(4) * p_n + np.where(los_sel, rss_sel, -np.inf).argmax(axis=2)
    init_problem = {
        k: np.take_along_axis(v, rows if v.ndim == 2 else rows[None], axis=-1)
        for k, v in problem.items()
        if k != "weight"
    }
    return problem, init_problem, n_los >= 4


# --------------------------------------------------------------------------
# Batched trilateration core
# --------------------------------------------------------------------------


def _dot3(a, b):
    """Dot product over a leading coordinate axis of length 3.

    Summing the three product planes adds left to right, so results are
    bitwise equal to a[0] * b[0] + a[1] * b[1] + a[2] * b[2].
    """
    return (a * b).sum(axis=0)


def _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef):
    """Forward RSS model P = C * b1^m * b2 / d^(m+3) for p of shape (3, ..., T).

    Axes of p between the coordinate and the trial axis, such as a block
    of grid points, broadcast against the (T, n) problem planes when the
    vector planes carry them too; the power has shape (..., T, n). The
    geometry returned, (v, d^2, b1, b2), is what the gradient needs.
    """
    v = p[..., None] - anchor_pos
    d2 = _dot3(v, v)
    d = np.sqrt(d2)
    floor = _B_FLOOR * d
    b1 = np.maximum(_dot3(anchor_normal, v), floor)
    b2 = np.maximum(-_dot3(pd_normal, v), floor)
    return coef * b1**m * b2 * d ** (-3.0 - m), (v, d2, b1, b2)


def _model_gradient(scale, geom, anchor_normal, pd_normal, m):
    """scale * dP/dp / P as (3, T, n) planes, from _model_power's geometry.

    With b1 and b2 floored above zero, dP/dp = P (m n_a / b1 - n_pd / b2
    - (m + 3) v / d^2); scale = P gives the gradient itself.
    """
    v, d2, b1, b2 = geom
    return scale * ((m / b1) * anchor_normal - pd_normal / b2 - ((m + 3.0) / d2) * v)


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


def _lm_step(jr, lam):
    """Damped Gauss-Newton step from the stacked [J, r] planes; returns (3, T).

    Solves (J^T J + lam diag(J^T J) + ridge I) delta = -J^T r per trial;
    the ridge, 1e-12 of the largest diagonal entry, bounds every pivot
    from below so a rank-deficient J^T J still gives a finite step.
    """
    # per-trial products of the planes: J^T J in g[:3], J^T r in g[3]
    g = np.matmul(jr[:3].transpose(1, 0, 2), jr.transpose(1, 2, 0)).T  # (4, 3, T)
    diag = np.diagonal(g, axis1=0, axis2=1).T
    ridge = 1e-12 * diag.max(axis=0) + 1e-300
    damped = diag + lam * diag + ridge
    return _solve_sym3((*damped, g[1, 0], g[2, 0], g[2, 1]), -g[3], ridge)


def _sphere_difference(anchor_pos, dist):
    """Linearized multilateration from per-anchor distances.

    Subtracting sphere equations pairwise gives a linear system in the
    position; returns (least-squares solution, null mask, null direction),
    the vectors as (3, T) planes. Coplanar anchors leave one direction
    unobserved, flagged per trial.
    """
    amat = 2.0 * np.moveaxis(anchor_pos[..., 1:] - anchor_pos[..., :1], 0, -1)
    norms = _dot3(anchor_pos, anchor_pos)
    rhs = (dist[:, :1] ** 2 - dist[:, 1:] ** 2) + (norms[:, 1:] - norms[:, :1])
    u_svd, s, vt = np.linalg.svd(amat)
    s0 = np.maximum(s[:, :1], 1e-300)
    s_inv = np.where(s > 1e-9 * s0, 1.0 / np.maximum(s, 1e-300), 0.0)
    utb = np.einsum("tij,tj->ti", np.swapaxes(u_svd, 1, 2), rhs)
    p = np.einsum("tij,tj->it", np.swapaxes(vt, 1, 2), s_inv * utb)
    null = s[:, 2] < 1e-6 * s0[:, 0]
    return p, null, vt[:, 2, :].T


def _init_linearized(anchor_pos, anchor_normal, m, coef, rss, hint):
    """Invert the aligned-geometry law, then linearized sphere differences.

    The aligned law d = (C h^(m+1) / P)^(1/(m+3)) needs the drop h along
    each anchor normal, which depends on the unknown position; two passes
    bootstrap h from a hint point and refine it from the first solution.
    Coplanar anchors (the ceiling case) leave one direction unobserved; it
    is recovered by intersecting the first anchor's sphere and keeping the
    root farther onto the emission side of the anchor planes.
    """
    p = np.broadcast_to(hint, anchor_pos[..., 0].shape).copy()
    rss_safe = np.maximum(rss, 1e-30)
    for _ in range(2):
        h = np.maximum(_dot3(anchor_normal, p[..., None] - anchor_pos), 0.05)
        dist = (coef * h ** (m + 1.0) / rss_safe) ** (1.0 / (m + 3.0))
        p, null, nullv = _sphere_difference(anchor_pos, dist)
        if np.any(null):
            w = p - anchor_pos[..., 0]
            beta = _dot3(nullv, w)
            gamma = _dot3(w, w) - dist[:, 0] ** 2
            root = np.sqrt(np.maximum(beta**2 - gamma, 0.0))
            cand = [p + (-beta - root) * nullv, p + (-beta + root) * nullv]
            scores = [
                np.min(_dot3(anchor_normal, c[..., None] - anchor_pos), axis=-1) for c in cand
            ]
            resolved = np.where(scores[1] > scores[0], cand[1], cand[0])
            p = np.where(null, resolved, p)
    return p


def _grid_candidates(lo, hi, nxy, nz):
    xs = np.linspace(lo[0], hi[0], nxy)
    ys = np.linspace(lo[1], hi[1], nxy)
    zs = np.linspace(lo[2], hi[2], nz)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()])  # (3, G)


def _solver_bounds(problem, bounds):
    if bounds is not None:
        return np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    anchor_pos = problem["anchor_pos"]
    # crude reach: on-axis inversion of every selected measurement
    reach = np.sqrt(problem["coef"] / np.maximum(problem["rss"], 1e-30))
    pad = min(float(np.median(reach.max(axis=-1))) * 1.5 + 0.5, 50.0)
    return anchor_pos.min(axis=(1, 2)) - pad, anchor_pos.max(axis=(1, 2)) + pad


def _grid_starts(problem, bounds, n_starts):
    """Direct-cost scores on a coarse grid; the n_starts best per trial.

    Grid points are scored in blocks of (G_block, T, n) model evaluations
    sized by _GRID_BLOCK_ELEMENTS; a block of points has shape
    (3, G_block, 1) and broadcasts over the trials. Returns (3, T, n_starts).
    """
    lo, hi = bounds
    grid = _grid_candidates(lo, hi, _GRID_POINTS_XY, _GRID_POINTS_Z)
    step = max(1, _GRID_BLOCK_ELEMENTS // max(1, problem["rss"].size))
    costs = np.empty((grid.shape[1], problem["rss"].shape[0]))
    # the vector planes take the block axis after the coordinate axis
    blocked = {k: v[:, None] if v.ndim == 3 else v for k, v in problem.items()}
    for g in range(0, grid.shape[1], step):
        costs[g : g + step] = _weighted_cost(blocked, grid[:, g : g + step, None])[0]
    top = np.argpartition(costs.T, n_starts - 1, axis=1)[:, :n_starts]
    return grid[:, top]


def _weighted_cost(problem, p):
    """Cost at p; also the weighted residuals, model power and geometry."""
    model, geom = _model_power(
        p,
        problem["anchor_pos"],
        problem["anchor_normal"],
        problem["pd_normal"],
        problem["m"],
        problem["coef"],
    )
    resid = problem.get("weight", 1.0) * (problem["rss"] - model)
    return np.sum(resid**2, axis=-1), resid, model, geom


def _lm_evaluate(problem, p):
    """Cost at p of shape (3, T) and the (4, T, n) stack [J, r].

    r is the weighted residual and J its Jacobian, the gradient of the
    weighted model power with the sign flipped.
    """
    cost, resid, model, geom = _weighted_cost(problem, p)
    weight = problem.get("weight", 1.0)
    jr = np.empty((4,) + resid.shape)
    jr[:3] = _model_gradient(
        -weight * model, geom, problem["anchor_normal"], problem["pd_normal"], problem["m"]
    )
    jr[3] = resid
    return cost, jr


def _lm_iterate(problem, p0, bounds):
    """Levenberg-damped Gauss-Newton over a batch of trials.

    p0 has shape (3, T). Converged trials are dropped from the working
    set, so late stragglers do not keep the whole batch iterating. Each
    trial's current point carries its residuals and Jacobian as one
    stacked array: a rejected step leaves them unchanged and an accepted
    one takes them from the trial evaluation. Every point is clamped to
    bounds = (lo, hi).
    """
    lo, hi = bounds[0][:, None], bounds[1][:, None]
    p_out = np.clip(np.array(p0, dtype=float), lo, hi)
    t = p_out.shape[1]
    cost_out, jr = _lm_evaluate(problem, p_out)
    conv_out = np.zeros(t, dtype=bool)

    active = np.arange(t)
    sub, p, cost = problem, p_out.copy(), cost_out.copy()
    lam = np.full(t, _DAMPING_INIT)
    for _ in range(_MAX_ITERATIONS):
        if active.size == 0:
            break
        delta = _lm_step(jr, lam)
        p_new = np.clip(p + delta, lo, hi)
        cost_new, jr_new = _lm_evaluate(sub, p_new)

        improve = np.isfinite(cost_new) & (cost_new < cost)
        stalled = improve & (cost - cost_new <= 1e-13 * cost + 1e-300)
        p = np.where(improve, p_new, p)
        cost = np.where(improve, cost_new, cost)
        jr = np.where(improve[:, None], jr_new, jr)
        lam = np.clip(
            np.where(improve, lam / _DAMPING_FACTOR, lam * _DAMPING_FACTOR),
            1e-12,
            1e15,
        )
        p_out[:, active] = p
        cost_out[active] = cost

        # step below tolerance, or accepted steps no longer reduce the cost
        done = (np.sqrt(_dot3(delta, delta)) < _TOLERANCE_M) | stalled
        if done.any():
            conv_out[active[done]] = True
            keep = np.flatnonzero(~done)
            active = active[keep]
            sub = {k: v[..., keep, :] for k, v in sub.items()}
            p, cost, lam, jr = p[:, keep], cost[keep], lam[keep], jr[:, keep]
    return p_out, cost_out, conv_out


def solve_trilateration_batch(problem: dict, init_problem: dict, bounds=None):
    """Fit positions for a batch of trials; returns (p, cost, converged).

    problem holds per-trial arrays: anchor_pos/anchor_normal/pd_normal as
    (3, T, n) coordinate planes, m/coef/rss of shape (T, n), and an
    optional 0/1 "weight" masking unused rows. init_problem is the one
    strongest sample per anchor view (see top4_problem) that scores the
    starts. p has shape (T, 3).

    The residual landscape can hold shallow spurious minima (notably for
    a symmetric coplanar anchor layout), so the fit is multi-start: the
    _MULTISTART best points of the coarse start grid, then the linearized
    init, are refined with the fixed Levenberg-Marquardt settings above,
    and the lowest final cost wins (the earlier start on ties). The true
    solution has zero residual in the noiseless case, so it always beats
    a spurious valley.
    """
    t = problem["rss"].shape[0]
    init = init_problem  # scores the starts; refinement runs on the full fit
    eff_bounds = _solver_bounds(init, bounds)

    centroid = init["anchor_pos"].mean(axis=-1)
    mean_n = init["anchor_normal"].mean(axis=-1)
    mean_n = mean_n / np.maximum(np.sqrt(_dot3(mean_n, mean_n)), 1e-12)
    p_lin = _init_linearized(
        init["anchor_pos"], init["anchor_normal"], init["m"],
        init["coef"], init["rss"], centroid + 1.5 * mean_n,
    )
    p_lin = np.clip(p_lin, eff_bounds[0][:, None], eff_bounds[1][:, None])
    cands = np.concatenate(
        [_grid_starts(init, eff_bounds, _MULTISTART), p_lin[..., None]], axis=-1
    )  # (3, T, C)
    n_c = cands.shape[-1]

    tiled = {k: np.repeat(v, n_c, axis=-2) for k, v in problem.items()}
    p_all, cost_all, conv_all = _lm_iterate(tiled, cands.reshape(3, t * n_c), eff_bounds)
    p_all = p_all.reshape(3, t, n_c)
    cost_all = cost_all.reshape(t, n_c)
    conv_all = conv_all.reshape(t, n_c)

    best = np.argmin(cost_all, axis=1)
    rows = np.arange(t)
    return p_all[:, rows, best].T, cost_all[rows, best], conv_all[rows, best]


def rss_trilaterate(
    measurement: Measurement,
    anchors: Sequence[OpticalAnchor],
    array: PdArray,
    bounds: tuple | None = None,
) -> LocalizationEstimate:
    """Position from the four strongest LoS anchors (known orientation).

    Minimizes sum_i (rss_i - P_t H_i(p))^2 over every line-of-sight
    photodetector reading of the selected anchors; fitting all PDs (rather
    than only each anchor's strongest) makes the position observable even
    for a symmetric coplanar anchor layout. anchors must include every
    measured anchor. array.pose supplies the known receiver orientation
    while its position is ignored.
    """
    ids = select_top4(measurement)
    by_id = {a.id: a for a in anchors}
    try:
        measured = [by_id[aid] for aid in measurement.anchor_ids.tolist()]
    except KeyError as exc:
        raise InvalidVector(f"unknown anchor {exc.args[0]}") from None
    arrays = link_arrays(measured, array)
    problem, init_problem, _ = top4_problem(arrays, measurement.rss_w[None], measurement.los[None])
    p, cost, converged = solve_trilateration_batch(problem, init_problem, bounds)
    if not converged[0]:
        raise NonConvergence("trilateration hit the iteration cap")
    return LocalizationEstimate(Vec3.from_array(p[0]), "rss", float(cost[0]), tuple(ids))


def _lit_pds(measurement: Measurement, anchor_id: int):
    """(rss, lit) of one anchor's row: its readings and the illuminated PDs."""
    row = measurement.row(anchor_id)
    rss = measurement.rss_w[row]
    return rss, measurement.los[row] & (rss > 0.0)


def aoa_direction(measurement: Measurement, anchor_id: int, array: PdArray) -> Vec3:
    """Unit UE-to-anchor direction from relative PD responses (world frame).

    With co-located PDs every response is r_i = c (u . n_i) G_i A_i for a
    common positive c, so the unnormalized direction follows from a linear
    least-squares fit over the illuminated detectors.
    """
    rss, lit = _lit_pds(measurement, anchor_id)
    n_lit = int(np.count_nonzero(lit))
    if n_lit < 3:
        raise InsufficientPds(f"need 3 illuminated PDs, have {n_lit}")
    scale = np.array([e.area_m2 * e.optical_gain for e in array.elements])[lit, None]
    mat = scale * array.world_normals()[lit]
    if np.linalg.matrix_rank(mat, tol=1e-12 * np.abs(mat).max()) < 3:
        raise DegeneratePdGeometry("PD normals do not span 3-D space")
    w, *_ = np.linalg.lstsq(mat, rss[lit], rcond=None)
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise DegeneratePdGeometry("AoA solution degenerated to the zero vector")
    return Vec3.from_array(w / nrm)


def hybrid_rss_aoa(
    measurement: Measurement,
    anchor: OpticalAnchor,
    array: PdArray,
) -> LocalizationEstimate:
    """Single-anchor position: AoA direction plus RSS ranging.

    Distance comes from the strongest PD's power with the emission and
    incidence cosines taken from the estimated direction; the position is
    anchor - d * u.
    """
    rss, lit = _lit_pds(measurement, anchor.id)
    if not lit.any():
        raise InvalidMeasurement("no usable RSS from the anchor")
    u = aoa_direction(measurement, anchor.id, array)

    arrays = link_arrays((anchor,), array)
    best = int(np.argmax(np.where(lit, rss, -np.inf)))
    cos_phi = float(anchor.normal.as_array() @ (-u.as_array()))
    cos_psi = float(u.as_array() @ arrays["pd_normal"][best])
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        raise InvalidMeasurement("estimated direction is outside the link geometry")
    coef = (anchor.lambertian_m + 1.0) * arrays["pd_area"][best] * arrays["pd_gain"][best]
    coef = coef * anchor.tx_power_w / (2.0 * math.pi)
    d = math.sqrt(coef * cos_phi**anchor.lambertian_m * cos_psi / rss[best])
    position = anchor.position - u.scale(d)

    h = lambertian_gain(
        anchor.position.as_array(), anchor.normal.as_array(), anchor.lambertian_m, position.as_array(),
        *(arrays[k][lit] for k in ("pd_normal", "pd_area", "pd_fov", "pd_gain")),
    )
    residual = float(np.sum((rss[lit] - anchor.tx_power_w * h) ** 2))
    return LocalizationEstimate(position, "rss_aoa", residual, (anchor.id,))


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
