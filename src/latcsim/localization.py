"""UE-side position estimators.

Covers top-4 anchor selection, RSS trilateration through a damped
Gauss-Newton fit of the Lambertian forward model, least-squares AoA from a
multi-PD array, the single-anchor hybrid RSS/AoA method, and the RIS
beam-scanning baseline.

Top-4 selection and the trilateration fit each have one implementation
that works on trial batches (top4_problem, solve_trilateration_batch), so
Monte Carlo drivers and the single-shot API share it; select_top4 and
rss_trilaterate are its single-trial case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import ChannelSample, OpticalAnchor, PdArray, lambertian_gain, link_arrays
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


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 100
    tolerance_m: float = 1e-9
    damping_init: float = 1e-3
    damping_factor: float = 3.0
    init_strategy: str = "linearized"  # or "grid"
    grid_points_xy: int = 9
    grid_points_z: int = 5
    multistart: int = 2  # grid candidates refined besides the linearized init

    def __post_init__(self):
        if self.tolerance_m <= 0.0:
            raise InvalidVector("solver tolerance must be positive")
        if self.init_strategy not in ("linearized", "grid"):
            raise InvalidVector("init strategy must be 'linearized' or 'grid'")
        if self.multistart < 1:
            raise InvalidVector("multistart must be at least 1")


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


def _sample_grid(samples: Sequence[ChannelSample], ids, n_pd: int):
    """One trial's samples as (1, A, P) rss and los arrays in ids order."""
    row = {aid: i for i, aid in enumerate(ids)}
    rss = np.zeros((1, len(ids), n_pd))
    los = np.zeros((1, len(ids), n_pd), dtype=bool)
    for s in samples:
        rss[0, row[s.anchor_id], s.pd_index] = s.rss_w
        los[0, row[s.anchor_id], s.pd_index] = s.los
    return rss, los


def select_top4(samples: Sequence[ChannelSample]) -> list[int]:
    """Ids of the four anchors with the highest per-PD LoS RSS.

    Ranking uses each anchor's maximum over its photodetectors; ties go to
    the lower anchor id.
    """
    ids = sorted({s.anchor_id for s in samples})
    n_pd = max((s.pd_index for s in samples), default=-1) + 1
    sel, n_los = _rank_top4(*_sample_grid(samples, ids, n_pd))
    if n_los[0] < 4:
        raise InsufficientAnchors(f"need 4 LoS anchors, have {n_los[0]}")
    return [ids[i] for i in sel[0]]


def top4_problem(arrays, rss, los):
    """Batched top-4 trilateration problem; returns (problem, init_problem, valid).

    arrays comes from channel.link_arrays and rss and los have shape
    (T, A, P). The fit problem holds every (selected anchor, PD) pair of a
    trial, with non-LoS rows zeroed and given weight 0 so all trials share
    one width; the init problem holds the strongest PD of each selected
    anchor. valid marks trials with at least four LoS anchors.
    """
    t_n, _, p_n = rss.shape
    sel, n_los = _rank_top4(rss, los)
    rss_sel = np.take_along_axis(rss, sel[:, :, None], axis=1)  # (T, 4, P)
    los_sel = np.take_along_axis(los, sel[:, :, None], axis=1)
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
        "anchor_pos": np.repeat(arrays["anchor_pos"][sel], p_n, axis=1),
        "anchor_normal": np.repeat(arrays["anchor_normal"][sel], p_n, axis=1),
        "pd_normal": np.broadcast_to(np.tile(arrays["pd_normal"], (4, 1)), shape + (3,)),
        "m": np.repeat(m4, p_n, axis=1),
        "coef": coef_full.reshape(shape),
        "rss": np.where(los_sel, rss_sel, 0.0).reshape(shape),
        "weight": los_sel.astype(float).reshape(shape),
    }

    masked_sel = np.where(los_sel, rss_sel, -np.inf)
    pd_idx = masked_sel.argmax(axis=2)
    rss_pick = np.take_along_axis(masked_sel, pd_idx[:, :, None], axis=2)[:, :, 0]
    init_problem = {
        "anchor_pos": arrays["anchor_pos"][sel],
        "anchor_normal": arrays["anchor_normal"][sel],
        "pd_normal": arrays["pd_normal"][pd_idx],
        "m": m4,
        "coef": (m4 + 1.0)
        * arrays["pd_area"][pd_idx]
        * arrays["pd_gain"][pd_idx]
        * tx
        / (2.0 * math.pi),
        "rss": np.where(np.isfinite(rss_pick), rss_pick, 0.0),
    }
    return problem, init_problem, n_los >= 4


# --------------------------------------------------------------------------
# Batched trilateration core
# --------------------------------------------------------------------------


def _dot3(a, b):
    """Dot product over a last axis of length 3.

    Adds left to right, as np.sum does for so short an axis, so results
    are bitwise equal; np.sum pays a per-row reduction overhead here.
    """
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef):
    """Forward RSS model P = C * b1^m * b2 / d^(m+3) for p of shape (T, 3)."""
    v = p[:, None, :] - anchor_pos
    d2 = _dot3(v, v)
    d = np.sqrt(d2)
    b1 = np.maximum(_dot3(anchor_normal, v), _B_FLOOR * d)
    b2 = np.maximum(-_dot3(pd_normal, v), _B_FLOOR * d)
    b1_m = b1**m
    d_pow = d ** (-(m + 3.0))
    return coef * b1_m * b2 * d_pow, (v, d2, b1, b2, b1_m, d_pow)


def _model_gradient(geom, anchor_normal, pd_normal, m, coef):
    v, d2, b1, b2, b1_m, d_pow = geom
    scale = (coef * d_pow)[..., None]
    term = (
        (m * b1 ** (m - 1.0) * b2)[..., None] * anchor_normal
        - b1_m[..., None] * pd_normal
        - ((m + 3.0) * b1_m * b2 / d2)[..., None] * v
    )
    return scale * term  # d P / d p, shape (T, n_anchors, 3)


def _sphere_difference(anchor_pos, dist):
    """Linearized multilateration from per-anchor distances.

    Subtracting sphere equations pairwise gives a linear system in the
    position; returns (least-squares solution, null mask, null direction).
    Coplanar anchors leave one direction unobserved, flagged per trial.
    """
    a0 = anchor_pos[:, 0, :]
    amat = 2.0 * (anchor_pos[:, 1:, :] - a0[:, None, :])
    norms = np.sum(anchor_pos**2, axis=-1)
    rhs = (dist[:, :1] ** 2 - dist[:, 1:] ** 2) + (norms[:, 1:] - norms[:, :1])
    u_svd, s, vt = np.linalg.svd(amat)
    s0 = np.maximum(s[:, :1], 1e-300)
    s_inv = np.where(s > 1e-9 * s0, 1.0 / np.maximum(s, 1e-300), 0.0)
    utb = np.einsum("tij,tj->ti", np.swapaxes(u_svd, 1, 2), rhs)
    p = np.einsum("tij,tj->ti", np.swapaxes(vt, 1, 2), s_inv * utb)
    null = s[:, 2] < 1e-6 * s0[:, 0]
    return p, null, vt[:, 2, :]


def _init_linearized(anchor_pos, anchor_normal, m, coef, rss, hint):
    """Invert the aligned-geometry law, then linearized sphere differences.

    The aligned law d = (C h^(m+1) / P)^(1/(m+3)) needs the drop h along
    each anchor normal, which depends on the unknown position; two passes
    bootstrap h from a hint point and refine it from the first solution.
    Coplanar anchors (the ceiling case) leave one direction unobserved; it
    is recovered by intersecting the first anchor's sphere and keeping the
    root farther onto the emission side of the anchor planes.
    """
    p = np.broadcast_to(hint, anchor_pos[:, 0, :].shape).copy()
    rss_safe = np.maximum(rss, 1e-30)
    for _ in range(2):
        h = np.maximum(
            np.sum(anchor_normal * (p[:, None, :] - anchor_pos), axis=-1), 0.05
        )
        dist = (coef * h ** (m + 1.0) / rss_safe) ** (1.0 / (m + 3.0))
        p, null, nullv = _sphere_difference(anchor_pos, dist)
        if np.any(null):
            a0 = anchor_pos[:, 0, :]
            w = p - a0
            beta = np.sum(nullv * w, axis=-1)
            gamma = np.sum(w * w, axis=-1) - dist[:, 0] ** 2
            root = np.sqrt(np.maximum(beta**2 - gamma, 0.0))
            cand = [p + (-beta - root)[:, None] * nullv, p + (-beta + root)[:, None] * nullv]
            scores = [
                np.min(np.sum(anchor_normal * (c[:, None, :] - anchor_pos), axis=-1), axis=-1)
                for c in cand
            ]
            resolved = np.where((scores[1] > scores[0])[:, None], cand[1], cand[0])
            p = np.where(null[:, None], resolved, p)
    return p


def _grid_candidates(lo, hi, nxy, nz):
    xs = np.linspace(lo[0], hi[0], nxy)
    ys = np.linspace(lo[1], hi[1], nxy)
    zs = np.linspace(lo[2], hi[2], nz)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def _solver_bounds(problem, bounds):
    if bounds is not None:
        return np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    anchor_pos = problem["anchor_pos"]
    # crude reach: on-axis inversion of every selected measurement
    reach = np.sqrt(problem["coef"] / np.maximum(problem["rss"], 1e-30))
    pad = min(float(np.median(reach.max(axis=-1))) * 1.5 + 0.5, 50.0)
    return anchor_pos.min(axis=(0, 1)) - pad, anchor_pos.max(axis=(0, 1)) + pad


def _grid_starts(problem, bounds, opts, n_starts):
    """Direct-cost scores on a coarse grid; the n_starts best per trial."""
    lo, hi = bounds
    grid = _grid_candidates(lo, hi, opts.grid_points_xy, opts.grid_points_z)
    t = problem["anchor_pos"].shape[0]
    costs = np.empty((t, grid.shape[0]))
    for gi, g in enumerate(grid):
        p = np.broadcast_to(g, (t, 3))
        costs[:, gi], _, _ = _weighted_cost(problem, p)
    n_starts = min(n_starts, grid.shape[0])
    top = np.argpartition(costs, n_starts - 1, axis=1)[:, :n_starts]
    return grid[top]  # (T, n_starts, 3)


def _weighted_cost(problem, p):
    model, geom = _model_power(
        p,
        problem["anchor_pos"],
        problem["anchor_normal"],
        problem["pd_normal"],
        problem["m"],
        problem["coef"],
    )
    resid = problem.get("weight", 1.0) * (problem["rss"] - model)
    return np.sum(resid**2, axis=-1), resid, geom


def _lm_iterate(problem, p0, opts, bounds):
    """Levenberg-damped Gauss-Newton over a batch of trials.

    Converged trials are dropped from the working set, so late stragglers
    do not keep the whole batch iterating. The residuals and geometry of
    each trial's current point are carried between iterations: a rejected
    step leaves them unchanged and an accepted one takes them from the
    trial evaluation.
    """

    def clamp(p):
        if bounds is None:
            return p
        return np.clip(p, bounds[0], bounds[1])

    p_out = clamp(np.array(p0, dtype=float))
    t = p_out.shape[0]
    cost_out, resid, geom = _weighted_cost(problem, p_out)
    conv_out = np.zeros(t, dtype=bool)
    eye = np.eye(3)

    active = np.arange(t)
    sub, p, cost = problem, p_out.copy(), cost_out.copy()
    lam = np.full(t, opts.damping_init)
    for _ in range(opts.max_iterations):
        if active.size == 0:
            break
        jac = -_model_gradient(geom, sub["anchor_normal"], sub["pd_normal"], sub["m"], sub["coef"])
        if "weight" in sub:
            jac = sub["weight"][..., None] * jac
        jtj = np.einsum("tia,tib->tab", jac, jac)
        jtr = np.einsum("tia,ti->ta", jac, resid)
        diag = np.einsum("taa->ta", jtj)
        ridge = 1e-12 * diag.max(axis=-1) + 1e-300
        amat = jtj + lam[:, None, None] * diag[:, None, :] * eye + ridge[:, None, None] * eye
        delta = np.linalg.solve(amat, -jtr[..., None])[..., 0]
        p_new = clamp(p + delta)
        cost_new, resid_new, geom_new = _weighted_cost(sub, p_new)

        improve = np.isfinite(cost_new) & (cost_new < cost)
        stalled = improve & (cost - cost_new <= 1e-13 * cost + 1e-300)
        p = np.where(improve[:, None], p_new, p)
        cost = np.where(improve, cost_new, cost)
        resid = np.where(improve[:, None], resid_new, resid)
        geom = tuple(
            np.where(improve.reshape((-1,) + (1,) * (g.ndim - 1)), g_new, g)
            for g, g_new in zip(geom, geom_new)
        )
        lam = np.clip(
            np.where(improve, lam / opts.damping_factor, lam * opts.damping_factor),
            1e-12,
            1e15,
        )
        p_out[active] = p
        cost_out[active] = cost

        # step below tolerance, or accepted steps no longer reduce the cost
        done = (np.linalg.norm(delta, axis=-1) < opts.tolerance_m) | stalled
        if done.any():
            conv_out[active[done]] = True
            keep = ~done
            active = active[keep]
            sub = {k: v[keep] for k, v in sub.items()}
            p, cost, lam, resid = p[keep], cost[keep], lam[keep], resid[keep]
            geom = tuple(g[keep] for g in geom)
    return p_out, cost_out, conv_out


def solve_trilateration_batch(
    problem: dict,
    opts: SolverOptions,
    bounds=None,
    hint=None,
    init_problem: dict | None = None,
):
    """Fit positions for a batch of trials; returns (p, cost, converged).

    problem holds per-trial arrays: anchor_pos/anchor_normal/pd_normal of
    shape (T, n, 3), m/coef/rss of shape (T, n), and an optional 0/1
    "weight" masking unused rows. init_problem optionally supplies the
    one-strongest-sample-per-anchor view the linearized init needs.

    The residual landscape can hold shallow spurious minima (notably for
    a symmetric coplanar anchor layout), so the fit is multi-start: the
    linearized init plus the best coarse-grid candidates are all refined
    and the lowest final cost wins. The true solution has zero residual
    in the noiseless case, so it always beats a spurious valley.
    """
    t = problem["anchor_pos"].shape[0]
    init = init_problem if init_problem is not None else problem
    eff_bounds = _solver_bounds(init, bounds)

    # candidate scores on the cheap init view; refinement on the full fit
    starts = [_grid_starts(init, eff_bounds, opts, opts.multistart)]
    if opts.init_strategy == "linearized":
        if hint is None:
            centroid = init["anchor_pos"].mean(axis=1)
            mean_n = init["anchor_normal"].mean(axis=1)
            mean_n = mean_n / np.maximum(np.linalg.norm(mean_n, axis=-1, keepdims=True), 1e-12)
            hint = centroid + 1.5 * mean_n
        p_lin = _init_linearized(
            init["anchor_pos"], init["anchor_normal"], init["m"],
            init["coef"], init["rss"], hint,
        )
        p_lin = np.clip(p_lin, eff_bounds[0], eff_bounds[1])
        starts.append(p_lin[:, None, :])
    cands = np.concatenate(starts, axis=1)  # (T, C, 3)
    n_c = cands.shape[1]

    tiled = {k: np.repeat(v, n_c, axis=0) for k, v in problem.items()}
    p_all, cost_all, conv_all = _lm_iterate(tiled, cands.reshape(t * n_c, 3), opts, eff_bounds)
    p_all = p_all.reshape(t, n_c, 3)
    cost_all = cost_all.reshape(t, n_c)
    conv_all = conv_all.reshape(t, n_c)

    best = np.argmin(cost_all, axis=1)
    rows = np.arange(t)
    return p_all[rows, best], cost_all[rows, best], conv_all[rows, best]


def _pd_world_normal(array: PdArray, pd_index: int) -> np.ndarray:
    return array.pose.rotation @ array.elements[pd_index].normal.as_array()


def rss_trilaterate(
    samples: Sequence[ChannelSample],
    anchors: Sequence[OpticalAnchor],
    array: PdArray,
    opts: SolverOptions | None = None,
    bounds: tuple | None = None,
) -> LocalizationEstimate:
    """Position from the four strongest LoS anchors (known orientation).

    Minimizes sum_i (rss_i - P_t H_i(p))^2 over every line-of-sight
    photodetector sample of the selected anchors; fitting all PDs (rather
    than only each anchor's strongest) makes the position observable even
    for a symmetric coplanar anchor layout. array.pose supplies the known
    receiver orientation while its position is ignored.
    """
    opts = opts or SolverOptions()
    ids = select_top4(samples)
    arrays = link_arrays(sorted(anchors, key=lambda a: a.id), array)
    rss, los = _sample_grid(samples, arrays["ids"], len(array.elements))
    problem, init_problem, _ = top4_problem(arrays, rss, los)
    # the zero-weight rows only pad batches to one width
    keep = problem["weight"][0] > 0.0
    problem = {k: v[:, keep] for k, v in problem.items()}
    p, cost, converged = solve_trilateration_batch(
        problem, opts, bounds, init_problem=init_problem
    )
    if not converged[0]:
        raise NonConvergence("trilateration hit the iteration cap")
    return LocalizationEstimate(Vec3.from_array(p[0]), "rss", float(cost[0]), tuple(ids))


def aoa_direction(samples: Sequence[ChannelSample], array: PdArray) -> Vec3:
    """Unit UE-to-anchor direction from relative PD responses (world frame).

    With co-located PDs every response is r_i = c (u . n_i) G_i A_i for a
    common positive c, so the unnormalized direction follows from a linear
    least-squares fit over the illuminated detectors.
    """
    anchor_ids = {s.anchor_id for s in samples}
    if len(anchor_ids) != 1:
        raise InvalidVector("aoa_direction expects samples from exactly one anchor")
    lit = [s for s in samples if s.los and s.rss_w > 0.0]
    if len(lit) < 3:
        raise InsufficientPds(f"need 3 illuminated PDs, have {len(lit)}")
    rows = []
    rhs = []
    for s in lit:
        elem = array.elements[s.pd_index]
        rows.append(elem.area_m2 * elem.optical_gain * _pd_world_normal(array, s.pd_index))
        rhs.append(s.rss_w)
    mat = np.array(rows)
    if np.linalg.matrix_rank(mat, tol=1e-12 * np.abs(mat).max()) < 3:
        raise DegeneratePdGeometry("PD normals do not span 3-D space")
    w, *_ = np.linalg.lstsq(mat, np.array(rhs), rcond=None)
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise DegeneratePdGeometry("AoA solution degenerated to the zero vector")
    return Vec3.from_array(w / nrm)


def hybrid_rss_aoa(
    samples: Sequence[ChannelSample],
    anchor: OpticalAnchor,
    array: PdArray,
) -> LocalizationEstimate:
    """Single-anchor position: AoA direction plus RSS ranging.

    Distance comes from the strongest PD's power with the emission and
    incidence cosines taken from the estimated direction; the position is
    anchor - d * u.
    """
    mine = [s for s in samples if s.anchor_id == anchor.id]
    lit = [s for s in mine if s.los and s.rss_w > 0.0]
    if not lit:
        raise InvalidMeasurement("no usable RSS from the anchor")
    u = aoa_direction(mine, array)

    best = max(lit, key=lambda s: s.rss_w)
    elem = array.elements[best.pd_index]
    n_pd = _pd_world_normal(array, best.pd_index)
    cos_phi = float(anchor.normal.as_array() @ (-u.as_array()))
    cos_psi = float(u.as_array() @ n_pd)
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        raise InvalidMeasurement("estimated direction is outside the link geometry")
    coef = (
        (anchor.lambertian_m + 1.0)
        * elem.area_m2
        * elem.optical_gain
        * anchor.tx_power_w
        / (2.0 * math.pi)
    )
    d = math.sqrt(coef * cos_phi**anchor.lambertian_m * cos_psi / best.rss_w)
    position = anchor.position - u.scale(d)

    residual = 0.0
    for s in lit:
        elem_i = array.elements[s.pd_index]
        h = float(
            lambertian_gain(
                anchor.position.as_array(),
                anchor.normal.as_array(),
                anchor.lambertian_m,
                position.as_array(),
                _pd_world_normal(array, s.pd_index),
                elem_i.area_m2,
                elem_i.fov_half_angle_rad,
                elem_i.optical_gain,
            )
        )
        residual += (s.rss_w - anchor.tx_power_w * h) ** 2
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
    min_gain: float = 1e-6,
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
    if gains[best] <= min_gain:
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
