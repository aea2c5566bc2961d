import math

import numpy as np
import pytest

from latcsim import (
    ChannelParams,
    CodebookGridSpec,
    Measurement,
    OpticalAnchor,
    RisPanel,
    Vec3,
    angle_between,
    aoa_direction,
    beam_scan_localize,
    codebook_build,
    hybrid_rss_aoa,
    measure,
    pyramid_array,
    rss_trilaterate,
    select_top4,
)
from latcsim.errors import (
    DegeneratePdGeometry,
    InsufficientAnchors,
    InsufficientPds,
    InvalidMeasurement,
    InvalidVector,
    ScanFailed,
)
from latcsim.localization import scan_latency_ms


def meas(rss, ids=None, los=None):
    """Measurement of an (A, P) RSS table; ids default to 0..A-1, every reading LoS."""
    rss = np.asarray(rss, dtype=float)
    ids = np.arange(rss.shape[0]) if ids is None else ids
    return Measurement(ids, rss, np.ones(rss.shape, dtype=bool) if los is None else los)


# --------------------------------------------------------------------------
# top-4 selection
# --------------------------------------------------------------------------


def test_select_top4_ranking():
    uw = 1e-6
    measurement = meas([[r * uw] for r in [5, 4, 3, 2, 1, 0.5]])
    assert select_top4(measurement) == [0, 1, 2, 3]


def test_select_top4_identity_with_four():
    measurement = meas([[3e-6], [1e-6], [2e-6], [4e-6]], ids=[1, 3, 7, 9])
    assert sorted(select_top4(measurement)) == [1, 3, 7, 9]


def test_select_top4_tie_breaks_to_lower_id():
    measurement = meas([[5e-6], [4e-6], [3e-6], [2e-6], [2e-6]], ids=[0, 1, 2, 4, 5])
    assert select_top4(measurement) == [0, 1, 2, 4]


def test_select_top4_uses_max_over_pds():
    rss = [[1e-6, 9e-6], [5e-6, 0.0], [4e-6, 0.0], [3e-6, 0.0]]
    los = [[True, True], [True, False], [True, False], [True, False]]
    assert select_top4(meas(rss, los=los)) == [0, 1, 2, 3]


def test_select_top4_scale_invariant():
    rng = np.random.default_rng(8)
    measurement = meas([[float(rng.uniform(0.1, 5.0)) * 1e-6 for p in range(3)] for i in range(6)])
    base = select_top4(measurement)
    scaled = Measurement(measurement.anchor_ids, measurement.rss_w * 37.5, measurement.los)
    assert select_top4(scaled) == base


def test_select_top4_insufficient():
    measurement = meas([[1e-6]] * 4, los=[[True], [True], [True], [False]])
    with pytest.raises(InsufficientAnchors):
        select_top4(measurement)


# --------------------------------------------------------------------------
# trilateration
# --------------------------------------------------------------------------


def square_anchors(m=1.0, power=1.0, z=3.0):
    spots = [(2.0, 1.0), (6.0, 1.0), (2.0, 5.0), (6.0, 5.0)]
    return [OpticalAnchor(i, Vec3(x, y, z), Vec3(0, 0, -1), m, power) for i, (x, y) in enumerate(spots)]


def forward_measurement(anchors, ue):
    """Noiseless forward model for a point receiver (the test oracle)."""
    from latcsim.channel import los_gain

    rss = np.zeros((len(anchors), len(ue.elements)))
    normals = ue.world_normals()
    for ai, a in enumerate(anchors):
        for pi, elem in enumerate(ue.elements):
            h = los_gain(
                a,
                {
                    "position": ue.pose.position,
                    "normal": Vec3.from_array(normals[pi]),
                    "area_m2": elem.area_m2,
                    "fov_half_angle_rad": elem.fov_half_angle_rad,
                    "optical_gain": elem.optical_gain,
                },
            )
            rss[ai, pi] = a.tx_power_w * h
    return Measurement([a.id for a in anchors], rss, rss > 0.0)


def test_trilaterate_recovers_noiseless_position():
    anchors = square_anchors()
    true = Vec3(2.0, 1.5, 0.8)
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_measurement(anchors, ue), anchors, ue)
    assert (est.position - true).norm() < 1e-6
    assert est.residual_w2 <= 1e-18
    assert est.method == "rss"
    assert sorted(est.anchors_used) == [0, 1, 2, 3]


def test_trilaterate_centroid_symmetric():
    anchors = square_anchors()
    true = Vec3(4.0, 3.0, 0.8)  # centroid of the square
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_measurement(anchors, ue), anchors, ue)
    assert (est.position - true).norm() < 1e-8


def test_trilaterate_insufficient_anchors():
    anchors = square_anchors()[:3]
    ue = pyramid_array(Vec3(3.0, 2.0, 0.8))
    with pytest.raises(InsufficientAnchors):
        rss_trilaterate(forward_measurement(anchors, ue), anchors, ue)


@pytest.mark.parametrize(
    "m, true",
    [
        # symmetric coplanar case: the grid starts alone land 1.985 m off
        (1.0, Vec3(4.0, 3.0, 1.5)),
        # the linearized start alone lands 2.37 m off
        (0.5, Vec3(1.5, 2.0, 0.8)),
    ],
    ids=["coplanar-centroid", "off-centre"],
)
def test_trilaterate_needs_both_start_kinds(m, true):
    """Each case is solved only from the start kind the other one lacks."""
    anchors = square_anchors(m=m)
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_measurement(anchors, ue), anchors, ue)
    assert (est.position - true).norm() < 1e-6


def test_trilaterate_rejects_unknown_anchor(default_scene):
    ue = pyramid_array(Vec3(3.0, 2.0, 0.8))
    measurement = measure(default_scene, ue, ChannelParams(k_ratio=math.inf, noise_std_w=0.0))
    known = default_scene.anchors[:6]
    missing = sorted(set(measurement.anchor_ids.tolist()) - {a.id for a in known})
    with pytest.raises(InvalidVector, match=f"unknown anchor {missing[0]}"):
        rss_trilaterate(measurement, known, ue)


def test_model_gradient_matches_numeric():
    """Analytic Jacobian of the forward power model vs central differences."""
    from latcsim.localization import _model_gradient, _model_power

    rng = np.random.default_rng(12)
    anchor_pos = rng.uniform(0, 5, (3, 4, 3)) + np.array([0, 0, 3.0])
    anchor_normal = rng.normal(size=(3, 4, 3))
    anchor_normal /= np.linalg.norm(anchor_normal, axis=-1, keepdims=True)
    pd_normal = rng.normal(size=(3, 4, 3))
    pd_normal /= np.linalg.norm(pd_normal, axis=-1, keepdims=True)
    # keep geometry on the emitting/receiving side
    anchor_normal[..., 2] = -np.abs(anchor_normal[..., 2]) - 0.5
    anchor_normal /= np.linalg.norm(anchor_normal, axis=-1, keepdims=True)
    pd_normal[..., 2] = np.abs(pd_normal[..., 2]) + 0.5
    pd_normal /= np.linalg.norm(pd_normal, axis=-1, keepdims=True)
    m = rng.uniform(0.5, 2.5, (3, 4))
    coef = rng.uniform(1e-5, 1e-4, (3, 4))
    p = rng.uniform(1, 4, (3, 3)) * np.array([1, 1, 0.3])
    # the model takes coordinate-first (3, T, n) planes and (3, T) points
    anchor_pos, anchor_normal, pd_normal = (
        np.moveaxis(a, -1, 0) for a in (anchor_pos, anchor_normal, pd_normal)
    )
    p = p.T

    power, geom = _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef)
    grad = _model_gradient(power, geom, anchor_normal, pd_normal, m)
    eps = 1e-7
    for ax in range(3):
        dp = np.zeros((3, 1))
        dp[ax] = eps
        hi, _ = _model_power(p + dp, anchor_pos, anchor_normal, pd_normal, m, coef)
        lo, _ = _model_power(p - dp, anchor_pos, anchor_normal, pd_normal, m, coef)
        numeric = (hi - lo) / (2 * eps)
        assert np.allclose(grad[ax], numeric, rtol=1e-5, atol=1e-12)


# --------------------------------------------------------------------------
# AoA and the hybrid method
# --------------------------------------------------------------------------


def test_aoa_symmetric_overhead():
    anchor = OpticalAnchor(0, Vec3(2.0, 3.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(2.0, 3.0, 0.8))
    u = aoa_direction(forward_measurement([anchor], ue), anchor.id, ue)
    assert angle_between(u, Vec3(0, 0, 1)) < 1e-9


def test_aoa_exact_direction_arbitrary_geometry():
    anchor = OpticalAnchor(4, Vec3(5.5, 1.2, 3.0), Vec3(0, 0, -1), 1.5, 0.8)
    true = Vec3(3.1, 2.7, 0.8)
    ue = pyramid_array(true)
    u = aoa_direction(forward_measurement([anchor], ue), anchor.id, ue)
    assert angle_between(u, (anchor.position - true).unit()) < 1e-9


def test_aoa_insufficient_pds():
    ue = pyramid_array(Vec3(0, 0, 0.8))
    los = [[True, False, False, False, False]]
    with pytest.raises(InsufficientPds):
        aoa_direction(meas([[1e-6, 0.0, 0.0, 0.0, 0.0]], los=los), 0, ue)


def test_aoa_degenerate_normals():
    from latcsim.channel import PdArray, PdElement
    from latcsim.geometry import Pose

    elems = tuple(
        PdElement(Vec3(0, 0, 0), Vec3(0, 0, 1), 1e-4, math.radians(70)) for _ in range(3)
    )
    flat = PdArray(Pose.facing_up(Vec3(1, 1, 0.8)), elems)
    with pytest.raises(DegeneratePdGeometry):
        aoa_direction(meas([[1e-6] * 3]), 0, flat)


def test_aoa_scale_invariant():
    anchor = OpticalAnchor(2, Vec3(4.2, 4.8, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(3.0, 3.5, 0.8))
    measurement = forward_measurement([anchor], ue)
    u1 = aoa_direction(measurement, anchor.id, ue)
    scaled = Measurement(measurement.anchor_ids, 11.0 * measurement.rss_w, measurement.los)
    u2 = aoa_direction(scaled, anchor.id, ue)
    assert angle_between(u1, u2) < 1e-12


def test_hybrid_recovers_single_anchor_position():
    anchor = OpticalAnchor(0, Vec3(2.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    true = Vec3(1.0, 3.0, 0.8)
    ue = pyramid_array(true)
    est = hybrid_rss_aoa(forward_measurement([anchor], ue), anchor, ue)
    assert (est.position - true).norm() < 1e-6
    assert est.residual_w2 <= 1e-18
    assert est.method == "rss_aoa"
    assert est.anchors_used == (0,)


def test_hybrid_error_grows_with_nlos(default_scene):
    """Paired comparison: K=50 errs more than K=inf with the same draws."""
    true = Vec3(2.2, 2.4, 0.8)
    ue = pyramid_array(true)
    errs = {}
    for k in (math.inf, 50.0):
        params = ChannelParams(k_ratio=k, noise_std_w=0.0, seed=21)
        measurement = measure(default_scene, ue, params)
        anchor = default_scene.anchor(measurement.strongest_los_anchor())
        est = hybrid_rss_aoa(measurement, anchor, ue)
        errs[k] = (est.position - true).norm()
    assert errs[50.0] > errs[math.inf]


def test_hybrid_all_zero_rss():
    anchor = OpticalAnchor(0, Vec3(2.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(1, 1, 0.8))
    with pytest.raises(InvalidMeasurement):
        hybrid_rss_aoa(meas(np.zeros((1, 5)), los=np.zeros((1, 5), dtype=bool)), anchor, ue)


# --------------------------------------------------------------------------
# beam scanning
# --------------------------------------------------------------------------


def _scan_scene():
    from latcsim.geometry import Box, Room
    from latcsim.scene import Scene

    p = RisPanel(0, Vec3(0, 3, 1.5), Vec3(0, 1, 0), Vec3(0, 0, 1), 16, 16)
    room = Room(Box(Vec3(0, 0, 0), Vec3(8, 6, 3)))
    anchors = square_anchors()
    scene = Scene(room, tuple(anchors), (p,), Vec3(4, 3, 2.8))
    grid = CodebookGridSpec(-40, 40, 2.0, -20, 0, 2.0)
    cb = codebook_build(p, (p.center - scene.ap).unit(), grid)
    return scene, p, cb


def test_beam_scan_on_codebook_direction():
    scene, p, cb = _scan_scene()
    # receiver placed exactly along the az=10, el=-8 entry at 4 m
    from latcsim.ris import direction_from_azel

    d = direction_from_azel(p, math.radians(10), math.radians(-8))
    true = Vec3.from_array(p.center.as_array() + 4.0 * d)
    ue = pyramid_array(true)
    est, latency = beam_scan_localize(scene, p, cb, ue, dwell_ms=1.0)
    est_dir = (est.position - p.center).unit()
    assert math.degrees(angle_between(est_dir, Vec3.from_array(d))) <= 1.0  # half grid step
    assert est.method == "beam_scan"
    assert latency == len(cb.beamsteer_entries()) * 1.0
    assert scan_latency_ms(cb, 2.5) == len(cb.beamsteer_entries()) * 2.5


def test_beam_scan_estimate_on_height_plane():
    scene, p, cb = _scan_scene()
    true = Vec3(3.5, 2.0, 0.8)
    ue = pyramid_array(true)
    est, _ = beam_scan_localize(scene, p, cb, ue)
    assert est.position.z == pytest.approx(0.8, abs=1e-12)
    # accuracy is grid-limited in angle; ranging along a shallow ray
    # amplifies the elevation quantization
    est_dir = (est.position - p.center).unit()
    true_dir = (true - p.center).unit()
    assert math.degrees(angle_between(est_dir, true_dir)) <= 1.5  # half grid diagonal
    assert (est.position - true).norm() < 0.6


def test_beam_scan_occluded_fails():
    from latcsim.geometry import Box
    from latcsim.scene import Scene

    scene, p, cb = _scan_scene()
    wall = Box(Vec3(1.0, 0.0, 0.0), Vec3(1.2, 6.0, 3.0))
    blocked = Scene(scene.room.with_obstacles((wall,)), scene.anchors, scene.panels, scene.ap)
    ue = pyramid_array(Vec3(3.5, 3.0, 0.8))
    with pytest.raises(ScanFailed):
        beam_scan_localize(blocked, p, cb, ue)


# --------------------------------------------------------------------------
# batched engine equals the scalar path
# --------------------------------------------------------------------------


def test_batch_measurement_matches_measure(default_scene, default_scenario):
    """The batched sampler follows the channel model draw for draw, and
    measure() is its single-trial case."""
    from latcsim.channel import link_arrays, los_gain, rss_batch
    from latcsim.geometry import occlusion_matrix

    arrays = link_arrays(default_scene.anchors, default_scenario.receiver.array_at(Vec3(0, 0, 0)))
    rng = np.random.default_rng(77)
    t_n = 16
    positions = np.column_stack(
        [rng.uniform(1, 7, t_n), rng.uniform(1, 5, t_n), np.full(t_n, 0.8)]
    )
    a_n, p_n = arrays["anchor_pos"].shape[0], arrays["pd_normal"].shape[0]
    seeds = rng.integers(0, 2**62, t_n)
    k = 40.0
    noise_std = 1e-9

    u = np.empty((t_n, a_n, p_n))
    nn = np.empty((t_n, a_n, p_n))
    for t in range(t_n):
        gen = np.random.default_rng(int(seeds[t]))
        u[t] = gen.random((a_n, p_n))
        nn[t] = gen.normal(0.0, noise_std, (a_n, p_n))
    blocked = occlusion_matrix(default_scene.room, positions, arrays["anchor_pos"])
    assert not blocked.any()  # the default room has no obstacles
    rss, los, _ = rss_batch(arrays, positions, k, u, nn, blocked)

    for t in range(t_n):
        ue = default_scenario.receiver.array_at(Vec3.from_array(positions[t]))
        normals = ue.world_normals()
        params = ChannelParams(k_ratio=k, noise_std_w=noise_std, seed=int(seeds[t]))
        measurement = measure(default_scene, ue, params)
        assert np.array_equal(measurement.anchor_ids, arrays["ids"])
        assert np.array_equal(measurement.rss_w, rss[t])
        assert np.array_equal(measurement.los, los[t])
        for ai, pi in np.ndindex(a_n, p_n):
            # reference: closed-form gain, exponential NLoS by inversion, noise
            anchor = default_scene.anchors[ai]
            elem = ue.elements[pi]
            h = los_gain(
                anchor,
                {
                    "position": ue.pose.position,
                    "normal": Vec3.from_array(normals[pi]),
                    "area_m2": elem.area_m2,
                    "fov_half_angle_rad": elem.fov_half_angle_rad,
                    "optical_gain": elem.optical_gain,
                },
            )
            p_los = anchor.tx_power_w * h
            signal = p_los - (p_los / k) * math.log1p(-u[t, ai, pi]) if h > 0.0 else 0.0
            expected = max(0.0, signal + nn[t, ai, pi])
            assert rss[t, ai, pi] == pytest.approx(expected, abs=1e-22)
            assert bool(los[t, ai, pi]) == (h > 0.0)


def _axis_interval(p0, d, lo, hi):
    # Parameter interval where lo < p0 + t*d < hi (open). Empty -> (1, 0).
    if d == 0.0:
        return (-math.inf, math.inf) if lo < p0 < hi else (1.0, 0.0)
    t1 = (lo - p0) / d
    t2 = (hi - p0) / d
    return (t1, t2) if t1 < t2 else (t2, t1)


def _slab_occluded(a, b, room):
    """Reference occlusion: one segment, one obstacle and one axis at a time."""
    d = b - a
    for obs in room.obstacles:
        t_lo, t_hi = 0.0, 1.0
        for p0, dd, lo, hi in (
            (a.x, d.x, obs.lo.x, obs.hi.x),
            (a.y, d.y, obs.lo.y, obs.hi.y),
            (a.z, d.z, obs.lo.z, obs.hi.z),
        ):
            t1, t2 = _axis_interval(p0, dd, lo, hi)
            t_lo = max(t_lo, t1)
            t_hi = min(t_hi, t2)
        # touching a face yields a zero-width interval
        if t_lo < t_hi:
            return True
    return False


def test_blocked_matrix_matches_segment_occluded(default_scenario):
    """Batched slab occlusion agrees with a per-segment reference, obstacles included."""
    from latcsim.channel import link_arrays
    from latcsim.geometry import Box, occlusion_matrix, segment_occluded
    from latcsim.scenario import build_scene

    obstacles = (
        Box(Vec3(3.0, 2.0, 0.0), Vec3(5.0, 4.0, 2.0)),
        Box(Vec3(1.0, 0.5, 1.4), Vec3(1.4, 5.5, 1.6)),
    )
    scene = build_scene(default_scenario, obstacles)
    arrays = link_arrays(scene.anchors, default_scenario.receiver.array_at(Vec3(0, 0, 0)))
    rng = np.random.default_rng(63)
    t_n = 60
    positions = np.column_stack(
        [rng.uniform(0.2, 7.8, t_n), rng.uniform(0.2, 5.8, t_n), rng.uniform(0.2, 2.8, t_n)]
    )
    # axis-parallel segments (a coordinate shared with an anchor) and
    # endpoints on obstacle face planes
    positions[:10, 0] = 2.0
    positions[10:20, 1] = 1.0
    positions[20:30, 2] = 2.0
    positions[30:40, 0] = 1.4
    blocked = occlusion_matrix(scene.room, positions, arrays["anchor_pos"])
    for t in range(t_n):
        p = Vec3.from_array(positions[t])
        for ai, anchor in enumerate(scene.anchors):
            expected = _slab_occluded(anchor.position, p, scene.room)
            assert bool(blocked[t, ai]) == expected
            assert segment_occluded(anchor.position, p, scene.room) == expected


def _sampled_problems(scene, scenario, t_n, seed):
    """Top-4 problems for t_n random default-room trials at K = 80.

    Returns (problem, init_problem, valid, positions, per-trial seeds);
    trial t draws its channel exactly as measure() does with seeds[t].
    """
    from latcsim.channel import link_arrays, rss_batch
    from latcsim.geometry import occlusion_matrix
    from latcsim.localization import top4_problem

    arrays = link_arrays(scene.anchors, scenario.receiver.array_at(Vec3(0, 0, 0)))
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [rng.uniform(1.5, 6.5, t_n), rng.uniform(1.5, 4.5, t_n), np.full(t_n, 0.8)]
    )
    seeds = rng.integers(0, 2**62, t_n)
    a_n, p_n = arrays["anchor_pos"].shape[0], arrays["pd_normal"].shape[0]
    u = np.empty((t_n, a_n, p_n))
    nn = np.empty((t_n, a_n, p_n))
    for t in range(t_n):
        gen = np.random.default_rng(int(seeds[t]))
        u[t] = gen.random((a_n, p_n))
        nn[t] = gen.normal(0.0, 1e-9, (a_n, p_n))
    blocked = occlusion_matrix(scene.room, positions, arrays["anchor_pos"])
    rss, los, _ = rss_batch(arrays, positions, 80.0, u, nn, blocked)
    return (*top4_problem(arrays, rss, los), positions, seeds)


def test_batch_solver_matches_scalar_estimates(default_scene, default_scenario):
    from latcsim.localization import solve_trilateration_batch

    t_n = 8
    problem, init_problem, valid, positions, seeds = _sampled_problems(
        default_scene, default_scenario, t_n, 31
    )
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    p_batch, _, conv = solve_trilateration_batch(problem, init_problem, bounds)
    assert valid.all() and conv.all()

    for t in range(t_n):
        ue = default_scenario.receiver.array_at(Vec3.from_array(positions[t]))
        params = ChannelParams(k_ratio=80.0, noise_std_w=1e-9, seed=int(seeds[t]))
        measurement = measure(default_scene, ue, params)
        est = rss_trilaterate(measurement, default_scene.anchors, ue, bounds=bounds)
        assert np.linalg.norm(est.position.as_array() - p_batch[t]) < 1e-6


# --------------------------------------------------------------------------
# grid-start scoring
# --------------------------------------------------------------------------


def _grid_starts_pointwise(problem, bounds, n_starts):
    """Reference scorer: one cost evaluation per grid point."""
    from latcsim.localization import (
        _GRID_POINTS_XY,
        _GRID_POINTS_Z,
        _grid_candidates,
        _weighted_cost,
    )

    grid = _grid_candidates(bounds[0], bounds[1], _GRID_POINTS_XY, _GRID_POINTS_Z)
    t = problem["rss"].shape[0]
    costs = np.empty((t, grid.shape[1]))
    for gi, g in enumerate(grid.T):
        costs[:, gi] = _weighted_cost(problem, np.broadcast_to(g[:, None], (3, t)))[0]
    n_starts = min(n_starts, grid.shape[1])
    top = np.argpartition(costs, n_starts - 1, axis=1)[:, :n_starts]
    return grid[:, top]


@pytest.mark.parametrize(
    "t_n, view",
    [(1, "init"), (37, "init"), (200, "init"), (37, "weighted")],
)
def test_grid_starts_match_pointwise_loop(default_scene, default_scenario, t_n, view):
    """Blocked grid scoring picks bitwise the same starts as scoring each
    grid point on its own, including when blocks do not divide the grid."""
    from latcsim.localization import (
        _GRID_POINTS_XY,
        _GRID_POINTS_Z,
        _MULTISTART,
        _grid_starts,
        _solver_bounds,
    )

    problem, init_problem, _, _, _ = _sampled_problems(
        default_scene, default_scenario, t_n, 7 + t_n
    )
    prob = init_problem if view == "init" else problem
    assert ("weight" in prob) == (view == "weighted")
    bounds = _solver_bounds(prob, None)
    n_grid = _GRID_POINTS_XY**2 * _GRID_POINTS_Z
    for n_starts in (1, _MULTISTART, n_grid):
        expected = _grid_starts_pointwise(prob, bounds, n_starts)
        assert np.array_equal(_grid_starts(prob, bounds, n_starts), expected)


def test_single_trial_grid_starts_take_one_cost_evaluation(
    default_scene, default_scenario, monkeypatch
):
    from latcsim import localization

    _, init_problem, _, _, _ = _sampled_problems(default_scene, default_scenario, 1, 5)
    calls = []
    cost = localization._weighted_cost

    def counted(*args, **kwargs):
        calls.append(1)
        return cost(*args, **kwargs)

    monkeypatch.setattr(localization, "_weighted_cost", counted)
    bounds = localization._solver_bounds(init_problem, None)
    localization._grid_starts(init_problem, bounds, 2)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# LM step: closed-form normal equations on coordinate planes
# --------------------------------------------------------------------------


def lm_step_reference(jac, resid, lam):
    """The step on a (T, n, 3) Jacobian: einsum normal equations, np.linalg.solve."""
    jtj = np.einsum("tia,tib->tab", jac, jac)
    jtr = np.einsum("tia,ti->ta", jac, resid)
    diag = np.einsum("taa->ta", jtj)
    ridge = 1e-12 * diag.max(axis=-1) + 1e-300
    eye = np.eye(3)
    amat = jtj + lam[:, None, None] * diag[:, None, :] * eye + ridge[:, None, None] * eye
    return np.linalg.solve(amat, -jtr[..., None])[..., 0]


@pytest.mark.parametrize("lam", [1e-12, 1e-3, 1.0, 1e4])
def test_lm_step_matches_reference(default_scene, default_scenario, lam):
    """The plane-layout step agrees with the reference to 1e-10 relative, at
    the true positions, perturbed ones and the best grid starts."""
    from latcsim.localization import _grid_starts, _lm_evaluate, _lm_step, _solver_bounds

    t_n = 60
    problem, init_problem, valid, positions, _ = _sampled_problems(
        default_scene, default_scenario, t_n, 3
    )
    assert valid.all()
    rng = np.random.default_rng(4)
    starts = _grid_starts(init_problem, _solver_bounds(init_problem, None), 1)[..., 0]
    lam_t = np.full(t_n, lam)
    for p in (positions.T, positions.T + rng.normal(0.0, 0.3, (3, t_n)), starts):
        _, jr = _lm_evaluate(problem, p)
        got = _lm_step(jr, lam_t)
        ref = lm_step_reference(np.moveaxis(jr[:3], 0, -1), jr[3], lam_t).T
        rel = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
        assert rel.max() <= 1e-10


def _spd_systems(rng, t_n, smallest):
    """t_n random 3x3 SPD matrices with eigenvalues 1, U(0.1, 10) and smallest."""
    q, _ = np.linalg.qr(rng.normal(size=(t_n, 3, 3)))
    eig = np.column_stack([np.ones(t_n), rng.uniform(0.1, 10.0, t_n), np.full(t_n, smallest)])
    amat = (q * eig[:, None, :]) @ np.swapaxes(q, 1, 2)
    amat = 0.5 * (amat + np.swapaxes(amat, 1, 2))
    six = tuple(amat[:, i, j] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
    return amat, six, rng.normal(size=(t_n, 3)), eig.min(axis=1)


def test_solve_sym3_matches_linalg_solve():
    """The written-out LDL^T solve against np.linalg.solve: tight on well
    conditioned systems, within the conditioning bound on nearly singular
    ones, and the pivot floor does not bind above the smallest eigenvalue."""
    from latcsim.localization import _solve_sym3

    rng = np.random.default_rng(8)
    for smallest, tol in ((0.5, 1e-12), (1e-10, 1e-4)):
        amat, six, b, eig_min = _spd_systems(rng, 500, smallest)
        ref = np.linalg.solve(amat, b[..., None])[..., 0]
        got = _solve_sym3(six, b.T, 1e-300).T
        rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= tol
        # backward error stays at rounding level however bad the conditioning
        resid = np.einsum("tij,tj->ti", amat, got) - b
        assert np.abs(resid).max() <= 1e-12 * np.abs(got).max()
        floored = _solve_sym3(six, b.T, 0.5 * eig_min).T
        assert np.array_equal(floored, got)


def test_lm_step_rank_deficient_is_finite():
    """Anchors collinear with the UE give a rank-one J^T J; the step stays
    finite and warning-free, agrees with the reference within what that
    conditioning allows, and a zero Jacobian gives a zero step."""
    import warnings

    from latcsim.localization import _lm_evaluate, _lm_step, _solve_sym3

    ue = np.array([4.0, 3.0, 0.8])
    u = np.array([0.3, 0.2, 1.0]) / np.linalg.norm([0.3, 0.2, 1.0])
    reach = np.array([1.2, 1.6, 1.9, 2.1])
    n = reach.size
    problem = {
        "anchor_pos": (ue[:, None] + u[:, None] * reach)[:, None, :],
        "anchor_normal": np.broadcast_to(-u[:, None, None], (3, 1, n)),
        "pd_normal": np.broadcast_to(u[:, None, None], (3, 1, n)),
        "m": np.ones((1, n)),
        "coef": np.full((1, n), 1e-5),
        "rss": np.array([[1.1e-5, 4.0e-6, 3.1e-6, 2.5e-6]]),
        "weight": np.ones((1, n)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, jr = _lm_evaluate(problem, ue[:, None])
        for lam in (1e-12, 1e-3, 1e15):
            step = _lm_step(jr, np.array([lam]))[:, 0]
            ref = lm_step_reference(np.moveaxis(jr[:3], 0, -1), jr[3], np.array([lam]))[0]
            assert np.isfinite(step).all()
            assert np.linalg.norm(step - ref) <= 1e-3 * np.linalg.norm(ref)
        step = _lm_step(np.zeros_like(jr), np.array([1e-3]))
        # a singular matrix: the floor keeps each rounded pivot positive
        w = np.array([0.1, 0.2, 0.3])
        six = tuple(np.array([w[i] * w[j]]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
        assert np.isfinite(_solve_sym3(six, np.ones((3, 1)), 1e-12)).all()
    assert np.array_equal(step, np.zeros((3, 1)))
