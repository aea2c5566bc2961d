import math

import numpy as np
import pytest

from latcsim import (
    ChannelParams,
    ChannelSample,
    CodebookGridSpec,
    OpticalAnchor,
    RisPanel,
    SolverOptions,
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
    ScanFailed,
)
from latcsim.localization import scan_latency_ms


def s(anchor_id, pd, rss, los=True):
    return ChannelSample(anchor_id, pd, rss, los)


# --------------------------------------------------------------------------
# top-4 selection
# --------------------------------------------------------------------------


def test_select_top4_ranking():
    uw = 1e-6
    samples = [s(i, 0, r * uw) for i, r in enumerate([5, 4, 3, 2, 1, 0.5])]
    assert select_top4(samples) == [0, 1, 2, 3]


def test_select_top4_identity_with_four():
    samples = [s(3, 0, 1e-6), s(7, 0, 2e-6), s(1, 0, 3e-6), s(9, 0, 4e-6)]
    assert sorted(select_top4(samples)) == [1, 3, 7, 9]


def test_select_top4_tie_breaks_to_lower_id():
    samples = [s(0, 0, 5e-6), s(1, 0, 4e-6), s(2, 0, 3e-6), s(5, 0, 2e-6), s(4, 0, 2e-6)]
    assert select_top4(samples) == [0, 1, 2, 4]


def test_select_top4_uses_max_over_pds():
    samples = [s(0, 0, 1e-6), s(0, 1, 9e-6), s(1, 0, 5e-6), s(2, 0, 4e-6), s(3, 0, 3e-6)]
    assert select_top4(samples) == [0, 1, 2, 3]


def test_select_top4_scale_invariant():
    rng = np.random.default_rng(8)
    samples = [s(i, p, float(rng.uniform(0.1, 5.0)) * 1e-6) for i in range(6) for p in range(3)]
    base = select_top4(samples)
    scaled = [ChannelSample(x.anchor_id, x.pd_index, x.rss_w * 37.5, x.los) for x in samples]
    assert select_top4(scaled) == base


def test_select_top4_insufficient():
    samples = [s(0, 0, 1e-6), s(1, 0, 1e-6), s(2, 0, 1e-6), s(3, 0, 1e-6, los=False)]
    with pytest.raises(InsufficientAnchors):
        select_top4(samples)


# --------------------------------------------------------------------------
# trilateration
# --------------------------------------------------------------------------


def square_anchors(m=1.0, power=1.0, z=3.0):
    spots = [(2.0, 1.0), (6.0, 1.0), (2.0, 5.0), (6.0, 5.0)]
    return [OpticalAnchor(i, Vec3(x, y, z), Vec3(0, 0, -1), m, power) for i, (x, y) in enumerate(spots)]


def forward_samples(anchors, ue):
    """Noiseless forward model for a point receiver (the test oracle)."""
    from latcsim.channel import los_gain

    out = []
    normals = ue.world_normals()
    for a in anchors:
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
            out.append(ChannelSample(a.id, pi, a.tx_power_w * h, h > 0.0))
    return out


def test_trilaterate_recovers_noiseless_position():
    anchors = square_anchors()
    true = Vec3(2.0, 1.5, 0.8)
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_samples(anchors, ue), anchors, ue)
    assert (est.position - true).norm() < 1e-6
    assert est.residual_w2 <= 1e-18
    assert est.method == "rss"
    assert sorted(est.anchors_used) == [0, 1, 2, 3]


def test_trilaterate_centroid_symmetric():
    anchors = square_anchors()
    true = Vec3(4.0, 3.0, 0.8)  # centroid of the square
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_samples(anchors, ue), anchors, ue)
    assert (est.position - true).norm() < 1e-8


def test_trilaterate_insufficient_anchors():
    anchors = square_anchors()[:3]
    ue = pyramid_array(Vec3(3.0, 2.0, 0.8))
    with pytest.raises(InsufficientAnchors):
        rss_trilaterate(forward_samples(anchors, ue), anchors, ue)


def test_trilaterate_grid_init_strategy():
    anchors = square_anchors()
    true = Vec3(5.0, 2.0, 0.8)
    ue = pyramid_array(true)
    opts = SolverOptions(init_strategy="grid")
    est = rss_trilaterate(forward_samples(anchors, ue), anchors, ue, opts)
    assert (est.position - true).norm() < 1e-6


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

    _, geom = _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef)
    grad = _model_gradient(geom, anchor_normal, pd_normal, m, coef)
    eps = 1e-7
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = eps
        hi, _ = _model_power(p + dp, anchor_pos, anchor_normal, pd_normal, m, coef)
        lo, _ = _model_power(p - dp, anchor_pos, anchor_normal, pd_normal, m, coef)
        numeric = (hi - lo) / (2 * eps)
        assert np.allclose(grad[..., ax], numeric, rtol=1e-5, atol=1e-12)


# --------------------------------------------------------------------------
# AoA and the hybrid method
# --------------------------------------------------------------------------


def test_aoa_symmetric_overhead():
    anchor = OpticalAnchor(0, Vec3(2.0, 3.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(2.0, 3.0, 0.8))
    samples = [x for x in forward_samples([anchor], ue)]
    u = aoa_direction(samples, ue)
    assert angle_between(u, Vec3(0, 0, 1)) < 1e-9


def test_aoa_exact_direction_arbitrary_geometry():
    anchor = OpticalAnchor(4, Vec3(5.5, 1.2, 3.0), Vec3(0, 0, -1), 1.5, 0.8)
    true = Vec3(3.1, 2.7, 0.8)
    ue = pyramid_array(true)
    samples = forward_samples([anchor], ue)
    u = aoa_direction(samples, ue)
    assert angle_between(u, (anchor.position - true).unit()) < 1e-9


def test_aoa_insufficient_pds():
    samples = [s(0, 0, 1e-6), s(0, 1, 0.0, los=False), s(0, 2, 0.0, los=False)]
    ue = pyramid_array(Vec3(0, 0, 0.8))
    with pytest.raises(InsufficientPds):
        aoa_direction(samples, ue)


def test_aoa_degenerate_normals():
    from latcsim.channel import PdArray, PdElement
    from latcsim.geometry import Pose

    elems = tuple(
        PdElement(Vec3(0, 0, 0), Vec3(0, 0, 1), 1e-4, math.radians(70)) for _ in range(3)
    )
    flat = PdArray(Pose.facing_up(Vec3(1, 1, 0.8)), elems)
    samples = [s(0, i, 1e-6) for i in range(3)]
    with pytest.raises(DegeneratePdGeometry):
        aoa_direction(samples, flat)


def test_aoa_scale_invariant():
    anchor = OpticalAnchor(2, Vec3(4.2, 4.8, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(3.0, 3.5, 0.8))
    samples = forward_samples([anchor], ue)
    u1 = aoa_direction(samples, ue)
    scaled = [ChannelSample(x.anchor_id, x.pd_index, 11.0 * x.rss_w, x.los) for x in samples]
    u2 = aoa_direction(scaled, ue)
    assert angle_between(u1, u2) < 1e-12


def test_hybrid_recovers_single_anchor_position():
    anchor = OpticalAnchor(0, Vec3(2.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    true = Vec3(1.0, 3.0, 0.8)
    ue = pyramid_array(true)
    est = hybrid_rss_aoa(forward_samples([anchor], ue), anchor, ue)
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
        samples = measure(default_scene, ue, params)
        best = max((x for x in samples if x.los), key=lambda x: x.rss_w)
        anchor = default_scene.anchor(best.anchor_id)
        mine = [x for x in samples if x.anchor_id == anchor.id]
        est = hybrid_rss_aoa(mine, anchor, ue)
        errs[k] = (est.position - true).norm()
    assert errs[50.0] > errs[math.inf]


def test_hybrid_all_zero_rss():
    anchor = OpticalAnchor(0, Vec3(2.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(1, 1, 0.8))
    samples = [s(0, i, 0.0, los=False) for i in range(5)]
    with pytest.raises(InvalidMeasurement):
        hybrid_rss_aoa(samples, anchor, ue)


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
        samples = measure(default_scene, ue, params)
        for sample in samples:
            ai = int(np.flatnonzero(arrays["ids"] == sample.anchor_id)[0])
            pi = sample.pd_index
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
            assert rss[t, ai, pi] == pytest.approx(sample.rss_w, abs=1e-22)
            assert bool(los[t, ai, pi]) == sample.los


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
    scene = build_scene(default_scenario, obstacles, build_codebooks=False)
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


def test_batch_solver_matches_scalar_estimates(default_scene, default_scenario):
    from latcsim.channel import link_arrays, rss_batch
    from latcsim.geometry import occlusion_matrix
    from latcsim.localization import solve_trilateration_batch, top4_problem

    arrays = link_arrays(default_scene.anchors, default_scenario.receiver.array_at(Vec3(0, 0, 0)))
    rng = np.random.default_rng(31)
    t_n = 8
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
    blocked = occlusion_matrix(default_scene.room, positions, arrays["anchor_pos"])
    rss, los, _ = rss_batch(arrays, positions, 80.0, u, nn, blocked)
    problem, init_problem, valid = top4_problem(arrays, rss, los)
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    p_batch, _, conv = solve_trilateration_batch(
        problem, SolverOptions(), bounds, init_problem=init_problem
    )
    assert valid.all() and conv.all()

    for t in range(t_n):
        ue = default_scenario.receiver.array_at(Vec3.from_array(positions[t]))
        params = ChannelParams(k_ratio=80.0, noise_std_w=1e-9, seed=int(seeds[t]))
        samples = measure(default_scene, ue, params)
        est = rss_trilaterate(samples, default_scene.anchors, ue, bounds=bounds)
        assert np.linalg.norm(est.position.as_array() - p_batch[t]) < 1e-6
