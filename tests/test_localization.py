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
from latcsim.channel import PdArray, PdElement, link_arrays
from latcsim.errors import (
    DegeneratePdGeometry,
    InsufficientAnchors,
    InsufficientPds,
    InvalidMeasurement,
    ScanFailed,
)
from latcsim.geometry import Pose
from latcsim.localization import scan_latency_ms


def meas(rss, ids=None, los=None):
    """Measurement of an (A, P) RSS table; ids default to 0..A-1, every reading LoS.

    Its link table puts every anchor overhead of P co-located PDs that all face up.
    """
    rss = np.asarray(rss, dtype=float)
    ids = range(rss.shape[0]) if ids is None else ids
    anchors = [OpticalAnchor(i, Vec3(1.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0) for i in ids]
    elem = PdElement(Vec3(0, 0, 1), 1e-4, math.radians(70))
    link = link_arrays(anchors, PdArray(Pose.facing_up(Vec3(1.0, 1.0, 0.8)), (elem,) * rss.shape[1]))
    return Measurement(link, rss, np.ones(rss.shape, dtype=bool) if los is None else los)


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
    scaled = Measurement(measurement.link, measurement.rss_w * 37.5, measurement.los)
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
    return Measurement(link_arrays(anchors, ue), rss, rss > 0.0)


def test_trilaterate_recovers_noiseless_position():
    anchors = square_anchors()
    true = Vec3(2.0, 1.5, 0.8)
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_measurement(anchors, ue))
    assert (est.position - true).norm() < 1e-6
    assert est.residual_w2 <= 1e-18
    assert est.method == "rss"
    assert sorted(est.anchors_used) == [0, 1, 2, 3]


def test_trilaterate_centroid_symmetric():
    anchors = square_anchors()
    true = Vec3(4.0, 3.0, 0.8)  # centroid of the square
    ue = pyramid_array(true)
    est = rss_trilaterate(forward_measurement(anchors, ue))
    assert (est.position - true).norm() < 1e-8


def test_trilaterate_insufficient_anchors():
    anchors = square_anchors()[:3]
    ue = pyramid_array(Vec3(3.0, 2.0, 0.8))
    with pytest.raises(InsufficientAnchors):
        rss_trilaterate(forward_measurement(anchors, ue))


def line_start_of(measurement):
    """The solver's line start for one measurement: ((3,) point, usable)."""
    from latcsim.localization import _line_start, top4_problem

    problem, _ = top4_problem(measurement.link, measurement.rss_w[None], measurement.los[None])
    p0, lined = _line_start(problem)
    return p0[:, 0], bool(lined[0])


@pytest.mark.parametrize(
    "m, true",
    [
        # symmetric coplanar case: refined from the best grid point instead,
        # the fit stops in a spurious valley 1.985 m off
        (1.0, Vec3(4.0, 3.0, 1.5)),
        # off-centre, at m = 0.5
        (0.5, Vec3(1.5, 2.0, 0.8)),
    ],
    ids=["coplanar-centroid", "off-centre"],
)
def test_trilaterate_from_line_start(m, true):
    """Noiseless readings give exact AoA lines, so the one start is already
    the true point, and the fit keeps it."""
    measurement = forward_measurement(square_anchors(m=m), pyramid_array(true))
    p0, lined = line_start_of(measurement)
    assert lined
    assert np.linalg.norm(p0 - true.as_array()) < 1e-6
    est = rss_trilaterate(measurement)
    assert (est.position - true).norm() < 1e-6


@pytest.mark.parametrize(
    "receiver", [{"n_side": 0}, {"tilt_deg": 0.0}], ids=["one-pd", "no-tilt"]
)
def test_trilaterate_without_lines_starts_from_grid(receiver):
    """A receiver whose PDs all face one way gives no AoA line, so the fit
    starts from the best grid point. The anchors form a kite: under a
    rectangle one upward PD cannot tell the true point from a second exact
    solution (sum of squared distances to opposite corners is equal)."""
    true = Vec3(2.0, 1.5, 0.8)
    spots = [(2.0, 1.0), (6.0, 1.5), (2.5, 5.0), (6.0, 4.0)]
    anchors = [OpticalAnchor(i, Vec3(x, y, 3.0), Vec3(0, 0, -1), 1.0, 1.0) for i, (x, y) in enumerate(spots)]
    measurement = forward_measurement(anchors, pyramid_array(true, **receiver))
    assert not line_start_of(measurement)[1]
    est = rss_trilaterate(measurement)
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
    # the model takes coordinate-first (3, T, k) anchor planes, (3, T) points
    # and a leading PD axis, here of length 1: one PD normal per row
    anchor_pos, anchor_normal, pd_normal = (
        np.moveaxis(a, -1, 0) for a in (anchor_pos, anchor_normal, pd_normal)
    )
    pd_normal, coef = pd_normal[:, None], coef[None]
    p = p.T

    power, geom = _model_power(p, anchor_pos, anchor_normal, pd_normal, m, coef)
    grad = power * _model_gradient(geom, anchor_normal, pd_normal, m)
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
    u = aoa_direction(forward_measurement([anchor], ue), anchor.id)
    assert angle_between(u, Vec3(0, 0, 1)) < 1e-9


def test_aoa_exact_direction_arbitrary_geometry():
    anchor = OpticalAnchor(4, Vec3(5.5, 1.2, 3.0), Vec3(0, 0, -1), 1.5, 0.8)
    true = Vec3(3.1, 2.7, 0.8)
    ue = pyramid_array(true)
    u = aoa_direction(forward_measurement([anchor], ue), anchor.id)
    assert angle_between(u, (anchor.position - true).unit()) < 1e-9


def test_aoa_insufficient_pds():
    los = [[True, False, False, False, False]]
    with pytest.raises(InsufficientPds):
        aoa_direction(meas([[1e-6, 0.0, 0.0, 0.0, 0.0]], los=los), 0)


def test_aoa_degenerate_normals():
    # the three PDs of meas all face up
    with pytest.raises(DegeneratePdGeometry):
        aoa_direction(meas([[1e-6] * 3]), 0)


def test_aoa_scale_invariant():
    anchor = OpticalAnchor(2, Vec3(4.2, 4.8, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    ue = pyramid_array(Vec3(3.0, 3.5, 0.8))
    measurement = forward_measurement([anchor], ue)
    u1 = aoa_direction(measurement, anchor.id)
    scaled = Measurement(measurement.link, 11.0 * measurement.rss_w, measurement.los)
    u2 = aoa_direction(scaled, anchor.id)
    assert angle_between(u1, u2) < 1e-12


def test_hybrid_recovers_single_anchor_position():
    anchor = OpticalAnchor(0, Vec3(2.0, 1.0, 3.0), Vec3(0, 0, -1), 1.0, 1.0)
    true = Vec3(1.0, 3.0, 0.8)
    ue = pyramid_array(true)
    est = hybrid_rss_aoa(forward_measurement([anchor], ue), anchor.id)
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
        est = hybrid_rss_aoa(measurement, measurement.strongest_los_anchor())
        errs[k] = (est.position - true).norm()
    assert errs[50.0] > errs[math.inf]


def test_hybrid_all_zero_rss():
    with pytest.raises(InvalidMeasurement):
        hybrid_rss_aoa(meas(np.zeros((1, 5)), los=np.zeros((1, 5), dtype=bool)), 0)


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
    assert latency == len(cb.azimuth_rad) * 1.0
    assert scan_latency_ms(cb, 2.5) == len(cb.azimuth_rad) * 2.5


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
    rss, los = rss_batch(arrays, positions, k, u, nn, blocked)

    for t in range(t_n):
        ue = default_scenario.receiver.array_at(Vec3.from_array(positions[t]))
        normals = ue.world_normals()
        params = ChannelParams(k_ratio=k, noise_std_w=noise_std, seed=int(seeds[t]))
        measurement = measure(default_scene, ue, params)
        assert measurement.link.keys() == arrays.keys()
        assert all(np.array_equal(measurement.link[k], arrays[k]) for k in arrays)
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


def test_shared_gain_draw_matches_rss_batch(default_scene, default_scenario):
    """los_power once per m and draw_rss per K, with log1p(-u) taken once,
    give rss_batch's bytes at every (K, m) point, K = inf and a repeated
    m value included."""
    from latcsim.channel import draw_rss, link_arrays, los_power, rss_batch
    from latcsim.geometry import Box, occlusion_matrix
    from latcsim.scenario import build_scene

    scene = build_scene(default_scenario, (Box(Vec3(3.0, 2.0, 0.0), Vec3(5.0, 4.0, 2.0)),))
    arrays = link_arrays(scene.anchors, default_scenario.receiver.array_at(Vec3(0, 0, 0)))
    rng = np.random.default_rng(71)
    t_n = 50
    positions = np.column_stack([rng.uniform(0.5, 7.5, t_n), rng.uniform(0.5, 5.5, t_n), np.full(t_n, 0.8)])
    shape = (t_n,) + arrays["anchor_pos"].shape[:1] + arrays["pd_normal"].shape[:1]
    u, noise = rng.random(shape), rng.normal(0.0, 1e-9, shape)
    blocked = occlusion_matrix(scene.room, positions, arrays["anchor_pos"])
    assert blocked.any()
    log_u = np.log1p(-u)
    for m in (0.5, 1.0, 2.0, 1.0):
        arrays_m = {**arrays, "m": np.full_like(arrays["m"], m)}
        p_los, los = los_power(arrays_m, positions, blocked)
        for k in (10.0, 25.0, 200.0, math.inf):
            want = rss_batch(arrays_m, positions, k, u, noise, blocked)
            got = (draw_rss(p_los, los, k, log_u, noise), los)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


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


def _sampled_problems(scene, scenario, t_n, seed, k=80.0):
    """Top-4 problems for t_n random default-room trials at K = k.

    Returns (problem, valid, positions, per-trial seeds);
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
    rss, los = rss_batch(arrays, positions, k, u, nn, blocked)
    return (*top4_problem(arrays, rss, los), positions, seeds)


def test_batch_solver_matches_scalar_estimates(default_scene, default_scenario):
    from latcsim.localization import solve_trilateration_batch

    t_n = 8
    problem, valid, positions, seeds = _sampled_problems(default_scene, default_scenario, t_n, 31)
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    p_batch, _, conv = solve_trilateration_batch(problem, bounds)
    assert valid.all() and conv.all()

    for t in range(t_n):
        ue = default_scenario.receiver.array_at(Vec3.from_array(positions[t]))
        params = ChannelParams(k_ratio=80.0, noise_std_w=1e-9, seed=int(seeds[t]))
        measurement = measure(default_scene, ue, params)
        est = rss_trilaterate(measurement, bounds=bounds)
        assert np.array_equal(est.position.as_array(), p_batch[t])


def test_batch_solver_subset_matches_full_batch(default_scene, default_scenario):
    """With the bounds given, a trial's fit does not depend on the other
    trials of its batch: a subset solves to bitwise the full batch's rows."""
    from latcsim.localization import _trials, solve_trilateration_batch

    t_n = 600
    problem, _, _, _ = _sampled_problems(default_scene, default_scenario, t_n, 17, k=10.0)
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    full = solve_trilateration_batch(problem, bounds)
    rng = np.random.default_rng(18)
    for idx in (np.sort(rng.choice(t_n, 137, replace=False)), np.arange(t_n - 1, -1, -2), [5]):
        sub = solve_trilateration_batch({**_trials(problem, idx), "anchor": problem["anchor"][idx]}, bounds)
        for got, want in zip(sub, full):  # p, cost, converged
            assert np.array_equal(got, want[idx])


def test_solvers_leave_their_input_unchanged(default_scene, default_scenario):
    """A batch solve and rss_trilaterate copy the trials they fit into their
    own working set: every array of the problem, and the measurement,
    keeps its bytes."""
    from latcsim.localization import solve_trilateration_batch

    problem, _, positions, seeds = _sampled_problems(default_scene, default_scenario, 300, 41, k=10.0)
    before = {k: v.copy() for k, v in problem.items()}
    ext = default_scenario.room.extents
    solve_trilateration_batch(problem, (ext.lo.as_array(), ext.hi.as_array()))
    assert problem.keys() == before.keys()
    for k, v in before.items():
        assert problem[k].tobytes() == v.tobytes() and problem[k].shape == v.shape
    ue = default_scenario.receiver.array_at(Vec3.from_array(positions[0]))
    measurement = measure(default_scene, ue, ChannelParams(k_ratio=10.0, seed=int(seeds[0])))
    link, rss, los = ({k: v.copy() for k, v in measurement.link.items()}, measurement.rss_w.copy(), measurement.los.copy())
    rss_trilaterate(measurement)
    assert all(np.array_equal(measurement.link[k], v) for k, v in link.items())
    assert np.array_equal(measurement.rss_w, rss) and np.array_equal(measurement.los, los)


# --------------------------------------------------------------------------
# grid-start scoring and the factored evaluation, against flat row planes
# --------------------------------------------------------------------------


def _flat_problem(problem):
    """The problem as (3, T, 4P) / (T, 4P) row planes: each anchor term
    repeated over its PDs and the PD normals tiled over the anchors."""
    t_n, k_n, p_n = problem["rss"].shape
    shape = (t_n, k_n * p_n)
    return {
        "anchor_pos": np.repeat(problem["anchor_pos"], p_n, axis=-1),
        "anchor_normal": np.repeat(problem["anchor_normal"], p_n, axis=-1),
        "pd_normal": np.broadcast_to(np.tile(problem["pd_normal"], k_n)[:, None], (3,) + shape),
        "m": np.repeat(problem["m"], p_n, axis=1),
        **{k: problem[k].reshape(shape) for k in ("coef", "rss", "weight")},
    }


def _model_power_flat(p, anchor_pos, anchor_normal, pd_normal, m, coef):
    """Reference model: every term evaluated per row of (3, ..., T, n) planes."""
    from latcsim.localization import _B_FLOOR, _dot3

    v = p[..., None] - anchor_pos
    d2 = _dot3(v, v)
    d = np.sqrt(d2)
    floor = _B_FLOOR * d
    b1 = np.maximum(_dot3(anchor_normal, v), floor)
    b2 = np.maximum(-_dot3(pd_normal, v), floor)
    return coef * b1**m * b2 * d ** (-3.0 - m), (v, d2, b1, b2)


def _weighted_cost_flat(problem, p):
    """Reference cost on row planes; also the residuals, model and geometry."""
    keys = ("anchor_pos", "anchor_normal", "pd_normal", "m", "coef")
    model, geom = _model_power_flat(p, *(problem[k] for k in keys))
    resid = problem.get("weight", 1.0) * (problem["rss"] - model)
    return np.sum(resid**2, axis=-1), resid, model, geom


def _lm_evaluate_flat(problem, p):
    """Reference cost and (4, T, n) stack [J, r] on row planes."""
    cost, resid, model, geom = _weighted_cost_flat(problem, p)
    v, d2, b1, b2 = geom
    m = problem["m"]
    jr = np.empty((4,) + resid.shape)
    jr[:3] = (-problem["weight"] * model) * (
        (m / b1) * problem["anchor_normal"] - problem["pd_normal"] / b2 - ((m + 3.0) / d2) * v
    )
    jr[3] = resid
    return cost, jr


def _grid_starts_pointwise(problem, start, bounds, n_starts):
    """Reference scorer: one flat cost evaluation of the start rows per grid point."""
    from latcsim.localization import (
        _GRID_POINTS_XY,
        _GRID_POINTS_Z,
        _grid_candidates,
    )

    pd, coef, rss = start  # the start rows as unweighted (3, T, 4) / (T, 4) row planes
    flat = {k: problem[k] for k in ("anchor_pos", "anchor_normal", "m")}
    flat.update(pd_normal=problem["pd_normal"][:, pd], coef=coef, rss=rss)
    grid = _grid_candidates(bounds[0], bounds[1], _GRID_POINTS_XY, _GRID_POINTS_Z)
    t = flat["rss"].shape[0]
    costs = np.empty((t, grid.shape[1]))
    for gi, g in enumerate(grid.T):
        costs[:, gi] = _weighted_cost_flat(flat, np.broadcast_to(g[:, None], (3, t)))[0]
    n_starts = min(n_starts, grid.shape[1])
    top = np.argpartition(costs, n_starts - 1, axis=1)[:, :n_starts]
    return grid[:, top]


@pytest.mark.parametrize("t_n", [1, 37, 200], ids=lambda t_n: f"{t_n}-init")
def test_grid_starts_match_pointwise_loop(default_scene, default_scenario, t_n):
    """The model-table scorer picks bitwise the same starts as scoring each
    grid point on the init rows (_start_rows) on its own."""
    from latcsim.localization import (
        _GRID_POINTS_XY,
        _GRID_POINTS_Z,
        _grid_starts,
        _solver_bounds,
        _start_rows,
    )

    problem, _, _, _ = _sampled_problems(default_scene, default_scenario, t_n, 7 + t_n)
    start = _start_rows(problem)
    bounds = _solver_bounds(problem)
    n_grid = _GRID_POINTS_XY**2 * _GRID_POINTS_Z
    for n_starts in (1, 2, n_grid):
        expected = _grid_starts_pointwise(problem, start, bounds, n_starts)
        assert np.array_equal(_grid_starts(problem, start, bounds, n_starts), expected)


@pytest.mark.parametrize("t_n", [1, 200])
def test_grid_starts_take_one_model_table(default_scene, default_scenario, monkeypatch, t_n):
    """Grid scoring evaluates the model once, over at most min(4T, A*P) rows."""
    from latcsim import localization

    problem, _, _, _ = _sampled_problems(default_scene, default_scenario, t_n, 5)
    start = localization._start_rows(problem)
    n_links = len(default_scene.anchors) * problem["pd_normal"].shape[1]
    rows = []
    model_power = localization._model_power

    def counted(p, anchor_pos, *args):
        rows.append(anchor_pos.shape[-1])
        return model_power(p, anchor_pos, *args)

    monkeypatch.setattr(localization, "_model_power", counted)
    bounds = localization._solver_bounds(problem)
    localization._grid_starts(problem, start, bounds, 2)
    assert len(rows) == 1
    assert 4 <= rows[0] <= min(4 * t_n, n_links)


@pytest.mark.parametrize("t_n", [1, 37, 200])
def test_lm_evaluate_matches_flat_rows(default_scene, default_scenario, t_n):
    """The per-anchor evaluation gives bitwise the cost and [J, r] of the
    flat per-row one, at the true positions, perturbed ones and the best
    grid starts."""
    from latcsim.localization import _grid_starts, _lm_evaluate, _solver_bounds, _start_rows

    problem, _, positions, _ = _sampled_problems(default_scene, default_scenario, t_n, 11 + t_n)
    flat = _flat_problem(problem)
    start = _start_rows(problem)
    starts = _grid_starts(problem, start, _solver_bounds(problem), 1)[..., 0]
    rng = np.random.default_rng(t_n)
    for p in (positions.T, positions.T + rng.normal(0.0, 0.3, (3, t_n)), starts):
        cost, jr = _lm_evaluate(problem, p)
        cost_ref, jr_ref = _lm_evaluate_flat(flat, p)
        assert np.array_equal(cost, cost_ref)
        assert np.array_equal(jr, jr_ref)


def _lm_evaluate_anchor_major(problem, p):
    """Reference cost and [J, r] in the (T, 4, P) anchor-major form: per
    (trial, anchor) terms broadcast over a trailing PD axis of length P."""
    from latcsim.localization import _B_FLOOR, _dot3

    anchor_normal, m, weight = problem["anchor_normal"], problem["m"], problem["weight"]
    pd_normal = problem["pd_normal"][:, None, None]
    v = p[..., None] - problem["anchor_pos"]
    d2 = _dot3(v, v)
    d = np.sqrt(d2)
    floor = _B_FLOOR * d
    b1 = np.maximum(_dot3(anchor_normal, v), floor)
    b2 = np.maximum(-_dot3(pd_normal, v[..., None]), floor[..., None])
    model = problem["coef"] * (b1**m)[..., None] * b2 * (d ** (-3.0 - m))[..., None]
    jr = np.empty((4,) + weight.shape)
    np.multiply(weight, np.subtract(problem["rss"], model, out=jr[3]), out=jr[3])
    scale = np.negative(np.multiply(weight, model, out=model), out=model)
    out = np.divide(pd_normal, b2, out=jr[:3])
    np.subtract(((m / b1) * anchor_normal)[..., None], out, out=out)
    np.subtract(out, (((m + 3.0) / d2) * v)[..., None], out=out)
    np.multiply(scale, out, out=out)
    jr = jr.reshape(4, weight.shape[0], -1)
    return np.add.reduce(jr[3] ** 2, axis=-1), jr


@pytest.mark.parametrize("t_n", [1, 7, 512])
def test_pd_major_evaluation_matches_anchor_major(default_scene, default_scenario, t_n):
    """_lm_evaluate on PD-major planes, on a plain problem and on the PD-major
    memory of a working set, gives bitwise the cost and [J, r] of the
    anchor-major form, with weight-0 rows and floored cosines included."""
    from latcsim.localization import _B_FLOOR, _ROW_KEYS, _lm_buffer, _lm_evaluate

    problem, _, positions, _ = _sampled_problems(default_scene, default_scenario, t_n, 61 + t_n, k=10.0)
    problem["weight"][: (t_n + 1) // 2, 1, :2] = 0.0  # rows with weight 0
    working = dict(problem)
    for k in _ROW_KEYS[1:]:
        working[k] = np.empty((problem[k].shape[2], t_n, problem[k].shape[1])).transpose(1, 2, 0)
        working[k][...] = problem[k]
    rng = np.random.default_rng(t_n)
    p = positions.T + rng.normal(0.0, 0.3, (3, t_n))
    p[2, : (t_n + 1) // 2] = 3.0  # at the anchors' height: emission cosines floored
    want_cost, want_jr = _lm_evaluate_anchor_major(problem, p)
    assert (want_jr[3] == 0.0).any()
    v = p[..., None] - problem["anchor_pos"]
    cos_emit = np.add.reduce(problem["anchor_normal"] * v, axis=0)
    assert (cos_emit <= _B_FLOOR * np.sqrt(np.add.reduce(v * v, axis=0))).any()
    for prob, buffer in ((problem, None), (working, _lm_buffer(t_n + 3, *problem["weight"].shape[1:]))):
        cost, jr = _lm_evaluate(prob, p, buffer)
        assert np.array_equal(cost, want_cost)
        assert np.array_equal(jr, want_jr)


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
    from latcsim.localization import (
        _grid_starts,
        _lm_evaluate,
        _lm_step,
        _normal_planes,
        _solver_bounds,
        _start_rows,
    )

    t_n = 60
    problem, valid, positions, _ = _sampled_problems(default_scene, default_scenario, t_n, 3)
    assert valid.all()
    rng = np.random.default_rng(4)
    start = _start_rows(problem)
    starts = _grid_starts(problem, start, _solver_bounds(problem), 1)[..., 0]
    lam_t = np.full(t_n, lam)
    for p in (positions.T, positions.T + rng.normal(0.0, 0.3, (3, t_n)), starts):
        _, jr = _lm_evaluate(problem, p)
        got = _lm_step(_normal_planes(jr), lam_t)
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

    from latcsim.localization import _lm_evaluate, _lm_step, _normal_planes, _solve_sym3

    ue = np.array([4.0, 3.0, 0.8])
    u = np.array([0.3, 0.2, 1.0]) / np.linalg.norm([0.3, 0.2, 1.0])
    reach = np.array([1.2, 1.6, 1.9, 2.1])
    n = reach.size
    # one trial, n anchors, one PD shared by all of them
    problem = {
        "anchor_pos": (ue[:, None] + u[:, None] * reach)[:, None, :],
        "anchor_normal": np.broadcast_to(-u[:, None, None], (3, 1, n)),
        "pd_normal": u[:, None],
        "m": np.ones((1, n)),
        "coef": np.full((1, n, 1), 1e-5),
        "rss": np.array([[1.1e-5, 4.0e-6, 3.1e-6, 2.5e-6]])[..., None],
        "weight": np.ones((1, n, 1)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, jr = _lm_evaluate(problem, ue[:, None])
        for lam in (1e-12, 1e-3, 1e15):
            step = _lm_step(_normal_planes(jr), np.array([lam]))[:, 0]
            ref = lm_step_reference(np.moveaxis(jr[:3], 0, -1), jr[3], np.array([lam]))[0]
            assert np.isfinite(step).all()
            assert np.linalg.norm(step - ref) <= 1e-3 * np.linalg.norm(ref)
        step = _lm_step(_normal_planes(np.zeros_like(jr)), np.array([1e-3]))
        # a singular matrix: the floor keeps each rounded pivot positive
        w = np.array([0.1, 0.2, 0.3])
        six = tuple(np.array([w[i] * w[j]]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
        assert np.isfinite(_solve_sym3(six, np.ones((3, 1)), 1e-12)).all()
    assert np.array_equal(step, np.zeros((3, 1)))


# --------------------------------------------------------------------------
# LM iteration: carried normal equations against a per-step recomputation
# --------------------------------------------------------------------------


def _lm_reference(problem, p0, bounds):
    """The LM of solve_trilateration_stream with nothing carried between steps but each
    trial's point, cost and damping: every step re-evaluates [J, r] at the
    current point of each active trial and forms J^T J and J^T r from it.
    Returns (p, cost, converged, rejected steps)."""
    from latcsim.localization import (
        _DAMPING_FACTOR,
        _DAMPING_INIT,
        _MAX_ITERATIONS,
        _TOLERANCE_M,
        _lm_evaluate,
        _solve_sym3,
        _trials,
    )

    lo, hi = bounds[0][:, None], bounds[1][:, None]
    p = np.clip(p0, lo, hi)
    cost, _ = _lm_evaluate(problem, p)
    t_n = p.shape[1]
    lam = np.full(t_n, _DAMPING_INIT)
    converged = np.zeros(t_n, dtype=bool)
    active = np.arange(t_n)
    rejected = 0
    for _ in range(_MAX_ITERATIONS):
        if active.size == 0:
            break
        sub = _trials(problem, active)
        _, jr = _lm_evaluate(sub, p[:, active])
        g = np.matmul(jr[:3].transpose(1, 0, 2), jr.transpose(1, 2, 0)).T
        diag = g.diagonal(0, 0, 1).T
        ridge = 1e-12 * diag.max(axis=0) + 1e-300
        damped = diag + lam[active] * diag + ridge
        delta = _solve_sym3((*damped, g[1, 0], g[2, 0], g[2, 1]), -g[3], ridge)
        p_new = (p[:, active] + delta).clip(lo, hi)
        cost_new, _ = _lm_evaluate(sub, p_new)
        old = cost[active]
        improve = np.isfinite(cost_new) & (cost_new < old)
        stalled = improve & (old - cost_new <= 1e-13 * old + 1e-300)
        rejected += int(np.count_nonzero(~improve))
        p[:, active[improve]] = p_new[:, improve]
        cost[active[improve]] = cost_new[improve]
        lam[active] = np.where(improve, lam[active] / _DAMPING_FACTOR, lam[active] * _DAMPING_FACTOR).clip(1e-12, 1e15)
        done = (np.sqrt(np.sum(delta * delta, axis=0)) < _TOLERANCE_M) | stalled
        converged[active[done]] = True
        active = active[~done]
    return p, cost, converged, rejected


def _by_place(fits, n):
    """The yields of solve_trilateration_stream over n places, each stored
    at its place: ((3, n) p, (n,) cost, (n,) converged)."""
    p, cost, converged = np.full((n, 3), np.nan), np.full(n, np.nan), np.zeros(n, bool)
    for at, *fit in fits:
        p[at], cost[at], converged[at] = fit
    return p.T, cost, converged


@pytest.mark.parametrize("slice_trials", [None, 7])
def test_lm_stream_matches_per_step_reference(default_scene, default_scenario, monkeypatch, slice_trials):
    """Carrying each trial's J^T J and J^T r across steps, refilling the
    working set from a stream of pieces as trials stop, moving live trials
    into freed slots and evaluating the set in slices give bitwise the
    (p, cost, converged) of recomputing [J, r] at every step, at the places
    the stream yields: at K = 10 on `default`, over 300 trials started from
    their AoA lines, in three pieces, with rejected steps, early stops and
    trials at the iteration cap, with a working set narrower than the
    trials (so most of them enter mid-run), and for such trials solved one
    at a time (T = 1). The problem is left as it was."""
    from latcsim import localization
    from latcsim.localization import _line_start, _trials, solve_trilateration_stream

    if slice_trials is not None:
        monkeypatch.setattr(localization, "_SLICE_TRIALS", slice_trials)
    problem, valid, _, _ = _sampled_problems(default_scene, default_scenario, 300, 23, k=10.0)
    problem = _trials(problem, np.flatnonzero(valid))
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    p0, lined = _line_start(problem)
    assert lined.all()

    t_n = p0.shape[1]
    want_p, want_cost, want_conv, rejected = _lm_reference(problem, p0, bounds)
    assert rejected > 0 and want_conv.any() and not want_conv.all()
    before = {k: v.copy() for k, v in problem.items()}
    cuts = np.array_split(np.arange(t_n), [90, 91])  # one piece of a single trial
    for width in (t_n, 50):
        monkeypatch.setattr(localization, "_WORKING_SET_TRIALS", width)
        got = _by_place(solve_trilateration_stream(((problem, idx) for idx in cuts), bounds, t_n), t_n)
        for g, w in zip(got, (want_p, want_cost, want_conv)):
            assert np.array_equal(g, w)
        assert all(np.array_equal(problem[k], before[k]) for k in problem)

    capped = np.flatnonzero(~want_conv)[:2]
    stopped = np.flatnonzero(want_conv)[:2]
    for t in (*capped, *stopped):
        one = _trials(problem, [t])
        ref = _lm_reference(one, p0[:, [t]], bounds)
        got = _by_place(solve_trilateration_stream([(one, np.arange(1))], bounds, 1), 1)
        for g, w in zip(got, ref[:3]):
            assert np.array_equal(g, w)
        assert np.array_equal(got[0][:, 0], want_p[:, t])


def test_stream_yields_each_place_once(default_scene, default_scenario, monkeypatch):
    """Over pieces of shuffled trials that include an empty piece first and
    in the middle, a single trial and pieces wider than the working set,
    the stream yields each place of range(N) exactly once, and the fit at
    a place is that trial's fit in one batch."""
    from latcsim import localization
    from latcsim.localization import _trials, solve_trilateration_batch, solve_trilateration_stream

    monkeypatch.setattr(localization, "_WORKING_SET_TRIALS", 16)
    problem, valid, _, _ = _sampled_problems(default_scene, default_scenario, 90, 41, k=10.0)
    problem = _trials(problem, np.flatnonzero(valid))
    ext = default_scenario.room.extents
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    order = np.random.default_rng(5).permutation(problem["weight"].shape[0])
    empty = order[:0]
    pieces = [empty, order[:40], empty, order[40:41], order[41:]]
    assert len(order) > 60

    fits = list(solve_trilateration_stream([(problem, idx) for idx in pieces], bounds, len(order)))
    places = np.concatenate([at for at, *_ in fits])
    assert np.array_equal(np.sort(places), np.arange(len(order)))
    got = _by_place(fits, len(order))
    want_p, want_cost, want_conv = solve_trilateration_batch(problem, bounds)
    for g, w in zip(got, (want_p[order].T, want_cost[order], want_conv[order])):
        assert np.array_equal(g, w)
