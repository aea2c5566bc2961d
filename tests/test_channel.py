import math

import numpy as np
import pytest

from latcsim import (
    ChannelParams,
    Measurement,
    OpticalAnchor,
    Vec3,
    count_los_anchors,
    los_gain,
    measure,
    pyramid_array,
)
from latcsim.errors import DegenerateGeometry, InvalidMeasurement, InvalidVector
from latcsim.geometry import rotation_about


def _pd(position, normal, fov_deg=70.0, area=1e-4, gain=1.0):
    return {
        "position": position,
        "normal": normal,
        "area_m2": area,
        "fov_half_angle_rad": math.radians(fov_deg),
        "optical_gain": gain,
    }


def overhead_anchor(m=1.0, power=1.0, z=3.0):
    return OpticalAnchor(0, Vec3(0, 0, z), Vec3(0, 0, -1), m, power)


def test_los_gain_closed_form():
    # m=1, A=1e-4 m^2, aligned at 3 m: H = 2e-4 / (2*pi*9)
    h = los_gain(overhead_anchor(), _pd(Vec3(0, 0, 0), Vec3(0, 0, 1)))
    assert h == pytest.approx(2e-4 / (2 * math.pi * 9), rel=1e-12)
    assert h == pytest.approx(3.5368e-6, rel=1e-4)


def test_los_gain_fov_cutoff():
    # incidence just past the FOV half-angle gives exactly zero
    fov = math.radians(40.0)
    offset = 3.0 * math.tan(fov + 0.01)
    pd = _pd(Vec3(offset, 0, 0), Vec3(0, 0, 1), fov_deg=40.0)
    assert los_gain(overhead_anchor(), pd) == 0.0


def test_los_gain_lambertian_null():
    # emission at 90 degrees off the anchor normal
    pd = _pd(Vec3(3.0, 0, 3.0), Vec3(-1, 0, 0))
    for m in (0.5, 1.0, 2.0):
        assert los_gain(overhead_anchor(m=m), pd) == 0.0


def test_los_gain_coincident_positions():
    with pytest.raises(DegenerateGeometry):
        los_gain(overhead_anchor(), _pd(Vec3(0, 0, 3.0), Vec3(0, 0, 1)))


def test_gain_invariant_under_rigid_rotation():
    """Rotating emitter and detector together leaves H unchanged."""
    rng = np.random.default_rng(3)
    base_anchor = overhead_anchor(m=1.7)
    base_pd = _pd(Vec3(0.7, -0.4, 0.6), Vec3(0.2, 0.1, 1.0).unit())
    h0 = los_gain(base_anchor, base_pd)
    for _ in range(50):
        rot = rotation_about(Vec3.from_array(rng.normal(size=3)).unit(), rng.uniform(0, 2 * math.pi))
        anchor = OpticalAnchor(
            0,
            Vec3.from_array(rot @ base_anchor.position.as_array()),
            Vec3.from_array(rot @ base_anchor.normal.as_array()).unit(),
            base_anchor.lambertian_m,
            base_anchor.tx_power_w,
        )
        pd = dict(base_pd)
        pd["position"] = Vec3.from_array(rot @ base_pd["position"].as_array())
        pd["normal"] = Vec3.from_array(rot @ base_pd["normal"].as_array()).unit()
        assert los_gain(anchor, pd) == pytest.approx(h0, abs=1e-9 * h0)


def test_distance_law_slope():
    """log(P) vs log(d) at fixed height has slope exactly -(m+3)."""
    h = 2.2
    for m in (0.5, 1.0, 2.0):
        anchor = overhead_anchor(m=m, z=h)
        offsets = np.linspace(0.1, 2.5, 40)
        dists, powers = [], []
        for r in offsets:
            pd = _pd(Vec3(r, 0, 0), Vec3(0, 0, 1), fov_deg=89.0)
            gain = los_gain(anchor, pd)
            dists.append(math.sqrt(r * r + h * h))
            powers.append(anchor.tx_power_w * gain)
        slope = np.polyfit(np.log(dists), np.log(powers), 1)[0]
        assert slope == pytest.approx(-(m + 3.0), abs=1e-6)


def test_measure_noiseless_exact(default_scene, noiseless_params):
    ue = pyramid_array(Vec3(4.0, 3.0, 0.8))
    measurement = measure(default_scene, ue, noiseless_params)
    assert measurement.rss_w.shape == (len(default_scene.anchors), len(ue.elements))
    normals = ue.world_normals()
    for (ai, pi), rss in np.ndenumerate(measurement.rss_w):
        anchor = default_scene.anchor(int(measurement.anchor_ids[ai]))
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
        assert rss == pytest.approx(anchor.tx_power_w * h, abs=1e-18)
        assert measurement.los[ai, pi] == (h > 0.0)
        assert rss >= 0.0


def test_measure_deterministic(default_scene):
    params = ChannelParams(k_ratio=50.0, noise_std_w=1e-9, seed=99)
    ue = pyramid_array(Vec3(2.5, 2.0, 0.8))
    m1 = measure(default_scene, ue, params)
    m2 = measure(default_scene, ue, params)
    for name in ("anchor_ids", "rss_w", "los"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_measure_occluded_anchor(default_scenario, noiseless_params):
    from latcsim.geometry import Box
    from latcsim.scenario import build_scene

    # plate directly under the ceiling LED at (2, 1)
    plate = Box(Vec3(1.5, 0.5, 2.0), Vec3(2.5, 1.5, 2.2))
    scene = build_scene(default_scenario, (plate,))
    ue = pyramid_array(Vec3(2.0, 1.0, 0.8))
    measurement = measure(scene, ue, noiseless_params)
    row0, row1 = measurement.row(0), measurement.row(1)
    assert not measurement.los[row0].any() and np.all(measurement.rss_w[row0] == 0.0)
    assert measurement.los[row1].any()


def test_nlos_power_shrinks_with_k(default_scene):
    """Common random numbers: the NLoS addition is pointwise smaller at larger K."""
    ue = pyramid_array(Vec3(3.0, 2.0, 0.8))
    base = measure(default_scene, ue, ChannelParams(k_ratio=math.inf, noise_std_w=0.0, seed=11))
    lo = measure(default_scene, ue, ChannelParams(k_ratio=25.0, noise_std_w=0.0, seed=11))
    hi = measure(default_scene, ue, ChannelParams(k_ratio=100.0, noise_std_w=0.0, seed=11))
    nlos_lo = lo.rss_w - base.rss_w
    nlos_hi = hi.rss_w - base.rss_w
    assert np.all(nlos_lo >= 0.0)
    lit = base.los & (base.rss_w > 0)
    assert np.all(nlos_hi[lit] < nlos_lo[lit])
    assert nlos_hi.sum() < nlos_lo.sum()


def test_count_los_anchors(default_scene, noiseless_params):
    ue = pyramid_array(Vec3(4.0, 3.0, 0.8))
    measurement = measure(default_scene, ue, noiseless_params)
    # ceiling LEDs plus the four LERIS LEDs are all visible mid-room
    assert count_los_anchors(measurement, noiseless_params) == 8
    # a harsh threshold removes the weak LERIS anchors but keeps the ceiling
    harsh = ChannelParams(k_ratio=math.inf, noise_std_w=0.0, detection_threshold_w=5e-7, seed=1)
    assert count_los_anchors(measurement, harsh) == 4


def test_count_los_all_occluded(default_scenario, noiseless_params):
    from latcsim.geometry import Box
    from latcsim.scenario import build_scene

    # room-wide false ceiling below every anchor
    slab = Box(Vec3(0, 0, 1.0), Vec3(8, 6, 1.2))
    scene = build_scene(default_scenario, (slab,))
    ue = pyramid_array(Vec3(4.0, 3.0, 0.8))
    measurement = measure(scene, ue, noiseless_params)
    assert count_los_anchors(measurement, noiseless_params) == 0


def test_channel_params_validation():
    with pytest.raises(InvalidVector):
        ChannelParams(k_ratio=0.0)
    with pytest.raises(InvalidVector):
        ChannelParams(noise_std_w=-1.0)


def test_measure_rejects_ue_on_anchor(default_scene, noiseless_params):
    ue = pyramid_array(Vec3(2.0, 1.0, 3.0))  # exactly on ceiling LED 0
    with pytest.raises(DegenerateGeometry):
        measure(default_scene, ue, noiseless_params)


def test_measure_rss_never_negative(default_scene):
    """Heavy noise still clamps at zero power."""
    params = ChannelParams(k_ratio=5.0, noise_std_w=1e-5, seed=1234)
    for seed in range(5):
        ue = pyramid_array(Vec3(1.0 + seed, 2.0, 0.8))
        from dataclasses import replace

        measurement = measure(default_scene, ue, replace(params, seed=seed))
        assert np.all(measurement.rss_w >= 0.0)
        assert np.any(measurement.rss_w == 0.0)  # clamp actually engaged


# --------------------------------------------------------------------------
# the measurement record
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ids, rss, los, match",
    [
        ([0, 1], np.ones((3, 2)), np.ones((3, 2), bool), "shape"),
        ([0, 1], np.ones((2, 2)), np.ones((2, 3), bool), "shape"),
        ([[0, 1]], np.ones((2, 2)), np.ones((2, 2), bool), "shape"),
        ([1, 1], np.ones((2, 2)), np.ones((2, 2), bool), "strictly increase"),
        ([2, 1], np.ones((2, 2)), np.ones((2, 2), bool), "strictly increase"),
        ([0, 1], [[1.0, -1e-12], [1.0, 1.0]], np.ones((2, 2), bool), "non-negative"),
        ([0, 1], [[1.0, math.nan], [1.0, 1.0]], np.ones((2, 2), bool), "non-negative"),
    ],
    ids=["rows", "los-shape", "ids-2d", "repeated-id", "decreasing-id", "negative", "nan"],
)
def test_measurement_rejects_bad_arrays(ids, rss, los, match):
    with pytest.raises(InvalidVector, match=match):
        Measurement(ids, rss, los)


def test_measurement_arrays_read_only():
    rss = np.array([[1e-6, 2e-6]])
    measurement = Measurement([4], rss, [[True, False]])
    rss[0, 0] = 5.0  # the record holds its own copy
    assert measurement.rss_w[0, 0] == 1e-6
    for name in ("anchor_ids", "rss_w", "los"):
        with pytest.raises(ValueError):
            getattr(measurement, name)[0] = 0


def test_measurement_row_lookup():
    measurement = Measurement([2, 5, 9], np.zeros((3, 1)), np.zeros((3, 1), bool))
    assert [measurement.row(i) for i in (2, 5, 9)] == [0, 1, 2]
    for unknown in (0, 3, 10):
        with pytest.raises(InvalidVector, match=f"unknown anchor {unknown}"):
            measurement.row(unknown)


def test_strongest_los_anchor_tie_goes_to_lower_id():
    rss = [[1e-6, 3e-6], [3e-6, 2e-6], [9e-6, 0.0]]
    los = [[True, True], [True, True], [False, False]]
    assert Measurement([1, 4, 7], rss, los).strongest_los_anchor() == 1


def test_strongest_los_anchor_needs_los():
    with pytest.raises(InvalidMeasurement):
        Measurement([0, 1], np.ones((2, 3)), np.zeros((2, 3), bool)).strongest_los_anchor()
