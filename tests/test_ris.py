import math
from dataclasses import replace

import numpy as np
import pytest

from latcsim import (
    CodebookGridSpec,
    RisPanel,
    ScatteringDiagram,
    Vec3,
    beam_gain_at,
    codebook_build,
    codebook_select,
    diffusion_profile,
    hpbw,
    scattering_diagram,
    steer_profile,
    tolerated_error,
)
from latcsim.errors import (
    DegenerateDiagram,
    DiagramTooNarrowlySampled,
    EmptyCodebook,
    InvalidAngle,
    InvalidVector,
    OutOfCoverage,
)
from latcsim.ris import (
    _ANGLE_CHUNK,
    DiagramCut,
    broadside_hpbw_deg,
    direction_from_azel,
    sweep_gains,
)

BROADSIDE_IN = Vec3(0, 0, -1)
BROADSIDE_OUT = Vec3(0, 0, 1)


def panel(rows, cols, spacing=0.5):
    return RisPanel(0, Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), rows, cols, spacing)


def element_coords(p):
    """(M, 2) centred element positions in wavelengths, row-major, one element at a time."""
    s = p.spacing_wavelengths
    pairs = [(i, j) for i in range(p.rows) for j in range(p.cols)]
    return np.array([((i - (p.rows - 1) / 2.0) * s, (j - (p.cols - 1) / 2.0) * s) for i, j in pairs])


# --------------------------------------------------------------------------
# independent oracle: direct element sum + bisection on the cut
# --------------------------------------------------------------------------


def af_power_oracle(rows, cols, spacing, theta_deg):
    """Brute-force array factor power for a broadside steer, u-axis cut."""
    total = 0.0 + 0.0j
    s = math.sin(math.radians(theta_deg))
    for i in range(rows):
        x = (i - (rows - 1) / 2.0) * spacing
        for j in range(cols):
            total += complex(math.cos(2 * math.pi * s * x), math.sin(2 * math.pi * s * x))
    return abs(total) ** 2 / (rows * cols) ** 2


def hpbw_oracle(rows, spacing=0.5):
    """Bisection for the half-power angle of the broadside beam."""
    first_null = math.degrees(math.asin(min(1.0, 2.0 / (rows * 2 * spacing) * 1.0)))
    lo, hi = 1e-9, first_null * 0.999
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if af_power_oracle(rows, 1, spacing, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return lo + hi  # full width = 2 * half angle


def test_steer_profile_broadside_all_equal():
    prof = steer_profile(panel(6, 6), BROADSIDE_IN, BROADSIDE_OUT)
    assert np.allclose(prof.phases, prof.phases[0])


def test_steer_profile_closed_form():
    """Element phases equal -k (u_inc + u_tgt) . r for sampled elements."""
    p = panel(4, 5, spacing=0.37)
    inc = Vec3(0.3, -0.2, -0.8).unit()
    tgt = Vec3(0.5, 0.1, 0.9).unit()
    prof = steer_profile(p, inc, tgt)
    coords = element_coords(p)
    combined = inc.as_array() + tgt.as_array()
    u, v, _ = p.frame()
    for e in (0, 3, 7, 12, 19):
        expected = -2 * math.pi * (coords[e, 0] * (combined @ u) + coords[e, 1] * (combined @ v))
        assert prof.phases[e] == pytest.approx(expected % (2 * math.pi), abs=1e-12)


def test_steer_profile_target_behind_panel():
    with pytest.raises(OutOfCoverage):
        steer_profile(panel(4, 4), BROADSIDE_IN, Vec3(0, 0, -1))


def test_global_phase_invariance():
    p = panel(8, 8)
    prof = steer_profile(p, BROADSIDE_IN, Vec3(0.3, 0, 1).unit())
    d1 = scattering_diagram(p, prof, BROADSIDE_IN, 0.05)
    d2 = scattering_diagram(p, replace(prof, phases=prof.phases + 1.234), BROADSIDE_IN, 0.05)
    assert np.max(np.abs(d1.values - d2.values)) <= 1e-12


def test_diagram_peak_is_one_at_steered_angle():
    p = panel(10, 10)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.01)
    idx = np.argmin(np.abs(d.angles_deg))  # broadside
    assert d.values[idx] == pytest.approx(1.0, abs=1e-12)


def test_diagram_first_null_10x10():
    """First null of the 10-element lambda/2 cut: sin(theta) = 2/10."""
    p = panel(10, 10)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.01)
    null_deg = math.degrees(math.asin(0.2))
    assert null_deg == pytest.approx(11.537, abs=5e-3)
    idx = np.argmin(np.abs(d.angles_deg - null_deg))
    assert d.values[idx] < 1e-6


def test_diagram_single_element_flat():
    p = panel(1, 1)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.5)
    assert np.all(d.values == 1.0)
    with pytest.raises(DegenerateDiagram):
        hpbw(d)


def test_diagram_matches_bruteforce_oracle():
    p = panel(6, 4, spacing=0.5)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.5)
    for theta in (-40.0, -7.5, 0.0, 3.5, 22.0, 61.0):
        idx = np.argmin(np.abs(d.angles_deg - theta))
        assert d.values[idx] == pytest.approx(
            af_power_oracle(6, 4, 0.5, float(d.angles_deg[idx])), abs=1e-9
        )


def element_sum_reference(p, profile, incident, angles_deg, axis):
    """Chunked element sum: one exponential per element and angle, peak-normalized."""
    u, v, _ = p.frame()
    inc, a = incident.as_array(), axis.as_array()
    coords = element_coords(p)
    static = profile.phases + 2 * math.pi * (coords[:, 0] * (inc @ u) + coords[:, 1] * (inc @ v))
    w_static = np.exp(1j * static)
    c_along = coords[:, 0] * (a @ u) + coords[:, 1] * (a @ v)
    sin_a = np.sin(np.radians(angles_deg))
    values = np.empty(len(angles_deg))
    for start in range(0, len(angles_deg), _ANGLE_CHUNK):
        stop = min(start + _ANGLE_CHUNK, len(angles_deg))
        phase = 2 * math.pi * np.outer(sin_a[start:stop], c_along)
        values[start:stop] = np.abs(np.exp(1j * phase) @ w_static) ** 2 / p.n_elements**2
    return values / values.max()


OBLIQUE_IN = Vec3(0.3, -0.2, -0.8).unit()
OBLIQUE_OUT = Vec3(0.4, 0.3, 0.85).unit()


@pytest.mark.parametrize(
    "rows,cols,spacing,kind,incident,cut_axis",
    [
        (12, 7, 0.8, "diffusion", OBLIQUE_IN, None),
        (12, 7, 0.8, "steer", OBLIQUE_IN, None),
        (12, 7, 0.8, "steer", Vec3(-0.1, 0.5, -0.7).unit(), None),
        (1, 6, 0.5, "steer", OBLIQUE_IN, None),
        (6, 1, 0.5, "steer", OBLIQUE_IN, None),
        (5, 9, 0.5, "steer", OBLIQUE_IN, Vec3(1, 1, 0).unit()),
        (12, 7, 0.8, "steer", OBLIQUE_IN, Vec3(1, 0, 0)),
    ],
    ids=["diffusion", "steer", "steer-other-incident", "1x6", "6x1", "diagonal-cut", "u-axis-cut"],
)
def test_diagram_matches_element_sum(rows, cols, spacing, kind, incident, cut_axis):
    """The row x column factorization equals the element sum for any profile,
    incident and in-plane cut; the 0.05 degree grid ends in a partial chunk.
    A cut along axis_u (diffusion, u-axis-cut) takes W's column sums once."""
    p = panel(rows, cols, spacing)
    if kind == "diffusion":
        prof = diffusion_profile(p, 11)
    else:
        prof = steer_profile(p, OBLIQUE_IN, OBLIQUE_OUT)
    d = scattering_diagram(p, prof, incident, 0.05, cut_axis=cut_axis)
    assert len(d.angles_deg) == 7201 and 7201 // _ANGLE_CHUNK == 3
    ref = element_sum_reference(p, prof, incident, d.angles_deg, d.cut.axis)
    assert np.max(np.abs(d.values - ref)) <= 1e-12


@pytest.mark.parametrize(
    "resolution,lo,hi",
    [(math.nan, -90.0, 90.0), (math.inf, -90.0, 90.0), (0.1, 10.0, -10.0), (0.1, -90.0, math.nan)],
)
def test_diagram_rejects_bad_angle_grid(resolution, lo, hi):
    p = panel(4, 4)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    with pytest.raises(InvalidAngle):
        scattering_diagram(p, prof, BROADSIDE_IN, resolution, lo, hi)


def test_diagram_equal_bounds_single_point():
    p = panel(4, 4)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.1, 12.0, 12.0)
    assert d.angles_deg.tolist() == [12.0] and d.values.tolist() == [1.0]


@pytest.mark.parametrize("rows,expected", [(5, 20.78), (10, 10.21), (40, 2.54)])
def test_hpbw_against_oracle(rows, expected):
    width = broadside_hpbw_deg(panel(rows, 10), "u")
    assert width == pytest.approx(hpbw_oracle(rows), abs=0.02)
    assert width == pytest.approx(expected, abs=0.05)


def test_hpbw_survives_mirror_lobes():
    """On a +-180 cut the supplementary-angle copy must not confuse hpbw."""
    p = panel(10, 10)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.01)
    assert hpbw(d) == pytest.approx(hpbw_oracle(10), abs=0.02)


def test_hpbw_monotone_in_element_count():
    widths = [broadside_hpbw_deg(panel(n, 4), "u") for n in (4, 8, 16)]
    assert widths[0] > widths[1] > widths[2]


def test_hpbw_too_narrowly_sampled():
    d = ScatteringDiagram(
        np.array([-1.0, 0.0, 1.0]),
        np.array([0.9, 1.0, 0.9]),
        DiagramCut(Vec3(0, 0, 1), Vec3(1, 0, 0), 0.0),
    )
    with pytest.raises(DiagramTooNarrowlySampled):
        hpbw(d)


def test_tolerated_error_values():
    assert tolerated_error(10.0, 5.0) == pytest.approx(0.4374, abs=5e-5)
    assert tolerated_error(18.0, 14.0) == pytest.approx(2.217, abs=5e-4)
    assert tolerated_error(12.0, 0.0) == 0.0


def test_tolerated_error_properties():
    thetas = np.linspace(1.0, 60.0, 30)
    dists = np.linspace(0.0, 14.0, 30)
    for d in (1.0, 5.0, 13.0):
        sig = [tolerated_error(t, d) for t in thetas]
        assert all(b > a for a, b in zip(sig, sig[1:]))
    for t in (2.0, 10.0, 45.0):
        sig = [tolerated_error(t, d) for d in dists]
        diffs = np.diff(sig)
        assert np.allclose(diffs, diffs[0], rtol=1e-12)  # exactly linear in d


def test_tolerated_error_invalid_angle():
    with pytest.raises(InvalidAngle):
        tolerated_error(0.0, 5.0)
    with pytest.raises(InvalidAngle):
        tolerated_error(180.0, 5.0)
    with pytest.raises(ValueError):
        tolerated_error(10.0, -1.0)


def test_codebook_counts():
    grid = CodebookGridSpec(-60, 60, 5.0, 0.0, 0.0, 5.0)
    cb = codebook_build(panel(4, 4), BROADSIDE_IN, grid)
    assert len(cb.azimuth_rad) == 25
    assert len(cb.entries) == 26
    assert cb.diffusion_entry().functionality == "diffusion"


def test_codebook_single_direction():
    grid = CodebookGridSpec(0, 0, 1.0, 0, 0, 1.0)
    cb = codebook_build(panel(4, 4), BROADSIDE_IN, grid)
    assert len(cb.entries) == 2


def test_codebook_requires_entries():
    from latcsim.ris import Codebook

    with pytest.raises(EmptyCodebook):
        Codebook(panel(4, 4), BROADSIDE_IN, np.array([]), np.array([]))


def flags_duplicate(az, el):
    """Whether Codebook rejects (az, el) as holding a repeated steering direction."""
    from latcsim.ris import Codebook

    try:
        with np.errstate(invalid="ignore"):  # cos(inf) of the non-finite grids
            Codebook(panel(4, 4), BROADSIDE_IN, az, el)
    except InvalidVector as exc:
        assert "duplicate steering direction" in str(exc)
        return True
    return False


def test_codebook_duplicate_check_matches_unique():
    """The duplicate rule flags exactly the grids np.unique(axis=0) finds a repeated row in."""

    def unique_reference(az, el):
        return len(np.unique(np.column_stack([az, el]), axis=0)) != az.size

    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 0.25, -0.5, 1.0])
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 14))
        az = rng.choice(special, n) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, n)
        el = rng.choice(special, n) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, n)
        if n > 1 and rng.random() < 0.3:  # a duplicate, anywhere in input order
            i, j = rng.choice(n, 2, replace=False)
            az[j], el[j] = az[i], el[i]
        expected = unique_reference(az, el)
        assert flags_duplicate(az, el) == expected, (az, el)
        seen.add(expected)
    assert seen == {True, False}

    grid_az, grid_el = np.repeat([-0.4, 0.0, 0.4], 4), np.tile([-0.3, -0.1, 0.1, 0.3], 3)
    far = (np.append(grid_az, grid_az[0]), np.append(grid_el, grid_el[0]))
    for az, el, expected in (
        (grid_az, grid_el, False),  # distinct pairs sharing an azimuth or an elevation
        (np.array([0.1, 0.2]), np.array([0.2, 0.1]), False),  # swapped components
        (*far, True),  # first and last entries repeat
        (np.array([0.0, -0.0]), np.array([0.3, 0.3]), True),  # +0.0 == -0.0
        (np.array([math.inf, math.inf]), np.array([0.1, 0.1]), True),  # repeated inf
        (np.array([math.nan, math.nan]), np.array([0.1, 0.1]), False),  # NaN equals nothing
    ):
        assert unique_reference(az, el) == expected
        assert flags_duplicate(az, el) == expected


def test_codebook_entry_diagrams_peak_on_their_direction():
    grid = CodebookGridSpec(-40, 40, 20.0, 0.0, 0.0, 5.0)
    p = panel(12, 12)
    cb = codebook_build(p, BROADSIDE_IN, grid)
    for entry in map(cb.entry, range(len(cb.azimuth_rad))):
        d = scattering_diagram(p, entry.profile, BROADSIDE_IN, 0.05)
        # bias the argmax toward the front half to skip the mirror copy
        peak_angle = d.angles_deg[np.argmax(d.values + (np.abs(d.angles_deg) < 90.1))]
        assert abs(peak_angle - d.cut.steer_angle_deg) <= 0.1
        assert abs(d.cut.steer_angle_deg) == pytest.approx(abs(math.degrees(entry.azimuth_rad)), abs=1e-9)


def test_codebook_select_exact_and_ties():
    grid = CodebookGridSpec(-10, 10, 5.0, 0.0, 0.0, 5.0)
    p = panel(6, 6)
    cb = codebook_build(p, BROADSIDE_IN, grid)
    # exactly on a grid direction
    entry = codebook_select(cb, Vec3(math.sin(math.radians(5)) * 4, 0, math.cos(math.radians(5)) * 4), p)
    assert math.degrees(entry.azimuth_rad) == pytest.approx(5.0)
    # equidistant between -5 and 0 -> lower index (-5 comes first)
    mid = math.radians(-2.5)
    entry = codebook_select(cb, Vec3(math.sin(mid) * 4, 0, math.cos(mid) * 4), p)
    assert math.degrees(entry.azimuth_rad) == pytest.approx(-5.0)
    assert entry.index < 2


def test_codebook_select_behind_panel():
    grid = CodebookGridSpec(-10, 10, 5.0, 0.0, 0.0, 5.0)
    p = panel(6, 6)
    cb = codebook_build(p, BROADSIDE_IN, grid)
    with pytest.raises(OutOfCoverage):
        codebook_select(cb, Vec3(0, 0, -3.0), p)


def test_codebook_select_diffusion():
    grid = CodebookGridSpec(-10, 10, 5.0, 0.0, 0.0, 5.0)
    p = panel(6, 6)
    cb = codebook_build(p, BROADSIDE_IN, grid)
    assert codebook_select(cb, Vec3(0, 0, 3.0), p, "diffusion").functionality == "diffusion"


def test_codebook_select_permutation_invariant_without_ties():
    """Reordering the beams changes nothing unless the tie-break kicks in."""
    from latcsim.ris import Codebook

    grid = CodebookGridSpec(-20, 20, 5.0, 0.0, 0.0, 5.0)
    p = panel(6, 6)
    cb = codebook_build(p, BROADSIDE_IN, grid)
    estimate = Vec3(math.sin(math.radians(7)) * 3, 0.1, math.cos(math.radians(7)) * 3)
    picked = codebook_select(cb, estimate, p)

    order = np.random.default_rng(3).permutation(len(cb.azimuth_rad))
    shuffled = Codebook(p, cb.incident, cb.azimuth_rad[order], cb.elevation_rad[order])
    picked2 = codebook_select(shuffled, estimate, p)
    assert picked2.azimuth_rad == picked.azimuth_rad
    assert picked2.elevation_rad == picked.elevation_rad


# --------------------------------------------------------------------------
# closed-form codebook paths against the element sum and the sampled diagram
# --------------------------------------------------------------------------


def select_reference(codebook, estimate, p):
    """Per-entry loop over world steering directions, lowest index on ties."""
    to_est = (estimate - p.center).as_array()
    t = to_est / np.linalg.norm(to_est)
    steer = [codebook.entry(i) for i in range(len(codebook.azimuth_rad))]
    dirs = np.array([direction_from_azel(p, e.azimuth_rad, e.elevation_rad) for e in steer])
    dots = dirs @ t
    return steer[int(np.flatnonzero(dots >= dots.max() - 1e-12)[0])]


def wall_panel(rows, cols, spacing):
    return RisPanel(0, Vec3(0, 3, 1.5), Vec3(0, 1, 0), Vec3(0, 0, 1), rows, cols, spacing)


OBLIQUE_GRID = CodebookGridSpec(-50, 50, 10.0, -30, 30, 15.0)


@pytest.mark.parametrize("rows,cols,spacing", [(7, 12, 0.5), (7, 12, 0.8), (12, 7, 1.0)])
def test_sweep_gains_match_element_sum(rows, cols, spacing):
    p = wall_panel(rows, cols, spacing)
    cb = codebook_build(p, (p.center - Vec3(5.0, 1.0, 2.9)).unit(), OBLIQUE_GRID)
    steer = [cb.entry(i) for i in range(len(cb.azimuth_rad))]
    rng = np.random.default_rng(rows * 100 + int(spacing * 10))
    for _ in range(8):
        point = Vec3(*rng.uniform((0.3, 0.2, 0.2), (7.8, 5.8, 2.8)))
        gains = sweep_gains(cb, p, point)
        reference = [beam_gain_at(p, e.profile, cb.incident, point) for e in steer]
        assert np.max(np.abs(gains - reference)) <= 1e-12

    for i in (0, 17, len(steer) - 1):
        ray = direction_from_azel(p, steer[i].azimuth_rad, steer[i].elevation_rad)
        on_ray = Vec3.from_array(p.center.as_array() + 3.0 * ray)
        assert sweep_gains(cb, p, on_ray)[i] == pytest.approx(1.0, abs=1e-12)
    behind = Vec3(-2.0, 2.5, 1.0)
    assert np.array_equal(sweep_gains(cb, p, behind), np.zeros(len(steer)))


def test_sweep_gains_on_grating_lobe():
    """At pitch 1 the beam steered to azimuth 30 deg repeats in full at -30 deg."""
    p = wall_panel(12, 7, 1.0)
    cb = codebook_build(p, (p.center - Vec3(5.0, 1.0, 2.9)).unit(), OBLIQUE_GRID)
    beam = int(np.flatnonzero(np.isclose(cb.azimuth_rad, math.radians(30)) & (cb.elevation_rad == 0.0))[0])
    lobe = Vec3.from_array(p.center.as_array() + 3.0 * direction_from_azel(p, math.radians(-30), 0.0))
    reference = beam_gain_at(p, cb.entry(beam).profile, cb.incident, lobe)
    assert reference == pytest.approx(1.0, abs=1e-12)
    assert sweep_gains(cb, p, lobe)[beam] == pytest.approx(reference, abs=1e-12)


def test_codebook_select_matches_direction_loop():
    p = wall_panel(7, 12, 0.8)
    cb = codebook_build(p, (p.center - Vec3(5.0, 1.0, 2.9)).unit(), OBLIQUE_GRID)
    rng = np.random.default_rng(11)
    for _ in range(40):
        estimate = Vec3(*rng.uniform((0.3, 0.2, 0.2), (7.8, 5.8, 2.8)))
        assert codebook_select(cb, estimate, p).index == select_reference(cb, estimate, p).index

    # the tie of test_codebook_select_exact_and_ties
    p = panel(6, 6)
    cb = codebook_build(p, BROADSIDE_IN, CodebookGridSpec(-10, 10, 5.0, 0.0, 0.0, 5.0))
    mid = math.radians(-2.5)
    estimate = Vec3(math.sin(mid) * 4, 0, math.cos(mid) * 4)
    assert codebook_select(cb, estimate, p).index == select_reference(cb, estimate, p).index == 1


def test_codebook_rejects_another_panel():
    """A codebook answers only for the panel it was built for."""
    p = panel(8, 8, spacing=0.5)
    cb = codebook_build(p, BROADSIDE_IN, CodebookGridSpec(-30, 30, 10.0, 0.0, 0.0, 5.0))
    point = Vec3(1.0, 0.0, 3.0)
    sweep_gains(cb, p, point)
    wider = replace(p, spacing_wavelengths=0.7)
    with pytest.raises(InvalidVector):
        sweep_gains(cb, wider, point)
    with pytest.raises(InvalidVector):
        codebook_select(cb, point, wider)
    with pytest.raises(InvalidVector):
        codebook_select(cb, point, wider, "diffusion")


def sampled_broadside_hpbw(p, axis):
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    cut = p.axis_u if axis == "u" else p.axis_v
    return hpbw(scattering_diagram(p, prof, BROADSIDE_IN, 0.01, -90.0, 90.0, cut_axis=cut))


@pytest.mark.parametrize("rows,cols,spacing", [(5, 9, 0.5), (12, 7, 0.8), (16, 3, 1.0), (2, 4, 0.5)])
def test_broadside_hpbw_matches_sampled_diagram(rows, cols, spacing):
    p = panel(rows, cols, spacing)
    for axis in ("u", "v"):
        assert broadside_hpbw_deg(p, axis) == pytest.approx(sampled_broadside_hpbw(p, axis), abs=1e-4)


def test_broadside_hpbw_edge_cases():
    assert broadside_hpbw_deg(panel(2, 4), "u") == pytest.approx(60.0, abs=1e-9)
    for p, exc in ((panel(1, 4), DegenerateDiagram), (panel(2, 4, spacing=0.2), DiagramTooNarrowlySampled)):
        with pytest.raises(exc):
            sampled_broadside_hpbw(p, "u")
        with pytest.raises(exc):
            broadside_hpbw_deg(p, "u")


def test_beam_gain_on_steered_ray_and_half_power():
    p = panel(10, 10)
    tgt = Vec3(0.2, 0, 1.0).unit()
    prof = steer_profile(p, BROADSIDE_IN, tgt)
    assert beam_gain_at(p, prof, BROADSIDE_IN, tgt.scale(5.0)) == pytest.approx(1.0, abs=1e-12)

    width = broadside_hpbw_deg(p, "u")
    # half-power offsets sit at u_steer +- sin(width/2) in direction cosines
    for sign in (+1, -1):
        u_off = tgt.x + sign * math.sin(math.radians(width / 2))
        direction = Vec3(u_off, 0.0, math.sqrt(1 - u_off**2))
        g = beam_gain_at(p, prof, BROADSIDE_IN, direction.scale(4.0))
        assert g == pytest.approx(0.5, abs=0.02)


def test_beam_gain_behind_panel():
    p = panel(10, 10)
    prof = steer_profile(p, BROADSIDE_IN, BROADSIDE_OUT)
    assert beam_gain_at(p, prof, BROADSIDE_IN, Vec3(0, 0, -2.0)) == 0.0


def gain_reference(p, profile, incident, point):
    """Unfactored element sum toward point: one exponential per element."""
    u, v, _ = p.frame()
    out = (point - p.center).unit().as_array()
    inc = incident.as_array()
    coords = element_coords(p)
    d = inc + out
    phase = profile.phases + 2 * math.pi * (coords[:, 0] * (d @ u) + coords[:, 1] * (d @ v))
    return abs(np.exp(1j * phase).sum()) ** 2 / p.n_elements**2


@pytest.mark.parametrize("kind", ["diffusion", "steer"])
def test_beam_gain_matches_element_sum(kind):
    """The factored row x column sum equals the per-element sum, also for an
    incident other than the one a steering profile was built for."""
    p = wall_panel(7, 12, 0.8)
    if kind == "diffusion":
        prof = diffusion_profile(p, 5)
    else:
        prof = steer_profile(p, Vec3(-0.9, 0.2, -0.3).unit(), Vec3(0.8, 0.4, 0.3).unit())
    incident = Vec3(-0.7, -0.5, 0.2).unit()
    rng = np.random.default_rng(23)
    for _ in range(12):
        point = Vec3(*rng.uniform((0.3, 0.2, 0.2), (7.8, 5.8, 2.8)))
        gain = beam_gain_at(p, prof, incident, point)
        assert abs(gain - gain_reference(p, prof, incident, point)) <= 1e-12


def test_diffusion_profile_deterministic():
    p = panel(12, 12)
    a = diffusion_profile(p, 42)
    b = diffusion_profile(p, 42)
    c = diffusion_profile(p, 43)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.phases, c.phases)


def test_diffusion_profile_no_coherent_lobe():
    """A 40x40 random-phase profile stays far below the coherent peak."""
    p = panel(40, 40)
    prof = diffusion_profile(p, 7)
    worst = 0.0
    for theta in np.arange(-89.0, 89.5, 0.5):
        s, c = math.sin(math.radians(theta)), math.cos(math.radians(theta))
        for direction in (Vec3(s, 0, c), Vec3(0, s, c)):
            worst = max(worst, beam_gain_at(p, prof, BROADSIDE_IN, direction.scale(3.0)))
    assert worst <= 0.1


def test_diffusion_single_element():
    p = panel(1, 1)
    prof = diffusion_profile(p, 3)
    d = scattering_diagram(p, prof, BROADSIDE_IN, 0.5)
    assert np.all(d.values == 1.0)


def test_steer_peak_within_grid_step():
    """Diagram argmax lands within one step of the steered direction."""
    p = panel(16, 16)
    rng = np.random.default_rng(5)
    for _ in range(6):
        az = math.radians(rng.uniform(-50, 50))
        tgt = Vec3(math.sin(az), 0, math.cos(az)).unit()
        prof = steer_profile(p, BROADSIDE_IN, tgt)
        d = scattering_diagram(p, prof, BROADSIDE_IN, 0.02, -90.0, 90.0)
        peak = d.angles_deg[np.argmax(d.values)]
        assert abs(peak - d.cut.steer_angle_deg) <= 0.02 + 1e-9
        assert d.cut.steer_angle_deg == pytest.approx(abs(math.degrees(az)), abs=1e-9)
