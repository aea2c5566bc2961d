from dataclasses import replace

import pytest

from latcsim import (
    CodebookGridSpec,
    ServiceRequest,
    Timing,
    Vec3,
    beam_gain_at,
    feedback_recalibrate,
    method_select,
    run_latc,
)
from latcsim.errors import LocalizationUnavailable
from latcsim.protocol import LatcOutcome
from latcsim.scenario import build_scene


REQ = ServiceRequest("beamsteer-data", 0.25)


# --------------------------------------------------------------------------
# method selection
# --------------------------------------------------------------------------


def test_method_select_hybrid_below_four_anchors():
    assert method_select(3, 5, REQ, 0.05) == "rss_aoa"


def test_method_select_plain_rss_with_loose_qos():
    assert method_select(5, 5, ServiceRequest("beamsteer-data", 0.5), 0.05) == "rss"


def test_method_select_qos_upgrade_to_hybrid():
    tight = ServiceRequest("xr-rf", 0.01)
    assert method_select(5, 5, tight, 0.05) == "rss_aoa"
    # same QoS but a receiver with too few PDs falls back to plain RSS
    assert method_select(5, 2, tight, 0.05) == "rss"


def test_method_select_unavailable():
    with pytest.raises(LocalizationUnavailable):
        method_select(0, 1, REQ, 0.05)


def test_method_select_total_over_state_space():
    """Every (N, n_pds) combination yields a method or the documented error."""
    for n in range(9):
        for pds in range(1, 6):
            try:
                method = method_select(n, pds, REQ, 0.05)
                assert method in ("rss", "rss_aoa")
            except LocalizationUnavailable:
                assert n < 4 and pds < 3


# --------------------------------------------------------------------------
# full protocol runs
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def five_ue_setup(five_ue_scenario):
    base = build_scene(five_ue_scenario)
    return five_ue_scenario, base


def _case_outcome(scenario, base_scene, name, seed=5):
    case = next(c for c in scenario.ue_cases if c.name == name)
    scene = base_scene if not case.obstacles else build_scene(scenario, case.obstacles)
    ue = scenario.receiver.array_at(case.position)
    params = replace(scenario.channel, seed=seed)
    return run_latc(scene, ue, scenario.request, params, scenario.timing), case


def test_run_latc_via_leris_when_ceiling_blocked(five_ue_setup):
    scenario, base = five_ue_setup
    outcome, case = _case_outcome(scenario, base, "ue2")
    assert outcome.n_los == 4
    assert outcome.method == "rss"
    assert sorted(outcome.estimate.anchors_used) == [100, 101, 102, 103]
    assert outcome.position_error_m < 1e-6
    assert outcome.in_beam


def test_run_latc_hybrid_single_led(five_ue_setup):
    scenario, base = five_ue_setup
    outcome, case = _case_outcome(scenario, base, "ue5")
    assert outcome.n_los == 1
    assert outcome.method == "rss_aoa"
    assert outcome.estimate.anchors_used == (0,)
    assert outcome.position_error_m < 1e-6


def test_run_latc_timeline_order_and_monotonicity(five_ue_setup):
    scenario, base = five_ue_setup
    outcome, _ = _case_outcome(scenario, base, "ue1")
    tags = [tag for tag, _ in outcome.timeline]
    required = ["beacon", "measurement", "localization", "report", "configure"]
    positions = [tags.index(t) for t in required]
    assert positions == sorted(positions)
    times = [t for _, t in outcome.timeline]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert outcome.latency_ms == times[-1]


def test_run_latc_deterministic(five_ue_setup):
    scenario, base = five_ue_setup
    o1, _ = _case_outcome(scenario, base, "ue3", seed=42)
    o2, _ = _case_outcome(scenario, base, "ue3", seed=42)
    assert o1 == o2


def test_run_latc_terminal_unavailable(five_ue_scenario):
    """One PD and a booth with a single LoS LED: no method applies."""
    scenario = replace(five_ue_scenario, receiver=replace(five_ue_scenario.receiver, side_count=0))
    case = next(c for c in scenario.ue_cases if c.name == "ue5")
    scene = build_scene(scenario, case.obstacles)
    ue = scenario.receiver.array_at(case.position)
    outcome = run_latc(scene, ue, scenario.request, replace(scenario.channel, seed=9), scenario.timing)
    assert outcome.terminal_event == "localization_unavailable"
    assert outcome.estimate is None
    assert not outcome.in_beam
    assert outcome.timeline[-1][0] == "localization_unavailable"


def test_run_latc_in_beam_consistency(five_ue_setup):
    """in_beam implies near-half-power gain toward the true position."""
    scenario, base = five_ue_setup
    noisy = replace(scenario.channel, k_ratio=50.0, noise_std_w=1e-9)
    for seed in range(6):
        for case in scenario.ue_cases:
            scene = base if not case.obstacles else build_scene(scenario, case.obstacles)
            ue = scenario.receiver.array_at(case.position)
            outcome = run_latc(scene, ue, scenario.request, replace(noisy, seed=seed), scenario.timing)
            if outcome.terminal_event or not outcome.in_beam:
                continue
            panel = scene.panel(outcome.serving_panel_id)
            gain = beam_gain_at(
                panel,
                outcome.selected_entry.profile,
                scene.codebooks[panel.id].incident,
                case.position,
            )
            assert gain >= 0.48


def test_run_latc_beam_scan_forced(five_ue_setup):
    scenario, base = five_ue_setup
    case = next(c for c in scenario.ue_cases if c.name == "ue1")
    ue = scenario.receiver.array_at(case.position)
    outcome = run_latc(
        base, ue, scenario.request, replace(scenario.channel, seed=3), scenario.timing,
        force_method="beam_scan",
    )
    assert outcome.method == "beam_scan"
    n_beams = len(base.codebooks[0].beamsteer_entries())
    loc_time = dict(outcome.timeline)
    assert loc_time["localization"] - loc_time["measurement"] == pytest.approx(n_beams * scenario.timing.dwell_ms)


def test_run_latc_diffusion_service(five_ue_setup):
    scenario, base = five_ue_setup
    req = ServiceRequest("diffusion-broadcast", 0.25)
    case = next(c for c in scenario.ue_cases if c.name == "ue1")
    ue = scenario.receiver.array_at(case.position)
    outcome = run_latc(base, ue, req, replace(scenario.channel, seed=3), scenario.timing)
    assert outcome.selected_entry.functionality == "diffusion"
    assert outcome.in_beam  # no pointing requirement


def test_timing_validation():
    with pytest.raises(Exception):
        Timing(beacon_ms=0.0)


def test_serving_panel_nearest_unoccluded_with_id_ties():
    from latcsim.geometry import Box, Room
    from latcsim.protocol import _serving_panel
    from latcsim.ris import RisPanel
    from latcsim.scene import Scene

    room = Room(Box(Vec3(0, 0, 0), Vec3(8, 6, 3)))
    near = RisPanel(0, Vec3(0, 3, 1.5), Vec3(0, 1, 0), Vec3(0, 0, 1), 4, 4)
    far = RisPanel(1, Vec3(8, 3, 1.5), Vec3(0, 0, 1), Vec3(0, 1, 0), 4, 4)
    scene = Scene(room, (), (near, far), Vec3(4, 3, 2.8))
    assert _serving_panel(scene, Vec3(2.0, 3.0, 0.8)).id == 0
    assert _serving_panel(scene, Vec3(6.0, 3.0, 0.8)).id == 1
    # equidistant: lowest id wins
    assert _serving_panel(scene, Vec3(4.0, 3.0, 1.5)).id == 0
    # occluding the near panel hands service to the far one
    wall = Box(Vec3(1.0, 0.0, 0.0), Vec3(1.2, 6.0, 3.0))
    blocked = Scene(room.with_obstacles((wall,)), (), (near, far), Vec3(4, 3, 2.8))
    assert _serving_panel(blocked, Vec3(2.0, 3.0, 0.8)).id == 1


# --------------------------------------------------------------------------
# feedback recalibration
# --------------------------------------------------------------------------


def _outcomes(flags):
    out = []
    for f in flags:
        out.append(
            LatcOutcome(
                estimate=None,
                method="rss",
                selected_entry=None,
                in_beam=f,
                position_error_m=None,
                timeline=(("beacon", 1.0),),
                n_los=4,
                serving_panel_id=0,
                terminal_event=None,
            )
        )
    return out


GRID = CodebookGridSpec(-60, 60, 4.0, -30, 0, 4.0)


def test_feedback_unchanged_when_all_in_beam():
    assert feedback_recalibrate(_outcomes([True] * 10), 10, GRID) is GRID


def test_feedback_halves_on_zero_rate():
    new = feedback_recalibrate(_outcomes([False] * 10), 10, GRID)
    assert new.az_step_deg == GRID.az_step_deg / 2
    assert new.el_step_deg == GRID.el_step_deg / 2


def test_feedback_strict_inequality_at_threshold():
    alternating = _outcomes([True, False] * 5)
    assert feedback_recalibrate(alternating, 10, GRID) is GRID


def test_feedback_window_validation():
    with pytest.raises(Exception):
        feedback_recalibrate(_outcomes([True]), 0, GRID)


def test_feedback_uses_only_last_window():
    stream = _outcomes([False] * 10 + [True] * 5)
    assert feedback_recalibrate(stream, 5, GRID) is GRID
    halved = feedback_recalibrate(stream, 15, GRID)
    assert halved.az_step_deg == GRID.az_step_deg / 2
