"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them inline).

 1. Broadside HPBW bands and monotonicity over square panel sizes.
 2. Tolerated-error formula exact on a (theta, d) grid plus spot values.
 3. Noiseless oracle equivalence of trilateration / hybrid / AoA on a
    10 x 10 interior grid of the default room.
 4. Paired Monte Carlo shape of RSS error vs K (>= 1e4 trials per point).
 5. Protocol branch coverage over the five receiver cases.
 6. End-to-end in-beam implication, noiseless rate 1 up to 14 m.
 7. Byte-identical CLI reruns (CSV and manifest).
"""

import math
import time
from dataclasses import replace

import numpy as np
import yaml

from latcsim import (
    ChannelParams,
    RisPanel,
    Vec3,
    angle_between,
    beam_gain_at,
    hybrid_rss_aoa,
    aoa_direction,
    measure,
    rss_trilaterate,
    run_latc,
    tolerated_error,
)
from latcsim.cli import main
from latcsim.experiments import exp_error_vs_k, exp_latc_run
from latcsim.ris import broadside_hpbw_deg, entry_direction_world, min_broadside_hpbw_deg
from latcsim.scenario import build_scene, read_config_text, scenario_from_dict


def _report(num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {status} ({elapsed:.1f}s / budget {budget}s): {detail}")


def test_criterion_1_hpbw_vs_element_count():
    t0 = time.perf_counter()
    square = {n: broadside_hpbw_deg(RisPanel(0, Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), n, n)) for n in (5, 10, 20, 40)}
    elapsed = time.perf_counter() - t0
    ok = (
        abs(square[10] - 10.2) <= 0.3
        and 2.0 <= square[40] <= 2.8
        and square[5] > square[10] > square[20] > square[40]
        and elapsed < 30.0
    )
    _report(1, ok, elapsed, 30, f"HPBW 10x10={square[10]:.2f} deg, 40x40={square[40]:.2f} deg, "
                                f"decreasing {[round(square[n], 2) for n in (5, 10, 20, 40)]}")
    assert abs(square[10] - 10.2) <= 0.3
    assert 2.0 <= square[40] <= 2.8
    assert square[5] > square[10] > square[20] > square[40]
    assert elapsed < 30.0


def test_criterion_2_tolerated_error_formula():
    t0 = time.perf_counter()
    thetas = np.linspace(1.0, 179.0, 10)
    dists = np.linspace(0.0, 14.0, 10)
    worst = 0.0
    for th in thetas:
        for d in dists:
            got = tolerated_error(float(th), float(d))
            ref = math.tan(math.radians(th / 2.0)) * d
            worst = max(worst, abs(got - ref))
    spot = tolerated_error(18.0, 14.0) * 100.0  # cm
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and abs(spot - 221.7) < 0.1 and spot < 250.0 and elapsed < 1.0
    _report(2, ok, elapsed, 1, f"grid max dev {worst:.2e} m, spot(18 deg, 14 m) = {spot:.1f} cm")
    assert worst <= 1e-12
    assert abs(spot - 221.7) < 0.1
    assert spot < 250.0
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence(default_scenario, default_scene):
    t0 = time.perf_counter()
    params = ChannelParams(k_ratio=math.inf, noise_std_w=0.0, detection_threshold_w=1e-12, seed=1)
    worst_tri = worst_hyb = worst_aoa = 0.0
    for x in np.linspace(1.0, 7.0, 10):
        for y in np.linspace(1.0, 5.0, 10):
            true = Vec3(float(x), float(y), 0.8)
            ue = default_scenario.receiver.array_at(true)
            measurement = measure(default_scene, ue, params)

            est = rss_trilaterate(measurement)
            worst_tri = max(worst_tri, (est.position - true).norm())

            anchor_id = measurement.strongest_los_anchor()
            anchor = next(a for a in default_scene.anchors if a.id == anchor_id)
            u = aoa_direction(measurement, anchor_id)
            worst_aoa = max(worst_aoa, angle_between(u, (anchor.position - true).unit()))
            hyb = hybrid_rss_aoa(measurement, anchor_id)
            worst_hyb = max(worst_hyb, (hyb.position - true).norm())
    elapsed = time.perf_counter() - t0
    ok = worst_tri < 1e-6 and worst_hyb < 1e-6 and worst_aoa < 1e-9 and elapsed < 10.0
    _report(3, ok, elapsed, 10, f"worst: trilat {worst_tri:.1e} m, hybrid {worst_hyb:.1e} m, "
                                f"aoa {worst_aoa:.1e} rad over 100 grid points")
    assert worst_tri < 1e-6
    assert worst_hyb < 1e-6
    assert worst_aoa < 1e-9
    assert elapsed < 10.0


def test_criterion_4_error_vs_k_shape(default_scenario):
    spec = default_scenario.experiments.error_vs_k
    assert spec.trials >= 10_000
    assert tuple(spec.k_values) == (10.0, 25.0, 50.0, 100.0, 200.0)
    assert tuple(spec.m_values) == (0.5, 1.0, 2.0)

    t0 = time.perf_counter()
    header, rows = exp_error_vs_k(default_scenario)
    elapsed = time.perf_counter() - t0

    k_col = [r[0] for r in rows]
    ok = True
    details = []
    for mi, m in enumerate(spec.m_values):
        means = [r[1 + 3 * mi] for r in rows]
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        ratio = means[0] / means[-1]
        high_k_below = all(
            mean < 16.0 for k, mean in zip(k_col, means) if k >= 100.0
        )
        ok = ok and decreasing and ratio >= 3.0 and high_k_below
        details.append(f"m={m:g}: K10 {means[0]:.1f} cm -> K200 {means[-1]:.2f} cm (x{ratio:.0f})")
        assert decreasing, f"means not strictly decreasing for m={m}: {means}"
        assert ratio >= 3.0
        assert high_k_below
    ok = ok and elapsed < 120.0
    _report(4, ok, elapsed, 120, "; ".join(details))
    assert elapsed < 120.0


def test_criterion_5_protocol_branches(five_ue_scenario):
    t0 = time.perf_counter()
    header, rows = exp_latc_run(five_ue_scenario)
    methods = [r[1] for r in rows]
    n_values = [r[2] for r in rows]

    # anchors actually used per case, via direct runs
    base = build_scene(five_ue_scenario)
    rng = np.random.default_rng(five_ue_scenario.seed)
    seeds = rng.integers(0, 2**63, len(five_ue_scenario.ue_cases))
    used = {}
    for case, seed in zip(five_ue_scenario.ue_cases, seeds):
        scene = (
            base
            if not case.obstacles
            else build_scene(five_ue_scenario, case.obstacles)
        )
        ue = five_ue_scenario.receiver.array_at(case.position)
        outcome = run_latc(
            scene, ue, five_ue_scenario.request,
            replace(five_ue_scenario.channel, seed=int(seed)), five_ue_scenario.timing,
        )
        used[case.name] = sorted(outcome.estimate.anchors_used)
    elapsed = time.perf_counter() - t0

    ok = (
        methods == ["rss", "rss", "rss", "rss", "rss_aoa"]
        and n_values == [8, 4, 8, 6, 1]
        and used["ue1"] == [0, 1, 2, 3]
        and used["ue2"] == [100, 101, 102, 103]
        and used["ue5"] == [0]
        and elapsed < 5.0
    )
    _report(5, ok, elapsed, 5, f"methods {methods}, N {n_values}, ue1 via ceiling, ue2 via LERIS")
    assert methods == ["rss", "rss", "rss", "rss", "rss_aoa"]
    assert n_values == [8, 4, 8, 6, 1]
    assert used["ue1"] == [0, 1, 2, 3]
    assert used["ue2"] == [100, 101, 102, 103]
    assert used["ue5"] == [0]
    assert elapsed < 5.0


def _long_room_scenario():
    """15 m room so panel-receiver distances reach 14 m."""
    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["room"]["extents"] = [15.0, 6.0, 3.0]
    data["ap"] = [7.5, 3.0, 2.8]
    anchors = []
    aid = 0
    for x in (2.0, 5.5, 9.0, 12.5):
        for y in (1.5, 4.5):
            anchors.append(
                {"id": aid, "position": [x, y, 3.0], "normal": [0.0, 0.0, -1.0],
                 "lambertian_m": 1.0, "tx_power_w": 1.0}
            )
            aid += 1
    data["anchors"] = anchors
    data["panels"][0]["leris"] = None
    data["codebook"].update(
        {"az_min_deg": -30.0, "az_max_deg": 30.0, "el_min_deg": -20.0, "el_max_deg": 0.0}
    )
    data["channel"] = {"k_ratio": "inf", "noise_std_w": 0.0, "detection_threshold_w": 1.0e-12}
    return data


def test_criterion_6_in_beam_implication():
    t0 = time.perf_counter()
    data = _long_room_scenario()
    rng = np.random.default_rng(99)
    n_trials = 24
    xs = np.linspace(2.2, 13.9, n_trials)
    ys = rng.uniform(2.5, 3.5, n_trials)

    checked = 0
    for rows_n in (10, 40):
        cfg = dict(data)
        cfg["panels"] = [dict(data["panels"][0], rows=rows_n, cols=rows_n)]
        scenario = scenario_from_dict(cfg)
        scene = build_scene(scenario)
        panel = scene.panels[0]
        half_width = min_broadside_hpbw_deg(panel) / 2.0
        for channel, require_in_beam in (
            (scenario.channel, True),
            (replace(scenario.channel, k_ratio=50.0, noise_std_w=1e-9), False),
        ):
            for method in ("rss", "rss_aoa", "beam_scan"):
                for x, y in zip(xs, ys):
                    true = Vec3(float(x), float(y), 0.8)
                    ue = scenario.receiver.array_at(true)
                    outcome = run_latc(
                        scene, ue, scenario.request,
                        replace(channel, seed=int(x * 1000)), scenario.timing,
                        force_method=method,
                    )
                    assert outcome.terminal_event is None, (method, x, outcome.terminal_event)
                    true_dir = (true - panel.center).unit()
                    steer = Vec3.from_array(
                        entry_direction_world(panel, outcome.selected_entry)
                    ).unit()
                    offset = math.degrees(angle_between(steer, true_dir))
                    assert outcome.in_beam == (offset <= half_width)
                    if outcome.in_beam:
                        gain = beam_gain_at(
                            panel, outcome.selected_entry.profile,
                            scene.codebooks[panel.id].incident, true,
                        )
                        assert gain >= 0.48, (method, rows_n, x, gain)
                    if require_in_beam:
                        assert outcome.in_beam, (method, rows_n, x, offset, half_width)
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(6, ok, elapsed, 60, f"{checked} runs: in_beam <=> offset rule, gain >= 0.48, "
                                f"noiseless P(in_beam)=1 up to 14 m for M in {{100, 1600}}")
    assert elapsed < 60.0


def test_criterion_7_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["panels"][0].update({"rows": 8, "cols": 8})
    data["codebook"].update({"az_step_deg": 10.0, "el_step_deg": 10.0})
    data["experiments"]["scattering"]["m_configs"] = [{"rows": 8, "cols": 8}]
    data["experiments"]["scattering"]["resolution_deg"] = 0.05
    data["experiments"]["error_vs_k"].update({"trials": 200, "k_values": [10, 100]})
    data["experiments"]["inbeam"].update(
        {"trials": 3, "m_configs": [{"rows": 8, "cols": 8}], "methods": ["rss", "beam_scan"]}
    )
    cfg = tmp_path / "determinism.yaml"
    cfg.write_text(yaml.safe_dump(data))

    outputs = {
        "scattering": ("scattering.csv", "hpbw.csv", "manifest"),
        "tolerated-error": ("tolerated-error.csv", "manifest"),
        "error-vs-k": ("error-vs-k.csv", "manifest"),
        "inbeam": ("inbeam.csv", "manifest"),
        "latc-run": ("latc-run.csv", "manifest"),
    }
    identical = True
    for sub, files in outputs.items():
        d1 = tmp_path / f"{sub}-1"
        d2 = tmp_path / f"{sub}-2"
        assert main([sub, "--config", str(cfg), "--seed", "7", "--out", str(d1)]) == 0
        assert main([sub, "--config", str(cfg), "--seed", "7", "--out", str(d2)]) == 0
        for name in files:
            same = (d1 / name).read_bytes() == (d2 / name).read_bytes()
            identical = identical and same
            assert same, f"{sub}/{name} differs between reruns"
    elapsed = time.perf_counter() - t0
    _report(7, identical, elapsed, 60, "all five subcommands byte-identical on rerun")
