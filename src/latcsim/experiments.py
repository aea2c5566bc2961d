"""Seeded experiment drivers and CSV/manifest output.

Every driver derives all randomness from the scenario seed, writes columns
in a fixed order, and formats numbers deterministically, so identical
(config, seed) pairs produce byte-identical files. The drivers hold no
model code: the Monte Carlo calls the same batched sampler, occlusion and
top-4 kernels (channel, geometry, localization) that a protocol run
reaches through their single-trial wrappers. A statistic with no trial to
summarize is written as an empty cell.
"""

from __future__ import annotations

import hashlib
import math
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import draw_rss, link_arrays, los_power
from .geometry import Vec3, occlusion_matrix
from .localization import solve_trilateration_stream, top4_problem
from .protocol import run_latc
from .errors import ConfigError, DegenerateDiagram, DiagramTooNarrowlySampled
from .ris import (
    RisPanel,
    ScatteringDiagram,
    broadside_hpbw_deg,
    hpbw,
    scattering_diagram,
    steer_profile,
    tolerated_error,
)
from .scenario import Scenario, build_scene

# --------------------------------------------------------------------------
# CSV / manifest plumbing
# --------------------------------------------------------------------------


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header, then each row into the open file as it is formatted.

    rows is a list of rows, whose cells go through format_cell, or a 2-D
    float array, whose rows go through one "%.12g,...,%.12g" template: the
    same text format_cell gives each float, with no full-table copy.
    """
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            template = ",".join(["%.12g"] * rows.shape[1]) + "\n"
            for row in rows:
                f.write(template % tuple(row.tolist()))
        else:
            for row in rows:
                f.write(",".join(format_cell(v) for v in row) + "\n")


def write_manifest(out_dir: Path, config_text: str, seed: int) -> None:
    digest = hashlib.sha256(config_text.encode()).hexdigest()
    lines = [
        f"config_sha256={digest}",
        f"seed={seed}",
        f"package=latcsim {__version__}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
    ]
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def _canonical_panel(rows: int, cols: int, spacing: float) -> RisPanel:
    return RisPanel(0, Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), rows, cols, spacing)


# --------------------------------------------------------------------------
# Scattering diagrams and HPBW per element count
# --------------------------------------------------------------------------


def exp_scattering(scenario: Scenario):
    """Broadside scattering diagram per configured element count.

    Returns (header, table, hpbw_header, hpbw_rows). The diagram table is
    a float array with one angle column plus one value column per M, which
    write_csv writes row by row; hpbw_rows is a list of rows.
    """
    spec = scenario.experiments.scattering
    incident = Vec3(0, 0, -1)
    target = Vec3(0, 0, 1)
    diagrams: list[ScatteringDiagram] = []
    labels = []
    hpbw_rows = []
    for rows_n, cols_n in spec.m_configs:
        panel = _canonical_panel(rows_n, cols_n, spec.spacing_wavelengths)
        profile = steer_profile(panel, incident, target)
        diagram = scattering_diagram(panel, profile, incident, spec.resolution_deg)
        diagrams.append(diagram)
        labels.append(f"M{rows_n * cols_n}")
        try:
            width = hpbw(diagram)
        except (DegenerateDiagram, DiagramTooNarrowlySampled):
            width = ""  # single-element (flat) diagrams have no beamwidth
        hpbw_rows.append([rows_n * cols_n, rows_n, cols_n, width])

    header = ["angle_deg"] + labels
    table = np.column_stack([diagrams[0].angles_deg, *(d.values for d in diagrams)])
    return header, table, ["M", "rows", "cols", "hpbw_deg"], hpbw_rows


# --------------------------------------------------------------------------
# Tolerated localization error vs distance
# --------------------------------------------------------------------------


def exp_tolerated_error(scenario: Scenario):
    spec = scenario.experiments.tolerated_error
    sc = scenario.experiments.scattering
    n = int(math.floor((spec.d_max_m - spec.d_min_m) / spec.d_step_m + 1e-9)) + 1
    distances = spec.d_min_m + spec.d_step_m * np.arange(n)

    widths = []
    labels = []
    for rows_n, cols_n in sc.m_configs:
        panel = _canonical_panel(rows_n, cols_n, sc.spacing_wavelengths)
        try:
            widths.append(broadside_hpbw_deg(panel, "u"))
        except DegenerateDiagram as exc:
            raise ConfigError(
                f"panel {rows_n}x{cols_n} has no beamwidth to derive sigma_p from"
            ) from exc
        labels.append(f"sigma_p_m_M{rows_n * cols_n}")
    header = ["distance_m"] + labels
    rows = [[d] + [tolerated_error(w, d) for w in widths] for d in distances]
    return header, rows


# --------------------------------------------------------------------------
# RSS localization error vs K (paired Monte Carlo)
# --------------------------------------------------------------------------

def exp_error_vs_k(scenario: Scenario):
    """Paired Monte Carlo of the top-4 RSS method over the K and m grids.

    All (K, m) points share one position sample and one block of channel
    draws, so error curves are directly comparable point by point. The
    points are built m-major as the solver reads them, each m's line-of-sight
    terms once (channel.los_power) and the NLoS draw per K. Their valid
    trials pass through one LM working set (solve_trilateration_stream) as
    one stream; each trial's error and converged flag are kept at its place
    in it, and a point's three statistics come from its own slice.
    """
    spec = scenario.experiments.error_vs_k
    scene = build_scene(scenario)
    arrays = link_arrays(scene.anchors, scenario.receiver.array_at(Vec3(0, 0, 0)))

    root = np.random.SeedSequence(scenario.seed)
    ss_pos, ss_meas = root.spawn(2)
    ext = scenario.room.extents
    rng_pos = np.random.default_rng(ss_pos)
    t_n = spec.trials
    positions = np.column_stack(
        [
            rng_pos.uniform(ext.lo.x + spec.margin_m, ext.hi.x - spec.margin_m, t_n),
            rng_pos.uniform(ext.lo.y + spec.margin_m, ext.hi.y - spec.margin_m, t_n),
            np.full(t_n, spec.z_m),
        ]
    )
    a_n = arrays["anchor_pos"].shape[0]
    p_n = arrays["pd_normal"].shape[0]
    rng_meas = np.random.default_rng(ss_meas)
    log_u = np.log1p(-rng_meas.random((t_n, a_n, p_n)))
    noise = rng_meas.normal(0.0, scenario.channel.noise_std_w, (t_n, a_n, p_n))
    blocked = occlusion_matrix(scene.room, positions, arrays["anchor_pos"])
    bounds = (ext.lo.as_array(), ext.hi.as_array())

    labels = [f"m{m:g}" for m in spec.m_values]
    header = ["K"]
    for lab in labels:
        header += [f"mean_cm_{lab}", f"median_cm_{lab}", f"p95_cm_{lab}"]

    n_places = t_n * len(spec.k_values) * len(spec.m_values)
    trial = np.empty(n_places, dtype=int)  # the trial at each place of the stream
    cuts = [0]  # each point's first place, then the end of the stream

    def points():
        for m in spec.m_values:
            arrays_m = {**arrays, "m": np.full_like(arrays["m"], m)}
            p_los, los = los_power(arrays_m, positions, blocked)
            for k in spec.k_values:
                problem, ok = top4_problem(arrays_m, draw_rss(p_los, los, k, log_u, noise), los)
                idx = np.flatnonzero(ok)  # the valid trials, the ones with four LoS anchors
                trial[cuts[-1] : cuts[-1] + idx.size] = idx
                cuts.append(cuts[-1] + idx.size)
                yield problem, idx
            del p_los, los, problem  # before the next m's terms are formed

    err_cm, used = np.empty(n_places), np.zeros(n_places, bool)
    for at, p, _, converged in solve_trilateration_stream(points(), bounds, n_places):
        err_cm[at] = np.linalg.norm(p - positions[trial[at]], axis=1) * 100.0
        used[at] = converged
    rows = [[k] for k in spec.k_values]
    for n, (a, b) in enumerate(zip(cuts, cuts[1:])):
        err = err_cm[a:b][used[a:b]]
        if err.size:
            stats = [float(err.mean()), float(np.median(err)), float(np.percentile(err, 95))]
        else:
            stats = ["", "", ""]
        rows[n % len(rows)] += stats  # the points come m-major, so a row fills m by m
    return header, rows


# --------------------------------------------------------------------------
# End-to-end in-beam study
# --------------------------------------------------------------------------


def exp_inbeam(scenario: Scenario):
    """Monte Carlo of full protocol runs per method and element count."""
    spec = scenario.experiments.inbeam
    region = spec.region
    root = np.random.default_rng(scenario.seed)
    t_n = spec.trials
    positions = np.column_stack(
        [
            root.uniform(region.x_min, region.x_max, t_n),
            root.uniform(region.y_min, region.y_max, t_n),
            np.full(t_n, region.z),
        ]
    )
    seeds = root.integers(0, 2**63, t_n)

    header = ["method", "M", "p_in_beam", "mean_error_cm", "mean_latency_ms"]
    rows = []
    for rows_n, cols_n in spec.m_configs:
        panel_scenario = _with_panel_size(scenario, rows_n, cols_n)
        scene = build_scene(panel_scenario)
        for method in spec.methods:
            in_beam = []
            errors = []
            latencies = []
            for i in range(t_n):
                ue = scenario.receiver.array_at(Vec3.from_array(positions[i]))
                params = replace(scenario.channel, seed=int(seeds[i]))
                outcome = run_latc(
                    scene,
                    ue,
                    scenario.request,
                    params,
                    scenario.timing,
                    force_method=method,
                )
                in_beam.append(outcome.in_beam)
                latencies.append(outcome.latency_ms)
                if outcome.position_error_m is not None:
                    errors.append(outcome.position_error_m)
            rows.append(
                [
                    method,
                    rows_n * cols_n,
                    float(np.mean(in_beam)),
                    float(np.mean(errors) * 100.0) if errors else "",
                    float(np.mean(latencies)),
                ]
            )
    return header, rows


def _with_panel_size(scenario: Scenario, rows_n: int, cols_n: int) -> Scenario:
    if not scenario.panels:
        raise ConfigError("scenario has no panel to resize")
    first = scenario.panels[0]
    panel = replace(first.panel, rows=rows_n, cols=cols_n)
    new_specs = (replace(first, panel=panel),) + scenario.panels[1:]
    return replace(scenario, panels=new_specs)


# --------------------------------------------------------------------------
# Protocol runs over the configured UE cases
# --------------------------------------------------------------------------


def exp_latc_run(scenario: Scenario):
    """One protocol run per configured UE case."""
    if not scenario.ue_cases:
        raise ConfigError("scenario defines no ue_cases")
    rng = np.random.default_rng(scenario.seed)
    seeds = rng.integers(0, 2**63, len(scenario.ue_cases))

    header = ["run_id", "method", "N", "position_error_m", "in_beam", "latency_ms", "terminal_event"]
    rows = []
    for case, seed in zip(scenario.ue_cases, seeds):
        scene = build_scene(scenario, case.obstacles)
        ue = scenario.receiver.array_at(case.position)
        params = replace(scenario.channel, seed=int(seed))
        outcome = run_latc(scene, ue, scenario.request, params, scenario.timing)
        rows.append(
            [
                case.name,
                outcome.method,
                outcome.n_los,
                outcome.position_error_m if outcome.position_error_m is not None else "",
                outcome.in_beam,
                outcome.latency_ms,
                outcome.terminal_event or "",
            ]
        )
    return header, rows
