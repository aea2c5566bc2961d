import hashlib
import math
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from latcsim import experiments, localization
from latcsim.cli import main
from latcsim.experiments import (
    exp_error_vs_k,
    exp_latc_run,
    exp_scattering,
    exp_tolerated_error,
    format_cell,
    write_csv,
)
from latcsim.scenario import build_scene, read_config_text, scenario_from_dict


def small_config(tmp_path, scattering_m=((8, 8),), **overrides):
    """Compact scenario: small panel so experiments run in milliseconds."""
    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["panels"][0]["rows"] = 8
    data["panels"][0]["cols"] = 8
    data["codebook"].update({"az_step_deg": 10.0, "el_step_deg": 10.0, "el_min_deg": -30.0})
    data["experiments"]["scattering"]["m_configs"] = [
        {"rows": r, "cols": c} for r, c in scattering_m
    ]
    data["experiments"]["scattering"]["resolution_deg"] = 0.05
    data["experiments"]["error_vs_k"].update({"trials": 300, "k_values": [10, "inf"]})
    data["experiments"]["inbeam"].update(
        {"trials": 4, "m_configs": [{"rows": 8, "cols": 8}], "methods": ["rss", "beam_scan"]}
    )
    for key, value in overrides.items():
        data[key].update(value) if isinstance(value, dict) else data.__setitem__(key, value)
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_exp_scattering_columns_and_flat_single_element(default_scenario):
    scenario = replace(
        default_scenario,
        experiments=replace(
            default_scenario.experiments,
            scattering=replace(
                default_scenario.experiments.scattering,
                m_configs=((1, 1), (4, 4)),
                resolution_deg=0.5,
            ),
        ),
    )
    header, rows, hpbw_header, hpbw_rows = exp_scattering(scenario)
    assert header == ["angle_deg", "M1", "M16"]
    assert hpbw_header == ["M", "rows", "cols", "hpbw_deg"]
    assert all(r[1] == 1.0 for r in rows)  # single element is isotropic
    assert hpbw_rows[0][3] == ""  # no beamwidth for a flat diagram
    assert hpbw_rows[1][3] > 0.0
    assert rows[0][0] == -180.0 and rows[-1][0] == 180.0


def test_exp_tolerated_error_linear_in_distance(default_scenario):
    header, rows = exp_tolerated_error(default_scenario)
    assert header[0] == "distance_m"
    assert header[1:] == ["sigma_p_m_M50", "sigma_p_m_M100", "sigma_p_m_M1600"]
    cols = np.array(rows, dtype=float)
    for j in range(1, cols.shape[1]):
        ratio = cols[:, j] / cols[:, 0]
        assert np.allclose(ratio, ratio[0], rtol=1e-12)  # sigma_p / d constant
    # larger M -> uniformly smaller tolerated error
    assert np.all(cols[:, 1] > cols[:, 2])
    assert np.all(cols[:, 2] > cols[:, 3])


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(3) == "3"
    assert format_cell(0.5) == "0.5"
    assert format_cell(math.inf) == "inf"
    assert format_cell("rss") == "rss"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], [3, "x"]])
    assert path.read_text() == "a,b\n1,2.5\n3,x\n"


def test_write_csv_float_array_matches_format_cell(tmp_path):
    """A float array's rows go through one template: the bytes format_cell gives."""
    table = np.array(
        [
            [math.nan, math.inf, -math.inf, -0.0],
            [5e-324, 1e16, 0.1, 1 / 3],
            # the 12th significant digit rounds up, down, and across a decade
            [123456789012.5, 0.1234567890126, -2.00000000000049, 9.9999999999995],
        ]
    )
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], table)
    cells = "".join(",".join(format_cell(v) for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == ("a,b,c,d\n" + cells).encode()
    assert path.read_text().splitlines()[1] == "nan,inf,-inf,-0"


def test_exp_latc_run_five_ue(five_ue_scenario):
    header, rows = exp_latc_run(five_ue_scenario)
    assert header == [
        "run_id", "method", "N", "position_error_m", "in_beam", "latency_ms", "terminal_event",
    ]
    methods = [r[1] for r in rows]
    assert methods == ["rss", "rss", "rss", "rss", "rss_aoa"]
    assert [r[2] for r in rows] == [8, 4, 8, 6, 1]
    assert all(r[6] == "" for r in rows)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def test_cli_scattering_deterministic(tmp_path):
    cfg = small_config(tmp_path, scattering_m=((1, 1), (8, 8)))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["scattering", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["scattering", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    for name in ("scattering.csv", "hpbw.csv", "manifest"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = (out1 / "manifest").read_text()
    assert "config_sha256=" in manifest and "seed=7" in manifest


def test_cli_missing_config_exit_1(tmp_path, capsys):
    rc = main(["scattering", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "absent.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["file", "file/sub"])
def test_cli_unwritable_out_exit_2(tmp_path, capsys, under):
    """An --out that is an existing file, or lies under one, is an output
    error: exit 2 with the path named, not a traceback."""
    (tmp_path / "file").write_text("")
    out = tmp_path / under
    assert main(["tolerated-error", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(out) in err


def test_cli_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_flag_exit_1(capsys):
    assert main(["scattering", "--bogus", "1"]) == 1


def test_cli_latc_run_five_ue(tmp_path):
    out = tmp_path / "runs"
    assert main(["latc-run", "--config", "five-ue", "--out", str(out)]) == 0
    lines = (out / "latc-run.csv").read_text().strip().splitlines()
    assert lines[0] == "run_id,method,N,position_error_m,in_beam,latency_ms,terminal_event"
    assert len(lines) == 6
    methods = [line.split(",")[1] for line in lines[1:]]
    assert methods == ["rss", "rss", "rss", "rss", "rss_aoa"]


def test_cli_tolerated_error_and_inbeam(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "o"
    assert main(["tolerated-error", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tolerated-error.csv").exists()
    assert main(["inbeam", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "inbeam.csv").read_text().strip().splitlines()
    assert lines[0] == "method,M,p_in_beam,mean_error_cm,mean_latency_ms"
    assert len(lines) == 3  # two methods x one M


def test_cli_tolerated_error_rejects_flat_panel(tmp_path, capsys):
    cfg = small_config(tmp_path, scattering_m=((1, 1),))
    rc = main(["tolerated-error", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "beamwidth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("scattering", "resolution_deg", 0.0),
        ("scattering", "resolution_deg", math.nan),
        ("scattering", "spacing_wavelengths", 0.0),
        ("tolerated-error", "spacing_wavelengths", 0.0),
    ],
)
def test_cli_rejects_bad_scattering_section(tmp_path, capsys, command, key, value):
    """The scattering section is checked at load: exit 1 with the key's line."""
    cfg = small_config(tmp_path)
    data = yaml.safe_load(cfg.read_text())
    data["experiments"]["scattering"][key] = value
    cfg.write_text(yaml.safe_dump(data))
    lines = cfg.read_text().splitlines()
    start = lines.index("  scattering:")
    line = next(i + 1 for i in range(start, len(lines)) if lines[i].strip().startswith(f"{key}:"))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"small.yaml:{line}: {key} must be finite and > 0" in capsys.readouterr().err


# One bad value each in an edited copy of `default`: (line as written, edit).
BAD_VALUES = [
    ("    resolution_deg: 0.01", "    resolution_deg: fine"),
    ("    d_step_m: 0.5", "    d_step_m: 0"),
    ("    d_step_m: 0.5", "    d_step_m: -0.5"),
    ("    d_max_m: 14.0", "    d_max_m: 20.0"),
    ("  beacon_ms: 1.0", "  beacon_ms: -1"),
    ("    rows: 40", "    rows: 0"),
    # a scene panel with one row or column has no beamwidth along it
    ("    rows: 40", "    rows: 1"),
    ("    cols: 40", "    cols: 1"),
    ("    trials: 10000", "    trials: sixty"),
    ("normal: [0.0, 0.0, -1.0]", "normal: [0.0, 0.0, 0.0]"),
    ("  qos_precision_m: 0.25", "  qos_precision_m: -1"),
    ("  az_step_deg: 1.0", "  az_step_deg: 0"),
    ("ap: [4.0, 3.0, 2.8]", "ap: [4, 3, x]"),
    ("  noise_std_w: 1.0e-9", "  noise_std_w: -1"),
    ("seed: 7", "seed: seven"),
    ("m_values: [0.5, 1.0, 2.0]", "m_values: [0.5, -1, 2.0]"),
    ("k_values: [10, 25, 50", "k_values: [10, 0, 50"),
    ("  fov_deg: 70.0", "  fov_deg: 0"),
    ("{x_min: 2.0, x_max: 7.5", "{x_min: 7.5, x_max: 2.0"),
    ("    margin_m: 0.75", "    margin_m: 5.0"),
    ("methods: [rss, rss_aoa, beam_scan]", "methods: [rss, teleport]"),
    ("tx_power_w: 0.1,", "tx_power_w: -0.1,"),
    ("lambertian_m: 1.0, offset_m", "lambertian_m: 0, offset_m"),
    ("offset_m: 0.3", "offset_m: -0.3"),
    ("offset_m: 0.3", "offset_m: .nan"),
    # geometry the scene rules reject: anchors, LERIS LEDs, panel centres, UE
    # cases and the receiver outside the room, and anchor ids used twice
    ("{id: 0, position: [2.0, 1.0, 3.0]", "{id: 0, position: [2.0, 1.0, 3.5]"),
    ("offset_m: 0.3", "offset_m: 5"),
    ("center: [0.0, 3.0, 1.5]", "center: [-1.0, 3.0, 1.5]"),
    ("id_base: 100", "id_base: 2"),
    ("{name: center, position: [4.0, 3.0, 0.8]}", "{name: center, position: [9.0, 3.0, 0.8]}"),
    # a UE case on a ceiling LED, and on a LERIS LED
    ("{name: center, position: [4.0, 3.0, 0.8]}", "{name: center, position: [2.0, 1.0, 3.0]}"),
    ("{name: center, position: [4.0, 3.0, 0.8]}", "{name: center, position: [0.0, 2.7, 1.2]}"),
    ("  position: [4.0, 3.0, 0.8]", "  position: [9.0, 3.0, 0.8]"),
    # an AP outside the room, and one on a panel centre (no incident direction)
    ("ap: [4.0, 3.0, 2.8]", "ap: [40.0, 3.0, 2.8]"),
    ("ap: [4.0, 3.0, 2.8]", "ap: [0.0, 3.0, 1.5]"),
    # a key repeated in its mapping, block or flow style
    ("  noise_std_w: 1.0e-9", "  k_ratio: 5.0"),
    ("{id: 0, position: [2.0, 1.0, 3.0]", "{id: 0, id: 7, position: [2.0, 1.0, 3.0]"),
]


@pytest.mark.parametrize("line_text,edit", BAD_VALUES, ids=[e.strip() for _, e in BAD_VALUES])
def test_cli_rejects_bad_value_at_its_line(tmp_path, capsys, line_text, edit):
    """Every bad value is a config error at load: exit 1, naming file:line."""
    text, _ = read_config_text("default")
    line = next(i + 1 for i, t in enumerate(text.splitlines()) if line_text in t)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text.replace(line_text, edit, 1))
    rc = main(["latc-run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"config error: {cfg}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,override,message",
    [("inbeam", {"panels": []}, "no panel"), ("latc-run", {"ue_cases": []}, "no ue_cases")],
)
def test_cli_run_time_config_problem_exit_1(tmp_path, capsys, command, override, message):
    cfg = small_config(tmp_path, **override)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_inbeam_latency_scaling(tmp_path):
    """Scan latency tracks the codebook size; RSS latency does not."""
    import yaml as _yaml

    from latcsim.experiments import exp_inbeam
    from latcsim.scenario import scenario_from_dict

    text, _ = read_config_text("default")
    data = _yaml.safe_load(text)
    data["panels"][0].update({"rows": 6, "cols": 6})
    data["codebook"].update({"az_step_deg": 8.0, "el_step_deg": 8.0})
    data["experiments"]["inbeam"].update(
        {"trials": 3, "m_configs": [{"rows": 4, "cols": 4}, {"rows": 6, "cols": 6}],
         "methods": ["rss", "beam_scan"]}
    )
    scenario = scenario_from_dict(data)
    _, rows = exp_inbeam(scenario)
    latency = {(r[0], r[1]): r[4] for r in rows}
    n_beams = len(scenario.codebook_grid.azimuths_deg()) * len(scenario.codebook_grid.elevations_deg())
    assert latency[("rss", 16)] == latency[("rss", 36)]
    assert latency[("beam_scan", 16)] == latency[("beam_scan", 36)]
    overhead = latency[("rss", 16)] - scenario.timing.dwell_ms
    assert latency[("beam_scan", 16)] == pytest.approx(overhead + n_beams * scenario.timing.dwell_ms)


def test_cli_error_vs_k_sentinel(tmp_path):
    """K = inf with zero noise drives the reported error to the floor."""
    cfg = small_config(tmp_path, channel={"k_ratio": 100.0, "noise_std_w": 0.0})
    out = tmp_path / "k"
    assert main(["error-vs-k", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "error-vs-k.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "K"
    assert header[1] == "mean_cm_m0.5"
    finite = lines[1].split(",")
    sentinel = lines[2].split(",")
    assert sentinel[0] == "inf"
    for v in sentinel[1:]:
        assert float(v) < 1e-4  # noiseless limit, in cm
    assert float(finite[1]) > float(sentinel[1])


def test_empty_statistics_write_empty_cells(tmp_path):
    """A canopy under every LED leaves no used trial: empty cells, no warning."""
    import warnings

    from latcsim.experiments import exp_inbeam
    from latcsim.scenario import scenario_from_dict

    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["room"]["obstacles"] = [{"min": [0, 0, 2.0], "max": [8, 6, 2.2]}]
    del data["panels"][0]["leris"]
    data["panels"][0].update({"rows": 4, "cols": 4})
    data["codebook"].update({"az_step_deg": 20.0, "el_step_deg": 10.0})
    data["experiments"]["error_vs_k"]["trials"] = 50
    data["experiments"]["inbeam"].update(
        {"trials": 2, "m_configs": [{"rows": 4, "cols": 4}], "methods": ["rss"]}
    )
    cfg = tmp_path / "canopy.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["error-vs-k", "--config", str(cfg), "--out", str(out)]) == 0
        _, inbeam_rows = exp_inbeam(scenario_from_dict(data))
    lines = (out / "error-vs-k.csv").read_text().splitlines()
    assert [line.split(",")[1:] for line in lines[1:]] == [[""] * 9] * 5
    assert inbeam_rows[0][3] == ""


def test_error_vs_k_with_three_anchors_writes_empty_cells(tmp_path):
    """A scene with fewer than four anchors has no valid trial: every cell is
    empty and the command exits 0."""
    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["anchors"] = data["anchors"][:3]
    del data["panels"][0]["leris"]
    data["experiments"]["error_vs_k"]["trials"] = 50
    cfg = tmp_path / "three.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "o"
    assert main(["error-vs-k", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "error-vs-k.csv").read_text().splitlines()
    assert [line.split(",")[1:] for line in lines[1:]] == [[""] * 9] * 5


@pytest.mark.parametrize("command", ["error-vs-k", "inbeam", "latc-run"])
def test_scene_without_anchors_runs_to_defined_output(tmp_path, command):
    """No anchors and no LERIS: error-vs-k writes empty cells and each
    protocol run ends on a terminal event; exit 0 and no nan or inf cell."""
    cfg = small_config(tmp_path, anchors=[])
    data = yaml.safe_load(cfg.read_text())
    data["panels"][0]["leris"] = None
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    (table,) = out.glob("*.csv")
    _, *rows = table.read_text().splitlines()
    cells = [cell for row in rows for cell in row.split(",")[1:]]  # K may be inf
    assert rows and not {"nan", "inf", "-inf"} & {cell.lower() for cell in cells}
    if command == "error-vs-k":
        assert set(cells) == {""}
    if command == "latc-run":
        assert all(row.split(",")[-1] for row in rows)  # a terminal event


@pytest.mark.parametrize("entry", ["{rows: 1, cols: 40}", "{rows: 40, cols: 1}"])
def test_cli_rejects_flat_inbeam_panel_at_its_line(tmp_path, capsys, entry):
    """An in-beam panel size with one row or column is a config error at its
    entry's line, where the protocol used to stop on a flat diagram."""
    text, _ = read_config_text("default")
    head, target, tail = text.rpartition("      - {rows: 40, cols: 40}")  # the in-beam entry
    assert target
    cfg = tmp_path / "flat.yaml"
    cfg.write_text(head + f"      - {entry}" + tail)
    assert main(["inbeam", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    line = head.count("\n") + 1
    assert f"config error: {cfg}:{line}: m_configs entry" in capsys.readouterr().err


def test_cli_scattering_keeps_flat_panels(tmp_path):
    """A scattering panel may be flat: its hpbw.csv cell is empty or a width."""
    cfg = small_config(tmp_path, scattering_m=((1, 8), (8, 1), (8, 8)))
    out = tmp_path / "o"
    assert main(["scattering", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "hpbw.csv").read_text().splitlines()[1:]]
    assert [row[1:3] for row in rows] == [["1", "8"], ["8", "1"], ["8", "8"]]
    assert rows[0][3] == "" and float(rows[2][3]) > 0.0


# --------------------------------------------------------------------------
# error-vs-K: grid batches against one solve per point, the snapshot digest and
# the traced memory peak
# --------------------------------------------------------------------------


def _error_vs_k_per_point(scenario):
    """exp_error_vs_k's rows from one solve per (K, m) point over all trials,
    the loop the grid batches replace; also the valid count per point."""
    from latcsim.channel import link_arrays, rss_batch
    from latcsim.geometry import Vec3, occlusion_matrix
    from latcsim.localization import solve_trilateration_batch, top4_problem

    spec = scenario.experiments.error_vs_k
    scene = build_scene(scenario)
    arrays = link_arrays(scene.anchors, scenario.receiver.array_at(Vec3(0, 0, 0)))
    ss_pos, ss_meas = np.random.SeedSequence(scenario.seed).spawn(2)
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
    shape = (t_n, arrays["anchor_pos"].shape[0], arrays["pd_normal"].shape[0])
    rng_meas = np.random.default_rng(ss_meas)
    u_nlos = rng_meas.random(shape)
    noise = rng_meas.normal(0.0, scenario.channel.noise_std_w, shape)
    blocked = occlusion_matrix(scene.room, positions, arrays["anchor_pos"])
    bounds = (ext.lo.as_array(), ext.hi.as_array())
    rows, n_valid = [], []
    for k in spec.k_values:
        row = [k]
        for m in spec.m_values:
            arrays_m = {**arrays, "m": np.full_like(arrays["m"], m)}
            rss, los = rss_batch(arrays_m, positions, k, u_nlos, noise, blocked)
            problem, valid = top4_problem(arrays_m, rss, los)
            n_valid.append(int(valid.sum()))
            err_cm = np.empty(0)
            if valid.any():
                p, _, converged = solve_trilateration_batch(problem, bounds)
                ok = valid & converged
                err_cm = np.linalg.norm(p[ok] - positions[ok], axis=1) * 100.0
            if err_cm.size:
                row += [float(err_cm.mean()), float(np.median(err_cm)), float(np.percentile(err_cm, 95))]
            else:
                row += ["", "", ""]
        rows.append(row)
    return rows, n_valid


def _scenario_with(edit):
    text, _ = read_config_text("default")
    data = yaml.safe_load(text)
    data["experiments"]["error_vs_k"]["trials"] = 300
    edit(data)
    return scenario_from_dict(data)


def _one_pd_under_canopy(data):
    # a canopy over x < 3 m hides the ceiling LEDs from part of the room, and
    # the lone upward PD does not see the wall LERIS: 40-60 % of the trials
    # are invalid, and every valid one starts from the grid
    data["room"]["obstacles"] = [{"min": [0, 0, 2.0], "max": [3.0, 6, 2.2]}]
    data["receiver"]["side_count"] = 0
    data["experiments"]["error_vs_k"]["k_values"] = [10, "inf"]


ROW_SCENES = {"default": lambda data: None, "one-pd-canopy": _one_pd_under_canopy}


@pytest.mark.parametrize("width", [None, 10**6, 250, 7])
@pytest.mark.parametrize("scene", list(ROW_SCENES))
def test_error_vs_k_row_batches_change_no_statistic(monkeypatch, scene, width):
    """Streaming the grid's points through one LM working set, whose trials
    may come from several points and K rows (10**6: the whole grid at
    once), gives exactly the statistics of one solve per (K, m) point."""
    scenario = _scenario_with(ROW_SCENES[scene])
    if width is not None:
        monkeypatch.setattr(localization, "_WORKING_SET_TRIALS", width)
    if width == 7:  # a narrow set runs long: two K values are enough
        spec = scenario.experiments.error_vs_k
        scenario = replace(
            scenario,
            experiments=replace(scenario.experiments, error_vs_k=replace(spec, k_values=spec.k_values[:2])),
        )
    want, n_valid = _error_vs_k_per_point(scenario)
    assert exp_error_vs_k(scenario)[1] == want
    if scene == "one-pd-canopy":
        assert 0 < min(n_valid) and max(n_valid) < 300


def test_error_vs_k_pays_the_iteration_cap_once(monkeypatch):
    """One error-vs-k on `default` at 200 trials and the packaged seed takes
    at most 120 LM steps: the stream refills its working set as trials
    stop, so the tail of trials that run to the 100-iteration cap is paid
    about once, where 2,048-trial batches paid it twice (200 steps)."""
    steps = []
    lm_step = localization._lm_step
    monkeypatch.setattr(localization, "_lm_step", lambda *a: steps.append(1) or lm_step(*a))
    exp_error_vs_k(_scenario_with(lambda data: data["experiments"]["error_vs_k"].update(trials=200)))
    assert len(steps) <= 120


def _snapshot_lines():
    """SNAPSHOT.sha256's lines; skips the test on a platform other than the
    Python, numpy and PyYAML versions that its header names."""
    lines = (Path(__file__).resolve().parents[1] / "SNAPSHOT.sha256").read_text().splitlines()
    recorded = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))
    running = {"python": platform.python_version(), "numpy": np.__version__, "pyyaml": yaml.__version__}
    if recorded != running:
        pytest.skip(f"SNAPSHOT.sha256 records {recorded}, this platform runs {running}")
    return lines


def test_error_vs_k_default_matches_snapshot_digest(tmp_path):
    """error-vs-k on `default`, at its packaged 10^4 trials, writes the bytes
    that SNAPSHOT.sha256 records, on the platform that file names."""
    lines = _snapshot_lines()
    (want,) = [line.split()[0] for line in lines if line.endswith("  default/error-vs-k/error-vs-k.csv")]
    out = tmp_path / "o"
    assert main(["error-vs-k", "--config", "default", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "error-vs-k.csv").read_bytes()).hexdigest() == want


# tracemalloc peak of a warm exp_error_vs_k on `default` at 200 trials, in
# MiB, with Python 3.11.7 and numpy 2.4.6, recorded on the chunked solver
# (_SOLVE_CHUNK_TRIALS = 2048, _SLICE_TRIALS = 512). The LM stream that
# replaced it (_WORKING_SET_TRIALS = 2048, _SLICE_TRIALS = 512) reads
# 3.80 MiB; the recorded value is kept so that the guard does not loosen
_ERROR_VS_K_TRACED_PEAK_MIB = 3.76


def test_error_vs_k_traced_peak_is_bounded():
    """The traced memory peak of a warm error-vs-k at 200 trials stays within
    1.2 times its recorded value, so a wider LM working set or slice, a second
    copy of the fit planes or a carried [J, r] stack shows here. tracemalloc
    counts numpy's and Python's own allocations, so the test runs only on
    the platform that SNAPSHOT.sha256 names."""
    import tracemalloc

    _snapshot_lines()
    scenario = _scenario_with(lambda data: data["experiments"]["error_vs_k"].update(trials=200))
    exp_error_vs_k(scenario)  # fills the caches a cold run would count
    tracemalloc.start()
    try:
        exp_error_vs_k(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * _ERROR_VS_K_TRACED_PEAK_MIB * 2**20
