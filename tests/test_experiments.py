import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

from latcsim.cli import main
from latcsim.experiments import (
    exp_latc_run,
    exp_scattering,
    exp_tolerated_error,
    format_cell,
    write_csv,
)
from latcsim.scenario import read_config_text, scenario_from_dict


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
    ("  position: [4.0, 3.0, 0.8]", "  position: [9.0, 3.0, 0.8]"),
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
