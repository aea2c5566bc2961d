import math
from dataclasses import replace

import pytest
import yaml

from latcsim.errors import ConfigError
from latcsim.scenario import load_scenario, read_config_text, scenario_from_dict


def test_load_builtin_default():
    scenario, text = load_scenario("default")
    assert scenario.seed == 7
    assert len(scenario.anchors) == 4
    assert scenario.panels[0].panel.rows == 40
    assert scenario.panels[0].leris is not None
    assert scenario.channel.k_ratio == 100.0
    assert "room" in text


def test_load_builtin_five_ue():
    scenario, _ = load_scenario("five-ue")
    assert [c.name for c in scenario.ue_cases] == ["ue1", "ue2", "ue3", "ue4", "ue5"]
    assert math.isinf(scenario.channel.k_ratio)


def test_missing_config_file_mentions_path():
    with pytest.raises(ConfigError, match="no/such/file.yaml"):
        load_scenario("no/such/file.yaml")


def _default_dict():
    text, _ = read_config_text("default")
    return yaml.safe_load(text)


def test_unknown_key_rejected_with_location(tmp_path):
    text, _ = read_config_text("default")
    text = text.replace("detection_threshold_w: 1.0e-9", "detection_treshold_w: 1.0e-9")
    path = tmp_path / "typo.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    msg = str(err.value)
    assert "detection_treshold_w" in msg
    assert "typo.yaml:" in msg  # line context


def test_unknown_nested_key_rejected():
    data = _default_dict()
    data["experiments"]["inbeam"]["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        scenario_from_dict(data)


def test_missing_required_key():
    data = _default_dict()
    del data["room"]["extents"]
    with pytest.raises(ConfigError, match="extents"):
        scenario_from_dict(data)


# Keys whose absence leaves the value `default` gives them.
OPTIONAL_KEYS = [
    ("room", "obstacles"),
    ("panels", 0, "spacing_wavelengths"),
    ("codebook", "diffusion_seed"),
    *(("receiver", k) for k in ("fov_deg", "area_cm2", "optical_gain", "tilt_deg", "side_count")),
    ("channel", "noise_std_w"),
    ("channel", "detection_threshold_w"),
    ("request", "service"),
    ("request", "qos_precision_m"),
    *(("timing", k) for k in ("beacon_ms", "report_ms", "config_ms", "dwell_ms")),
    ("experiments", "scattering", "resolution_deg"),
    ("experiments", "scattering", "spacing_wavelengths"),
    ("experiments", "error_vs_k", "margin_m"),
    ("experiments", "error_vs_k", "z_m"),
]


def _key_paths(node, path=()):
    """Every mapping key in the config, following the first item of each list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _key_paths(node[0], path + (0,))


def _without(path):
    data = _default_dict()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return data


def test_schema_optional_keys_take_dataclass_defaults(default_scenario):
    for path in OPTIONAL_KEYS:
        assert scenario_from_dict(_without(path)) == default_scenario, path
    no_leris = scenario_from_dict(_without(("panels", 0, "leris")))
    assert no_leris.panels[0].leris is None


def test_schema_required_keys_named_when_missing():
    optional = set(OPTIONAL_KEYS) | {("panels", 0, "leris")}
    required = [p for p in _key_paths(_default_dict()) if p not in optional]
    assert ("channel", "k_ratio") in required and ("codebook", "az_step_deg") in required
    for path in required:
        with pytest.raises(ConfigError, match=str(path[-1])):
            scenario_from_dict(_without(path))


def test_k_inf_sentinel_parses():
    data = _default_dict()
    data["channel"]["k_ratio"] = "inf"
    scenario = scenario_from_dict(data)
    assert math.isinf(scenario.channel.k_ratio)


def test_bad_yaml_reported(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("room: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_scenario(path)


@pytest.mark.parametrize(
    "text,message", [("room: {}\n---\nroom: {}\n", "invalid YAML"), ("", "must be a YAML mapping")]
)
def test_not_one_yaml_mapping_reported(tmp_path, text, message):
    path = tmp_path / "odd.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_scenario(path)


def test_obstacle_outside_room_rejected():
    data = _default_dict()
    data["room"]["obstacles"] = [{"min": [7, 5, 2], "max": [9, 6, 3]}]
    with pytest.raises(ConfigError, match="obstacles"):
        scenario_from_dict(data)


def test_distance_range_validated():
    data = _default_dict()
    data["experiments"]["tolerated_error"]["d_max_m"] = 20.0
    with pytest.raises(ConfigError, match="within"):
        scenario_from_dict(data)


def test_unknown_method_rejected():
    data = _default_dict()
    data["experiments"]["inbeam"]["methods"] = ["rss", "teleport"]
    with pytest.raises(ConfigError, match="teleport"):
        scenario_from_dict(data)


def test_leris_anchors_generated(default_scenario, default_scene):
    leris = [a for a in default_scene.anchors if a.mount.startswith("leris")]
    assert len(leris) == 4
    panel = default_scene.panels[0]
    for a in leris:
        off = (a.position - panel.center).as_array()
        assert abs(float(off @ panel.normal.as_array())) < 1e-12
        assert a.tx_power_w == 0.1


def test_scene_rejects_wrong_leris_count(default_scene):
    from latcsim.scene import Scene

    with pytest.raises(Exception, match="exactly 4"):
        Scene(
            default_scene.room,
            default_scene.anchors[:-1],  # drop one LERIS LED
            default_scene.panels,
            default_scene.ap,
        )


def test_scene_rejects_off_plane_leris(default_scene):
    from latcsim.channel import OpticalAnchor
    from latcsim.geometry import Vec3
    from latcsim.scene import Scene

    bad = list(default_scene.anchors)
    last = bad[-1]
    bad[-1] = OpticalAnchor(
        last.id, last.position + Vec3(0.05, 0, 0), last.normal,
        last.lambertian_m, last.tx_power_w, last.mount,
    )
    with pytest.raises(Exception, match="off its panel plane"):
        Scene(default_scene.room, tuple(bad), default_scene.panels, default_scene.ap)


def test_scene_codebooks_read_only_copy(default_scene):
    from latcsim.ris import CodebookGridSpec, codebook_build

    panel = default_scene.panels[0]
    incident = (panel.center - default_scene.ap).unit()
    cb = codebook_build(panel, incident, CodebookGridSpec(0, 0, 1.0, 0, 0, 1.0))
    given = {panel.id: cb}
    base = replace(default_scene, codebooks=given)
    other = replace(base, codebooks=base.codebooks)
    with pytest.raises(TypeError):
        other.codebooks[panel.id] = "oops"
    given[panel.id] = "oops"
    given[99] = cb
    assert dict(base.codebooks) == {panel.id: cb}
    assert dict(other.codebooks) == {panel.id: cb}
