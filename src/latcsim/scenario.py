"""Scenario configuration: strict YAML schema and scene construction.

Configs are plain YAML with a fixed key set; unknown or missing keys are
rejected with the offending file line so a typo cannot silently skew an
experiment. The packaged configs ``default`` and ``five-ue`` can be named
in place of a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

import yaml

from .channel import ChannelParams, OpticalAnchor, PdArray, pyramid_array
from .errors import ConfigError
from .geometry import Box, Room, Vec3
from .protocol import ServiceRequest, Timing
from .ris import Codebook, CodebookGridSpec, RisPanel, codebook_build
from .scene import Scene

_BUILTIN = {"default": "default.yaml", "five-ue": "five_ue.yaml"}
_MISSING = object()


# --------------------------------------------------------------------------
# YAML loading with per-key line numbers
# --------------------------------------------------------------------------


def _linemap(node, path=(), out=None):
    if out is None:
        out = {}
    out[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _linemap(value_node, path + (key_node.value,), out)
            out[path + (key_node.value,)] = key_node.start_mark.line + 1
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _linemap(item, path + (i,), out)
    return out


def read_config_text(source: str | Path) -> tuple[str, str]:
    """Resolve a builtin name or path; returns (text, display name)."""
    name = str(source)
    if name in _BUILTIN:
        ref = resources.files("latcsim").joinpath("configs", _BUILTIN[name])
        return ref.read_text(), name
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return path.read_text(), str(path)


class _Section:
    """A mapping under validation: every key must be consumed exactly once."""

    def __init__(self, data, path, lines, name):
        if not isinstance(data, dict):
            raise ConfigError(f"{self._loc_static(lines, name, path)}: expected a mapping at '{_fmt(path)}'")
        self._data = dict(data)
        self._path = path
        self._lines = lines
        self._name = name

    @staticmethod
    def _loc_static(lines, name, path):
        line = lines.get(path)
        return f"{name}:{line}" if line else name

    def loc(self, key=None):
        path = self._path + (key,) if key is not None else self._path
        return self._loc_static(self._lines, self._name, path)

    def take(self, key, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.loc()}: missing required key '{key}' in '{_fmt(self._path)}'")
        return default

    def section(self, key, required=True):
        value = self.take(key, _MISSING if required else None)
        if value is None:
            return None
        return _Section(value, self._path + (key,), self._lines, self._name)

    def sequence(self, key, default=_MISSING):
        value = self.take(key, default)
        if value is None:
            return []
        if not isinstance(value, list):
            raise ConfigError(f"{self.loc(key)}: '{key}' must be a list")
        return [
            (_Section(v, self._path + (key, i), self._lines, self._name) if isinstance(v, dict) else v)
            for i, v in enumerate(value)
        ]

    def done(self):
        if self._data:
            key = next(iter(self._data))
            raise ConfigError(f"{self.loc(key)}: unknown key '{key}' in '{_fmt(self._path)}'")


def _fmt(path) -> str:
    return ".".join(str(p) for p in path) if path else "<root>"


def _vec3(value, where) -> Vec3:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{where}: expected [x, y, z]")
    return Vec3(float(value[0]), float(value[1]), float(value[2]))


def _positive_number(value, where) -> float:
    if value == "inf":
        return math.inf
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number") from None
    return out


# --------------------------------------------------------------------------
# Scenario dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LerisSpec:
    tx_power_w: float
    lambertian_m: float
    offset_m: float
    id_base: int


@dataclass(frozen=True)
class PanelSpec:
    panel: RisPanel
    leris: LerisSpec | None


@dataclass(frozen=True)
class ReceiverSpec:
    position: Vec3
    fov_deg: float = 70.0
    area_cm2: float = 1.0
    optical_gain: float = 1.0
    tilt_deg: float = 45.0
    side_count: int = 4

    def array_at(self, position: Vec3) -> PdArray:
        return pyramid_array(
            position,
            fov_deg=self.fov_deg,
            area_m2=self.area_cm2 * 1e-4,
            optical_gain=self.optical_gain,
            tilt_deg=self.tilt_deg,
            n_side=self.side_count,
        )


@dataclass(frozen=True)
class UeCase:
    name: str
    position: Vec3
    obstacles: tuple[Box, ...] = ()


@dataclass(frozen=True)
class ScatteringSpec:
    m_configs: tuple[tuple[int, int], ...]
    resolution_deg: float = 0.01
    spacing_wavelengths: float = 0.5


@dataclass(frozen=True)
class ToleratedErrorSpec:
    d_min_m: float
    d_max_m: float
    d_step_m: float


@dataclass(frozen=True)
class ErrorVsKSpec:
    k_values: tuple[float, ...]
    m_values: tuple[float, ...]
    trials: int
    margin_m: float = 0.75
    z_m: float = 0.8


@dataclass(frozen=True)
class InbeamRegion:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z: float


@dataclass(frozen=True)
class InbeamSpec:
    methods: tuple[str, ...]
    m_configs: tuple[tuple[int, int], ...]
    trials: int
    region: InbeamRegion


@dataclass(frozen=True)
class ExperimentsSpec:
    scattering: ScatteringSpec
    tolerated_error: ToleratedErrorSpec
    error_vs_k: ErrorVsKSpec
    inbeam: InbeamSpec


@dataclass(frozen=True)
class Scenario:
    room: Room
    ap: Vec3
    anchors: tuple[OpticalAnchor, ...]
    panels: tuple[PanelSpec, ...]
    codebook_grid: CodebookGridSpec
    diffusion_seed: int
    receiver: ReceiverSpec
    channel: ChannelParams
    request: ServiceRequest
    timing: Timing
    experiments: ExperimentsSpec
    ue_cases: tuple[UeCase, ...]
    seed: int


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def _parse_box(sec: _Section) -> Box:
    lo = _vec3(sec.take("min"), sec.loc("min"))
    hi = _vec3(sec.take("max"), sec.loc("max"))
    sec.done()
    return Box(lo, hi)


def _parse_room(sec: _Section) -> Room:
    extents = _vec3(sec.take("extents"), sec.loc("extents"))
    obstacles = [_parse_box(b) for b in sec.sequence("obstacles", default=None)]
    sec.done()
    return Room(Box(Vec3(0, 0, 0), extents), tuple(obstacles))


def _parse_anchor(sec: _Section) -> OpticalAnchor:
    anchor = OpticalAnchor(
        id=int(sec.take("id")),
        position=_vec3(sec.take("position"), sec.loc("position")),
        normal=_vec3(sec.take("normal"), sec.loc("normal")).unit(),
        lambertian_m=float(sec.take("lambertian_m")),
        tx_power_w=float(sec.take("tx_power_w")),
        mount="ceiling",
    )
    sec.done()
    return anchor


def _parse_panel(sec: _Section) -> PanelSpec:
    panel = RisPanel(
        id=int(sec.take("id")),
        center=_vec3(sec.take("center"), sec.loc("center")),
        axis_u=_vec3(sec.take("axis_u"), sec.loc("axis_u")).unit(),
        axis_v=_vec3(sec.take("axis_v"), sec.loc("axis_v")).unit(),
        rows=int(sec.take("rows")),
        cols=int(sec.take("cols")),
        spacing_wavelengths=float(sec.take("spacing_wavelengths", 0.5)),
    )
    leris_sec = sec.section("leris", required=False)
    leris = None
    if leris_sec is not None:
        leris = LerisSpec(
            tx_power_w=float(leris_sec.take("tx_power_w")),
            lambertian_m=float(leris_sec.take("lambertian_m")),
            offset_m=float(leris_sec.take("offset_m")),
            id_base=int(leris_sec.take("id_base")),
        )
        leris_sec.done()
    sec.done()
    return PanelSpec(panel, leris)


def _parse_mconfigs(entries, where) -> tuple[tuple[int, int], ...]:
    out = []
    for e in entries:
        if isinstance(e, _Section):
            rows, cols = int(e.take("rows")), int(e.take("cols"))
            e.done()
        else:
            raise ConfigError(f"{where}: m_configs entries must be mappings with rows/cols")
        out.append((rows, cols))
    if not out:
        raise ConfigError(f"{where}: m_configs must not be empty")
    return tuple(out)


def _parse_experiments(sec: _Section) -> ExperimentsSpec:
    sc = sec.section("scattering")
    scattering = ScatteringSpec(
        m_configs=_parse_mconfigs(sc.sequence("m_configs"), sc.loc("m_configs")),
        resolution_deg=float(sc.take("resolution_deg", 0.01)),
        spacing_wavelengths=float(sc.take("spacing_wavelengths", 0.5)),
    )
    sc.done()
    for key in ("resolution_deg", "spacing_wavelengths"):
        value = getattr(scattering, key)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{sc.loc(key)}: {key} must be finite and > 0")

    te = sec.section("tolerated_error")
    tolerated = ToleratedErrorSpec(
        d_min_m=float(te.take("d_min_m")),
        d_max_m=float(te.take("d_max_m")),
        d_step_m=float(te.take("d_step_m")),
    )
    te.done()
    if not (0.0 < tolerated.d_min_m <= tolerated.d_max_m <= 14.0):
        raise ConfigError(f"{te.loc()}: distance range must lie within (0, 14] m")

    ek = sec.section("error_vs_k")
    error_vs_k = ErrorVsKSpec(
        k_values=tuple(_positive_number(k, ek.loc("k_values")) for k in ek.sequence("k_values")),
        m_values=tuple(float(m) for m in ek.sequence("m_values")),
        trials=int(ek.take("trials")),
        margin_m=float(ek.take("margin_m", 0.75)),
        z_m=float(ek.take("z_m", 0.8)),
    )
    ek.done()
    if error_vs_k.trials < 1:
        raise ConfigError(f"{ek.loc('trials')}: trials must be >= 1")

    ib = sec.section("inbeam")
    region_sec = ib.section("region")
    region = InbeamRegion(
        x_min=float(region_sec.take("x_min")),
        x_max=float(region_sec.take("x_max")),
        y_min=float(region_sec.take("y_min")),
        y_max=float(region_sec.take("y_max")),
        z=float(region_sec.take("z")),
    )
    region_sec.done()
    inbeam = InbeamSpec(
        methods=tuple(str(m) for m in ib.sequence("methods")),
        m_configs=_parse_mconfigs(ib.sequence("m_configs"), ib.loc("m_configs")),
        trials=int(ib.take("trials")),
        region=region,
    )
    ib.done()
    for m in inbeam.methods:
        if m not in ("rss", "rss_aoa", "beam_scan"):
            raise ConfigError(f"{ib.loc('methods')}: unknown method '{m}'")

    sec.done()
    return ExperimentsSpec(scattering, tolerated, error_vs_k, inbeam)


def scenario_from_dict(data: dict, lines: dict | None = None, name: str = "<config>") -> Scenario:
    lines = lines or {}
    root = _Section(data, (), lines, name)

    room = _parse_room(root.section("room"))
    ap = _vec3(root.take("ap"), root.loc("ap"))
    anchors = tuple(_parse_anchor(a) for a in root.sequence("anchors"))
    panels = tuple(_parse_panel(p) for p in root.sequence("panels"))

    cb = root.section("codebook")
    grid = CodebookGridSpec(
        az_min_deg=float(cb.take("az_min_deg")),
        az_max_deg=float(cb.take("az_max_deg")),
        az_step_deg=float(cb.take("az_step_deg")),
        el_min_deg=float(cb.take("el_min_deg")),
        el_max_deg=float(cb.take("el_max_deg")),
        el_step_deg=float(cb.take("el_step_deg")),
    )
    diffusion_seed = int(cb.take("diffusion_seed", 1))
    cb.done()

    rc = root.section("receiver")
    receiver = ReceiverSpec(
        position=_vec3(rc.take("position"), rc.loc("position")),
        fov_deg=float(rc.take("fov_deg", 70.0)),
        area_cm2=float(rc.take("area_cm2", 1.0)),
        optical_gain=float(rc.take("optical_gain", 1.0)),
        tilt_deg=float(rc.take("tilt_deg", 45.0)),
        side_count=int(rc.take("side_count", 4)),
    )
    rc.done()

    ch = root.section("channel")
    channel = ChannelParams(
        k_ratio=_positive_number(ch.take("k_ratio"), ch.loc("k_ratio")),
        noise_std_w=float(ch.take("noise_std_w", 1e-9)),
        detection_threshold_w=float(ch.take("detection_threshold_w", 1e-9)),
        seed=0,
    )
    ch.done()

    rq = root.section("request")
    request = ServiceRequest(
        service=str(rq.take("service", "beamsteer-data")),
        qos_precision_m=float(rq.take("qos_precision_m", 0.25)),
    )
    rq.done()

    tm = root.section("timing")
    timing = Timing(
        beacon_ms=float(tm.take("beacon_ms", 1.0)),
        report_ms=float(tm.take("report_ms", 2.0)),
        config_ms=float(tm.take("config_ms", 1.0)),
        dwell_ms=float(tm.take("dwell_ms", 1.0)),
    )
    tm.done()

    experiments = _parse_experiments(root.section("experiments"))

    cases = []
    for case_sec in root.sequence("ue_cases"):
        case = UeCase(
            name=str(case_sec.take("name")),
            position=_vec3(case_sec.take("position"), case_sec.loc("position")),
            obstacles=tuple(_parse_box(b) for b in case_sec.sequence("obstacles", default=None)),
        )
        case_sec.done()
        cases.append(case)

    seed = int(root.take("seed"))
    root.done()

    return Scenario(
        room=room,
        ap=ap,
        anchors=anchors,
        panels=panels,
        codebook_grid=grid,
        diffusion_seed=diffusion_seed,
        receiver=receiver,
        channel=channel,
        request=request,
        timing=timing,
        experiments=experiments,
        ue_cases=tuple(cases),
        seed=seed,
    )


def load_scenario(source: str | Path) -> tuple[Scenario, str]:
    """Load and validate a scenario; returns (scenario, raw config text)."""
    text, name = read_config_text(source)
    try:
        node = yaml.compose(text)
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{name}: invalid YAML: {exc}") from exc
    if node is None or not isinstance(data, dict):
        raise ConfigError(f"{name}: config must be a YAML mapping")
    lines = _linemap(node)
    return scenario_from_dict(data, lines, name), text


# --------------------------------------------------------------------------
# Scene construction
# --------------------------------------------------------------------------


def leris_anchors(spec: PanelSpec) -> list[OpticalAnchor]:
    """The four corner IR LEDs a LERIS carries, on the panel face."""
    if spec.leris is None:
        return []
    panel, leris = spec.panel, spec.leris
    u = panel.axis_u
    v = panel.axis_v
    out = []
    corners = [(-1, -1), (-1, +1), (+1, -1), (+1, +1)]
    for k, (su, sv) in enumerate(corners):
        pos = panel.center + u.scale(su * leris.offset_m) + v.scale(sv * leris.offset_m)
        out.append(
            OpticalAnchor(
                id=leris.id_base + k,
                position=pos,
                normal=panel.normal,
                lambertian_m=leris.lambertian_m,
                tx_power_w=leris.tx_power_w,
                mount=f"leris:{panel.id}",
            )
        )
    return out


def build_scene(
    scenario: Scenario,
    extra_obstacles: tuple[Box, ...] = (),
    build_codebooks: bool = True,
    codebooks: Mapping[int, Codebook] | None = None,
) -> Scene:
    """Assemble the immutable scene, generating LERIS LEDs and codebooks.

    Prebuilt codebooks may be passed to avoid rebuilding them when only
    obstacles differ between scenes.
    """
    anchors = list(scenario.anchors)
    for spec in scenario.panels:
        anchors.extend(leris_anchors(spec))
    anchors.sort(key=lambda a: a.id)
    room = scenario.room.with_obstacles(extra_obstacles) if extra_obstacles else scenario.room

    if codebooks is None:
        codebooks = {}
        if build_codebooks:
            for spec in scenario.panels:
                panel = spec.panel
                incident = (panel.center - scenario.ap).unit()
                codebooks[panel.id] = codebook_build(
                    panel, incident, scenario.codebook_grid, scenario.diffusion_seed
                )
    return Scene(
        room=room,
        anchors=tuple(anchors),
        panels=tuple(s.panel for s in scenario.panels),
        ap=scenario.ap,
        codebooks=codebooks,
    )
