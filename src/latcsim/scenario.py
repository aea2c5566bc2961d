"""Scenario configuration: strict YAML schema and scene construction.

Configs are plain YAML with a fixed key set. One builder reads each section
into the frozen dataclass it configures: one key per field, converted by the
field's annotation, with the dataclass default for an absent optional key.
The range rules live in the dataclasses. A missing, unknown, repeated or
mistyped key, or a value that breaks a rule, is a ConfigError naming the
file line, so a typo cannot silently skew an experiment. The packaged
configs ``default`` and ``five-ue`` can be named in place of a path.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import yaml

from .channel import ChannelParams, OpticalAnchor, PdArray, pyramid_array
from .errors import ConfigError, DiagramTooNarrowlySampled, InvalidVector, SimulationError
from .geometry import Box, Room, Vec3
from .protocol import ServiceRequest, Timing
from .ris import CodebookGridSpec, RisPanel, codebook_build, min_broadside_hpbw_deg
from .scene import Scene

_BUILTIN = {"default": "default.yaml", "five-ue": "five_ue.yaml"}
# why a scene panel, or an in-beam panel size, needs two rows and two columns,
# and an element spacing at which its broadside beam reaches half power
_FLAT = "a panel with one row or column has no beamwidth along it, which the in-beam test needs"
_SPARSE = "its broadside half-power crossing lies beyond 90 degrees: no beamwidth for the in-beam test"
_MISSING = object()
_DEFAULT = object()  # given for a field that is no config key: keep its default


# --------------------------------------------------------------------------
# YAML loading with per-key line numbers
# --------------------------------------------------------------------------


def _linemap(node, name: str, path=(), out=None):
    """Line of every key and item path; a key repeated in its mapping is a ConfigError."""
    if out is None:
        out = {}
    out[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            key_path = path + (key_node.value,)
            if key_path in out:
                line = key_node.start_mark.line + 1
                raise ConfigError(f"{name}:{line}: duplicate key '{key_node.value}' in '{_fmt(path)}'")
            _linemap(value_node, name, key_path, out)
            out[key_path] = key_node.start_mark.line + 1
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _linemap(item, name, path + (i,), out)
    return out


def _parse_yaml(text: str):
    """(node, data) from one parser pass; the node carries the line numbers.

    It parses with libyaml when PyYAML was built with it, else in Python.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    try:
        node = loader.get_single_node()
        return node, None if node is None else loader.construct_document(node)
    finally:
        loader.dispose()


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


# --------------------------------------------------------------------------
# Value conversion by field annotation
# --------------------------------------------------------------------------


def _is(value, types):
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(value)
    return value


def _float(value) -> float:
    # numeric strings count: PyYAML reads 1e-9 and "inf" as strings
    return float(_is(value, (int, float, str)))


def _vec3(value) -> Vec3:
    return Vec3(*map(_float, _is(value, list)))


def _m_configs(value) -> tuple[tuple[int, int], ...]:
    if not all(isinstance(e, dict) and e.keys() == {"rows", "cols"} for e in _is(value, list)):
        raise TypeError(value)
    return tuple((_is(e["rows"], int), _is(e["cols"], int)) for e in value)


# annotation -> (converter, what the value must be); "direction" is a Vec3
# the config may give at any length, scaled to unit length
_CONVERT = {
    "float": (_float, "a number"),
    "int": (lambda v: _is(v, int), "an integer"),
    "str": (lambda v: _is(v, str), "a string"),
    "Vec3": (_vec3, "[x, y, z]"),
    "direction": (lambda v: _vec3(v).unit(), "a non-zero [x, y, z]"),
    "tuple[float, ...]": (lambda v: tuple(map(_float, _is(v, list))), "a list of numbers"),
    "tuple[str, ...]": (lambda v: tuple(_is(x, str) for x in _is(v, list)), "a list of strings"),
    "tuple[tuple[int, int], ...]": (_m_configs, "a list of {rows, cols} integer mappings"),
}


class _Section:
    """A mapping under validation: every key must be consumed exactly once."""

    def __init__(self, data, path, lines, name):
        self._path, self._lines, self._name = path, lines, name
        if not isinstance(data, dict):
            raise ConfigError(f"{self.loc()}: expected a mapping at '{_fmt(path)}'")
        self._data = dict(data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def loc(self, *keys) -> str:
        """file:line of the deepest of these keys the file records."""
        path = self._path + keys
        while path and path not in self._lines:
            path = path[:-1]
        line = self._lines.get(path)
        return f"{self._name}:{line}" if line else self._name

    def take(self, key, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.loc()}: missing required key '{key}' in '{_fmt(self._path)}'")
        return default

    def read(self, key, kind: str):
        """The value at a required key, converted by a kind named in _CONVERT."""
        convert, what = _CONVERT[kind]
        value = self.take(key)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError, InvalidVector):
            raise ConfigError(f"{self.loc(key)}: {key} must be {what}") from None

    def section(self, key, required=True):
        value = self.take(key, _MISSING if required else None)
        if value is None and not required:
            return None
        return _Section(value, self._path + (key,), self._lines, self._name)

    def sequence(self, key, required=True) -> list[_Section]:
        value = self.take(key, _MISSING if required else None)
        if value is None:
            return []
        if not isinstance(value, list):
            raise ConfigError(f"{self.loc(key)}: '{key}' must be a list")
        return [_Section(v, self._path + (key, i), self._lines, self._name) for i, v in enumerate(value)]

    def done(self):
        if self._data:
            key = next(iter(self._data))
            raise ConfigError(f"{self.loc(key)}: unknown key '{key}' in '{_fmt(self._path)}'")


def _fmt(path) -> str:
    return ".".join(str(p) for p in path) if path else "<root>"


def _build(cls, sec: _Section, **given):
    """cls from sec: one key per init field not given, converted by its annotation.

    An absent optional key leaves the field's default. The rules in cls
    name the offending field first, so the SimulationError one raises
    becomes a ConfigError at that field's key, else at the section.
    """
    kwargs = {k: v for k, v in given.items() if v is not _DEFAULT}
    for f in fields(cls):
        if f.init and f.name not in given and (f.name in sec or f.default is MISSING):
            kwargs[f.name] = sec.read(f.name, f.type)
    sec.done()
    try:
        return cls(**kwargs)
    except SimulationError as exc:
        raise ConfigError(f"{sec.loc(str(exc).partition(' ')[0])}: {exc}") from exc


# --------------------------------------------------------------------------
# Scenario dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LerisSpec:
    tx_power_w: float
    lambertian_m: float
    offset_m: float
    id_base: int

    def __post_init__(self):
        # the OpticalAnchor rules, checked at load so the error names the line
        for key in ("tx_power_w", "lambertian_m"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"{key} must be > 0")
        if not (math.isfinite(self.offset_m) and self.offset_m >= 0.0):
            raise ConfigError("offset_m must be finite and >= 0")


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

    def __post_init__(self):
        # the PdElement rules state the limits; name the key that broke one
        try:
            self.array_at(self.position)
        except InvalidVector as exc:
            pd_field = str(exc).partition(" ")[0]
            key = {"area_m2": "area_cm2", "fov_half_angle_rad": "fov_deg"}.get(pd_field, pd_field)
            raise ConfigError(f"{key} gives an invalid photodetector: {exc}") from exc

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


def _check_m_configs(m_configs) -> None:
    if not (m_configs and all(r >= 1 and c >= 1 for r, c in m_configs)):
        raise ConfigError("m_configs must be a non-empty list with rows, cols >= 1")


@dataclass(frozen=True)
class ScatteringSpec:
    m_configs: tuple[tuple[int, int], ...]
    resolution_deg: float = 0.01
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        _check_m_configs(self.m_configs)
        for key in ("resolution_deg", "spacing_wavelengths"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{key} must be finite and > 0")


@dataclass(frozen=True)
class ToleratedErrorSpec:
    d_min_m: float
    d_max_m: float
    d_step_m: float

    def __post_init__(self):
        if not self.d_min_m > 0.0:
            raise ConfigError("d_min_m must be > 0")
        if not self.d_min_m <= self.d_max_m <= 14.0:
            raise ConfigError("d_max_m must lie within [d_min_m, 14] m")
        if not self.d_step_m > 0.0:
            raise ConfigError("d_step_m must be > 0")


@dataclass(frozen=True)
class ErrorVsKSpec:
    k_values: tuple[float, ...]
    m_values: tuple[float, ...]
    trials: int
    margin_m: float = 0.75
    z_m: float = 0.8

    def __post_init__(self):
        for key in ("k_values", "m_values"):
            values = getattr(self, key)
            if not (values and all(v > 0.0 for v in values)):
                raise ConfigError(f"{key} must be a non-empty list of values > 0")
        if not self.trials >= 1:
            raise ConfigError("trials must be >= 1")


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

    def __post_init__(self):
        if not self.methods or not set(self.methods) <= {"rss", "rss_aoa", "beam_scan"}:
            raise ConfigError(f"methods must be some of rss, rss_aoa, beam_scan: got {list(self.methods)}")
        _check_m_configs(self.m_configs)
        if not self.trials >= 1:
            raise ConfigError("trials must be >= 1")


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


def _boxes(sec: _Section) -> tuple[Box, ...]:
    """The optional obstacles list; min and max name each box's corners."""
    return tuple(
        _build(Box, b, lo=b.read("min", "Vec3"), hi=b.read("max", "Vec3"))
        for b in sec.sequence("obstacles", required=False)
    )


def _room(sec: _Section) -> Room:
    obstacles = _boxes(sec)
    extents = _build(Box, sec, lo=Vec3(0, 0, 0), hi=sec.read("extents", "Vec3"))
    return _build(Room, sec, extents=extents, obstacles=obstacles)


def _panel(sec: _Section) -> PanelSpec:
    leris = sec.section("leris", required=False)
    panel = _build(
        RisPanel, sec, axis_u=sec.read("axis_u", "direction"), axis_v=sec.read("axis_v", "direction")
    )
    for key in ("rows", "cols"):
        if getattr(panel, key) < 2:
            raise ConfigError(f"{sec.loc(key)}: {key} must be >= 2: {_FLAT}")
    if not _has_hpbw(panel):
        where, size = sec.loc("spacing_wavelengths"), f"{panel.rows}x{panel.cols}"
        raise ConfigError(f"{where}: spacing_wavelengths is too small for {size}: {_SPARSE}")
    return PanelSpec(panel, None if leris is None else _build(LerisSpec, leris))


def _has_hpbw(panel: RisPanel) -> bool:
    """Whether both of the panel's broadside cuts have a half-power beamwidth."""
    try:
        min_broadside_hpbw_deg(panel)
    except DiagramTooNarrowlySampled:
        return False
    return True


def _experiments(sec: _Section, panels: tuple[PanelSpec, ...]) -> ExperimentsSpec:
    """The experiments section. A scattering panel may have no beamwidth, since
    hpbw.csv writes an empty cell for it; an in-beam panel size, which resizes
    the first of panels, may not."""
    inbeam = sec.section("inbeam")
    spec = _build(
        ExperimentsSpec,
        sec,
        scattering=_build(ScatteringSpec, sec.section("scattering")),
        tolerated_error=_build(ToleratedErrorSpec, sec.section("tolerated_error")),
        error_vs_k=_build(ErrorVsKSpec, sec.section("error_vs_k")),
        inbeam=_build(InbeamSpec, inbeam, region=_build(InbeamRegion, inbeam.section("region"))),
    )
    first = panels[0].panel if panels else None
    for i, (rows_n, cols_n) in enumerate(spec.inbeam.m_configs):
        where = inbeam.loc("m_configs", i)
        if min(rows_n, cols_n) < 2:
            raise ConfigError(f"{where}: m_configs entry {rows_n}x{cols_n} is flat: {_FLAT}")
        if first is not None and not _has_hpbw(replace(first, rows=rows_n, cols=cols_n)):
            spacing = f"the first panel's spacing_wavelengths {first.spacing_wavelengths:g}"
            raise ConfigError(f"{where}: m_configs entry {rows_n}x{cols_n} at {spacing}: {_SPARSE}")
    return spec


def _check_draws_in_room(scenario: Scenario, root: _Section) -> None:
    """error-vs-k and inbeam draw UE positions, which must lie in the room."""
    lo, hi = scenario.room.extents.lo, scenario.room.extents.hi
    ek, r = scenario.experiments.error_vs_k, scenario.experiments.inbeam.region
    half = min(hi.x - lo.x, hi.y - lo.y) / 2.0
    for path, ok, rule in (
        (("error_vs_k", "margin_m"), 0.0 <= ek.margin_m <= half, f"margin_m must lie within [0, {half:g}] m"),
        (("error_vs_k", "z_m"), lo.z <= ek.z_m <= hi.z, f"z_m must lie within [{lo.z:g}, {hi.z:g}] m"),
        (("inbeam", "region", "x_min"), lo.x <= r.x_min <= r.x_max <= hi.x,
         f"region must satisfy {lo.x:g} <= x_min <= x_max <= {hi.x:g}"),
        (("inbeam", "region", "y_min"), lo.y <= r.y_min <= r.y_max <= hi.y,
         f"region must satisfy {lo.y:g} <= y_min <= y_max <= {hi.y:g}"),
        (("inbeam", "region", "z"), lo.z <= r.z <= hi.z, f"region z must lie within [{lo.z:g}, {hi.z:g}] m"),
    ):
        if not ok:
            raise ConfigError(f"{root.loc('experiments', *path)}: {rule}")


def _check_geometry(scenario: Scenario, root: _Section) -> None:
    """Run the Scene rules on the loaded geometry; place the AP, receiver and UE cases
    in the room, and the UE cases off every anchor.

    A Scene rule names its anchor or panel, then the field, so the error points
    at the entry that made it (the later of two sharing an id). The AP comes
    first: each panel's incident direction is taken from it.
    """
    panel_centres = {spec.panel.center for spec in scenario.panels}
    if not scenario.room.extents.contains(scenario.ap) or scenario.ap in panel_centres:
        raise ConfigError(f"{root.loc('ap')}: ap must lie inside the room and off every panel centre")
    try:
        scene = build_scene(scenario)
    except SimulationError as exc:
        kind, ident, key = (str(exc).split() + ["", ""])[:3]
        made = []  # (config path, the anchors or panels its entry makes)
        if kind == "anchor":
            made = [(("anchors", i, key), [a]) for i, a in enumerate(scenario.anchors)]
            made += [(("panels", i, "leris"), leris_anchors(spec)) for i, spec in enumerate(scenario.panels)]
        elif kind == "panel":
            made = [(("panels", i, key), [spec.panel]) for i, spec in enumerate(scenario.panels)]
        paths = [path for path, items in made if any(str(x.id) == ident for x in items)]
        raise ConfigError(f"{root.loc(*paths[-1]) if paths else root.loc()}: {exc}") from exc
    if not scenario.room.extents.contains(scenario.receiver.position):
        raise ConfigError(f"{root.loc('receiver', 'position')}: receiver position must lie inside the room")
    anchor_spots = {a.position for a in scene.anchors}
    for i, case in enumerate(scenario.ue_cases):
        if not scenario.room.extents.contains(case.position) or case.position in anchor_spots:
            where = root.loc("ue_cases", i, "position")
            raise ConfigError(f"{where}: UE case {case.name} must lie inside the room and off every anchor")


def scenario_from_dict(data: dict, lines: dict | None = None, name: str = "<config>") -> Scenario:
    root = _Section(data, (), lines or {}, name)
    codebook = root.section("codebook")
    diffusion_seed = codebook.read("diffusion_seed", "int") if "diffusion_seed" in codebook else 1
    channel = root.section("channel")
    scenario = _build(
        Scenario,
        root,
        room=_room(root.section("room")),
        anchors=tuple(
            _build(OpticalAnchor, a, normal=a.read("normal", "direction"), mount=_DEFAULT)
            for a in root.sequence("anchors")
        ),
        panels=(panels := tuple(_panel(p) for p in root.sequence("panels"))),
        codebook_grid=_build(CodebookGridSpec, codebook),
        diffusion_seed=diffusion_seed,
        receiver=_build(ReceiverSpec, root.section("receiver")),
        channel=_build(ChannelParams, channel, k_ratio=channel.read("k_ratio", "float"), seed=_DEFAULT),
        request=_build(ServiceRequest, root.section("request")),
        timing=_build(Timing, root.section("timing")),
        experiments=_experiments(root.section("experiments"), panels),
        ue_cases=tuple(_build(UeCase, c, obstacles=_boxes(c)) for c in root.sequence("ue_cases")),
    )
    _check_draws_in_room(scenario, root)
    _check_geometry(scenario, root)
    return scenario


def load_scenario(source: str | Path) -> tuple[Scenario, str]:
    """Load and validate a scenario; returns (scenario, raw config text)."""
    text, name = read_config_text(source)
    try:
        node, data = _parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{name}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: config must be a YAML mapping")
    return scenario_from_dict(data, _linemap(node, name), name), text


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


def build_scene(scenario: Scenario, extra_obstacles: tuple[Box, ...] = ()) -> Scene:
    """Assemble the immutable scene: LERIS LEDs, obstacles and one codebook per panel."""
    anchors = list(scenario.anchors)
    codebooks = {}
    for spec in scenario.panels:
        panel = spec.panel
        anchors.extend(leris_anchors(spec))
        incident = (panel.center - scenario.ap).unit()
        codebooks[panel.id] = codebook_build(panel, incident, scenario.codebook_grid, scenario.diffusion_seed)
    anchors.sort(key=lambda a: a.id)
    room = scenario.room.with_obstacles(extra_obstacles) if extra_obstacles else scenario.room
    return Scene(
        room=room,
        anchors=tuple(anchors),
        panels=tuple(s.panel for s in scenario.panels),
        ap=scenario.ap,
        codebooks=codebooks,
    )
