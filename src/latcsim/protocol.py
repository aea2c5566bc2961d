"""Locate-and-then-configure protocol over optical anchors.

One run walks the pipeline: AP beacon, optical measurement, LoS anchor
count N, method dispatch (N < 4 falls back to the hybrid RSS/AoA method),
position estimation, diffusion-mode uplink report, and codebook-based RIS
configuration. Estimator failures terminate the run as a timeline event,
never as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .channel import ChannelParams, PdArray, count_los_anchors, measure
from .errors import (
    DegeneratePdGeometry,
    InsufficientAnchors,
    InsufficientPds,
    InvalidMeasurement,
    InvalidVector,
    LocalizationUnavailable,
    NonConvergence,
    OutOfCoverage,
    ScanFailed,
)
from .geometry import Vec3, angle_between, segment_occluded
from .localization import (
    LocalizationEstimate,
    beam_scan_localize,
    hybrid_rss_aoa,
    rss_trilaterate,
)
from .ris import (
    CodebookEntry,
    CodebookGridSpec,
    codebook_select,
    entry_direction_world,
    min_broadside_hpbw_deg,
    tolerated_error,
)
from .scene import Scene

_TERMINAL_TAGS = {
    LocalizationUnavailable: "localization_unavailable",
    InsufficientAnchors: "insufficient_anchors",
    InsufficientPds: "insufficient_pds",
    InvalidMeasurement: "invalid_measurement",
    DegeneratePdGeometry: "degenerate_pd_geometry",
    NonConvergence: "non_convergence",
    ScanFailed: "scan_failed",
    OutOfCoverage: "out_of_coverage",
}


@dataclass(frozen=True)
class ServiceRequest:
    service: str = "beamsteer-data"
    qos_precision_m: float = 0.25

    def __post_init__(self):
        if not self.qos_precision_m > 0.0:
            raise InvalidVector("qos_precision_m must be > 0")

    @property
    def functionality(self) -> str:
        return "diffusion" if self.service.startswith("diffusion") else "beamsteer"


@dataclass(frozen=True)
class Timing:
    """Stage durations in milliseconds; each stage must take time."""

    beacon_ms: float = 1.0
    report_ms: float = 2.0
    config_ms: float = 1.0
    dwell_ms: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise InvalidVector(f"{f.name} must be > 0")


@dataclass(frozen=True)
class LatcOutcome:
    """Result of one protocol run, success or terminal failure."""

    estimate: LocalizationEstimate | None
    method: str
    selected_entry: CodebookEntry | None
    in_beam: bool
    position_error_m: float | None
    timeline: tuple[tuple[str, float], ...]
    n_los: int
    serving_panel_id: int | None
    terminal_event: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "timeline", tuple(self.timeline))
        times = [t for _, t in self.timeline]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidVector("timeline must be strictly increasing")
        if self.position_error_m is not None and self.position_error_m < 0.0:
            raise InvalidVector("position error must be non-negative")

    @property
    def latency_ms(self) -> float:
        return self.timeline[-1][1] if self.timeline else 0.0


def method_select(
    n_los: int,
    n_pds: int,
    request: ServiceRequest,
    sigma_p_available_m: float,
) -> str:
    """Pick the localization method from N, the receiver, and the QoS.

    Fewer than four LoS anchors forces the hybrid RSS/AoA method (which
    needs at least 3 PDs); with four or more, a QoS precision tighter than
    the available beam tolerance sigma_p upgrades to hybrid when the
    receiver allows, otherwise plain RSS over the top four.
    """
    if n_los < 0 or n_pds < 1:
        raise InvalidVector("n_los must be >= 0 and n_pds >= 1")
    if n_los < 4:
        if n_pds >= 3:
            return "rss_aoa"
        raise LocalizationUnavailable(
            f"{n_los} LoS anchors and {n_pds} PDs support no method"
        )
    if request.qos_precision_m < sigma_p_available_m and n_pds >= 3:
        return "rss_aoa"
    return "rss"


def _serving_panel(scene: Scene, ue_position: Vec3):
    """Nearest panel with an unoccluded path to the UE; ties by panel id."""
    best = None
    for panel in sorted(scene.panels, key=lambda p: p.id):
        if segment_occluded(panel.center, ue_position, scene.room):
            continue
        d = (panel.center - ue_position).norm()
        if best is None or d < best[0]:
            best = (d, panel)
    return best[1] if best else None


def run_latc(
    scene: Scene,
    ue: PdArray,
    request: ServiceRequest,
    params: ChannelParams,
    timing: Timing = Timing(),
    force_method: str | None = None,
) -> LatcOutcome:
    """Run the locate-and-then-configure pipeline once.

    The uplink report is lossless with fixed latency and happens with all
    panels switched to their diffusion profile; the serving panel is then
    configured from its codebook using the position estimate. in_beam
    compares the steered direction against the true panel-to-UE direction
    at half the panel's narrowest broadside HPBW, the offset that keeps
    the UE inside the half-power contour for any offset orientation.

    The QoS proxy sigma_p for method selection uses the true panel-UE
    distance (simulator-side shortcut; only the rss/rss_aoa choice
    depends on it).
    """
    if not scene.panels or not scene.codebooks:
        raise InvalidVector("scene needs at least one panel with a built codebook")
    true_pos = ue.pose.position
    events: list[tuple[str, float]] = []
    t = 0.0

    def stage(tag: str, duration_ms: float):
        nonlocal t
        t += duration_ms
        events.append((tag, t))

    def terminal(exc: Exception, method: str, n_los: int, panel_id):
        tag = _TERMINAL_TAGS.get(type(exc), "error")
        stage(tag, timing.dwell_ms)
        return LatcOutcome(
            estimate=None,
            method=method,
            selected_entry=None,
            in_beam=False,
            position_error_m=None,
            timeline=tuple(events),
            n_los=n_los,
            serving_panel_id=panel_id,
            terminal_event=tag,
        )

    stage("beacon", timing.beacon_ms)

    measurement = measure(scene, ue, params)
    n_los = count_los_anchors(measurement, params)
    stage("measurement", timing.dwell_ms)

    panel = _serving_panel(scene, true_pos)
    panel_id = panel.id if panel is not None else None
    if panel is not None:
        hpbw_min = min_broadside_hpbw_deg(panel)
        sigma_p = tolerated_error(hpbw_min, (panel.center - true_pos).norm())
    else:
        hpbw_min, sigma_p = None, 0.0

    if force_method is not None:
        method = force_method
    else:
        try:
            method = method_select(n_los, len(ue.elements), request, sigma_p)
        except LocalizationUnavailable as exc:
            return terminal(exc, "none", n_los, panel_id)

    scan_ms = None
    try:
        if method == "rss":
            room = scene.room.extents
            bounds = (room.lo.as_array(), room.hi.as_array())
            estimate = rss_trilaterate(measurement, bounds)
        elif method == "rss_aoa":
            estimate = hybrid_rss_aoa(measurement, measurement.strongest_los_anchor())
        elif method == "beam_scan":
            if panel is None:
                raise ScanFailed("no unoccluded panel to scan from")
            codebook = scene.codebooks[panel.id]
            estimate, scan_ms = beam_scan_localize(scene, panel, codebook, ue, timing.dwell_ms)
        else:
            raise InvalidVector(f"unknown method {method!r}")
    except tuple(_TERMINAL_TAGS) as exc:
        return terminal(exc, method, n_los, panel_id)
    stage("localization", scan_ms if scan_ms is not None else timing.dwell_ms)

    # All panels diffuse while the UE reports its location to the AP.
    stage("diffusion", timing.config_ms)
    stage("report", timing.report_ms)

    if panel is None:
        return terminal(OutOfCoverage("no unoccluded panel serves the UE"), method, n_los, None)
    codebook = scene.codebooks[panel.id]
    try:
        entry = codebook_select(codebook, estimate.position, panel, request.functionality)
    except tuple(_TERMINAL_TAGS) as exc:
        return terminal(exc, method, n_los, panel_id)
    stage("configure", timing.config_ms)

    if request.functionality == "beamsteer":
        true_dir = Vec3.from_array(
            (true_pos - panel.center).as_array()
            / (true_pos - panel.center).norm()
        )
        steer_dir = Vec3.from_array(entry_direction_world(panel, entry)).unit()
        offset_deg = math.degrees(angle_between(steer_dir, true_dir))
        in_beam = offset_deg <= hpbw_min / 2.0
    else:
        in_beam = True  # diffusion has no pointing requirement

    err = (estimate.position - true_pos).norm()
    return LatcOutcome(
        estimate=estimate,
        method=method,
        selected_entry=entry,
        in_beam=in_beam,
        position_error_m=err,
        timeline=tuple(events),
        n_los=n_los,
        serving_panel_id=panel.id,
    )


def feedback_recalibrate(
    outcomes,
    window: int,
    grid: CodebookGridSpec,
    min_in_beam_rate: float = 0.5,
) -> CodebookGridSpec:
    """Halve the codebook grid step when the rolling in-beam rate drops.

    Looks at the last `window` outcomes; the step halves only when the
    rate falls strictly below the threshold.
    """
    if window < 1:
        raise InvalidVector("window must be at least 1")
    recent = list(outcomes)[-window:]
    if not recent:
        return grid
    rate = sum(1 for o in recent if o.in_beam) / len(recent)
    if rate < min_in_beam_rate:
        return grid.halved()
    return grid
