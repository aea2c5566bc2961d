"""Far-field scattering model of a planar RIS.

Elements sit on a regular grid with pitch given in carrier wavelengths, so
all phase terms use k = 2*pi per wavelength. A steering profile is the
conjugate-phase construction

    phase(r) = -k * (u_inc + u_tgt) . r   (mod 2 pi)

and the scattering diagram on a cut plane is the power-normalized array
factor |sum_e exp(j*(phase_e + k*(u_inc + u_out) . r_e))|^2 / M^2.
Elements are amplitude-lossless with a unit element pattern; near-field
effects, coupling, and phase quantization are not modeled.

For a steering profile the incident term cancels (the profile removes the
k u_inc . r the wave adds), so on the rows x cols grid the element sum
separates into the uniform planar array factor (Balanis, *Antenna Theory*,
ch. 6): G = D_rows(s (u_out - u_tgt) . u) * D_cols(s (u_out - u_tgt) . v),
D_n(x) = (sin(n pi x) / (n sin(pi x)))^2, s the pitch in wavelengths.
Codebook selection, the beam sweep and the broadside HPBW use it.

The sampled diagram and beam_gain_at share one element sum, so they hold
for any profile and incident. Toward an outgoing direction with in-plane
cosines s (a_u, a_v) on (axis_u, axis_v), the outgoing term of element
(r, c) at (x_r, y_c) is k s (a_u x_r + a_v y_c): on the diagram's cut,
(a_u, a_v) is the cut axis and s = sin(theta); beam_gain_at is one
direction with s = 1. Its exponential is a row factor times a column
factor, so with W the rows x cols static weights (profile plus incident
term) the sum is exactly sum_r R[s, r] (C W^T)[s, r]: rows + cols
exponentials per direction instead of rows * cols, whatever W holds. On a
cut along axis_u (a_v = 0, the default for broadside and diffusion
profiles) every column factor is exp(0) = 1, so the column sums of W do
not depend on the angle and are taken once for the whole cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateDiagram,
    DegenerateGeometry,
    DiagramTooNarrowlySampled,
    EmptyCodebook,
    InvalidAngle,
    InvalidVector,
    OutOfCoverage,
)
from .geometry import Vec3

TWO_PI = 2.0 * math.pi
_ANGLE_CHUNK = 2048


@dataclass(frozen=True)
class RisPanel:
    """Planar reflecting surface: rows x cols elements at a fixed pitch.

    axis_u and axis_v are orthonormal in-plane directions; the outward
    normal is axis_u x axis_v. Rows count elements along axis_u, columns
    along axis_v, so the default broadside cut (along axis_u) is governed
    by the row count.
    """

    id: int
    center: Vec3
    axis_u: Vec3
    axis_v: Vec3
    rows: int
    cols: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        for key in ("rows", "cols"):
            if not getattr(self, key) >= 1:
                raise InvalidVector(f"{key} must be >= 1")
        if not self.spacing_wavelengths > 0.0:
            raise InvalidVector("spacing_wavelengths must be > 0")
        for key in ("axis_u", "axis_v"):
            if not getattr(self, key).is_unit():
                raise InvalidVector(f"{key} must be a unit vector")
        if abs(self.axis_u.dot(self.axis_v)) > 1e-9:
            raise InvalidVector("axis_v must be orthogonal to axis_u")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def normal(self) -> Vec3:
        return self.axis_u.cross(self.axis_v)

    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.axis_u.as_array(), self.axis_v.as_array(), self.normal.as_array()


def _element_axes(rows: int, cols: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Centred element positions in wavelengths along axis_u (rows) and axis_v (cols)."""
    iu = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    iv = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    return iu, iv


def _element_proj(panel: RisPanel, d: np.ndarray) -> np.ndarray:
    """d . r for every element position r (wavelengths), row-major over rows x cols."""
    u, v, _ = panel.frame()
    iu, iv = _element_axes(panel.rows, panel.cols, panel.spacing_wavelengths)
    return (iu[:, None] * float(d @ u) + iv[None, :] * float(d @ v)).ravel()


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Per-element phases in [0, 2 pi), row-major over rows x cols.

    steer_target keeps the world direction a steering profile was built
    for; it defines the default diagram cut and is None for diffusion.
    """

    phases: np.ndarray
    rows: int
    cols: int
    steer_target: Vec3 | None = None

    def __post_init__(self):
        phases = np.mod(np.asarray(self.phases, dtype=float).ravel(), TWO_PI)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        if self.phases.shape != (self.rows * self.cols,):
            raise InvalidVector("profile length must equal rows*cols")


@dataclass(frozen=True)
class DiagramCut:
    """Cut plane spanned by the panel normal and an in-plane axis."""

    normal: Vec3
    axis: Vec3
    steer_angle_deg: float


@dataclass(frozen=True, eq=False)
class ScatteringDiagram:
    """Normalized power versus angle on one cut plane."""

    angles_deg: np.ndarray
    values: np.ndarray
    cut: DiagramCut

    def __post_init__(self):
        a = np.asarray(self.angles_deg, dtype=float)
        v = np.asarray(self.values, dtype=float)
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "angles_deg", a)
        object.__setattr__(self, "values", v)
        if a.ndim != 1 or a.shape != v.shape:
            raise InvalidVector("angle and value grids must be 1-D and equal length")
        if not np.all(np.diff(a) > 0):
            raise InvalidVector("angle grid must be strictly increasing")
        if abs(float(v.max()) - 1.0) > 1e-9:
            raise InvalidVector("diagram must be normalized to peak 1")


def _check_unit(v: Vec3, what: str) -> np.ndarray:
    if not v.is_unit():
        raise InvalidVector(f"{what} must be a unit vector")
    return v.as_array()


def steer_profile(panel: RisPanel, incident: Vec3, target: Vec3) -> PhaseProfile:
    """Conjugate-phase profile steering the reflection toward target.

    incident is the propagation direction of the impinging wave (pointing
    at the panel); target is the outgoing unit direction and must lie in
    the panel's front half-space.
    """
    inc = _check_unit(incident, "incident direction")
    tgt = _check_unit(target, "target direction")
    if float(tgt @ panel.normal.as_array()) <= 0.0:
        raise OutOfCoverage("steer target lies behind the panel")
    phases = -TWO_PI * _element_proj(panel, inc + tgt)
    return PhaseProfile(phases, panel.rows, panel.cols, steer_target=target)


def diffusion_profile(panel: RisPanel, seed: int) -> PhaseProfile:
    """I.i.d. uniform phases over [0, 2 pi); deterministic given seed."""
    rng = np.random.default_rng(seed)
    return PhaseProfile(rng.uniform(0.0, TWO_PI, panel.n_elements), panel.rows, panel.cols)


def _static_phase(panel: RisPanel, profile: PhaseProfile, inc: np.ndarray) -> np.ndarray:
    if (profile.rows, profile.cols) != (panel.rows, panel.cols):
        raise InvalidVector("profile shape does not match panel")
    return profile.phases + TWO_PI * _element_proj(panel, inc)


def _element_sum(
    panel: RisPanel,
    profile: PhaseProfile,
    inc: np.ndarray,
    scale: np.ndarray,
    along_u: float,
    along_v: float,
) -> np.ndarray:
    """|sum_e exp(j (static_e + k out . r_e))|^2 / M^2 for each outgoing direction.

    Direction i has in-plane cosines scale[i] * (along_u, along_v) on
    (axis_u, axis_v): the diagram's angles share its cut axis with scale
    sin(theta), and beam_gain_at is one direction with scale 1. The sum is
    row terms times column terms (module docstring), exact for any profile.
    """
    iu, iv = _element_axes(panel.rows, panel.cols, panel.spacing_wavelengths)
    row_along = along_u * iu
    col_along = along_v * iv
    w_static_t = np.exp(1j * _static_phase(panel, profile, inc)).reshape(panel.rows, panel.cols).T
    # on a cut along axis_u every column term is exp(0): the column sums are W's, for every direction
    col_sums = w_static_t.sum(axis=0) if along_v == 0.0 else None
    values = np.empty(len(scale))
    for start in range(0, len(scale), _ANGLE_CHUNK):
        chunk = slice(start, start + _ANGLE_CHUNK)
        s = scale[chunk, None]
        # 2 pi is applied last, as in the element sum's phase 2 pi (s (a . r)), so both round alike
        if along_v != 0.0:
            col_sums = np.exp(1j * (TWO_PI * (s * col_along))) @ w_static_t  # (directions, rows)
        total = (np.exp(1j * (TWO_PI * (s * row_along))) * col_sums).sum(axis=1)
        values[chunk] = np.abs(total) ** 2 / panel.n_elements**2
    return values


def _cut_axis_for(panel: RisPanel, profile: PhaseProfile) -> Vec3:
    """In-plane cut axis: through the steer target when one is recorded."""
    if profile.steer_target is not None:
        u, v, n = panel.frame()
        t = profile.steer_target.as_array()
        in_plane = t - float(t @ n) * n
        nrm = float(np.linalg.norm(in_plane))
        if nrm > 1e-12:
            return Vec3.from_array(in_plane / nrm)
    return panel.axis_u


def scattering_diagram(
    panel: RisPanel,
    profile: PhaseProfile,
    incident: Vec3,
    resolution_deg: float = 0.01,
    angle_min_deg: float = -180.0,
    angle_max_deg: float = 180.0,
    cut_axis: Vec3 | None = None,
) -> ScatteringDiagram:
    """Power array factor on the cut plane, renormalized to peak 1.

    The cut plane contains the panel normal and the steering direction
    (falling back to axis_u for broadside or diffusion profiles); angles
    are measured from the normal within that plane. The element sum is
    evaluated as row terms times column terms (module docstring), which is
    exact for any profile, incident and in-plane cut axis.
    """
    if not (math.isfinite(resolution_deg) and resolution_deg > 0.0):
        raise InvalidAngle("resolution must be finite and positive")
    if not (math.isfinite(angle_min_deg) and math.isfinite(angle_max_deg)):
        raise InvalidAngle("angle range must be finite")
    if angle_max_deg < angle_min_deg:
        raise InvalidAngle("angle range must have max >= min")
    inc = _check_unit(incident, "incident direction")
    axis = cut_axis if cut_axis is not None else _cut_axis_for(panel, profile)
    axis_a = _check_unit(axis, "cut axis")
    u, v, n = panel.frame()
    if abs(float(axis_a @ n)) > 1e-9:
        raise InvalidVector("cut axis must lie in the panel plane")

    n_pts = int(round((angle_max_deg - angle_min_deg) / resolution_deg)) + 1
    angles = np.linspace(angle_min_deg, angle_max_deg, n_pts)

    sin_a = np.sin(np.radians(angles))
    values = _element_sum(panel, profile, inc, sin_a, float(axis_a @ u), float(axis_a @ v))
    peak = float(values.max())
    if peak > 0.0:
        values = values / peak
    values[np.argmax(values)] = 1.0  # pin the peak against rounding

    steer_angle = 0.0
    if profile.steer_target is not None:
        t = profile.steer_target.as_array()
        steer_angle = math.degrees(math.atan2(float(t @ axis_a), float(t @ n)))
    cut = DiagramCut(panel.normal, Vec3.from_array(axis_a), steer_angle)
    return ScatteringDiagram(angles, values, cut)


def hpbw(diagram: ScatteringDiagram) -> float:
    """Full width in degrees between the two half-power crossings.

    The array factor repeats its main lobe at the supplementary angle on a
    +-180 degree cut, so among equal-height peaks the one closest to the
    cut's nominal steering angle is measured. Crossings are linearly
    interpolated between grid samples.
    """
    vals = diagram.values
    angles = diagram.angles_deg
    vmax = float(vals.max())
    if vmax - float(vals.min()) < 1e-12:
        raise DegenerateDiagram("diagram is flat")

    candidates = np.flatnonzero(vals >= vmax - 1e-12)
    peak_idx = int(candidates[np.argmin(np.abs(angles[candidates] - diagram.cut.steer_angle_deg))])

    half = 0.5 * vmax

    def cross(direction: int) -> float:
        i = peak_idx
        while 0 <= i + direction < len(vals):
            j = i + direction
            if vals[j] < half:
                # interpolate between samples i (>= half) and j (< half)
                frac = (vals[i] - half) / (vals[i] - vals[j])
                return float(angles[i] + frac * (angles[j] - angles[i]))
            i = j
        raise DiagramTooNarrowlySampled("half-power crossing outside the angle grid")

    return cross(+1) - cross(-1)


def tolerated_error(theta_deg: float, distance_m: float) -> float:
    """Lateral error keeping a UE inside the half-power beam: tan(theta/2)*d."""
    if not 0.0 < theta_deg < 180.0:
        raise InvalidAngle("beamwidth must lie in (0, 180) degrees")
    if distance_m < 0.0:
        raise ValueError("distance must be non-negative")
    return math.tan(math.radians(theta_deg) / 2.0) * distance_m


@dataclass(frozen=True)
class CodebookGridSpec:
    """Azimuth/elevation grid (degrees) for beam-steering entries."""

    az_min_deg: float
    az_max_deg: float
    az_step_deg: float
    el_min_deg: float
    el_max_deg: float
    el_step_deg: float

    def __post_init__(self):
        for axis in ("az", "el"):
            lo, hi, step = (getattr(self, f"{axis}_{k}_deg") for k in ("min", "max", "step"))
            if not step > 0.0:
                raise InvalidVector(f"{axis}_step_deg must be > 0")
            if not lo > -90.0:
                raise InvalidVector(f"{axis}_min_deg must be > -90 (front half-space)")
            if not lo <= hi < 90.0:
                raise InvalidVector(f"{axis}_max_deg must lie within [{axis}_min_deg, 90)")

    def azimuths_deg(self) -> np.ndarray:
        return _grid_values(self.az_min_deg, self.az_max_deg, self.az_step_deg)

    def elevations_deg(self) -> np.ndarray:
        return _grid_values(self.el_min_deg, self.el_max_deg, self.el_step_deg)

    def halved(self) -> "CodebookGridSpec":
        return replace(self, az_step_deg=self.az_step_deg / 2.0, el_step_deg=self.el_step_deg / 2.0)


def _grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


@dataclass(frozen=True)
class CodebookEntry:
    """One codebook entry, made on request; its profile is derived on access."""

    index: int
    azimuth_rad: float
    elevation_rad: float
    functionality: str  # "beamsteer" or "diffusion"
    codebook: "Codebook" = field(repr=False)

    @property
    def profile(self) -> PhaseProfile:
        cb = self.codebook
        if self.functionality == "diffusion":
            return diffusion_profile(cb.panel, cb.diffusion_seed)
        target = Vec3.from_array(direction_from_azel(cb.panel, self.azimuth_rad, self.elevation_rad))
        return steer_profile(cb.panel, cb.incident, target.unit())


@dataclass(frozen=True, eq=False)
class Codebook:
    """Beams for one panel and incident wave as read-only arrays; entry N is diffusion.

    direction_cosines[i] is beam i's direction along (axis_u, axis_v, normal).
    Each beam is conjugate to `incident`, so the incident cancels and the gain
    is the separable Dirichlet product of the module docstring (Balanis, ch. 6).
    """

    panel: RisPanel
    incident: Vec3
    azimuth_rad: np.ndarray
    elevation_rad: np.ndarray
    diffusion_seed: int = 0
    direction_cosines: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_unit(self.incident, "incident direction")
        az, el = np.array(self.azimuth_rad, dtype=float), np.array(self.elevation_rad, dtype=float)
        if az.size == 0:
            raise EmptyCodebook("codebook has no entries")
        if az.ndim != 1 or az.shape != el.shape:
            raise InvalidVector("azimuths and elevations must be 1-D and equal length")
        # sorted by (az, el), a repeated pair sits next to its twin; == (not a
        # zero difference) also matches a repeated inf, and never a NaN
        order = np.lexsort((el, az))
        az_s, el_s = az[order], el[order]
        if np.any((az_s[1:] == az_s[:-1]) & (el_s[1:] == el_s[:-1])):
            raise InvalidVector("duplicate steering direction")
        ce = np.cos(el)
        cosines = np.column_stack([ce * np.sin(az), np.sin(el), ce * np.cos(az)])
        for name, arr in (("azimuth_rad", az), ("elevation_rad", el), ("direction_cosines", cosines)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def entry(self, index: int) -> CodebookEntry:
        n = len(self.azimuth_rad)
        if index == n:
            return CodebookEntry(n, 0.0, 0.0, "diffusion", self)
        if not 0 <= index < n:
            raise IndexError(f"codebook has no entry {index}")
        az, el = float(self.azimuth_rad[index]), float(self.elevation_rad[index])
        return CodebookEntry(index, az, el, "beamsteer", self)

    @property
    def entries(self) -> tuple[CodebookEntry, ...]:
        return tuple(self.entry(i) for i in range(len(self.azimuth_rad) + 1))

    def diffusion_entry(self) -> CodebookEntry:
        return self.entry(len(self.azimuth_rad))


def direction_from_azel(panel: RisPanel, azimuth_rad: float, elevation_rad: float) -> np.ndarray:
    """World direction for panel-frame azimuth (toward axis_u) and elevation
    (toward axis_v); (0, 0) is broadside."""
    u, v, n = panel.frame()
    ce = math.cos(elevation_rad)
    return ce * math.cos(azimuth_rad) * n + ce * math.sin(azimuth_rad) * u + math.sin(elevation_rad) * v


def entry_direction_world(panel: RisPanel, entry: CodebookEntry) -> np.ndarray:
    return direction_from_azel(panel, entry.azimuth_rad, entry.elevation_rad)


def codebook_build(
    panel: RisPanel, incident: Vec3, grid: CodebookGridSpec, diffusion_seed: int = 0
) -> Codebook:
    """One beamsteer entry per grid direction, azimuth-major, plus one diffusion entry."""
    az = np.radians(grid.azimuths_deg())
    el = np.radians(grid.elevations_deg())
    return Codebook(
        panel, incident, np.repeat(az, el.size), np.tile(el, az.size), diffusion_seed=diffusion_seed
    )


def _check_panel(codebook: Codebook, panel: RisPanel) -> None:
    if panel != codebook.panel:
        raise InvalidVector(f"panel {panel.id} is not the panel the codebook was built for")


def _frame_cosines(panel: RisPanel, point: Vec3, what: str) -> np.ndarray:
    """Unit direction panel center -> point along (axis_u, axis_v, normal)."""
    to_pt = (point - panel.center).as_array()
    nrm = float(np.linalg.norm(to_pt))
    if nrm == 0.0:
        raise DegenerateGeometry(f"{what} coincides with the panel center")
    return np.array(panel.frame()) @ (to_pt / nrm)


def codebook_select(
    codebook: Codebook, position_estimate: Vec3, panel: RisPanel, functionality: str = "beamsteer"
) -> CodebookEntry:
    """Entry whose steering direction is closest to panel->estimate.

    Ties go to the lowest entry index; diffusion requests return the
    diffusion entry directly. The panel must be the codebook's own.
    """
    _check_panel(codebook, panel)
    if functionality == "diffusion":
        return codebook.diffusion_entry()
    if functionality != "beamsteer":
        raise InvalidVector(f"unknown functionality {functionality!r}")
    t = _frame_cosines(panel, position_estimate, "estimate")
    if t[2] <= 0.0:
        raise OutOfCoverage("position estimate lies behind the panel")
    dots = codebook.direction_cosines @ t
    # max cosine == min angle; candidates within rounding of the best are a
    # tie and the lowest entry index wins
    best = int(np.flatnonzero(dots >= dots.max() - 1e-12)[0])
    return codebook.entry(best)


def beam_gain_at(panel: RisPanel, profile: PhaseProfile, incident: Vec3, point: Vec3) -> float:
    """Array-factor power toward point, on the coherent-peak (=1) scale.

    A conjugate steering profile reaches exactly 1 on its steered ray, so
    this is peak-normalized for codebook beams; the same scale exposes the
    absence of a coherent lobe for diffusion profiles. Points behind the
    panel get zero.
    """
    out_u, out_v, out_n = _frame_cosines(panel, point, "evaluation point")
    if out_n <= 0.0:
        return 0.0
    inc = _check_unit(incident, "incident direction")
    return float(_element_sum(panel, profile, inc, np.ones(1), float(out_u), float(out_v))[0])


def _dirichlet(n: int, x):
    """D_n(x) = (sin(n pi x) / (n sin(pi x)))^2. It has period 1 and is 1 at
    the integers, so x is reduced to [-1/2, 1/2] and the 0/0 falls on r = 0."""
    r = np.asarray(x, dtype=float)
    r = r - np.round(r)
    den = n * np.sin(math.pi * r)
    ratio = np.divide(np.sin(n * math.pi * r), den, out=np.ones_like(r), where=den != 0.0)
    return ratio * ratio


def sweep_gains(codebook: Codebook, panel: RisPanel, point: Vec3) -> np.ndarray:
    """beam_gain_at of every beamsteer entry toward point (beam-scan hot path),
    by the closed form of the module docstring; panel must be the codebook's."""
    _check_panel(codebook, panel)
    out_u, out_v, out_n = _frame_cosines(panel, point, "evaluation point")
    if out_n <= 0.0:
        return np.zeros(len(codebook.azimuth_rad))
    offsets = panel.spacing_wavelengths * (np.array([out_u, out_v]) - codebook.direction_cosines[:, :2])
    return _dirichlet(panel.rows, offsets[:, 0]) * _dirichlet(panel.cols, offsets[:, 1])


@lru_cache(maxsize=128)
def broadside_hpbw_deg(panel: RisPanel, axis: str = "u") -> float:
    """HPBW of the broadside beam on the axis_u (rows) or axis_v (cols) cut, by
    bisection on D_n(s sin(theta)) between broadside and its first null (cached)."""
    if axis not in ("u", "v"):
        raise InvalidVector("axis must be 'u' or 'v'")
    n = panel.rows if axis == "u" else panel.cols
    if n == 1:
        raise DegenerateDiagram("diagram is flat")
    # the main lobe falls monotonically from 1 at x = 0 to its first null at 1/n
    lo, hi = 0.0, 1.0 / n
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _dirichlet(n, mid) >= 0.5 else (lo, mid)
    if lo >= panel.spacing_wavelengths:
        raise DiagramTooNarrowlySampled("half-power crossing lies beyond 90 degrees")
    return 2.0 * math.degrees(math.asin(lo / panel.spacing_wavelengths))


def min_broadside_hpbw_deg(panel: RisPanel) -> float:
    """Narrowest principal-cut HPBW; the safe in-beam width for 3-D offsets."""
    return min(broadside_hpbw_deg(panel, "u"), broadside_hpbw_deg(panel, "v"))
