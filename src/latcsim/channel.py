"""Lambertian line-of-sight optical channel.

DC channel gain between an LED emitter of Lambertian order m and a
photodetector of area A, optical gain G and field of view Psi_c:

    H = (m + 1) * A / (2 pi d^2) * cos^m(phi) * cos(psi) * G

for emission angle phi off the anchor normal with cos(phi) >= 0 and
incidence angle psi off the detector normal with psi <= Psi_c, else H = 0.
Received power is P_t * H plus a non-LoS term drawn Exponential with mean
P_t * H / K (K = LoS/NLoS power ratio, K = inf means none) plus Gaussian
measurement noise, clamped at zero power.

The sampler has one implementation, the batched rss_batch over
(trials x anchors x PDs) fed by link_arrays; measure is its single-trial
case and draws its random numbers in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegenerateGeometry, InvalidVector, OutOfRoom
from .geometry import Pose, Vec3, occlusion_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .scene import Scene


@dataclass(frozen=True)
class OpticalAnchor:
    """One LED anchor: a ceiling luminaire or a LERIS corner IR LED."""

    id: int
    position: Vec3
    normal: Vec3
    lambertian_m: float
    tx_power_w: float
    mount: str = "ceiling"  # "ceiling" or "leris:<panel_id>"

    def __post_init__(self):
        if self.tx_power_w <= 0.0:
            raise InvalidVector("anchor tx_power_w must be positive")
        if self.lambertian_m <= 0.0:
            raise InvalidVector("anchor lambertian order m must be positive")
        if not self.normal.is_unit():
            raise InvalidVector("anchor normal must be a unit vector")


@dataclass(frozen=True)
class PdElement:
    """One photodetector of a receiver array, in the body frame."""

    offset: Vec3
    normal: Vec3
    area_m2: float
    fov_half_angle_rad: float
    optical_gain: float = 1.0

    def __post_init__(self):
        if self.area_m2 <= 0.0 or self.optical_gain <= 0.0:
            raise InvalidVector("PD area and optical gain must be positive")
        if not (0.0 < self.fov_half_angle_rad <= math.pi / 2):
            raise InvalidVector("PD FOV half angle must lie in (0, pi/2]")
        if not self.normal.is_unit():
            raise InvalidVector("PD normal must be a unit vector")


@dataclass(frozen=True)
class PdArray:
    """Receiver: a pose plus one or more photodetector elements.

    The array is evaluated as a point receiver: every element sits at the
    pose position and only the element normals differ. Offsets document the
    physical layout (centimeter scale) but are small against anchor
    distances and do not enter the gain.
    """

    pose: Pose
    elements: tuple[PdElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise InvalidVector("PdArray needs at least one element")

    def world_normals(self) -> np.ndarray:
        """(n_pd, 3) element normals rotated into the world frame."""
        rot = self.pose.rotation
        return np.array([rot @ e.normal.as_array() for e in self.elements])


def pyramid_array(
    position: Vec3,
    fov_deg: float = 70.0,
    area_m2: float = 1e-4,
    optical_gain: float = 1.0,
    tilt_deg: float = 45.0,
    offset_m: float = 0.01,
    n_side: int = 4,
) -> PdArray:
    """Upward PD plus n_side PDs tilted by tilt_deg at uniform azimuths."""
    fov = math.radians(fov_deg)
    elems = [PdElement(Vec3(0, 0, offset_m), Vec3(0, 0, 1), area_m2, fov, optical_gain)]
    t = math.radians(tilt_deg)
    for k in range(n_side):
        az = 2 * math.pi * k / n_side
        n = Vec3(math.sin(t) * math.cos(az), math.sin(t) * math.sin(az), math.cos(t))
        off = Vec3(offset_m * math.cos(az), offset_m * math.sin(az), 0.0)
        elems.append(PdElement(off, n, area_m2, fov, optical_gain))
    return PdArray(Pose.facing_up(position), tuple(elems))


@dataclass(frozen=True)
class ChannelParams:
    """Channel configuration: K ratio, noise, detection threshold, seed."""

    k_ratio: float = math.inf
    noise_std_w: float = 1e-9
    detection_threshold_w: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not self.k_ratio > 0.0:
            raise InvalidVector("K must be positive (inf allowed)")
        if self.noise_std_w < 0.0 or self.detection_threshold_w < 0.0:
            raise InvalidVector("noise and threshold must be non-negative")


@dataclass(frozen=True)
class ChannelSample:
    """One (anchor, photodetector) RSS reading."""

    anchor_id: int
    pd_index: int
    rss_w: float
    los: bool

    def __post_init__(self):
        if self.rss_w < 0.0:
            raise InvalidVector("rss must be non-negative")


def lambertian_gain(
    anchor_pos,
    anchor_normal,
    m,
    pd_pos,
    pd_normal,
    area_m2,
    fov_half_angle_rad,
    optical_gain,
):
    """Vectorized H; inputs broadcast, last axis is the 3-vector axis.

    Returns 0 outside the detector FOV and behind the emitter plane.
    """
    v = np.asarray(pd_pos, dtype=float) - np.asarray(anchor_pos, dtype=float)
    d2 = np.sum(v * v, axis=-1)
    d = np.sqrt(d2)
    cos_phi = np.sum(np.asarray(anchor_normal, dtype=float) * v, axis=-1) / d
    cos_psi = -np.sum(np.asarray(pd_normal, dtype=float) * v, axis=-1) / d
    h = (
        (np.asarray(m) + 1.0)
        * np.asarray(area_m2)
        / (2.0 * np.pi * d2)
        * np.clip(cos_phi, 0.0, None) ** np.asarray(m)
        * np.clip(cos_psi, 0.0, None)
        * np.asarray(optical_gain)
    )
    in_fov = cos_psi >= np.cos(np.asarray(fov_half_angle_rad))
    return np.where(in_fov, h, 0.0)


def los_gain(anchor: OpticalAnchor, pd_world: dict) -> float:
    """Channel gain H for one anchor and one photodetector in world coords.

    pd_world keys: position (Vec3), normal (Vec3), area_m2,
    fov_half_angle_rad, optical_gain.
    """
    pos = pd_world["position"]
    if (pos - anchor.position).norm() == 0.0:
        raise DegenerateGeometry("anchor and PD positions coincide")
    h = lambertian_gain(
        anchor.position.as_array(),
        anchor.normal.as_array(),
        anchor.lambertian_m,
        pos.as_array(),
        pd_world["normal"].as_array(),
        pd_world["area_m2"],
        pd_world["fov_half_angle_rad"],
        pd_world["optical_gain"],
    )
    return float(h)


def link_arrays(anchors: Sequence[OpticalAnchor], pd_array: PdArray) -> dict:
    """Flatten anchors and a receiver into the arrays the batched kernels read.

    Anchor keys (length A): anchor_pos, anchor_normal, tx, m, ids.
    Photodetector keys (length P): pd_normal (world frame, from the
    receiver's pose), pd_area, pd_gain, pd_fov. The receiver position is
    not used; the kernels take positions separately.
    """
    elems = pd_array.elements
    return {
        "anchor_pos": np.array([a.position.as_array() for a in anchors]),
        "anchor_normal": np.array([a.normal.as_array() for a in anchors]),
        "tx": np.array([a.tx_power_w for a in anchors]),
        "m": np.array([a.lambertian_m for a in anchors]),
        "ids": np.array([a.id for a in anchors]),
        "pd_normal": pd_array.world_normals(),
        "pd_area": np.array([e.area_m2 for e in elems]),
        "pd_gain": np.array([e.optical_gain for e in elems]),
        "pd_fov": np.array([e.fov_half_angle_rad for e in elems]),
    }


def rss_batch(arrays, positions, k_ratio, u_nlos, noise, blocked):
    """RSS of every (trial, anchor, PD) triple; returns (rss, los, h).

    positions has shape (T, 3), blocked (T, A) and u_nlos and noise
    (T, A, P). The NLoS term is Exponential with mean P_t H / K drawn by
    inversion, -(P_t H / K) log(1 - u), so the same uniform maps to a
    strictly smaller draw at larger K and common random numbers across K
    pair exactly.
    """
    h = lambertian_gain(
        arrays["anchor_pos"][None, :, None, :],
        arrays["anchor_normal"][None, :, None, :],
        arrays["m"][None, :, None],
        positions[:, None, None, :],
        arrays["pd_normal"][None, None, :, :],
        arrays["pd_area"][None, None, :],
        arrays["pd_fov"][None, None, :],
        arrays["pd_gain"][None, None, :],
    )
    p_los = arrays["tx"][None, :, None] * h
    los = (~blocked[:, :, None]) & (h > 0.0)
    if math.isinf(k_ratio):
        p_nlos = 0.0
    else:
        p_nlos = -(p_los / k_ratio) * np.log1p(-u_nlos)
    signal = np.where(los, p_los + p_nlos, 0.0)
    rss = np.maximum(0.0, signal + noise)
    return rss, los, h


def measure(
    scene: "Scene",
    ue: PdArray,
    params: ChannelParams,
    rng: np.random.Generator | None = None,
) -> list[ChannelSample]:
    """Sample the RSS of every (anchor, PD) pair at the UE.

    Draws exactly n_anchors * n_pd uniforms (NLoS) followed by the same
    count of normals (measurement noise) from rng, so a run is reproducible
    from the seed alone and common random numbers across K are exact.
    """
    if rng is None:
        rng = np.random.default_rng(params.seed)
    pos = ue.pose.position
    room = scene.room
    if not room.extents.contains(pos):
        raise OutOfRoom("UE must be inside the room")
    for anchor in scene.anchors:
        if (anchor.position - pos).norm() == 0.0:
            raise DegenerateGeometry(f"UE coincides with anchor {anchor.id}")
        if not room.extents.contains(anchor.position):
            raise OutOfRoom("segment endpoints must lie inside the room extents")

    arrays = link_arrays(scene.anchors, ue)
    shape = (1, len(scene.anchors), len(ue.elements))
    u_nlos = rng.random(shape)
    noise = rng.normal(0.0, params.noise_std_w, shape)
    point = pos.as_array()[None, :]
    blocked = occlusion_matrix(room, point, arrays["anchor_pos"])
    rss, los, _ = rss_batch(arrays, point, params.k_ratio, u_nlos, noise, blocked)
    return [
        ChannelSample(anchor.id, pi, float(rss[0, ai, pi]), bool(los[0, ai, pi]))
        for ai, anchor in enumerate(scene.anchors)
        for pi in range(shape[2])
    ]


def count_los_anchors(samples: Sequence[ChannelSample], params: ChannelParams) -> int:
    """Distinct anchors with a LoS sample at or above the detection threshold."""
    ids = {
        s.anchor_id
        for s in samples
        if s.los and s.rss_w >= params.detection_threshold_w
    }
    return len(ids)
