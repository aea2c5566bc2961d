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
(trials x anchors x PDs) fed by link_arrays, made of two steps: the
K-independent los_power and the NLoS draw draw_rss. measure returns its
T = 1 slice as one Measurement of read-only arrays, together with the
link table it read, and draws its random numbers in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DegenerateGeometry, InvalidMeasurement, InvalidVector, OutOfRoom
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
        for key in ("tx_power_w", "lambertian_m"):
            if not getattr(self, key) > 0.0:
                raise InvalidVector(f"{key} must be > 0")
        if not self.normal.is_unit():
            raise InvalidVector("normal must be a unit vector")


@dataclass(frozen=True)
class PdElement:
    """One photodetector of a receiver array: its body-frame normal and optics."""

    normal: Vec3
    area_m2: float
    fov_half_angle_rad: float
    optical_gain: float = 1.0

    def __post_init__(self):
        for key in ("area_m2", "optical_gain"):
            if not getattr(self, key) > 0.0:
                raise InvalidVector(f"{key} must be > 0")
        if not (0.0 < self.fov_half_angle_rad <= math.pi / 2):
            raise InvalidVector("fov_half_angle_rad must lie in (0, pi/2]")
        if not self.normal.is_unit():
            raise InvalidVector("normal must be a unit vector")


@dataclass(frozen=True)
class PdArray:
    """Receiver: a pose plus one or more photodetector elements.

    The array is evaluated as a point receiver: every element sits at the
    pose position and only the element normals differ.
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
    n_side: int = 4,
) -> PdArray:
    """Upward PD plus n_side PDs tilted by tilt_deg at uniform azimuths."""
    fov = math.radians(fov_deg)
    elems = [PdElement(Vec3(0, 0, 1), area_m2, fov, optical_gain)]
    t = math.radians(tilt_deg)
    for k in range(n_side):
        az = 2 * math.pi * k / n_side
        n = Vec3(math.sin(t) * math.cos(az), math.sin(t) * math.sin(az), math.cos(t))
        elems.append(PdElement(n, area_m2, fov, optical_gain))
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
            raise InvalidVector("k_ratio must be > 0 (inf allowed)")
        for key in ("noise_std_w", "detection_threshold_w"):
            if not getattr(self, key) >= 0.0:
                raise InvalidVector(f"{key} must be >= 0")


@dataclass(frozen=True, eq=False)
class Measurement:
    """One optical measurement: the RSS of every (anchor, PD) pair at the UE.

    It is the T = 1 slice of rss_batch, held as read-only arrays: link is
    the link_arrays table it was sampled from, its ids column (A,) in
    strictly increasing scene order, and rss_w and los have shape (A, P),
    row i belonging to link["ids"][i] and column j to PD j of the table.
    """

    link: Mapping[str, np.ndarray]
    rss_w: np.ndarray
    los: np.ndarray

    def __post_init__(self):
        link = {k: np.array(v, dtype=int if k == "ids" else float) for k, v in self.link.items()}
        ids, rss, los = link["ids"], np.array(self.rss_w, dtype=float), np.array(self.los, dtype=bool)
        if ids.ndim != 1 or rss.shape != (ids.size, len(link["pd_normal"])) or los.shape != rss.shape:
            raise InvalidVector("rss_w and los must both have shape (anchors, PDs) of the link table")
        if np.any(np.diff(ids) <= 0):
            raise InvalidVector("link ids must strictly increase")
        if not np.all(rss >= 0.0):
            raise InvalidVector("rss_w must be non-negative")
        for arr in (*link.values(), rss, los):
            arr.setflags(write=False)
        object.__setattr__(self, "link", MappingProxyType(link))
        object.__setattr__(self, "rss_w", rss)
        object.__setattr__(self, "los", los)

    def row(self, anchor_id: int) -> int:
        """Row of anchor_id in the arrays."""
        ids = self.link["ids"]
        i = int(np.searchsorted(ids, anchor_id))
        if i == ids.size or ids[i] != anchor_id:
            raise InvalidVector(f"unknown anchor {anchor_id}")
        return i

    def strongest_los_anchor(self) -> int:
        """Id of the anchor with the strongest LoS reading; ties go to the lower id."""
        if not self.los.any():
            raise InvalidMeasurement("no LoS sample to localize from")
        best = np.argmax(np.where(self.los, self.rss_w, -np.inf))
        return int(self.link["ids"][best // self.rss_w.shape[1]])


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
        # reshape keeps an empty anchor list a (0, 3) table
        "anchor_pos": np.array([a.position.as_array() for a in anchors]).reshape(-1, 3),
        "anchor_normal": np.array([a.normal.as_array() for a in anchors]).reshape(-1, 3),
        "tx": np.array([a.tx_power_w for a in anchors]),
        "m": np.array([a.lambertian_m for a in anchors]),
        "ids": np.array([a.id for a in anchors]),
        "pd_normal": pd_array.world_normals(),
        "pd_area": np.array([e.area_m2 for e in elems]),
        "pd_gain": np.array([e.optical_gain for e in elems]),
        "pd_fov": np.array([e.fov_half_angle_rad for e in elems]),
    }


def los_power(arrays, positions, blocked):
    """The K-independent half of rss_batch; returns (p_los, los).

    p_los = P_t H is the line-of-sight power of every (trial, anchor, PD)
    triple, H its gain, and los its visibility: unblocked with H > 0.
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
    return arrays["tx"][None, :, None] * h, (~blocked[:, :, None]) & (h > 0.0)


def draw_rss(p_los, los, k_ratio, log_u, noise):
    """The K-dependent half of rss_batch: RSS from los_power's terms and
    log_u = log1p(-u_nlos), which serves every K."""
    if math.isinf(k_ratio):
        p_nlos = 0.0
    else:
        p_nlos = -(p_los / k_ratio) * log_u
    signal = np.where(los, p_los + p_nlos, 0.0)
    return np.maximum(0.0, signal + noise)


def rss_batch(arrays, positions, k_ratio, u_nlos, noise, blocked):
    """RSS of every (trial, anchor, PD) triple; returns (rss, los).

    positions has shape (T, 3), blocked (T, A) and u_nlos and noise
    (T, A, P). The NLoS term is Exponential with mean P_t H / K drawn by
    inversion, -(P_t H / K) log(1 - u), so the same uniform maps to a
    strictly smaller draw at larger K and common random numbers across K
    pair exactly. It is los_power, then draw_rss: a Monte Carlo over K
    and m forms each m's line-of-sight terms once and draws per K.
    """
    p_los, los = los_power(arrays, positions, blocked)
    return draw_rss(p_los, los, k_ratio, np.log1p(-u_nlos), noise), los


def measure(scene: "Scene", ue: PdArray, params: ChannelParams) -> Measurement:
    """Sample the RSS of every (anchor, PD) pair at the UE.

    The result is the T = 1 slice of rss_batch. A fresh generator seeded
    with params.seed draws exactly n_anchors * n_pd uniforms (NLoS)
    followed by the same count of normals (measurement noise), so a run is
    reproducible from the seed alone and common random numbers across K
    are exact.
    """
    rng = np.random.default_rng(params.seed)
    pos = ue.pose.position
    if not scene.room.extents.contains(pos):
        raise OutOfRoom("UE must be inside the room")
    arrays = link_arrays(scene.anchors, ue)
    point = pos.as_array()[None, :]
    on_anchor = np.flatnonzero(np.sum((arrays["anchor_pos"] - point) ** 2, axis=1) == 0.0)
    if on_anchor.size:
        raise DegenerateGeometry(f"UE coincides with anchor {arrays['ids'][on_anchor[0]]}")
    shape = (1, len(scene.anchors), len(ue.elements))
    u_nlos = rng.random(shape)
    noise = rng.normal(0.0, params.noise_std_w, shape)
    blocked = occlusion_matrix(scene.room, point, arrays["anchor_pos"])
    rss, los = rss_batch(arrays, point, params.k_ratio, u_nlos, noise, blocked)
    return Measurement(arrays, rss[0], los[0])


def count_los_anchors(measurement: Measurement, params: ChannelParams) -> int:
    """Anchors with a LoS reading at or above the detection threshold."""
    seen = measurement.los & (measurement.rss_w >= params.detection_threshold_w)
    return int(np.count_nonzero(seen.any(axis=1)))
