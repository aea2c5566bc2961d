"""Vectors, poses, rooms and line-of-sight occlusion tests.

World frame is right-handed with z up; the ceiling sits at z = room height.
Obstacles are axis-aligned boxes and occlusion uses their *open* interior,
so a segment that only grazes a face does not count as blocked.

Occlusion has one implementation, the batched occlusion_matrix over
(points x anchors); segment_occluded is its single-segment case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidVector, OutOfRoom

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector in meters (or dimensionless for directions)."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def unit(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise InvalidVector("cannot normalize the zero vector")
        return self.scale(1.0 / n)

    def is_unit(self, tol: float = UNIT_NORM_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class Pose:
    """Position plus a right-handed orthonormal body triad in world coords."""

    position: Vec3
    x_axis: Vec3
    y_axis: Vec3
    z_axis: Vec3

    def __post_init__(self):
        axes = (self.x_axis, self.y_axis, self.z_axis)
        for a in axes:
            if not a.is_unit():
                raise InvalidVector("pose axes must be unit vectors")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(axes[i].dot(axes[j])) > 1e-9:
                    raise InvalidVector("pose axes must be orthonormal")
        if self.x_axis.cross(self.y_axis).dot(self.z_axis) < 0.0:
            raise InvalidVector("pose triad must be right-handed")

    @staticmethod
    def facing_up(position: Vec3) -> "Pose":
        return Pose(position, Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))

    @property
    def rotation(self) -> np.ndarray:
        """3x3 matrix with body axes as columns (body -> world)."""
        return np.column_stack(
            [self.x_axis.as_array(), self.y_axis.as_array(), self.z_axis.as_array()]
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its min and max corners."""

    lo: Vec3
    hi: Vec3

    def __post_init__(self):
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y and self.lo.z < self.hi.z):
            raise InvalidVector("box must satisfy min < max on every axis")

    def contains(self, p: Vec3) -> bool:
        """Closed containment: boundary points count as inside."""
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )

    def contains_box(self, other: "Box") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)


@dataclass(frozen=True)
class Room:
    """Room extents plus a list of box obstacles, all axis aligned."""

    extents: Box
    obstacles: tuple[Box, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for obs in self.obstacles:
            if not self.extents.contains_box(obs):
                raise InvalidVector("obstacles must lie inside the room extents")

    def with_obstacles(self, extra) -> "Room":
        return Room(self.extents, self.obstacles + tuple(extra))


def angle_between(u: Vec3, v: Vec3) -> float:
    """Angle in [0, pi] between two unit vectors.

    Uses the atan2 form, which stays accurate for nearly parallel and
    nearly antipodal inputs where acos of a dot product loses digits.
    """
    if not u.is_unit() or not v.is_unit():
        raise InvalidVector("angle_between requires unit vectors")
    diff = (u - v).norm()
    summ = (u + v).norm()
    return 2.0 * math.atan2(diff, summ)


def occlusion_matrix(room: Room, points, anchor_pos) -> np.ndarray:
    """(T, A) flags: the open segment from anchor a to point t crosses an obstacle.

    Slab test per obstacle, batched over points, anchors and obstacles: the
    segment a + s (t - a), s in (0, 1), is blocked when the open parameter
    intervals of the three axes overlap inside (0, 1). A segment parallel
    to an axis lies in that slab for every s or for none.
    """
    points = np.asarray(points, dtype=float)
    anchor_pos = np.asarray(anchor_pos, dtype=float)
    if not room.obstacles:
        return np.zeros((points.shape[0], anchor_pos.shape[0]), dtype=bool)
    lo = np.array([obs.lo.as_array() for obs in room.obstacles])  # (O, 3)
    hi = np.array([obs.hi.as_array() for obs in room.obstacles])
    p0 = anchor_pos[None, :, None, :]
    d = points[:, None, None, :] - p0  # (T, A, 1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - p0) / d
        t2 = (hi - p0) / d
    parallel = d == 0.0
    inside = (p0 > lo) & (p0 < hi)
    enter = np.where(parallel, -np.inf, np.minimum(t1, t2))
    leave = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    t_lo = np.maximum(enter.max(axis=-1), 0.0)
    t_hi = np.minimum(leave.min(axis=-1), 1.0)
    # touching a face yields a zero-width interval, which does not block
    return (t_lo < t_hi).any(axis=-1)


def segment_occluded(a: Vec3, b: Vec3, room: Room) -> bool:
    """True iff the open segment (a, b) passes through an obstacle interior."""
    if not room.extents.contains(a) or not room.extents.contains(b):
        raise OutOfRoom("segment endpoints must lie inside the room extents")
    return bool(occlusion_matrix(room, b.as_array()[None], a.as_array()[None])[0, 0])


def rotation_about(axis: Vec3, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    if not axis.is_unit():
        raise InvalidVector("rotation axis must have unit norm")
    k = axis.as_array()
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle_rad) * kx + (1 - math.cos(angle_rad)) * (kx @ kx)
