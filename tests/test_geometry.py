import math

import numpy as np
import pytest

from latcsim.errors import InvalidVector, OutOfRoom
from latcsim.geometry import (
    Box,
    Pose,
    Room,
    Vec3,
    angle_between,
    rotation_about,
    segment_occluded,
)


def test_angle_between_orthogonal():
    assert angle_between(Vec3(1, 0, 0), Vec3(0, 1, 0)) == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_between_identity_and_antipodal():
    assert angle_between(Vec3(0, 0, 1), Vec3(0, 0, 1)) == 0.0
    assert angle_between(Vec3(0, 0, 1), Vec3(0, 0, -1)) == pytest.approx(math.pi, abs=1e-15)


def test_angle_between_rejects_non_unit():
    with pytest.raises(InvalidVector):
        angle_between(Vec3(2, 0, 0), Vec3(0, 1, 0))


def test_angle_between_rotation_invariant():
    """Rotating both arguments by a common rotation preserves the angle."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = Vec3.from_array(rng.normal(size=3)).unit()
        v = Vec3.from_array(rng.normal(size=3)).unit()
        axis = Vec3.from_array(rng.normal(size=3)).unit()
        rot = rotation_about(axis, rng.uniform(0, 2 * math.pi))
        ru = Vec3.from_array(rot @ u.as_array()).unit()
        rv = Vec3.from_array(rot @ v.as_array()).unit()
        assert angle_between(ru, rv) == pytest.approx(angle_between(u, v), abs=1e-9)


@pytest.fixture()
def room():
    return Room(
        Box(Vec3(0, 0, 0), Vec3(8, 6, 3)),
        obstacles=(Box(Vec3(3, 2, 0), Vec3(5, 4, 2)),),
    )


def test_segment_through_obstacle(room):
    assert segment_occluded(Vec3(1, 3, 1), Vec3(7, 3, 1), room) is True


def test_segment_no_obstacles():
    empty = Room(Box(Vec3(0, 0, 0), Vec3(8, 6, 3)))
    assert segment_occluded(Vec3(1, 3, 1), Vec3(7, 3, 1), empty) is False


def test_segment_grazing_face_not_blocked(room):
    # runs exactly along the obstacle face y = 2
    assert segment_occluded(Vec3(1, 2, 1), Vec3(7, 2, 1), room) is False


def test_segment_above_obstacle(room):
    assert segment_occluded(Vec3(1, 3, 2.5), Vec3(7, 3, 2.5), room) is False


def test_segment_endpoint_outside_raises(room):
    with pytest.raises(OutOfRoom):
        segment_occluded(Vec3(-1, 3, 1), Vec3(7, 3, 1), room)


def test_segment_occlusion_symmetric(room):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = Vec3(rng.uniform(0, 8), rng.uniform(0, 6), rng.uniform(0, 3))
        b = Vec3(rng.uniform(0, 8), rng.uniform(0, 6), rng.uniform(0, 3))
        assert segment_occluded(a, b, room) == segment_occluded(b, a, room)


def test_room_rejects_obstacle_outside():
    with pytest.raises(InvalidVector):
        Room(Box(Vec3(0, 0, 0), Vec3(4, 4, 3)), obstacles=(Box(Vec3(3, 3, 0), Vec3(5, 4, 1)),))


def test_box_requires_min_below_max():
    with pytest.raises(InvalidVector):
        Box(Vec3(1, 0, 0), Vec3(0, 1, 1))


def test_pose_triad_validation():
    with pytest.raises(InvalidVector):
        Pose(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 0, 0), Vec3(0, 0, 1))
