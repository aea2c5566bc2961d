"""Exception hierarchy shared by all simulator modules."""


class SimulationError(Exception):
    """Base class for every error raised by this package.

    A rule on a dataclass field names that field first in its message, so
    the scenario loader can point a config error at the field's key.
    """


class InvalidVector(SimulationError):
    """A vector argument violated a unit-norm or finiteness requirement."""


class OutOfRoom(SimulationError):
    """A point that must lie inside the room extents does not."""


class DegenerateGeometry(SimulationError):
    """Coincident or otherwise unusable emitter/detector geometry."""


class OutOfCoverage(SimulationError):
    """A target or position estimate lies behind the RIS panel face."""


class DegenerateDiagram(SimulationError):
    """Scattering diagram is flat or has no usable peak."""


class DiagramTooNarrowlySampled(SimulationError):
    """A half-power crossing falls outside the sampled angle grid."""


class InvalidAngle(SimulationError):
    """Angle argument outside its documented range."""


class EmptyCodebook(SimulationError):
    """Codebook construction was asked to cover an empty direction grid."""


class InsufficientAnchors(SimulationError):
    """Fewer line-of-sight anchors than the estimator requires."""


class NonConvergence(SimulationError):
    """Iterative solver hit its iteration cap without meeting tolerance."""


class InsufficientPds(SimulationError):
    """Fewer illuminated photodetectors than AoA estimation requires."""


class DegeneratePdGeometry(SimulationError):
    """Photodetector normals do not span 3-D space."""


class InvalidMeasurement(SimulationError):
    """Measured powers are unusable (zero, negative, or inconsistent)."""


class ScanFailed(SimulationError):
    """Beam sweep found no beam above the detection threshold."""


class LocalizationUnavailable(SimulationError):
    """No localization method is applicable to the current UE state."""


class ConfigError(SimulationError):
    """Scenario configuration file is malformed or inconsistent."""
