"""Phase arithmetic on the circle, and the one nodal-point convention:
a phase is the argument of an overlap, undefined where the overlap
magnitude is at or below the overlap tolerance."""

import math

import numpy as np

from .errors import VanishingOverlap
from .tolerances import DEFAULT_TOL


def principal_angle(x: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    r = math.remainder(x, math.tau)
    # remainder lands in [-pi, pi]; fold the open endpoint onto +pi
    return math.pi if r <= -math.pi else r


def circular_distance(a: float, b: float) -> float:
    """min(|a - b|, 2*pi - |a - b|), the metric for all phase comparisons."""
    return abs(math.remainder(a - b, math.tau))


def angle_or_nan(z: np.ndarray) -> np.ndarray:
    """arg z, or nan at nodal points."""
    return np.where(np.abs(z) > DEFAULT_TOL.overlap, np.angle(z), np.nan)


def angle_or_raise(z: complex) -> float:
    """arg z, raising VanishingOverlap at nodal points."""
    if abs(z) <= DEFAULT_TOL.overlap:
        raise VanishingOverlap(abs(z))
    return float(np.angle(z))
