"""Phase arithmetic on the circle, and the one nodal-point convention:
a phase is the argument of an overlap, undefined where the overlap
magnitude is at or below the overlap tolerance, and every phase the
package returns is nan there (angle_or_nan)."""

import math

import numpy as np

from .tolerances import DEFAULT_TOL


def principal_angle(x: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    r = math.remainder(x, math.tau)
    # remainder lands in [-pi, pi]; fold the open endpoint onto +pi
    return math.pi if r <= -math.pi else r


def circular_distance(a: float, b: float) -> float:
    """min(|a - b|, 2*pi - |a - b|), the metric for all phase comparisons."""
    return abs(math.remainder(a - b, math.tau))


def angle_or_nan(z):
    """arg z, or nan at nodal points, elementwise: an array for an array
    z, a float for a scalar. arctan2(imag, real) is what np.angle runs
    on a complex z, without its wrapper."""
    out = np.where(np.abs(z) > DEFAULT_TOL.overlap, np.arctan2(z.imag, z.real), np.nan)
    return out if out.ndim else float(out)
