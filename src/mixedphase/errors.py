"""Exception types raised across the package."""

import math
from decimal import Decimal

from .tolerances import DEFAULT_TOL


def magnitude(value: float, scale: float = 1.0) -> str:
    """value * scale as %.3e, with scale the power of two a matrix past
    the double range was divided by: formatted as a float, whose exponent
    has at least two digits, or through Decimal where the product
    overflows."""
    product = value * scale
    return f"{Decimal(value) * Decimal(scale) if math.isinf(product) else product:.3e}"


class GeometricPhaseError(Exception):
    """Base class for every error this package raises deliberately."""


class NotHermitian(GeometricPhaseError):
    """Matrix failed the Hermitian symmetry check; ||a - a^dag||_F is
    residual * scale (see magnitude)."""

    def __init__(self, residual: float, scale: float = 1.0):
        self.residual = residual * scale
        super().__init__(f"not Hermitian: ||a - a^dag||_F = {magnitude(residual, scale)} "
                         f"exceeds {DEFAULT_TOL.hermiticity:.1e}")


class NotPSD(GeometricPhaseError):
    """Matrix has an eigenvalue below the positive-semidefinite floor;
    the smallest is eigenvalue * scale (see magnitude)."""

    def __init__(self, eigenvalue: float, scale: float = 1.0):
        self.min_eigenvalue = eigenvalue * scale
        super().__init__("not positive semidefinite: smallest eigenvalue "
                         f"{magnitude(eigenvalue, scale)} is below -{DEFAULT_TOL.psd:.1e}")


class NotUnitTrace(GeometricPhaseError):
    """Density matrix trace deviates from one; the trace is trace * scale
    and |Tr - 1| is |trace - 1 / scale| * scale (see magnitude)."""

    def __init__(self, trace: complex, scale: float = 1.0):
        self.trace = trace * scale
        residual = magnitude(abs(trace - 1.0 / scale), scale)
        super().__init__(f"trace is not one: |Tr - 1| = {residual} "
                         f"exceeds {DEFAULT_TOL.unit_trace:.1e}")


class DimensionMismatch(GeometricPhaseError):
    """Operands do not share the required dimension."""
