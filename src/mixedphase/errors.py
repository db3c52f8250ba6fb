"""Exception types raised across the package."""

import math
from decimal import Decimal

from .tolerances import DEFAULT_TOL


class GeometricPhaseError(Exception):
    """Base class for every error this package raises deliberately."""


class NotHermitian(GeometricPhaseError):
    """Matrix failed the Hermitian symmetry check."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"not Hermitian: ||a - a^dag||_F = {residual:.3e} exceeds "
            f"{DEFAULT_TOL.hermiticity:.1e}"
        )


class NotPSD(GeometricPhaseError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""

    def __init__(self, eigenvalue: float, scale: float = 1.0):
        """The smallest eigenvalue is eigenvalue * scale, with scale the
        power of two a matrix past the double range was divided by. Where
        that product overflows, the message formats it through Decimal;
        elsewhere as a float, whose exponent has at least two digits."""
        self.min_eigenvalue = eigenvalue * scale
        shown = (Decimal(eigenvalue) * Decimal(scale)
                 if math.isinf(self.min_eigenvalue) else self.min_eigenvalue)
        super().__init__(
            f"not positive semidefinite: smallest eigenvalue {shown:.3e} "
            f"is below -{DEFAULT_TOL.psd:.1e}"
        )


class NotUnitTrace(GeometricPhaseError):
    """Density matrix trace deviates from one."""

    def __init__(self, trace: complex):
        self.trace = trace
        super().__init__(
            f"trace is not one: |Tr - 1| = {abs(trace - 1.0):.3e} exceeds "
            f"{DEFAULT_TOL.unit_trace:.1e}"
        )


class DimensionMismatch(GeometricPhaseError):
    """Operands do not share the required dimension."""
