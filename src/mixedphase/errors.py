"""Exception types raised across the package."""

from .tolerances import DEFAULT_TOL


class GeometricPhaseError(Exception):
    """Base class for every error this package raises deliberately."""


class NotHermitian(GeometricPhaseError):
    """Matrix failed the Hermitian symmetry check; residual is
    ||a - a^dag||_F."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"not Hermitian: ||a - a^dag||_F = {residual:.3e} "
                         f"exceeds {DEFAULT_TOL.hermiticity:.1e}")


class NotPSD(GeometricPhaseError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""

    def __init__(self, eigenvalue: float):
        self.min_eigenvalue = eigenvalue
        super().__init__("not positive semidefinite: smallest eigenvalue "
                         f"{eigenvalue:.3e} is below -{DEFAULT_TOL.psd:.1e}")


class NotUnitTrace(GeometricPhaseError):
    """Density matrix trace deviates from one."""

    def __init__(self, trace: complex):
        self.trace = trace
        super().__init__(f"trace is not one: |Tr - 1| = {abs(trace - 1.0):.3e} "
                         f"exceeds {DEFAULT_TOL.unit_trace:.1e}")


class DimensionMismatch(GeometricPhaseError):
    """Operands do not share the required dimension."""
