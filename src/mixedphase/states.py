"""Typed quantum-state layer.

Density-matrix validation, spectral decomposition into eigenvalues and
an eigenbasis, and the rotation of a lab-frame Hamiltonian into that
eigenbasis. Everything downstream works in the initial-state eigenbasis,
where the state is diag(lambdas) and the amplitude matrix is
diag(sqrt(lambdas)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPSD, NotUnitTrace
from .linalg import dagger, hermitian_eig, require_hermitian
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, PSD, unit trace.

    Construct through validate_density; the stored matrix is a private
    copy and is never mutated (tiny negative eigenvalues within the PSD
    floor are tolerated, not repaired).
    """

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Spectral data of a density matrix.

    lambdas are descending and clamped to [0, 1]; column j of basis_e is
    the eigenvector for lambdas[j]; amps = sqrt(lambdas). degenerate is
    set when two consecutive eigenvalues are closer than the degeneracy
    gap, in which case eigenbasis-dependent quantities are not unique.
    """

    lambdas: np.ndarray
    basis_e: np.ndarray
    amps: np.ndarray
    degenerate: bool

    @property
    def dim(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True)
class Problem:
    """A state and the lab-frame Hamiltonian driving it (hbar = 1).

    The Hamiltonian is checked once here: square, finite, the state's
    dimension, and Hermitian (NotHermitian otherwise).
    """

    rho0: DensityMatrix
    hamiltonian_lab: np.ndarray

    def __post_init__(self):
        h = require_hermitian(self.hamiltonian_lab)
        object.__setattr__(self, "hamiltonian_lab", h)
        if h.shape[0] != self.rho0.dim:
            raise DimensionMismatch(
                f"state is {self.rho0.dim}x{self.rho0.dim} but the Hamiltonian "
                f"is {h.shape[0]}x{h.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.rho0.dim


def validate_density(mat) -> DensityMatrix:
    """Check the density-matrix invariants and wrap the matrix.

    Raises NotHermitian (require_hermitian's test, which holds at any
    finite magnitude), NotUnitTrace, or NotPSD naming the violated
    invariant with the measured residual. Eigenvalues in [-psd, 0) are
    tolerated but not mutated.
    """
    mat = np.array(require_hermitian(mat))  # private copy
    trace = complex(np.trace(mat))
    if abs(trace - 1.0) > DEFAULT_TOL.unit_trace:
        raise NotUnitTrace(trace)
    evals = np.linalg.eigvalsh((mat + dagger(mat)) / 2.0)
    if evals[0] < -DEFAULT_TOL.psd:
        raise NotPSD(float(evals[0]))
    return DensityMatrix(mat)


def spectral_decompose(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues (descending, clamped to [0, 1]), eigenbasis, and
    amplitudes sqrt(lambda) of a validated density matrix."""
    w, q = hermitian_eig(rho.mat)
    lambdas = np.clip(w[::-1], 0.0, 1.0)
    basis_e = q[:, ::-1]
    gaps = lambdas[:-1] - lambdas[1:]
    degenerate = bool(gaps.size and np.min(gaps) < DEFAULT_TOL.degeneracy_gap)
    return Spectrum(lambdas, basis_e, np.sqrt(lambdas), degenerate)


def hamiltonian_in_eigenbasis(problem: Problem, spectrum: Spectrum) -> np.ndarray:
    """Rotate the lab-frame Hamiltonian into the state eigenbasis,
    h' = e^dag h e. Spectrum-preserving; Hermitian up to roundoff."""
    if spectrum.dim != problem.dim:
        raise DimensionMismatch(
            f"spectrum has dimension {spectrum.dim}, problem has {problem.dim}"
        )
    e = spectrum.basis_e
    return dagger(e) @ problem.hamiltonian_lab @ e
