"""Typed quantum-state layer.

Density-matrix validation and the Problem record, which make the one
eigendecomposition of the state and of the Hamiltonian, and the rotation
of the Hamiltonian and its eigenvectors into the state eigenbasis.
Everything downstream works in the initial-state eigenbasis, where the
state is diag(lambdas) and the amplitude matrix is diag(sqrt(lambdas)),
and reads both spectra from here; nothing decomposes rho or H again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPSD, NotUnitTrace, magnitude
from .linalg import close_eigenvalues, dagger, hermitian_eig, require_hermitian
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator (Hermitian, PSD, unit trace) with its
    eigendecomposition.

    lambdas are descending and clamped to [0, 1]; column j of basis_e is
    the eigenvector for lambdas[j]; amps = sqrt(lambdas). Construct
    through validate_density, or from a validated state with basis_e
    rephased column by column (a gauge change). mat is a private copy and
    is never mutated (tiny negative eigenvalues within the PSD floor are
    tolerated, not repaired).
    """

    mat: np.ndarray
    lambdas: np.ndarray
    basis_e: np.ndarray
    amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def degenerate(self) -> bool:
        """True when two lambdas are closer than the degeneracy gap."""
        return close_eigenvalues(self.lambdas)


@dataclass(frozen=True)
class Problem:
    """A state and the lab-frame Hamiltonian driving it (hbar = 1).

    The Hamiltonian is checked once here: square, finite, the state's
    dimension, Hermitian (NotHermitian otherwise), and of Frobenius norm
    at most half the largest double, so that h' + h'^dag cannot overflow.
    Then it is decomposed once: h_eigvals (ascending) and h_eigvecs are
    hermitian_eig's spectrum of hamiltonian_lab, which the engine rotates
    into the state eigenbasis and the holonomy oracle evolves with. They
    are derived, so they take no part in construction, repr or equality.
    """

    rho0: DensityMatrix
    hamiltonian_lab: np.ndarray
    h_eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    h_eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, _, scale, norm = require_hermitian(self.hamiltonian_lab)
        if norm > np.finfo(float).max / 2 / scale:
            raise ValueError(f"Hamiltonian norm ||H||_F = {magnitude(norm, scale)}"
                             " exceeds half the range of a double")
        object.__setattr__(self, "hamiltonian_lab", h)
        if h.shape[0] != self.rho0.dim:
            raise DimensionMismatch(
                f"state is {self.rho0.dim}x{self.rho0.dim} but the Hamiltonian "
                f"is {h.shape[0]}x{h.shape[0]}"
            )
        w, q = hermitian_eig(h)
        object.__setattr__(self, "h_eigvals", w)
        object.__setattr__(self, "h_eigvecs", q)

    @property
    def dim(self) -> int:
        return self.rho0.dim


def validate_density(mat) -> DensityMatrix:
    """Check the density-matrix invariants and decompose the matrix.

    Raises NotHermitian (require_hermitian's test, which holds at any
    finite magnitude, made here once: hermitian_eig does not check its
    input), NotUnitTrace, or NotPSD naming the violated invariant with
    the measured residual. The trace and the eigenvalues are those of the
    scaled b the check returns, so both tests hold at any finite
    magnitude too; b is mat itself below ||rho||_F = 1e300, and no
    unit-trace PSD matrix lies above it. Eigenvalues in [-psd, 0) are
    tolerated but not mutated.
    """
    mat, b, scale, _ = require_hermitian(np.array(mat, dtype=complex))  # private copy
    trace = complex(np.trace(b))
    if abs(trace - 1.0 / scale) * scale > DEFAULT_TOL.unit_trace:
        raise NotUnitTrace(trace, scale)
    w, q = hermitian_eig(b)
    if float(w[0]) * scale < -DEFAULT_TOL.psd:
        raise NotPSD(float(w[0]), scale)
    lambdas = np.clip(w[::-1], 0.0, 1.0)
    return DensityMatrix(mat, lambdas, q[:, ::-1], np.sqrt(lambdas))


def hamiltonian_in_eigenbasis(problem: Problem, basis_e=None) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the lab-frame Hamiltonian and its eigenvectors into the
    state eigenbasis: (h', Q) = (e^dag H e, e^dag V) for H = V diag(w) V^dag
    the problem's decomposition, so that h' = Q diag(w) Q^dag with the
    same eigenvalues w. e is problem.rho0.basis_e or the given basis_e,
    which may be a (B, n, n) stack of eigenbases of the same state
    (gauges); e^dag is formed once for both products. h' is Hermitian
    and Q unitary up to roundoff."""
    e = problem.rho0.basis_e if basis_e is None else basis_e
    e_dag = dagger(e)
    return e_dag @ problem.hamiltonian_lab @ e, e_dag @ problem.h_eigvecs
