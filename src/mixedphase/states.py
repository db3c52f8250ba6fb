"""Typed quantum-state layer.

Density-matrix validation and the Problem record, which make the one
eigendecomposition of the state and of the Hamiltonian. Problem decides
the state's support, rotates H and its eigenvectors onto it and solves
the ancilla frame there, once each. Everything downstream works there,
where the state is diag(lambdas) and the amplitude matrix diag(amps),
and reads it all from here; nothing decomposes or rotates rho or H again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPSD, NotUnitTrace
from .linalg import dagger, eigenspace_blocks, hermitian_eig, require_hermitian
from .tolerances import DEFAULT_TOL
from .transport import AncillaFrame, diagonalizing_frame, solve_ancilla_hamiltonian


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator (Hermitian, PSD, unit trace) with its
    eigendecomposition.

    lambdas are descending and clamped to [0, 1]; column j of basis_e is
    the eigenvector for lambdas[j]. Construct through validate_density,
    or from a validated state with basis_e rotated by a unitary within
    each eigenspace (a gauge change; Problem.blocks are those on the
    support, and a rephased column is a block of one). mat is
    require_hermitian's private copy of the input and is never mutated
    (tiny negative eigenvalues within the PSD floor are tolerated, not
    repaired).
    """

    mat: np.ndarray
    lambdas: np.ndarray
    basis_e: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class Problem:
    """A state and the lab-frame Hamiltonian driving it (hbar = 1).

    The Hamiltonian is checked once here, by require_hermitian (square,
    of finite Frobenius norm at most MAX_NORM, Hermitian), and for the
    state's dimension.
    hamiltonian_lab is the check's private copy, so a later write to the
    caller's array moves neither it nor anything derived from it.
    Here alone the state's support is decided: the first r columns e of
    rho0.basis_e, whose eigenvalues exceed support / 2 (r >= 1). The
    purification sum_k c_k |e_k>|e_k> has terms only there, so no later
    stage sees the kernel. The problem carries their eigenvalues lambdas,
    the eigenspaces of lambdas as blocks (linalg.eigenspace_blocks), the
    amplitudes amps = sqrt(lambdas), and H, decomposed once as
    V diag(h_eigvals) V^dag (all n h_eigvals, ascending; hermitian_eig),
    on the support: h_prime = e^dag H e (r x r) and h_eigvecs = Q = e^dag V
    (r x n), so h' = Q diag(h_eigvals) Q^dag, Hermitian, with Q's rows
    orthonormal up to roundoff. The engine and the holonomy oracle both
    read these; no eigendecomposition of h' is made. They are derived, so
    they take no part in construction or repr.
    """

    rho0: DensityMatrix
    hamiltonian_lab: np.ndarray
    lambdas: np.ndarray = field(init=False, repr=False)
    blocks: tuple = field(init=False, repr=False)
    amps: np.ndarray = field(init=False, repr=False)
    h_eigvals: np.ndarray = field(init=False, repr=False)
    h_eigvecs: np.ndarray = field(init=False, repr=False)
    h_prime: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.rho0, DensityMatrix):
            raise TypeError(f"rho0 must be validate_density's DensityMatrix, got "
                            f"{type(self.rho0).__name__}")
        h = require_hermitian(self.hamiltonian_lab)
        object.__setattr__(self, "hamiltonian_lab", h)
        if h.shape[0] != self.rho0.dim:
            raise DimensionMismatch(
                f"state is {self.rho0.dim}x{self.rho0.dim} but the Hamiltonian "
                f"is {h.shape[0]}x{h.shape[0]}"
            )
        w, v = hermitian_eig(h)
        r = int(np.count_nonzero(self.rho0.lambdas > DEFAULT_TOL.support / 2))
        lambdas, e = self.rho0.lambdas[:r], self.rho0.basis_e[:, :r]
        e_dag = dagger(e)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "blocks", eigenspace_blocks(lambdas))
        object.__setattr__(self, "amps", np.sqrt(lambdas))
        object.__setattr__(self, "h_eigvals", w)
        object.__setattr__(self, "h_eigvecs", e_dag @ v)
        object.__setattr__(self, "h_prime", e_dag @ h @ e)

    @property
    def dim(self) -> int:
        return self.rho0.dim

    @cached_property
    def frame(self) -> AncillaFrame:
        """K's diagonalizing AncillaFrame on the support, with q and blocks: solved
        on first read, not at construction (compare's holonomy runs without it)."""
        return diagonalizing_frame(solve_ancilla_hamiltonian(self.amps, self.h_prime), self.amps)


def validate_density(mat) -> DensityMatrix:
    """Check the density-matrix invariants and decompose the matrix.

    The returned state holds require_hermitian's private copy of mat.
    Raises require_hermitian's ValueError or NotHermitian (the check is
    made here once: hermitian_eig does not check its input), NotUnitTrace,
    or NotPSD naming the violated invariant with the measured residual.
    Eigenvalues in [-psd, 0) are tolerated but not mutated.
    """
    mat = require_hermitian(mat)
    trace = complex(mat.trace())
    if abs(trace - 1.0) > DEFAULT_TOL.unit_trace:
        raise NotUnitTrace(trace)
    w, q = hermitian_eig(mat)
    if float(w[0]) < -DEFAULT_TOL.psd:
        raise NotPSD(float(w[0]))
    lambdas = np.clip(w[::-1], 0.0, 1.0)
    return DensityMatrix(mat, lambdas, q[:, ::-1])

