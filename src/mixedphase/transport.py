"""Parallel-transport construction for mixed states.

Solves the ancilla Hamiltonian that makes every pure component of the
evolving ensemble parallel-transported, builds the unitary frame that
diagonalizes it, and produces the time-invariant component weights and
component states. All of it lives in the initial-state eigenbasis, so
the amplitude matrix is diagonal and the defining equation

    C^2 K^T + K^T C^2 = -2 C H C

has the closed-form elementwise solution used below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .linalg import dagger, frobenius, hermitian_eig, require_hermitian
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class AncillaFrame:
    """Ancilla Hamiltonian k, the unitary z with z k z^dag diagonal, and
    the eigenvalues kappas (ascending, energy units)."""

    k: np.ndarray
    z: np.ndarray
    kappas: np.ndarray

    @property
    def dim(self) -> int:
        return self.kappas.size


def solve_ancilla_hamiltonian(amps, h_prime) -> np.ndarray:
    """Closed-form solution K of C^2 K^T + K^T C^2 = -2 C H C.

    amps is the 1-D vector of amplitudes c_j = sqrt(lambda_j) >= 0;
    h_prime is the Hamiltonian in the state eigenbasis. Entrywise,
    (K^T)_kl = -2 c_k c_l H'_kl / (c_k^2 + c_l^2) wherever the
    denominator exceeds the support tolerance, else 0: the equation puts no
    constraint on K inside the kernel of the state, and zero is the
    minimal-norm completion.
    """
    amps = np.asarray(amps, dtype=float)
    hp = require_hermitian(h_prime)
    if amps.size != hp.shape[0]:
        raise DimensionMismatch(
            f"{amps.size} amplitudes for a {hp.shape[0]}x{hp.shape[0]} Hamiltonian"
        )
    hp = (hp + dagger(hp)) / 2.0  # exact symmetry here makes K exactly Hermitian
    lam = amps**2
    denom = lam[:, None] + lam[None, :]
    num = -2.0 * np.outer(amps, amps)
    factor = np.divide(num, denom, out=np.zeros_like(denom),
                       where=denom > DEFAULT_TOL.support)
    return (factor * hp).T


def ancilla_equation_residual(amps, h_prime, ancilla_h) -> float:
    """Frobenius norm of C^2 K^T + K^T C^2 + 2 C H C restricted to the
    support (index pairs with c_k^2 + c_l^2 above the support tolerance)."""
    amps = np.asarray(amps, dtype=float)
    c = np.diag(amps)
    kt = np.asarray(ancilla_h).T
    resid = c @ c @ kt + kt @ c @ c + 2.0 * (c @ np.asarray(h_prime) @ c)
    lam = amps**2
    mask = (lam[:, None] + lam[None, :]) > DEFAULT_TOL.support
    return frobenius(resid * mask)


def diagonalizing_frame(ancilla_h) -> AncillaFrame:
    """Diagonalize the ancilla Hamiltonian: z = q^dag for k = q diag(kappa) q^dag,
    so z k z^dag = diag(kappa) with kappas ascending. hermitian_eig
    checks that k is Hermitian."""
    kappas, q = hermitian_eig(ancilla_h)
    return AncillaFrame(k=np.asarray(ancilla_h, dtype=complex), z=dagger(q),
                        kappas=kappas)


def component_weights(amps, z) -> np.ndarray:
    """Time-invariant component weights q_j = sum_k |z_jk|^2 c_k^2.

    Nonnegative and summing to one (the z rows redistribute the state
    eigenvalues without creating or destroying weight).
    """
    amps = np.asarray(amps, dtype=float)
    z = np.asarray(z)
    if z.shape != (amps.size, amps.size):
        raise DimensionMismatch(
            f"frame is {z.shape} but there are {amps.size} amplitudes"
        )
    return np.abs(z) ** 2 @ amps**2


def component_state(j: int, u_t, amps, z) -> np.ndarray:
    """Unnormalized component j at the time of u_t: u_t @ C @ z^T |e_j>.

    Entry k of the time-zero state is c_k z_jk; its squared norm is the
    invariant weight q_j for every t.
    """
    amps = np.asarray(amps, dtype=float)
    if not 0 <= j < amps.size:
        raise IndexOutOfRange(f"component {j} outside 0..{amps.size - 1}")
    return np.asarray(u_t) @ (amps * np.asarray(z)[j, :])
