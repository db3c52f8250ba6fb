"""Parallel-transport construction for mixed states.

Solves the ancilla Hamiltonian that makes every pure component of the
evolving ensemble parallel-transported, and builds the frame that
diagonalizes it, with the eigenspaces and the component weights. All of
it lives on the state's support (Problem's), in its eigenbasis, so the
amplitude matrix is diagonal and positive and the defining equation

    C^2 K^T + K^T C^2 = -2 C H C

has the closed-form elementwise solution used below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import dagger, eigenspace_blocks, frobenius


@dataclass(frozen=True, eq=False)
class AncillaFrame:
    """Ancilla Hamiltonian k, the unitary z with z k z^dag diagonal, the
    eigenvalues kappas (ascending, energy units), their eigenspaces as
    blocks (linalg.eigenspace_blocks), and the time-invariant component
    weights q_j = sum_k |z_jk|^2 c_k^2, nonnegative and summing to one (z's
    rows redistribute the state's eigenvalues, creating no weight)."""

    k: np.ndarray
    z: np.ndarray
    kappas: np.ndarray
    q: np.ndarray
    blocks: tuple


def solve_ancilla_hamiltonian(amps, h_prime) -> np.ndarray:
    """Closed-form solution K of C^2 K^T + K^T C^2 = -2 C H C.

    amps holds the amplitudes c_j = sqrt(lambda_j) on the state's support
    and h_prime the Hamiltonian there, as Problem carries them. Entrywise,
    (K^T)_kl = -2 c_k c_l H'_kl / (c_k^2 + c_l^2), the one solution: every
    denominator on the support exceeds the support tolerance.
    """
    if amps.size != h_prime.shape[0]:
        raise DimensionMismatch(
            f"{amps.size} amplitudes for a {h_prime.shape[0]}x{h_prime.shape[0]} Hamiltonian"
        )
    lam = amps**2
    factor = -2.0 * (amps[:, None] * amps) / (lam[:, None] + lam[None, :])
    # K^T = factor * (h' + h'^dag) / 2 with factor symmetric, so K itself is
    # factor times the transpose of that mean; exact symmetry of the mean
    # makes K exactly Hermitian
    return factor * ((h_prime.conj() + h_prime.T) / 2.0)


def ancilla_equation_residual(amps, h_prime, ancilla_h) -> float:
    """Frobenius norm of C^2 K^T + K^T C^2 + 2 C H C on the state's support
    (Problem's). C is diagonal, so entry kl is (lambda_k + lambda_l) K^T_kl
    + 2 c_k c_l H_kl, formed entry by entry in O(r^2)."""
    lam = amps**2
    lam_sum = lam[:, None] + lam[None, :]
    return frobenius(lam_sum * ancilla_h.T + 2.0 * (amps[:, None] * amps) * h_prime)


def transport_residual(amps, h_prime, frame: AncillaFrame) -> float:
    """max_j |<psi_j|h'|psi_j> + kappa_j q_j| for psi_j = C z^T |e_j>: zero when every
    component's energy is -kappa_j, its parallel-transport condition (weighted by q_j)."""
    psi = frame.z * amps  # row j is psi_j
    energies = ((psi.conj() @ h_prime) * psi).sum(axis=1).real
    return float(np.max(np.abs(energies + frame.kappas * frame.q)))


def diagonalizing_frame(ancilla_h, amps) -> AncillaFrame:
    """Diagonalize the ancilla Hamiltonian: z = v^dag for k = v diag(kappa) v^dag,
    so z k z^dag = diag(kappa) with kappas ascending, and the weights q from
    the amplitudes amps. k is taken to be exactly Hermitian, as
    solve_ancilla_hamiltonian makes it, and is not checked: np.linalg.eigh
    then gives what hermitian_eig's symmetrized solve would."""
    kappas, v = np.linalg.eigh(ancilla_h)
    z = dagger(v)
    return AncillaFrame(k=ancilla_h, z=z, kappas=kappas, q=np.abs(z) ** 2 @ amps**2,
                        blocks=eigenspace_blocks(kappas))
