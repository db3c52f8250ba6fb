"""Phase engine.

The mixed-state phases are one construction in different
representations z (unitary frames) of the ancilla's Hilbert space:

    Phi(z, t) = arg sum_j m_j(z, t) e^{-i kappa_j(z) t},
    m_j(z, t) = <e_j| z* C U(t) C z^T |e_j> = sum_a P_aj e^{-i eps_a t},

with P = |Q^dag C z^T|^2 for h' = Q diag(eps) Q^dag (H's decomposition,
made once by Problem, carried on the state's support: eps are H's
eigenvalues and Q = e^dag V) and kappa_j(z) = -<psi_j|h'|psi_j> / q_j, the
negated energy of component psi_j = C z^T |e_j> of weight q_j. The frame
that diagonalizes the ancilla Hamiltonian K (kappa_j its eigenvalues;
E_j = -kappa_j is the parallel-transport condition) gives the total
geometric phase; z = I (kappa_j = -h'_jj) gives Sjoqvist's
interferometric phase, which agrees with it only for pure states.
evaluate computes both on a whole time grid by matrix products, through
one helper for Phi's sum (_phi): once with the frame's kernel and
kappas, once with z = I. Its uhlmann column, arg Tr[C U C V^T],
contracts the frame's kernel over kappa first: the total phase again,
not an independent check. The independent checks are the discretized
holonomy oracle, the 40-digit mpmath reference of tests/exact.py
(gamma_total and sjoqvist from rho and the lab H alone) and the
benchmark's scipy reference (solve_sylvester for K, expm for U and V).

One pipeline call: evaluate(problem, times) solves the ancilla frame
(prepare_problem) and reads every phase off it; PhaseBatch is the only
result type, and a single t is row 0 of evaluate(problem, t). At a
nodal point evaluate stores nan, and the literal per-t definitions it
is checked against (tests/literal.py) and the oracles return nan there
too: one convention, angles.angle_or_nan, and nothing raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import angle_or_nan
from .linalg import MAX_PHASE, close_eigenvalues, dagger, past_resolvable_range
from .states import Problem
from .tolerances import DEFAULT_TOL
from .transport import AncillaFrame, component_weights, diagonalizing_frame, \
    solve_ancilla_hamiltonian


@dataclass(frozen=True, eq=False)
class PhaseBatch:
    """Every phase of one instance on a grid of times.

    Arrays are real and indexed [time] or [time, component], except q,
    which is time-invariant and indexed [component]. The per-component
    arrays are the report's columns; the complex m_j(t) they are read
    from is not kept. A headline phase at a nodal point (the modulus of
    its sum at or below the overlap tolerance) is nan, with that modulus
    still recorded: overlap_magnitude for gamma_total and uhlmann,
    sjoqvist_magnitude for sjoqvist. Negligible components, those of the
    state's kernel (q = 0) among them, carry the sentinels visibility =
    gamma = total_phase = 0. energy is the largest |eps_a| or |kappa_j|:
    |t| times it is the largest phase argument.
    """

    t: np.ndarray
    gamma_total: np.ndarray
    uhlmann: np.ndarray
    sjoqvist: np.ndarray
    overlap_magnitude: np.ndarray
    sjoqvist_magnitude: np.ndarray
    q: np.ndarray
    visibility: np.ndarray
    gamma: np.ndarray
    dyn_phase: np.ndarray
    total_phase: np.ndarray
    degenerate_spectrum_warning: bool
    energy: float

    def __len__(self) -> int:
        return self.t.size


def prepare_problem(problem: Problem) -> AncillaFrame:
    """The frame that diagonalizes K, solved on the support the problem
    carries: its amps and its h_prime, r x r."""
    return diagonalizing_frame(solve_ancilla_hamiltonian(problem.amps, problem.h_prime))


def _setup(amps, h_eigvals, h_eigvecs, z, kappas, times):
    """What _evaluate does before Phi's sum: the checked times, the
    energy, the table e^{-i eps_a t} and the frame's kernel P."""
    t = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {times}")
    energy = float(max(np.abs(h_eigvals).max(), np.abs(kappas).max()))
    late = t[np.abs(t) > MAX_PHASE / energy] if energy else t[:0]
    if late.size:
        raise past_resolvable_range(float(late[0]), energy)
    # P_aj = |<eps_a| C z^T |e_j>|^2, n x r. The Uhlmann kernel |(Q^T C z^dag)_ab|^2
    # is the same matrix, as (Q^T C z^dag)_ab is the conjugate of (Q^dag C z^T)_ab.
    p = np.abs(dagger(h_eigvecs) @ (z * amps).T) ** 2
    e = np.exp(-1j * (t[:, None] * h_eigvals))  # e^{-i eps_a t}, [time, a]
    return t, energy, e, p


def _phi(t, e, p, kappas):
    """Phi(z, t) before its arg, for the representation z with kernel p
    and energies kappas: e^{-i kappa_j t}, m_j = (e @ p)_j, m_j e^{-i kappa_j t}
    and its sum over j, each [time, j] (the sum [time])."""
    d = np.exp(-1j * (t[:, None] * kappas))  # e^{-i kappa_j t}, [time, j]
    overlaps = e @ p
    rotated = overlaps * d
    return d, overlaps, rotated, rotated.sum(axis=-1)


def evaluate(problem: Problem, times) -> PhaseBatch:
    """Every phase and per-component report at each of times (a scalar
    or a 1-D sequence; repeats and negative times are allowed).

    Costs the ancilla solve and K's one eigendecomposition, r x r at
    rank r (prepare_problem), then exponential tables of T x n and T x r
    and three products with the n x r kernel; nothing of size T x n x n
    is formed, and the complex tables, m_j(t) among them, are released
    on return. Raises ValueError past |t| E = 2**52, E the largest
    |eps_a| or |kappa_j| (the batch's energy), where doubles at the phase
    arguments t E are 1 rad or more apart. The degenerate-spectrum flag
    is decided here alone: it is set when two eigenvalues of the state's
    support or of K are closer than the degeneracy gap (close_eigenvalues).
    """
    return _evaluate(problem, prepare_problem(problem), times)


def _evaluate(problem: Problem, frame: AncillaFrame, times) -> PhaseBatch:
    """evaluate's body, on the frame prepare_problem gave for problem
    (verify checks that frame's residuals, so K is solved and decomposed
    once per trial); the one place that restores n components from r."""
    weights = component_weights(problem.amps, frame.z)
    t, energy, e, p = _setup(problem.amps, problem.h_eigvals, problem.h_eigvecs, frame.z,
                             frame.kappas, times)
    d, overlaps, rotated, total = _phi(t, e, p, frame.kappas)
    trace = np.einsum("ta,ta->t", e, d @ p.T)  # contracted K-side first
    # z = I: kernel |Q^dag C|^2 and kappa_j(I) = -h'_jj
    p_i = (np.abs(problem.h_eigvecs) ** 2).T * problem.lambdas
    interferometric = _phi(t, e, p_i, -np.diag(problem.h_prime).real)[-1]
    live = weights > DEFAULT_TOL.weight
    columns = [weights, frame.kappas,
               np.divide(np.abs(overlaps), weights, out=np.zeros(overlaps.shape), where=live),
               np.where(live, np.angle(rotated), 0.0), np.where(live, np.angle(overlaps), 0.0)]
    if problem.dim > frame.kappas.size:  # the state's kernel: q = kappa = 0, sentinels
        at, kernel = np.searchsorted(frame.kappas, 0.0), problem.dim - frame.kappas.size
        columns = [np.concatenate([c[..., :at], np.zeros(c.shape[:-1] + (kernel,)), c[..., at:]],
                                  axis=-1) for c in columns]
    q, kappas, visibility, gamma, total_phase = columns
    return PhaseBatch(
        t=t,
        gamma_total=angle_or_nan(total),
        uhlmann=angle_or_nan(trace),
        sjoqvist=angle_or_nan(interferometric),
        overlap_magnitude=np.abs(total),
        sjoqvist_magnitude=np.abs(interferometric),
        q=q,
        visibility=visibility,
        gamma=gamma,
        dyn_phase=t[:, None] * kappas,  # np.outer's expression
        total_phase=total_phase,
        # close kappas leave z, and every per-component column, not unique
        # within the degenerate block, as close lambdas leave basis_e
        degenerate_spectrum_warning=(close_eigenvalues(problem.lambdas)
                                     or close_eigenvalues(frame.kappas)),
        energy=energy,
    )
