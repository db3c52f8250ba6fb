"""Phase engine.

Per-component geometric, dynamical, and total phases with visibilities;
their weighted sum, the total geometric phase of the evolving ensemble;
the purification trace phase (Uhlmann's phase); and the interferometric
eigenbasis phase (Sjoqvist's phase).

Every phase is a function of the component overlaps
m_j(t) = <e_j| z* C U(t) C z^T |e_j>. prepare_from_spectrum diagonalizes
h' = Q diag(eps) Q^dag once, after which

    m_j(t) = sum_a P_aj e^{-i eps_a t},   P = |Q^dag C z^T|^2,

so evaluate computes a whole time grid as one matrix product. The
total phase and the Uhlmann phase share that one spectral
decomposition and differ only in their contraction: the total phase
sums over eps first (sum_j m_j e^{-i kappa_j t}), the Uhlmann trace
Tr[C U C V^T] over kappa first. They are therefore not independent
checks of each other; the independent checks are the discretized
holonomy oracle (oracles.discrete_uhlmann_holonomy) and the
benchmark's scipy reference (solve_sylvester for K, expm for U and V).

Batch-of-one rule: evaluate is the only evaluation path and PhaseBatch
the only result type. A single t is row 0 of evaluate(prep, t); compute,
sweep and compare all go through evaluate. The per-t functions below
(overlap_kernel, component_report, total_geometric_phase,
uhlmann_trace_phase, sjoqvist_phase) take the prepared problem and an
explicit evolution operator u_t, so a caller can pass one built
independently of the cached eigendecomposition; they are the literal
definitions that verify and the tests check the engine against. At a
nodal point (angles.angle_or_nan), evaluate stores nan where the
literal phases raise VanishingOverlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import angle_or_nan, angle_or_raise
from .errors import IndexOutOfRange
from .linalg import dagger, hermitian_eig, unitary_from_eig, unitary_from_hamiltonian
from .states import Problem, Spectrum, hamiltonian_in_eigenbasis, spectral_decompose
from .tolerances import DEFAULT_TOL
from .transport import AncillaFrame, component_weights, diagonalizing_frame, \
    solve_ancilla_hamiltonian


@dataclass(frozen=True)
class ComponentReport:
    """Phases of one pure component of the ensemble, as the literal
    component_report computes them.

    gamma and total_phase are reduced to (-pi, pi]; dyn_phase = kappa_j*t
    is reported unwrapped. Components with weight below the weight
    tolerance carry the sentinel convention visibility = gamma =
    total_phase = 0.
    """

    j: int
    q: float
    visibility: float
    gamma: float
    dyn_phase: float
    total_phase: float


@dataclass(frozen=True)
class PhaseBatch:
    """Every phase of one instance on a grid of times.

    Arrays are indexed [time] or [time, component], except q, which is
    time-invariant and indexed [component]. overlaps holds the complex
    m_j(t). A headline phase at a nodal point (overlap magnitude at or
    below the overlap tolerance) is nan, with overlap_magnitude still
    recorded; negligible components carry the sentinel zeros of
    ComponentReport.
    """

    t: np.ndarray
    gamma_total: np.ndarray
    uhlmann: np.ndarray
    sjoqvist: np.ndarray
    overlap_magnitude: np.ndarray
    overlaps: np.ndarray
    q: np.ndarray
    visibility: np.ndarray
    gamma: np.ndarray
    dyn_phase: np.ndarray
    total_phase: np.ndarray
    degenerate_spectrum_warning: bool

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class PreparedProblem:
    """A problem with its eigenbasis data and ancilla frame solved,
    ready for phase evaluation at any time. h_eigvals and h_eigvecs are
    the eigendecomposition of h_prime (ascending, as from hermitian_eig)."""

    problem: Problem
    spectrum: Spectrum
    h_prime: np.ndarray
    h_eigvals: np.ndarray
    h_eigvecs: np.ndarray
    frame: AncillaFrame
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.problem.dim


def prepare_from_spectrum(problem: Problem, spectrum: Spectrum) -> PreparedProblem:
    """Build the ancilla frame and weights for a given spectral
    decomposition (callers can rephase or permute the eigenbasis)."""
    h_prime = hamiltonian_in_eigenbasis(problem, spectrum)
    h_eigvals, h_eigvecs = hermitian_eig(h_prime)
    k = solve_ancilla_hamiltonian(spectrum.amps, h_prime)
    frame = diagonalizing_frame(k)
    weights = component_weights(spectrum.amps, frame.z)
    return PreparedProblem(problem, spectrum, h_prime, h_eigvals, h_eigvecs, frame,
                           weights)


def prepare_problem(problem: Problem) -> PreparedProblem:
    return prepare_from_spectrum(problem, spectral_decompose(problem.rho0))


def evolution_operator(prep: PreparedProblem, t: float) -> np.ndarray:
    """exp(-i h' t) in the state eigenbasis."""
    return unitary_from_eig(prep.h_eigvals, prep.h_eigvecs, t)


def evaluate(prep: PreparedProblem, times) -> PhaseBatch:
    """Every phase and per-component report at each of times (a scalar
    or a 1-D sequence; repeats and negative times are allowed).

    Costs one n x n by n x T product per quantity and no
    eigendecomposition; nothing of size T x n x n is formed.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {times}")
    frame, q_h, weights = prep.frame, prep.h_eigvecs, prep.weights
    e = np.exp(-1j * np.outer(t, prep.h_eigvals))  # e^{-i eps_a t}, [time, a]
    d = np.exp(-1j * np.outer(t, frame.kappas))  # e^{-i kappa_b t}, [time, b]
    # P_aj = |<eps_a| C z^T |e_j>|^2. The Uhlmann kernel |(Q^T C z^dag)_ab|^2
    # is the same matrix, as (Q^T C z^dag)_ab is the conjugate of (Q^dag C z^T)_ab.
    p = np.abs(dagger(q_h) @ (frame.z * prep.spectrum.amps).T) ** 2
    overlaps = e @ p
    rotated = overlaps * d  # m_j e^{-i kappa_j t}
    total = rotated.sum(axis=1)
    trace = np.einsum("ta,ta->t", e, d @ p.T)  # contracted K-side first
    diag_u = e @ (np.abs(q_h) ** 2).T  # <e_j|U(t)|e_j>
    interferometric = (diag_u * np.exp(1j * np.outer(t, np.diag(prep.h_prime).real))
                       ) @ prep.spectrum.lambdas
    live = weights > DEFAULT_TOL.weight
    return PhaseBatch(
        t=t,
        gamma_total=angle_or_nan(total),
        uhlmann=angle_or_nan(trace),
        sjoqvist=angle_or_nan(interferometric),
        overlap_magnitude=np.abs(total),
        overlaps=overlaps,
        q=weights,
        visibility=np.divide(np.abs(overlaps), weights, out=np.zeros(overlaps.shape),
                             where=live),
        gamma=np.where(live, np.angle(rotated), 0.0),
        dyn_phase=np.outer(t, frame.kappas),
        total_phase=np.where(live, np.angle(overlaps), 0.0),
        degenerate_spectrum_warning=prep.spectrum.degenerate,
    )


def overlap_kernel(prep: PreparedProblem, j: int, u_t) -> complex:
    """m_j(t) = <e_j| z* C u_t C z^T |e_j>, the unnormalized overlap of
    component j between times 0 and t. m_j(0) = q_j and |m_j| <= q_j."""
    if not 0 <= j < prep.dim:
        raise IndexOutOfRange(f"component {j} outside 0..{prep.dim - 1}")
    w = prep.spectrum.amps * prep.frame.z[j, :]
    return complex(np.vdot(w, np.asarray(u_t) @ w))


def component_report(prep: PreparedProblem, j: int, t: float, u_t) -> ComponentReport:
    """Weight, visibility, and geometric/dynamical/total phase of one
    component. gamma == total_phase - dyn_phase modulo 2*pi."""
    q_j = float(prep.weights[j])
    dyn = float(prep.frame.kappas[j]) * t
    if q_j <= DEFAULT_TOL.weight:
        return ComponentReport(j, q_j, 0.0, 0.0, dyn, 0.0)
    m = overlap_kernel(prep, j, u_t)
    gamma = float(np.angle(m * np.exp(-1j * dyn)))
    return ComponentReport(j, q_j, abs(m) / q_j, gamma, dyn, float(np.angle(m)))


def total_geometric_phase(prep: PreparedProblem, t: float, u_t) -> float:
    """Total geometric phase arg sum_j q_j nu_j e^{i gamma_j}, evaluated
    as arg sum_j m_j(t) e^{-i kappa_j t} (identical, numerically
    stabler). Raises VanishingOverlap at nodal points."""
    kappas = prep.frame.kappas
    return angle_or_raise(sum(overlap_kernel(prep, j, u_t) * np.exp(-1j * kappas[j] * t)
                              for j in range(prep.dim)))


def uhlmann_trace_phase(prep: PreparedProblem, t: float, u_t) -> float:
    """arg Tr[C u_t C v_t^T] with v_t = exp(-i k t): the holonomy phase
    of the parallel purification path. Equals total_geometric_phase but
    is computed without the diagonalizing frame: v_t comes from its own
    eigendecomposition of k."""
    v_t = unitary_from_hamiltonian(prep.frame.k, t)
    c = np.diag(prep.spectrum.amps)
    return angle_or_raise(complex(np.trace(c @ np.asarray(u_t) @ c @ v_t.T)))


def sjoqvist_phase(prep: PreparedProblem, t: float, u_t) -> float:
    """Interferometric phase arg sum_j lambda_j <e_j|u_t|e_j> e^{i h'_jj t}:
    the ancilla keeps the original eigenbasis and only cancels the
    diagonal dynamical phases. Agrees with the total geometric phase for
    pure states only."""
    phases = np.exp(1j * np.diag(prep.h_prime).real * t)
    return angle_or_raise(complex(
        (prep.spectrum.lambdas * np.diag(np.asarray(u_t)) * phases).sum()))
