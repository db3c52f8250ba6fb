"""Literal per-time definitions the engine is checked against.

The tests import this module as `literal` (pytest puts tests/ on the
path); the package itself uses none of it.

Each function here computes one quantity straight from its definition,
for one time and one component at a time: the overlap kernel, the
per-component report, the total, Uhlmann-trace and interferometric
phases, the component states, the finite-difference parallel-transport
residual, and the discretized parallel amplitude chain with the PSD
square root it starts from, each from its own eigendecompositions of
rho0 and H rather than those the Problem carries. The per-t
functions work, as the engine does, on the state's support that the
Problem carries (r of the n eigenvectors, r x r frames). They take the
problem, the ancilla frame to read it in (the problem's own,
Problem.frame, or any other) and an explicit evolution operator u_t on that support, so
a caller can pass one built independently of the cached
eigendecomposition (support_evolution; evolution_operator builds it
from that decomposition). The tests compare phases.evaluate and
oracles.discrete_uhlmann_holonomy against them. At a nodal point
the literal phases are nan, as evaluate's are (angles.angle_or_nan).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from mixedphase.angles import angle_or_nan
from mixedphase.errors import NotPSD
from mixedphase.linalg import dagger, hermitian_eig, polar_unitary, unitary_from_eig, \
    unitary_from_hamiltonian
from mixedphase.oracles import _check_grid
from mixedphase.states import Problem
from mixedphase.tolerances import DEFAULT_TOL
from mixedphase.transport import AncillaFrame


def evolution_operator(problem: Problem, t: float) -> np.ndarray:
    """e^dag exp(-i H t) e on the support e, r x r, from the decomposition
    of h' that the problem carries: H's eigenvalues and Q = e^dag V. It is
    unitary at full rank only; below, it is the support block of the
    evolution in the state eigenbasis."""
    return unitary_from_eig(problem.h_eigvals, problem.h_eigvecs, t)


def support_evolution(problem: Problem, t: float) -> np.ndarray:
    """evolution_operator's matrix from the lab-frame H's own
    eigendecomposition, and the first r columns of rho0.basis_e."""
    e = problem.rho0.basis_e[:, :problem.amps.size]
    return dagger(e) @ unitary_from_hamiltonian(problem.hamiltonian_lab, t) @ e


@dataclass(frozen=True)
class ComponentReport:
    """Phases of one pure component of the ensemble, as component_report
    computes them.

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


def overlap_kernel(problem: Problem, frame: AncillaFrame, j: int, u_t) -> complex:
    """m_j(t) = <e_j| z* C u_t C z^T |e_j>, the unnormalized overlap of
    component j between times 0 and t. m_j(0) = q_j and |m_j| <= q_j."""
    if not 0 <= j < problem.amps.size:
        raise IndexError(f"component {j} outside 0..{problem.amps.size - 1}")
    w = problem.amps * frame.z[j, :]
    return complex(np.vdot(w, np.asarray(u_t) @ w))


def component_report(problem: Problem, frame: AncillaFrame, j: int, t: float,
                     u_t) -> ComponentReport:
    """Weight, visibility, and geometric/dynamical/total phase of one
    component of the given frame. gamma == total_phase - dyn_phase
    modulo 2*pi. The weight q_j = sum_k |z_jk|^2 lambda_k is read off
    the frame's own row."""
    q_j = float(np.abs(frame.z[j, :]) ** 2 @ problem.lambdas)
    dyn = float(frame.kappas[j]) * t
    if q_j <= DEFAULT_TOL.weight:
        return ComponentReport(j, q_j, 0.0, 0.0, dyn, 0.0)
    m = overlap_kernel(problem, frame, j, u_t)
    gamma = float(np.angle(m * np.exp(-1j * dyn)))
    return ComponentReport(j, q_j, abs(m) / q_j, gamma, dyn, float(np.angle(m)))


def total_geometric_phase(problem: Problem, frame: AncillaFrame, t: float, u_t) -> float:
    """Total geometric phase arg sum_j q_j nu_j e^{i gamma_j}, evaluated
    as arg sum_j m_j(t) e^{-i kappa_j t} (identical, numerically
    stabler). nan at nodal points."""
    kappas = frame.kappas
    return angle_or_nan(sum(overlap_kernel(problem, frame, j, u_t)
                            * np.exp(-1j * kappas[j] * t) for j in range(kappas.size)))


def uhlmann_trace_phase(problem: Problem, frame: AncillaFrame, t: float, u_t) -> float:
    """arg Tr[C u_t C v_t^T] with v_t = exp(-i k t): the holonomy phase
    of the parallel purification path. Equals total_geometric_phase but
    is computed without the diagonalizing frame: v_t comes from its own
    eigendecomposition of k."""
    v_t = unitary_from_hamiltonian(frame.k, t)
    c = np.diag(problem.amps)
    return angle_or_nan(complex(np.trace(c @ np.asarray(u_t) @ c @ v_t.T)))


def sjoqvist_phase(problem: Problem, t: float, u_t) -> float:
    """Interferometric phase arg sum_j lambda_j <e_j|u_t|e_j> e^{i h'_jj t}:
    the ancilla keeps the original eigenbasis (z = I, so no frame is
    taken) and only cancels the diagonal dynamical phases. Agrees with
    the total geometric phase for pure states only."""
    phases = np.exp(1j * np.diag(problem.h_prime).real * t)
    return angle_or_nan(complex(
        (problem.lambdas * np.diag(np.asarray(u_t)) * phases).sum()))


def component_state(j: int, u_t, amps, z) -> np.ndarray:
    """Unnormalized component j at the time of u_t: u_t @ C @ z^T |e_j>.

    Entry k of the time-zero state is c_k z_jk; its squared norm is the
    invariant weight q_j for every t.
    """
    amps = np.asarray(amps, dtype=float)
    if not 0 <= j < amps.size:
        raise IndexError(f"component {j} outside 0..{amps.size - 1}")
    return np.asarray(u_t) @ (amps * np.asarray(z)[j, :])


def parallel_residual(problem: Problem, frame: AncillaFrame, j: int, t: float,
                      delta: float) -> float:
    """Forward-difference bound on the parallel-transport violation of
    component j: |<chi_j(t)|chi_j(t+delta)> e^{-i kappa_j delta} - 1| / delta.

    The component states accrue the dynamical phase kappa_j per unit
    time; removing it over delta leaves the derivative overlap, which
    vanishes for a correctly solved ancilla Hamiltonian. The states
    evolve with evolution_operator, so no decomposition is repeated.
    """
    if not 1e-8 <= delta <= 1e-4:
        raise ValueError(f"delta {delta} outside [1e-8, 1e-4]")
    amps = problem.amps
    chi_t = component_state(j, evolution_operator(problem, t), amps, frame.z)
    chi_dt = component_state(j, evolution_operator(problem, t + delta), amps, frame.z)
    q_j = float(np.vdot(chi_t, chi_t).real)
    if q_j <= DEFAULT_TOL.weight:
        raise ValueError(f"component {j} has negligible weight {q_j:.3e}")
    ov = complex(np.vdot(chi_t, chi_dt)) / q_j
    return float(abs(ov * np.exp(-1j * float(frame.kappas[j]) * delta) - 1.0) / delta)


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix, from its own
    eigendecomposition.

    Eigenvalues in [-psd, 0) are clamped to zero; anything below -psd
    raises NotPSD.
    """
    w, q = hermitian_eig(a)
    if w.size and w[0] < -DEFAULT_TOL.psd:
        raise NotPSD(float(w[0]))
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ dagger(q)


def amplitude_chain(problem: Problem, t_end: float, steps: int) -> Iterator[np.ndarray]:
    """Discretized parallel amplitude chain w_0 .. w_N along the path on
    the uniform grid t_i = i t_end / N, N = steps, yielded one at a time.

    Starting from w_0 = sqrt(rho(0)), each amplitude is
    w_{i+1} = sqrt(rho(t_{i+1})) @ s with s the adjoint of the polar
    unitary of w_i^dag sqrt(rho(t_{i+1})), which makes every consecutive
    product w_i^dag w_{i+1} Hermitian PSD. It takes N polar factors and
    holds one amplitude at a time; oracles.discrete_uhlmann_holonomy
    computes the same endpoint phase in closed form and is pinned to
    this chain by tests.
    """
    _check_grid(t_end, steps)
    w_h, q_h = hermitian_eig(problem.hamiltonian_lab)
    sqrt0 = w = psd_sqrt(problem.rho0.mat)
    yield w
    dt = t_end / steps
    for i in range(1, steps + 1):
        t = t_end if i == steps else i * dt  # the grid of np.linspace
        u = unitary_from_eig(w_h, q_h, t)
        # sqrt(u rho0 u^dag) = u sqrt(rho0) u^dag: conjugation commutes
        # with the PSD root
        s = u @ sqrt0 @ dagger(u)
        w = s @ dagger(polar_unitary(dagger(w) @ s))
        yield w
