"""Independent brute-force verifiers.

A discretized purification holonomy built only from the density-matrix
path (never from the ancilla construction), the pure-state geometric
phase as total minus dynamical, finite-difference parallel-transport
residuals, and a deterministic random-instance generator. These are the
oracles the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import angle_or_raise, principal_angle
from .linalg import dagger, frobenius, hermitian_eig, polar_unitary, psd_sqrt, \
    unitary_from_eig, unitary_from_hamiltonian
from .states import Problem, validate_density
from .tolerances import DEFAULT_TOL
from .transport import AncillaFrame, component_state


# Roundoff in the closed-form holonomy grows like steps * machine
# epsilon, so a finer grid than this carries no information.
MAX_STEPS = 2**52


@dataclass(frozen=True)
class PathSampling:
    """Uniform time grid 0 = t_0 < ... < t_N = t_end with N = steps."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in 2..2**52, got {self.steps}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.steps + 1)


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Deterministic recipe for a random instance: a rank-r state of
    dimension dim and a Hermitian Hamiltonian of Frobenius norm h_scale."""

    dim: int
    rank: int
    seed: int
    h_scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.rank <= self.dim:
            raise ValueError(f"rank {self.rank} outside 1..{self.dim}")


def amplitude_chain(problem: Problem, sampling: PathSampling) -> list[np.ndarray]:
    """Discretized parallel amplitude chain w_0 .. w_N along the path:
    the literal definition, for tests.

    Starting from w_0 = sqrt(rho(0)), each amplitude is
    w_{i+1} = sqrt(rho(t_{i+1})) @ s with s the adjoint of the polar
    unitary of w_i^dag sqrt(rho(t_{i+1})), which makes every consecutive
    product w_i^dag w_{i+1} Hermitian PSD. It takes N polar factors and
    keeps N + 1 matrices; discrete_uhlmann_holonomy computes the same
    endpoint phase in closed form and is pinned to this chain by tests.
    """
    w_h, q_h = hermitian_eig(problem.hamiltonian_lab)
    sqrt0 = psd_sqrt(problem.rho0.mat)
    chain = [sqrt0]
    for t in sampling.times[1:]:
        u = (q_h * np.exp(-1j * w_h * t)) @ dagger(q_h)
        # sqrt(u rho0 u^dag) = u sqrt(rho0) u^dag: conjugation commutes
        # with the PSD root
        s = u @ sqrt0 @ dagger(u)
        chain.append(s @ dagger(polar_unitary(dagger(chain[-1]) @ s)))
    return chain


def discrete_uhlmann_holonomy(problem: Problem, sampling: PathSampling) -> float:
    """Holonomy phase arg Tr[w_0^dag w_N] of the parallel amplitude chain
    (amplitude_chain) on the uniform grid of sampling, in closed form.

    For the time-independent Hamiltonian a Problem carries, every link
    of the chain is the same link conjugated by U(t_i), so the chain
    telescopes: with P = polar_unitary(sqrt(rho0) U(dt) sqrt(rho0)) and
    dt = t_end / N, w_i = U(t_i) sqrt(rho0) (P^dag)^i and

        Tr[w_0^dag w_N] = Tr[sqrt(rho0) U(t_end) sqrt(rho0) (P^dag)^N].

    The reduction needs only a time-independent H and a uniform grid.
    It also holds at deficient rank: sqrt(rho0) U(dt) sqrt(rho0) maps
    the range of sqrt(rho0) into itself (onto it while the overlap does
    not vanish), so P is fixed there; the free part of the polar factor
    acts on the kernel, which the trace never sees.

    The phase converges to the engine's total geometric phase at second
    order in t_end/N (the error falls by 4.00 per step doubling). One
    eigendecomposition of H, one SVD and one matrix power cost
    O(n^3 log N), not N SVDs. Roundoff in the power grows like N times
    machine epsilon: for a unit-norm H and t_end near 1 that floor meets
    the O((t_end/N)^2) discretization error near N = 2^16 (about 1e-12),
    and MAX_STEPS caps N where it reaches 1.
    """
    w_h, q_h = hermitian_eig(problem.hamiltonian_lab)
    sqrt0 = psd_sqrt(problem.rho0.mat)
    dt = sampling.t_end / sampling.steps
    link = polar_unitary(sqrt0 @ unitary_from_eig(w_h, q_h, dt) @ sqrt0)
    transport = np.linalg.matrix_power(dagger(link), sampling.steps)
    endpoint = sqrt0 @ unitary_from_eig(w_h, q_h, sampling.t_end) @ sqrt0
    return angle_or_raise(complex(np.trace(endpoint @ transport)))


def pancharatnam_phase(psi0, h_lab, t: float) -> float:
    """Pure-state geometric phase: total phase arg <psi0|U(t)|psi0> minus
    the dynamical phase -<psi0|H|psi0> t (constant integrand for a
    time-independent Hamiltonian). Reduced to (-pi, pi]."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state norm {norm} is not 1 within 1e-12")
    u = unitary_from_hamiltonian(h_lab, t)
    total = angle_or_raise(complex(np.vdot(psi0, u @ psi0)))
    energy = float(np.vdot(psi0, np.asarray(h_lab) @ psi0).real)
    return principal_angle(total + energy * t)


def parallel_residual(j: int, t: float, delta: float, frame: AncillaFrame,
                      amps, h_prime) -> float:
    """Forward-difference bound on the parallel-transport violation of
    component j: |<chi_j(t)|chi_j(t+delta)> e^{-i kappa_j delta} - 1| / delta.

    The component states accrue the dynamical phase kappa_j per unit
    time; removing it over delta leaves the derivative overlap, which
    vanishes for a correctly solved ancilla Hamiltonian.
    """
    if not 1e-8 <= delta <= 1e-4:
        raise ValueError(f"delta {delta} outside [1e-8, 1e-4]")
    chi_t = component_state(j, unitary_from_hamiltonian(h_prime, t), amps, frame.z)
    chi_dt = component_state(j, unitary_from_hamiltonian(h_prime, t + delta), amps,
                             frame.z)
    q_j = float(np.vdot(chi_t, chi_t).real)
    if q_j <= DEFAULT_TOL.weight:
        raise ValueError(f"component {j} has negligible weight {q_j:.3e}")
    ov = complex(np.vdot(chi_t, chi_dt)) / q_j
    return float(abs(ov * np.exp(-1j * float(frame.kappas[j]) * delta) - 1.0) / delta)


def random_instance(spec: RandomInstanceSpec) -> Problem:
    """Deterministic-in-seed random problem.

    The state is B B^dag / Tr for an n x rank complex Gaussian factor B,
    redrawn (still from the same stream) in the rare event that its
    rank-th eigenvalue is not clearly positive; the Hamiltonian is a
    complex Gaussian Hermitian matrix rescaled to Frobenius norm h_scale.
    """
    rng = np.random.default_rng(spec.seed)
    n, r = spec.dim, spec.rank
    for _ in range(64):
        b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        rho = b @ dagger(b)
        rho /= np.trace(rho).real
        evals = np.linalg.eigvalsh(rho)
        if evals[n - r] > 1e-6:
            break
    else:  # pragma: no cover - probability is negligible
        raise RuntimeError(f"could not draw a clearly rank-{r} state for seed {spec.seed}")
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + dagger(a)) / 2.0
    h *= spec.h_scale / frobenius(h)
    return Problem(validate_density(rho), h)
