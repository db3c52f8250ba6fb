"""Independent brute-force verifiers.

A discretized purification holonomy built only from the density-matrix
path (never from the ancilla construction), in the state eigenbasis the
Problem carries, where sqrt(rho0) is diagonal; the pure-state geometric
phase as total minus dynamical, and a deterministic random-instance
generator. These are the oracles the engine is tested against. Like the
engine, they return nan where the overlap whose argument is the phase
vanishes (angles.angle_or_nan).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .angles import angle_or_nan, principal_angle
from .linalg import dagger, frobenius, polar_unitary, require_hermitian, unitary_from_eig, \
    unitary_from_hamiltonian
from .states import Problem, validate_density


# Roundoff in the closed-form holonomy grows like steps * machine
# epsilon, so a finer grid than this carries no information.
MAX_STEPS = 2**52


def _check_grid(t_end: float, steps: int) -> None:
    """Reject a uniform grid 0 = t_0 < ... < t_N = t_end, N = steps, that
    is too coarse, too fine, empty or unbounded, or whose step count is
    not an integer (numpy integers are)."""
    try:
        operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be an integer, got {steps!r}") from None
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in 2..2**{MAX_STEPS.bit_length() - 1}, got {steps}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end}")


def discrete_uhlmann_holonomy(problem: Problem, t_end: float, steps: int) -> float:
    """Holonomy phase arg Tr[w_0^dag w_N] of the parallel amplitude chain
    (amplitude_chain in tests/literal.py) on the uniform grid of N = steps
    intervals of [0, t_end], in closed form.

    For the time-independent Hamiltonian a Problem carries, every link
    of the chain is the same link conjugated by U(t_i), so the chain
    telescopes: with P = polar_unitary(sqrt(rho0) U(dt) sqrt(rho0)) and
    dt = t_end / N, w_i = U(t_i) sqrt(rho0) (P^dag)^i and

        Tr[w_0^dag w_N] = Tr[sqrt(rho0) U(t_end) sqrt(rho0) (P^dag)^N].

    The reduction needs only a time-independent H and a uniform grid.
    Every factor is r x r, on the support of rho0 the Problem carries:
    a sandwich sqrt(rho0) X sqrt(rho0) vanishes outside it, and the
    polar factor of the full matrix is P there and free only on the
    kernel, which the trace never sees.

    It reads only the density-matrix path, in the support's eigenbasis e
    where sqrt(rho0) is diag(amps): U(t) from the problem's one
    eigendecomposition of H (h_eigvals, and h_eigvecs = e^dag V), so
    that it is e^dag U(t) e, and the sandwich sqrt(rho0) X sqrt(rho0) is
    outer(amps, amps) * X. It makes no eigendecomposition of its own, no
    sqrt(rho0) matrix, and never reads h', K, the frame z or the kappas.
    The polar factor turns with its argument and the trace is basis-free,
    so the phase is that of the lab-frame chain; it does not depend on the
    choice of e inside a degenerate eigenspace of rho0.

    The phase converges to the engine's total geometric phase at second
    order in t_end/N (the error falls by 4.00 per step doubling). One
    SVD, floor(log2 N) squarings and one product per further set bit of
    N, each written with @ and no wrapper, cost O(r^3 log N), not N
    SVDs. Roundoff in the power grows like N times machine epsilon: for
    a unit-norm H and t_end near 1 that floor meets the O((t_end/N)^2)
    discretization error near N = 2^16 (about 1e-12), and MAX_STEPS caps
    N where it reaches 1. A t_end past the resolvable range of H's
    largest |eps_a| raises evaluate's ValueError (unitary_from_eig).
    """
    _check_grid(t_end, steps)
    w_h, q_h = problem.h_eigvals, problem.h_eigvecs
    amps = problem.amps
    sandwich = amps[:, None] * amps  # sqrt(rho0) X sqrt(rho0) = sandwich * X
    # U(t_end) first: a t_end past the resolvable range is refused by name
    endpoint = sandwich * unitary_from_eig(w_h, q_h, t_end)
    link = polar_unitary(sandwich * unitary_from_eig(w_h, q_h, t_end / steps))
    transport = _power(dagger(link), steps)
    return angle_or_nan(complex((endpoint @ transport).trace()))


def _power(a: np.ndarray, n: int) -> np.ndarray:
    """a^n for n >= 2 by the products np.linalg.matrix_power makes, in its
    order and so bit for bit, without its wrapper: the powers a^(2^k) by
    squaring, least significant bit first, multiplied in from the right
    at each set bit of n, squaring only while bits remain; n = 3 is its
    shortcut (a a) a."""
    if n == 3:
        return a @ a @ a
    z = result = None
    while n:
        z = a if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def pancharatnam_phase(psi0, h_lab, t: float) -> float:
    """Pure-state geometric phase: total phase arg <psi0|U(t)|psi0> minus
    the dynamical phase -<psi0|H|psi0> t (constant integrand for a
    time-independent Hamiltonian). Reduced to (-pi, pi]; nan where
    <psi0|U(t)|psi0> vanishes. Raises require_hermitian's errors for h_lab,
    and evaluate's ValueError for a t past the resolvable range of
    h_lab's largest |eigenvalue| (unitary_from_eig)."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm = frobenius(psi0)
    if not abs(norm - 1.0) <= 1e-12:  # also rejects a nan or inf entry
        raise ValueError(f"state norm {norm} is not 1 within 1e-12")
    h_lab = require_hermitian(h_lab)
    u = unitary_from_hamiltonian(h_lab, t)
    total = angle_or_nan(complex(np.vdot(psi0, u @ psi0)))
    energy = float(np.vdot(psi0, h_lab @ psi0).real)
    return principal_angle(total + energy * t)


def random_instance(dim: int, rank: int, seed: int) -> Problem:
    """Deterministic-in-seed random problem: a state of the given rank and
    dimension dim and a Hermitian Hamiltonian of unit Frobenius norm.

    The state is B B^dag / Tr for a dim x rank complex Gaussian factor B,
    drawn once and never redrawn: B has full column rank with probability
    one, so the state has rank nonzero eigenvalues, however small the
    least of them, and dim - rank that are zero up to roundoff. The
    Hamiltonian is a complex Gaussian Hermitian matrix rescaled to unit
    Frobenius norm.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside 1..{dim}")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = b @ dagger(b)
    rho /= rho.trace().real
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + dagger(a)) / 2.0
    h *= 1.0 / frobenius(h)
    return Problem(validate_density(rho), h)
