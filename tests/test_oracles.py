"""Oracle tests: the discretized holonomy chain, the pure-state phase
reference, parallel-transport residuals, and the instance generator."""

import collections
import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixedphase import (
    Problem,
    circular_distance,
    discrete_uhlmann_holonomy,
    evaluate,
    pancharatnam_phase,
    random_instance,
    validate_density,
)
from mixedphase.angles import angle_or_nan
from mixedphase.cli import VERIFY_HOLONOMY_STEPS, VERIFY_TIME
from mixedphase.linalg import dagger, frobenius, polar_unitary, unitary_from_eig
from mixedphase.oracles import MAX_STEPS
from mixedphase.transport import diagonalizing_frame

from cases import COMMUTING, PLUS, SX, SZ, bloch_x, pure_plus
from literal import amplitude_chain, evolution_operator, parallel_residual, \
    total_geometric_phase


def test_path_sampling_validation():
    with pytest.raises(ValueError):
        discrete_uhlmann_holonomy(COMMUTING, 1.0, 1)
    with pytest.raises(ValueError):
        discrete_uhlmann_holonomy(COMMUTING, 0.0, 16)
    # |t| E = 5e16 > 2**52: refused with evaluate's message
    with pytest.raises(ValueError) as want:
        evaluate(COMMUTING, 1e17)
    with pytest.raises(ValueError) as got:
        discrete_uhlmann_holonomy(COMMUTING, 1e17, 4096)
    assert str(got.value) == str(want.value) == (
        "time 1e+17 is past the resolvable range: |t| times the largest energy 5.000e-01 "
        "exceeds 2**52")
    with pytest.raises(ValueError):
        next(amplitude_chain(COMMUTING, 0.0, 16))


def test_path_sampling_rejects_steps_beyond_the_roundoff_cap():
    # the cap is written out, so that a change to MAX_STEPS shows here
    assert MAX_STEPS == 2**52
    assert math.isfinite(discrete_uhlmann_holonomy(COMMUTING, 1.0, 2**52))
    with pytest.raises(ValueError, match=r"^steps must be in 2\.\.2\*\*52, got 4503599627370497$"):
        discrete_uhlmann_holonomy(COMMUTING, 1.0, 2**52 + 1)
    with pytest.raises(ValueError):
        discrete_uhlmann_holonomy(COMMUTING, 1.0, 10**400)


@pytest.mark.parametrize("t_end, steps, argument", [
    (1.0, 3.0, "steps"), (1.0, 2.5, "steps"), (math.inf, 4, "t_end")])
def test_path_sampling_rejects_a_non_integer_step_count_and_an_unbounded_end(
        t_end, steps, argument):
    for run in (lambda: discrete_uhlmann_holonomy(COMMUTING, t_end, steps),
                lambda: next(amplitude_chain(COMMUTING, t_end, steps))):
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            run()
    # a numpy integer is an integer
    assert discrete_uhlmann_holonomy(COMMUTING, 1.0, np.int64(3)) == \
        discrete_uhlmann_holonomy(COMMUTING, 1.0, 3)


def chain_phase_and_magnitude(problem, t_end, steps):
    """arg and |.| of Tr[w_0^dag w_N] from the literal sequential chain,
    holding only w_0 and the latest amplitude."""
    chain = amplitude_chain(problem, t_end, steps)
    w_0 = next(chain)
    w_n = collections.deque(chain, maxlen=1)[0]
    tr = complex(np.trace(dagger(w_0) @ w_n))
    return float(np.angle(tr)), abs(tr)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(2, 512), t_end=st.floats(0.05, 6.0))
def test_closed_form_matches_the_literal_chain(dim, data, seed, steps, t_end):
    rank = data.draw(st.integers(1, dim), label="rank")
    prob = random_instance(dim, rank, seed)
    want, magnitude = chain_phase_and_magnitude(prob, t_end, steps)
    # away from a nodal endpoint, where the angle itself is ill-conditioned
    assume(magnitude >= 1e-2)
    got = discrete_uhlmann_holonomy(prob, t_end, steps)
    assert circular_distance(got, want) <= 1e-11, (dim, rank, steps, got, want)


@pytest.mark.parametrize("seed", range(8))
def test_holonomy_ignores_the_basis_inside_a_degenerate_eigenspace(seed):
    # the oracle works in the state eigenbasis E, where sqrt(rho0) is
    # diag(amps); its trace is the same for every orthonormal basis of
    # rho0's eigenspace of 0.2. At 4096 steps the roundoff the power
    # multiplies by N stays below the bound
    rng = np.random.default_rng(seed)
    rho = validate_density(np.diag([0.4, 0.2, 0.2, 0.2]))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    problem = Problem(rho, (a + dagger(a)) / 2)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    basis = rho.basis_e.copy()
    basis[:, 1:] = basis[:, 1:] @ u
    assert frobenius(basis - rho.basis_e) > 1.0
    rotated = Problem(replace(rho, basis_e=basis), problem.hamiltonian_lab)
    for t_end in (0.5, 1.7, 3.0):
        got = discrete_uhlmann_holonomy(rotated, t_end, 4096)
        want = discrete_uhlmann_holonomy(problem, t_end, 4096)
        assert circular_distance(got, want) <= 1e-12, (t_end, got, want)


def test_holonomy_never_reads_h_prime():
    # the oracle reads H only through its carried spectrum: h' replaced by
    # garbage on a copy of the problem leaves the phase bit for bit
    problem = random_instance(5, 3, 41)
    garbage = copy.copy(problem)
    object.__setattr__(garbage, "h_prime", np.full((5, 5), np.nan, dtype=complex))
    for t_end, steps in [(1.7, VERIFY_HOLONOMY_STEPS), (0.4, 300)]:
        want = discrete_uhlmann_holonomy(problem, t_end, steps)
        assert discrete_uhlmann_holonomy(garbage, t_end, steps) == want, (t_end, want)


def matrix_power_holonomy(problem, t_end, steps):
    """The closed form as written with numpy's wrappers: np.outer for the
    sandwich, np.linalg.matrix_power for (P^dag)^N, np.trace."""
    w_h, q_h, amps = problem.h_eigvals, problem.h_eigvecs, problem.amps
    sandwich = np.outer(amps, amps)
    link = polar_unitary(sandwich * unitary_from_eig(w_h, q_h, t_end / steps))
    transport = np.linalg.matrix_power(dagger(link), steps)
    endpoint = sandwich * unitary_from_eig(w_h, q_h, t_end)
    return angle_or_nan(complex(np.trace(endpoint @ transport)))


@pytest.mark.parametrize("steps", [2, 3, 4, 7, 256, 257, 2048, 12345, 2**16 - 1, 2**16,
                                   2**40 + 1, 2**52])
def test_holonomy_is_the_matrix_power_form_bit_for_bit(steps):
    # the oracle forms (P^dag)^N by the products matrix_power makes, in its
    # order, so every value is the same double (nan at the nodal endpoint)
    problems = [(random_instance(dim, rank, 7 * dim + rank), 1.7)
                for dim in (1, 2, 8) for rank in sorted({1, dim})]
    problems.append((pure_plus(), np.pi))
    for problem, t_end in problems:
        got = discrete_uhlmann_holonomy(problem, t_end, steps)
        want = matrix_power_holonomy(problem, t_end, steps)
        assert got == want or (math.isnan(got) and math.isnan(want)), \
            (problem.dim, t_end, got, want)


@pytest.mark.parametrize("steps", [2, 3, 255, 256])
def test_closed_form_and_chain_both_vanish_at_orthogonal_endpoint(steps):
    # |+> reaches the orthogonal |-> at t = pi on any grid
    prob = pure_plus()
    assert chain_phase_and_magnitude(prob, np.pi, steps)[1] <= 1e-12
    assert math.isnan(discrete_uhlmann_holonomy(prob, np.pi, steps))


def test_holonomy_constant_path_is_zero():
    # commuting full-rank instance: the state never moves
    prob = Problem(validate_density(np.diag([0.7, 0.3])),
                   np.diag([0.4, -0.9]).astype(complex))
    hol = discrete_uhlmann_holonomy(prob, 3.0, 512)
    assert abs(hol) <= 1e-12


def test_holonomy_pure_great_circle():
    prob = pure_plus()
    hol = discrete_uhlmann_holonomy(prob, 2 * np.pi, 4096)
    assert circular_distance(hol, np.pi) <= 1e-12
    assert circular_distance(hol, pancharatnam_phase(PLUS, 0.5 * SZ, 2 * np.pi)) <= 1e-12


def test_holonomy_mixed_great_circle_confirms_zero():
    prob = bloch_x(0.6)
    hol = discrete_uhlmann_holonomy(prob, 2 * np.pi, 4096)
    assert circular_distance(hol, 0.0) <= 1e-12


def test_holonomy_matches_engine_on_random_instance():
    prob = random_instance(3, 3, 90)
    frame = prob.frame
    t_end = 1.7
    gamma = total_geometric_phase(prob, frame, t_end, evolution_operator(prob, t_end))
    hol = discrete_uhlmann_holonomy(prob, t_end, 4096)
    assert circular_distance(hol, gamma) <= 2e-9
    # verify's operating point: one holonomy call against evaluate
    for dim, seed in itertools.product((1, 2, 8, 16), range(100, 108)):
        prob = random_instance(dim, dim, seed)
        gamma = float(evaluate(prob, VERIFY_TIME).gamma_total[0])
        hol = discrete_uhlmann_holonomy(prob, VERIFY_TIME, VERIFY_HOLONOMY_STEPS)
        assert circular_distance(hol, gamma) <= 1e-10, (dim, seed)


def test_chain_links_are_hermitian_psd():
    prob = random_instance(3, 3, 91)
    count = 1
    for w_i, w_next in itertools.pairwise(amplitude_chain(prob, 1.5, 64)):
        count += 1
        link = dagger(w_i) @ w_next
        assert frobenius(link - dagger(link)) <= 1e-10
        assert np.linalg.eigvalsh((link + dagger(link)) / 2).min() >= -1e-10
    assert count == 65


def test_holonomy_raises_at_orthogonal_endpoint():
    # half a great circle takes |+> to the orthogonal |->; a nodal point
    # gives nan, not an exception
    prob = pure_plus()
    assert math.isnan(discrete_uhlmann_holonomy(prob, np.pi, 256))


def test_pancharatnam_eigenstate_gives_zero():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert abs(pancharatnam_phase(psi, 0.5 * SZ, 3.7)) <= 1e-12


def test_pancharatnam_plus_state_is_pi():
    assert circular_distance(pancharatnam_phase(PLUS, 0.5 * SZ, 2 * np.pi),
                             np.pi) <= 1e-12


def test_pancharatnam_matches_engine_for_pure_qutrit():
    rng = np.random.default_rng(92)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + dagger(a)) / 2
    prob = Problem(validate_density(np.outer(psi, psi.conj())), h)
    frame = prob.frame
    t = 1.3
    gamma = total_geometric_phase(prob, frame, t, evolution_operator(prob, t))
    assert circular_distance(gamma, pancharatnam_phase(psi, h, t)) <= 1e-8


def test_pancharatnam_invariant_under_global_phase():
    rng = np.random.default_rng(93)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + dagger(a)) / 2
    base = pancharatnam_phase(psi, h, 0.9)
    shifted = pancharatnam_phase(np.exp(0.77j) * psi, h, 0.9)
    assert circular_distance(base, shifted) <= 1e-12


def test_pancharatnam_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        pancharatnam_phase(np.array([1.0, 1.0]), 0.5 * SZ, 1.0)
    # and a time past the resolvable range, with evaluate's message
    with pytest.raises(ValueError) as want:
        evaluate(pure_plus(), 1e17)
    with pytest.raises(ValueError) as got:
        pancharatnam_phase(PLUS, 0.5 * SZ, 1e17)
    assert str(got.value) == str(want.value) == (
        "time 1e+17 is past the resolvable range: |t| times the largest energy 5.000e-01 "
        "exceeds 2**52")


@pytest.mark.parametrize("psi", [[np.nan, 0, 0], [np.inf, 0, 0], [1.0, np.nan, 0],
                                 [np.inf, 1j * np.inf, 0]])
def test_pancharatnam_rejects_a_non_finite_state(psi):
    # a nan norm compares False with any bound, so it must not pass as 1
    with pytest.raises(ValueError, match="state norm"):
        pancharatnam_phase(np.array(psi, dtype=complex), np.eye(3, dtype=complex), 1.0)


def test_pancharatnam_raises_at_orthogonal_endpoint():
    # sigma_x / 2 for t = pi takes |0> to the orthogonal |1>; a nodal point
    # gives nan, not an exception
    psi = np.array([1.0, 0.0], dtype=complex)
    assert math.isnan(pancharatnam_phase(psi, 0.5 * SX, np.pi))


def test_parallel_residual_small_for_solved_frame():
    for seed in (94, 95):
        problem = random_instance(4, 4, seed)
        frame = problem.frame
        for t in (0.0, 0.3, 1.7):
            for j in range(4):
                resid = parallel_residual(problem, frame, j, t, 1e-6)
                assert resid <= 1e-6


def test_parallel_residual_negative_control():
    # zeroed ancilla Hamiltonian on a noncommuting full-rank instance
    problem = random_instance(3, 3, 11)
    wrong = diagonalizing_frame(np.zeros((3, 3), dtype=complex), problem.amps)
    worst = max(parallel_residual(problem, wrong, j, 0.3, 1e-6) for j in range(3))
    assert worst > 1e-3


def test_parallel_residual_zero_hamiltonian():
    problem = Problem(validate_density(np.diag([0.7, 0.3])), np.zeros((2, 2), dtype=complex))
    frame = problem.frame
    for j in range(2):
        assert parallel_residual(problem, frame, j, 0.5, 1e-6) <= 1e-9


def test_parallel_residual_argument_validation():
    # lambda = 1e-12 is on the support, and its component's weight is
    # below the weight tolerance
    h = np.array([[0.5, 0.1], [0.1, -0.5]], dtype=complex)
    problem = Problem(validate_density(np.diag([1.0 - 1e-12, 1e-12])), h)
    frame = problem.frame
    with pytest.raises(ValueError):
        parallel_residual(problem, frame, 0, 0.3, 1e-2)
    negligible = int(np.argmin(frame.q))
    with pytest.raises(ValueError):
        parallel_residual(problem, frame, negligible, 0.3, 1e-6)


def test_random_instance_deterministic():
    a = random_instance(2, 2, 1)
    b = random_instance(2, 2, 1)
    assert np.array_equal(a.rho0.mat, b.rho0.mat)
    assert np.array_equal(a.hamiltonian_lab, b.hamiltonian_lab)


def test_random_instance_draws_the_state_once():
    """The state is B B^dag / Tr for the stream's first dim x rank draw B,
    however small its least eigenvalue (9.1e-7 here)."""
    rng = np.random.default_rng(3)
    b = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    rho = b @ dagger(b)
    rho /= rho.trace().real
    prob = random_instance(32, 32, 3)
    assert np.array_equal(prob.rho0.mat, rho)
    assert 0 < prob.rho0.lambdas[-1] < 1e-6


def test_random_instance_rank():
    prob = random_instance(4, 2, 7)
    evals = np.linalg.eigvalsh(prob.rho0.mat)
    assert int(np.sum(evals > 1e-6)) == 2


def test_random_instance_validates_and_scales():
    prob = random_instance(3, 3, 42)
    validate_density(prob.rho0.mat)  # revalidation accepts
    assert abs(frobenius(prob.hamiltonian_lab) - 1.0) <= 1e-15
    scaled = Problem(prob.rho0, 2.5 * prob.hamiltonian_lab)
    assert abs(frobenius(scaled.hamiltonian_lab) - 2.5) <= 1e-12


def test_random_instance_spec_validation():
    with pytest.raises(ValueError):
        random_instance(3, 4, 0)
    with pytest.raises(ValueError):
        random_instance(3, 0, 0)
