"""Parallel-transport construction tests: the ancilla-Hamiltonian solve,
its diagonalizing frame, invariant weights, and component states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedphase import (
    DEFAULT_TOL,
    DimensionMismatch,
    Problem,
    prepare_problem,
    random_instance,
    validate_density,
)
from mixedphase.linalg import dagger, frobenius, hermitian_eig, unitary_from_hamiltonian
from mixedphase.transport import (
    ancilla_equation_residual,
    diagonalizing_frame,
    solve_ancilla_hamiltonian,
    transport_residual,
)

from cases import SX
from literal import component_state, parallel_residual


def test_equal_amplitudes_force_minus_transposed_hamiltonian():
    amps = np.array([1, 1]) / np.sqrt(2)
    k = solve_ancilla_hamiltonian(amps, SX)
    np.testing.assert_allclose(k, -SX, atol=1e-14)


def test_a_small_pair_above_the_support_tolerance_keeps_its_closed_form():
    # lambda_1 + lambda_2 = 4e-12 is above the support tolerance (1e-14), so
    # the pair is in the support: K_21 = (K^T)_12 = -2 c_1 c_2 h'_12 /
    # (lambda_1 + lambda_2), from the problem's own h', and not the kernel's 0
    state = validate_density(np.diag([1.0 - 4e-12, 3e-12, 1e-12]))
    h = np.array([[0.3, 0.2, 0.1], [0.2, -0.1, 0.4], [0.1, 0.4, 0.5]], dtype=complex)
    problem = Problem(state, h)
    c, lam, h_prime = problem.amps, problem.lambdas, problem.h_prime
    want = -2.0 * c[1] * c[2] * h_prime[1, 2] / (lam[1] + lam[2])
    k = prepare_problem(problem).k
    assert abs(want) > 0.3
    assert abs(k[2, 1] - want) <= 1e-12 * abs(want)


def test_pure_state_keeps_only_top_entry():
    # the support of a pure state is its one eigenvector, so K is 1 x 1:
    # -h'_00, with no entry for the kernel to fill
    h = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.7]])
    problem = Problem(validate_density(np.diag([1.0, 0.0])), h)
    assert problem.amps.tolist() == [1.0]
    np.testing.assert_allclose(prepare_problem(problem).k, [[-0.4]], atol=1e-14)


def test_mixed_qubit_closed_form_value():
    amps = np.sqrt([0.8, 0.2])
    k = solve_ancilla_hamiltonian(amps, SX)
    np.testing.assert_allclose(k, -0.8 * SX, atol=1e-12)
    assert ancilla_equation_residual(amps, SX, k) <= 1e-12


def test_solver_residual_random_instances():
    # includes rank-deficient states, solved and checked on the support
    for n, rank, seed in ((2, 2, 0), (3, 3, 1), (4, 2, 2), (6, 6, 3), (6, 3, 4)):
        problem = random_instance(n, rank, seed)
        frame = prepare_problem(problem)
        resid = ancilla_equation_residual(problem.amps, problem.h_prime, frame.k)
        assert resid <= 1e-10 * max(1.0, frobenius(problem.h_prime))
        assert frobenius(frame.k - dagger(frame.k)) <= 1e-12


def test_equation_residual_is_the_dense_expression():
    # K is not a solution. The amplitudes of 1e-7 are the support's least
    # (lambda = 1e-14, just above half the support tolerance), and K is
    # large between them: every entry counts, as no kernel is left to drop
    rng = np.random.default_rng(96)
    for n in (1, 2, 5):
        small = np.arange(n) % 3 == 1
        amps = np.where(small, 1e-7, np.sqrt(rng.dirichlet(np.ones(n))))
        assert np.all(amps**2 > DEFAULT_TOL.support / 2)
        h, k = (dagger(a) + a for a in (rng.standard_normal((2, n, n))
                                        + 1j * rng.standard_normal((2, n, n))))
        k[np.ix_(small, small)] *= 1e16
        c = np.diag(amps)
        want = frobenius(c @ c @ k.T + k.T @ c @ c + 2.0 * c @ h @ c)
        assert abs(ancilla_equation_residual(amps, h, k) - want) <= 1e-13 * want


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       h_scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
def test_transport_residual_vanishes_for_the_solved_frame(dim, data, seed, h_scale):
    # E_j = -kappa_j holds in closed form; measured floor about 3.6e-16
    rank = data.draw(st.integers(1, dim), label="rank")
    drawn = random_instance(dim, rank, seed)
    problem = Problem(drawn.rho0, h_scale * drawn.hamiltonian_lab)
    frame = prepare_problem(problem)
    resid = transport_residual(problem.amps, problem.h_prime, frame)
    assert resid <= 1e-13 * max(1.0, frobenius(problem.h_prime))


def test_transport_residual_negative_controls():
    # K off by 1e-7 in one entry: verify's default bound (1e-9 here) catches
    # it, where the finite-difference oracle stays below its 1e-6 bound
    problem = random_instance(8, 8, 3)
    k = prepare_problem(problem).k.copy()
    k[0, 0] += 1e-7
    perturbed = diagonalizing_frame(k, problem.amps)
    assert frobenius(problem.h_prime) <= 1.0 + 1e-12
    assert transport_residual(problem.amps, problem.h_prime, perturbed) > 1e-9
    assert max(parallel_residual(problem, perturbed, j, 0.3, 1e-6) for j in range(8)) < 1e-6
    # zeroed ancilla Hamiltonian on a noncommuting full-rank instance
    problem = random_instance(3, 3, 11)
    zeroed = diagonalizing_frame(np.zeros((3, 3), dtype=complex), problem.amps)
    assert transport_residual(problem.amps, problem.h_prime, zeroed) > 1e-3


def test_frame_of_pauli_x_multiple():
    frame = diagonalizing_frame(-SX, np.sqrt([0.5, 0.5]))
    np.testing.assert_allclose(frame.kappas, [-1.0, 1.0], atol=1e-14)
    assert frobenius(frame.z @ (-SX) @ dagger(frame.z) - np.diag(frame.kappas)) <= 1e-10
    # rows are the eigenvectors up to phase
    assert abs(abs(frame.z[0] @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12
    assert abs(abs(frame.z[1] @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12


def test_frame_of_ascending_diagonal_is_identity():
    k = np.diag([-2.0, 0.5, 3.0]).astype(complex)
    frame = diagonalizing_frame(k, np.sqrt([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(frame.z, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(frame.kappas, [-2.0, 0.5, 3.0])


def test_frame_residual_random():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    k = (a + dagger(a)) / 2
    frame = diagonalizing_frame(k, np.sqrt(np.full(5, 0.2)))
    assert frobenius(frame.z @ k @ dagger(frame.z) - np.diag(frame.kappas)) <= 1e-10
    assert frobenius(dagger(frame.z) @ frame.z - np.eye(5)) <= 1e-12
    assert np.all(np.diff(frame.kappas) >= 0)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 64])
def test_k_is_exactly_hermitian_so_the_frame_needs_no_symmetrizing(dim):
    # diagonalizing_frame hands K to np.linalg.eigh as it is, where
    # hermitian_eig would first form (K + K^dag) / 2: that is K itself when
    # K = K^dag entry for entry, so kappas and z are hermitian_eig's bit for
    # bit. (Only the signs of the diagonal's imaginary zeros differ, and
    # eigh reads no imaginary part on the diagonal.)
    for rank in sorted({1, max(1, dim // 2), dim}):
        for seed in (0, 1):
            problem = random_instance(dim, rank, seed)
            k = solve_ancilla_hamiltonian(problem.amps, problem.h_prime)
            np.testing.assert_array_equal(k, dagger(k))
            assert k.real.tobytes() == dagger(k).real.tobytes()
            frame = diagonalizing_frame(k, problem.amps)
            kappas, v = hermitian_eig(k)
            assert frame.kappas.tobytes() == kappas.tobytes()
            assert frame.z.tobytes() == dagger(v).tobytes()


def test_weights_identity_frame_returns_eigenvalues():
    lam = np.array([0.5, 0.3, 0.2])
    frame = diagonalizing_frame(np.diag([-2.0, 0.5, 3.0]).astype(complex), np.sqrt(lam))
    np.testing.assert_array_equal(frame.z, np.eye(3))
    np.testing.assert_allclose(frame.q, lam, atol=1e-15)


def test_weights_flat_for_maximally_mixed():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = diagonalizing_frame((a + dagger(a)) / 2, np.full(4, 0.5)).q  # amps = 1/sqrt(n)
    np.testing.assert_allclose(q, 0.25, atol=1e-12)


def test_weights_for_balanced_frame():
    amps = np.sqrt([0.8, 0.2])
    q = diagonalizing_frame(solve_ancilla_hamiltonian(amps, SX), amps).q
    np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-12)
    assert abs(q.sum() - 1.0) <= 1e-10


def test_weights_sum_and_range_random():
    for seed in range(6):
        problem = random_instance(5, 4, seed + 50)
        q = prepare_problem(problem).q
        assert abs(q.sum() - 1.0) <= 1e-10
        assert np.all(q >= 0.0) and np.all(q <= 1.0 + 1e-12)


def test_weights_dimension_mismatch():
    # the frame's one caller checks the sizes in the ancilla solve; a frame
    # weighed by amplitudes of another size is refused, never broadcast
    with pytest.raises(ValueError):
        diagonalizing_frame(np.eye(2, dtype=complex), np.array([1.0]))


@pytest.mark.parametrize("amps, h_prime", [
    (np.sqrt([0.5, 0.5]), np.eye(3)),
    # one amplitude would broadcast over a 2 x 2 h' without the check
    (np.array([1.0]), SX),
], ids=["2-amps-3x3", "1-amp-2x2"])
def test_ancilla_solve_dimension_mismatch(amps, h_prime):
    with pytest.raises(DimensionMismatch):
        solve_ancilla_hamiltonian(amps, h_prime)


def test_component_state_at_zero_with_identity_frame():
    amps = np.sqrt([0.75, 0.25])
    chi = component_state(1, np.eye(2), amps, np.eye(2))
    np.testing.assert_allclose(chi, [0.0, 0.5])
    assert abs(np.vdot(chi, chi).real - 0.25) <= 1e-15


def test_component_norm_invariant_under_evolution():
    problem = random_instance(4, 4, 60)
    frame = prepare_problem(problem)
    amps, z = problem.amps, frame.z
    for j in range(4):
        n0 = np.vdot(component_state(j, np.eye(4), amps, z),
                     component_state(j, np.eye(4), amps, z)).real
        for t in (0.4, 2.1):
            u = unitary_from_hamiltonian(problem.h_prime, t)
            nt = np.vdot(component_state(j, u, amps, z),
                         component_state(j, u, amps, z)).real
            assert abs(nt - n0) <= 1e-12
            assert abs(nt - frame.q[j]) <= 1e-12


def test_components_reassemble_evolved_state():
    problem = random_instance(3, 3, 61)
    amps, z = problem.amps, prepare_problem(problem).z
    for t in (0.0, 0.8, 3.0):
        u = unitary_from_hamiltonian(problem.h_prime, t)
        total = sum(np.outer(chi, chi.conj()) for chi in
                    (component_state(j, u, amps, z) for j in range(3)))
        rho_t = u @ np.diag(problem.lambdas) @ dagger(u)
        assert frobenius(total - rho_t) <= 1e-10


def test_component_state_index_bounds():
    with pytest.raises(IndexError):
        component_state(2, np.eye(2), np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(IndexError):
        component_state(-1, np.eye(2), np.array([1.0, 0.0]), np.eye(2))
