"""State-layer tests: density validation, spectral decomposition, and
the eigenbasis rotation of the Hamiltonian."""

import numpy as np
import pytest

from mixedphase import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    Problem,
    Spectrum,
    dagger,
    frobenius,
    hamiltonian_in_eigenbasis,
    spectral_decompose,
    unitary_from_hamiltonian,
    validate_density,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def random_density(rng, n, rank=None):
    rank = rank or n
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = b @ dagger(b)
    return rho / np.trace(rho).real


def test_maximally_mixed_qubit_is_valid():
    dm = validate_density(np.eye(2) / 2)
    spec = spectral_decompose(dm)
    np.testing.assert_allclose(spec.lambdas, [0.5, 0.5])


def test_valid_correlated_qubit():
    # eigenvalues (1 +- sqrt(0.4))/2, both positive
    dm = validate_density(np.array([[0.6, 0.3], [0.3, 0.4]]))
    spec = spectral_decompose(dm)
    expected = np.array([(1 + np.sqrt(0.4)) / 2, (1 - np.sqrt(0.4)) / 2])
    np.testing.assert_allclose(spec.lambdas, expected, atol=1e-12)


def test_negative_determinant_rejected_as_not_psd():
    with pytest.raises(NotPSD):
        validate_density(np.array([[0.6, 0.6], [0.6, 0.4]]))


def test_wrong_trace_rejected():
    with pytest.raises(NotUnitTrace):
        validate_density(np.eye(2))


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_tiny_negative_eigenvalue_tolerated_unmutated():
    mat = np.diag([1.0 + 5e-13, -5e-13])
    dm = validate_density(mat)
    assert dm.mat[1, 1] == -5e-13  # tolerated, not repaired


def test_error_messages_name_residual():
    with pytest.raises(NotUnitTrace, match="Tr - 1"):
        validate_density(np.eye(3))
    with pytest.raises(NotHermitian, match="dag"):
        validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_spectral_decompose_diagonal():
    spec = spectral_decompose(validate_density(np.diag([0.75, 0.25])))
    np.testing.assert_allclose(spec.lambdas, [0.75, 0.25])
    np.testing.assert_allclose(np.abs(spec.basis_e), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.diag(spec.amps), np.diag(np.sqrt([0.75, 0.25])),
                               atol=1e-15)


def test_spectral_decompose_pure_projector():
    spec = spectral_decompose(validate_density(np.outer(PLUS, PLUS.conj())))
    np.testing.assert_allclose(spec.lambdas, [1.0, 0.0], atol=1e-14)
    assert abs(abs(np.vdot(spec.basis_e[:, 0], PLUS)) - 1) < 1e-12


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 4)
    spec = spectral_decompose(validate_density(rho))
    rebuilt = (spec.basis_e * spec.lambdas) @ dagger(spec.basis_e)
    assert frobenius(rebuilt - rho) <= 1e-10
    # C C^dag reproduces the state in its own eigenbasis
    c = np.diag(spec.amps)
    assert frobenius(c @ c - np.diag(spec.lambdas)) <= 1e-15


def test_spectrum_sums_and_clamping():
    rng = np.random.default_rng(22)
    for n, rank in ((2, 2), (4, 2), (6, 6)):
        spec = spectral_decompose(validate_density(random_density(rng, n, rank)))
        assert abs(spec.lambdas.sum() - 1.0) <= 1e-10
        assert abs((spec.amps**2).sum() - 1.0) <= 1e-10
        assert np.all(spec.lambdas >= 0.0) and np.all(spec.lambdas <= 1.0)
        assert np.all(np.diff(spec.lambdas) <= 0)


def test_degenerate_flag():
    assert spectral_decompose(validate_density(np.eye(2) / 2)).degenerate
    assert not spectral_decompose(validate_density(np.diag([0.7, 0.3]))).degenerate


def test_hamiltonian_rotation_identity_for_diagonal_state():
    problem = Problem(validate_density(np.diag([0.7, 0.3])), 0.5 * SZ)
    spec = spectral_decompose(problem.rho0)
    np.testing.assert_allclose(hamiltonian_in_eigenbasis(problem, spec), 0.5 * SZ,
                               atol=1e-14)


def test_hamiltonian_rotation_hadamard_swap():
    # basis along |+>/|->: sigma_z becomes sigma_x
    rho = 0.8 * np.outer(PLUS, PLUS.conj()) + 0.2 * (np.eye(2) - np.outer(PLUS, PLUS.conj()))
    problem = Problem(validate_density(rho), 0.5 * SZ)
    spec = Spectrum(np.array([0.8, 0.2]), HADAMARD, np.sqrt([0.8, 0.2]), False)
    h_prime = hamiltonian_in_eigenbasis(problem, spec)
    np.testing.assert_allclose(h_prime, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_hamiltonian_rotation_preserves_spectrum():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (a + dagger(a)) / 2
    problem = Problem(validate_density(rho), h)
    spec = spectral_decompose(problem.rho0)
    h_prime = hamiltonian_in_eigenbasis(problem, spec)
    assert frobenius(h_prime - dagger(h_prime)) <= 1e-10
    np.testing.assert_allclose(np.linalg.eigvalsh(h_prime), np.linalg.eigvalsh(h),
                               atol=1e-10)


def test_problem_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Problem(validate_density(np.eye(2) / 2), np.eye(3, dtype=complex))


def test_evolved_state_stays_physical():
    rng = np.random.default_rng(24)
    rho = random_density(rng, 4, rank=2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + dagger(a)) / 2
    for t in (0.0, 0.3, 1.7, 5.0):
        u = unitary_from_hamiltonian(h, t)
        rho_t = u @ rho @ dagger(u)
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh((rho_t + dagger(rho_t)) / 2).min() >= -1e-12
