"""Matrix-kernel tests: eigendecomposition, evolution operators, polar
factors, and the PSD square root of tests/literal.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedphase import NotHermitian, NotPSD
from mixedphase.linalg import (
    dagger,
    eigenspace_blocks,
    frobenius,
    hermitian_eig,
    polar_unitary,
    require_hermitian,
    unitary_from_hamiltonian,
)
from mixedphase.tolerances import DEFAULT_TOL

from cases import SX, SZ
from literal import psd_sqrt


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + dagger(a)) / 2


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_eig_diagonal_input():
    w, q = hermitian_eig(np.diag([2.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 2.0])
    np.testing.assert_allclose(np.abs(q), [[0, 1], [1, 0]])  # column-swapped identity


def test_eig_pauli_x():
    w, q = hermitian_eig(SX)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    # columns match the textbook eigenvectors up to phase
    assert abs(abs(np.vdot(q[:, 0], minus)) - 1) < 1e-12
    assert abs(abs(np.vdot(q[:, 1], plus)) - 1) < 1e-12


def test_eig_residual_and_orthonormality_random():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 5)
    w, q = hermitian_eig(a)
    assert np.all(np.diff(w) >= 0)
    assert frobenius(a @ q - q * w) <= 1e-10 * max(1.0, frobenius(a))
    assert frobenius(dagger(q) @ q - np.eye(5)) <= 1e-12


def test_eig_reconstruction_many_sizes():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 6, 9):
        a = random_hermitian(rng, n, scale=rng.uniform(0.1, 10.0))
        w, q = hermitian_eig(a)
        assert frobenius((q * w) @ dagger(q) - a) <= 1e-10 * max(1.0, frobenius(a))


def test_eig_rejects_non_hermitian():
    # hermitian_eig takes its input as checked; the check is require_hermitian
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_require_hermitian_returns_a_private_copy():
    # a complex array np.asarray would return as it is
    for a in (SZ.copy(), SX.real.copy(), [[1.0, 0.0], [0.0, 2.0]]):
        checked = require_hermitian(a)
        assert checked.dtype == complex and not np.shares_memory(checked, a)
        np.testing.assert_array_equal(checked, a)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_frobenius_is_numpys_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for a in (rng.standard_normal((n, n)), random_complex(rng, n)):
        for view in (a, a.T):  # a.T is not C-contiguous
            assert frobenius(view) == float(np.linalg.norm(view, "fro"))
        # 1-D, the shape of pancharatnam_phase's psi0: as drawn and normalized
        v = a[:, 0]
        for vec in (v, v / np.linalg.norm(v)):
            assert frobenius(vec) == float(np.linalg.norm(vec))
        # past about 1e154 per entry the sum of squares overflows
        huge = 1e154 * (2.0 + np.abs(a)) * (a / np.abs(a))
        with np.errstate(over="ignore"):
            assert frobenius(huge) == float(np.linalg.norm(huge, "fro")) == math.inf


def tiling(blocks, n):
    """True when blocks are int bounds 0 = b_0 < ... < b_m = n: m nonempty
    blocks b_i:b_{i+1} that tile 0..n in order."""
    return (type(blocks) is tuple and all(type(b) is int for b in blocks)
            and blocks[0] == 0 and blocks[-1] == n
            and all(a < b for a, b in zip(blocks, blocks[1:])))


def test_eigenspace_blocks_read_np_diffs_gaps():
    # a bound after index i exactly where np.diff's gap |w[i+1] - w[i]| is
    # at least the degeneracy gap, for spectra of each order, with clusters
    gap = DEFAULT_TOL.degeneracy_gap
    rng = np.random.default_rng(9)
    spectra = [np.zeros(1), np.array([0.3, 0.3 + gap]), np.array([0.3, 0.3 + 2 * gap])]
    for n in (2, 3, 8, 64):
        w = np.sort(rng.standard_normal(n))
        clustered = np.sort(np.repeat(w[: (n + 1) // 2], 2)[:n] + gap * rng.uniform(-1, 1, n))
        spectra += [w, w[::-1], clustered, clustered[::-1]]
    for w in spectra:
        bounds = [0] + [i + 1 for i, g in enumerate(np.abs(np.diff(w))) if g >= gap] + [w.size]
        blocks = eigenspace_blocks(w)
        assert blocks == tuple(bounds)
        assert tiling(blocks, w.size)
    assert any(len(eigenspace_blocks(w)) - 1 < w.size for w in spectra)


def test_a_gap_at_the_threshold_splits_and_one_ulp_below_joins():
    gap = DEFAULT_TOL.degeneracy_gap
    assert eigenspace_blocks(np.array([0.0, gap])) == (0, 1, 2)
    assert eigenspace_blocks(np.array([0.0, np.nextafter(gap, 0.0)])) == (0, 2)
    assert eigenspace_blocks(np.array([gap, 0.0])) == (0, 1, 2)
    assert eigenspace_blocks(np.array([np.nextafter(gap, 0.0), 0.0])) == (0, 2)


def test_chained_close_gaps_make_one_block():
    # each neighbour is 0.6e-9 from the next, though the ends are 1.2e-9 apart
    w = np.array([0.0, 0.6e-9, 1.2e-9])
    assert np.all(np.abs(np.diff(w)) < DEFAULT_TOL.degeneracy_gap)
    assert w[-1] - w[0] >= DEFAULT_TOL.degeneracy_gap
    assert eigenspace_blocks(w) == (0, 3)
    assert eigenspace_blocks(np.append(w, 1.0)) == (0, 3, 4)
    assert eigenspace_blocks(np.append(-1.0, w)) == (0, 1, 4)


def test_eigenspace_blocks_of_descending_lambdas_and_ascending_kappas():
    lambdas = np.array([0.4, 0.2, 0.2, 0.2])  # a state's spectrum, descending
    assert eigenspace_blocks(lambdas) == (0, 1, 4)
    assert eigenspace_blocks(-lambdas) == (0, 1, 4)
    kappas = lambdas[::-1]  # K's, ascending
    assert eigenspace_blocks(kappas) == (0, 3, 4)
    for w in (lambdas, kappas):
        assert tiling(eigenspace_blocks(w), 4)


def test_eig_rejects_non_finite():
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        require_hermitian(bad)


def test_unitary_at_zero_time_is_identity():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    np.testing.assert_allclose(unitary_from_hamiltonian(h, 0.0), np.eye(4), atol=1e-14)


def test_unitary_full_spinor_rotation():
    # exp(-i pi sigma_z) = -identity
    omega = 1.3
    u = unitary_from_hamiltonian(0.5 * omega * SZ, 2 * np.pi / omega)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-13)


def test_unitary_group_inverse():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    u = unitary_from_hamiltonian(h, 0.7)
    u_back = unitary_from_hamiltonian(h, -0.7)
    assert frobenius(u @ u_back - np.eye(4)) <= 1e-12


def test_unitary_rejects_non_finite_time():
    with pytest.raises(ValueError):
        unitary_from_hamiltonian(SZ, np.inf)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t1=st.floats(-8, 8), t2=st.floats(-8, 8))
def test_unitary_group_law(seed, t1, t2):
    h = random_hermitian(np.random.default_rng(seed), 3)
    u1 = unitary_from_hamiltonian(h, t1)
    u2 = unitary_from_hamiltonian(h, t2)
    u12 = unitary_from_hamiltonian(h, t1 + t2)
    assert frobenius(u1 @ u2 - u12) <= 1e-12
    assert frobenius(dagger(u1) @ u1 - np.eye(3)) <= 1e-12


def test_polar_of_unitary_is_input():
    rng = np.random.default_rng(8)
    u = unitary_from_hamiltonian(random_hermitian(rng, 3), 1.1)
    np.testing.assert_allclose(polar_unitary(u), u, atol=1e-12)


def test_polar_of_positive_diagonal_is_identity():
    np.testing.assert_allclose(polar_unitary(np.diag([3.0, 5.0])), np.eye(2), atol=1e-14)


def test_polar_reconstruction():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 4)
    u = polar_unitary(a)
    p = psd_sqrt(a @ dagger(a))
    assert frobenius(a - p @ u) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polar_output_unitary_even_for_singular(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 4)
    a[:, 0] = 0.0  # force rank deficiency
    u = polar_unitary(a)
    assert frobenius(dagger(u) @ u - np.eye(4)) <= 1e-12


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-13)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(10)
    b = random_complex(rng, 5)
    rho = b @ dagger(b)
    rho /= np.trace(rho).real
    r = psd_sqrt(rho)
    assert frobenius(r @ r - rho) <= 1e-10
    assert frobenius(r - dagger(r)) <= 1e-12


def test_psd_sqrt_clamps_tiny_negative():
    a = np.diag([1.0, -1e-13])
    r = psd_sqrt(a)
    np.testing.assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1e-6]))
