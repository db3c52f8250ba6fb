"""State-layer tests: density validation and the Problem, the one
eigendecomposition of rho and of H they make, and the eigenbasis
rotation of the Hamiltonian."""

import collections
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixedphase import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    Problem,
    evaluate,
    load_problem,
    pancharatnam_phase,
    random_instance,
    save_problem,
    validate_density,
)
from mixedphase import linalg, states
from mixedphase.linalg import dagger, eigenspace_blocks, frobenius, unitary_from_hamiltonian
from mixedphase.tolerances import DEFAULT_TOL
from mixedphase.transport import diagonalizing_frame

from cases import CAP_ERROR, COMMUTING, PLUS, SZ, problem_file, run

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_density(rng, n, rank=None):
    rank = rank or n
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = b @ dagger(b)
    return rho / np.trace(rho).real


def test_maximally_mixed_qubit_is_valid():
    spec = validate_density(np.eye(2) / 2)
    np.testing.assert_allclose(spec.lambdas, [0.5, 0.5])


def test_valid_correlated_qubit():
    # eigenvalues (1 +- sqrt(0.4))/2, both positive
    spec = validate_density(np.array([[0.6, 0.3], [0.3, 0.4]]))
    expected = np.array([(1 + np.sqrt(0.4)) / 2, (1 - np.sqrt(0.4)) / 2])
    np.testing.assert_allclose(spec.lambdas, expected, atol=1e-12)


def test_negative_determinant_rejected_as_not_psd():
    with pytest.raises(NotPSD):
        validate_density(np.array([[0.6, 0.6], [0.6, 0.4]]))


HUGE = 1.7e308  # finite, near the largest double


@pytest.mark.parametrize("build", [
    # a non-PSD state whose rho + rho^dag would overflow
    lambda: validate_density(np.array([[0.5, 1e308], [1e308, 0.5]])),
    # a non-PSD state whose smallest eigenvalue is past the double range
    lambda: validate_density(np.array([[0.5, HUGE, HUGE], [HUGE, 0.25, -HUGE],
                                       [HUGE, -HUGE, 0.25]])),
    # a state whose trace is past the double range
    lambda: validate_density(np.diag([HUGE, HUGE])),
    # a non-Hermitian defect past the double range, through both entry points
    lambda: Problem(validate_density(np.eye(2) / 2), np.array([[0.0, HUGE], [0.0, 0.0]])),
    lambda: validate_density(np.array([[0.5, HUGE], [0.0, 0.5]])),
], ids=["non_psd_symmetrization", "non_psd_eigenvalue", "trace", "non_hermitian_problem",
        "non_hermitian_state"])
def test_matrix_past_the_cap_is_refused_before_its_invariants(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            build()
    assert caught == []
    assert type(exc.value) is ValueError and str(exc.value) == CAP_ERROR


def test_one_norm_pass_per_matrix(monkeypatch):
    """The Hermitian check measures each matrix once, and validation and
    Problem reuse what it measured: every accepted matrix takes exactly
    two norm passes (the norm and the defect), and one past the cap the
    first alone."""
    calls = []
    norm = linalg.frobenius

    def counted(a):
        calls.append(a)
        return norm(a)

    monkeypatch.setattr(linalg, "frobenius", counted)
    state = validate_density(np.diag([0.7, 0.3]))
    for build, count in [(lambda: validate_density(np.diag([0.7, 0.3])), 2),
                         (lambda: Problem(state, 0.5 * SZ), 2),
                         (lambda: validate_density(np.array([[0.5, 7e149], [7e149, 0.5]])), 2),
                         (lambda: Problem(state, 7e149 * SZ), 2),
                         (lambda: validate_density(np.array([[0.5, 1e301], [1e301, 0.5]])), 1),
                         (lambda: Problem(state, 1e301 * SZ), 1)]:
        calls.clear()
        try:
            build()
        except NotPSD:  # the 7e149 state, decomposed after its one check
            assert count == 2
        except ValueError as exc:  # past the cap
            assert str(exc) == CAP_ERROR and count == 1
        assert len(calls) == count


def test_one_rule_at_every_entry_point_just_under_and_over_the_cap():
    """A Hamiltonian just under MAX_NORM enters Problem and
    pancharatnam_phase, and validate_density refuses it for its trace;
    just over, and with a nan or an inf entry, all three refuse it with
    require_hermitian's one message."""
    state = validate_density(np.diag([0.7, 0.3]))
    under, over = np.diag([7.07e149, -7.07e149]), np.diag([7.08e149, -7.08e149])
    assert frobenius(under) < linalg.MAX_NORM < frobenius(over)
    problem = Problem(state, under)
    np.testing.assert_allclose(problem.h_eigvals, [-7.07e149, 7.07e149], rtol=1e-12)
    with pytest.raises(NotUnitTrace):
        validate_density(under)
    assert pancharatnam_phase(PLUS, under, 0.0) == 0.0
    nan, inf = np.diag([0.5, 0.5]), np.diag([0.5, 0.5])
    nan[0, 1] = nan[1, 0] = np.nan
    inf[1, 1] = np.inf
    for h in (over, nan, inf):
        for enter in (lambda h: Problem(state, h), validate_density,
                      lambda h: pancharatnam_phase(PLUS, h, 0.0)):
            with pytest.raises(ValueError) as exc:
                enter(h)
            assert type(exc.value) is ValueError and str(exc.value) == CAP_ERROR


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


def test_validate_density_decomposes_diagonal():
    spec = validate_density(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(spec.lambdas, [0.75, 0.25])
    np.testing.assert_allclose(np.abs(spec.basis_e), np.eye(2), atol=1e-14)
    amps = Problem(spec, np.eye(2)).amps
    np.testing.assert_allclose(np.diag(amps), np.diag(np.sqrt([0.75, 0.25])), atol=1e-15)


def test_validate_density_decomposes_pure_projector():
    spec = validate_density(np.outer(PLUS, PLUS.conj()))
    np.testing.assert_allclose(spec.lambdas, [1.0, 0.0], atol=1e-14)
    assert abs(abs(np.vdot(spec.basis_e[:, 0], PLUS)) - 1) < 1e-12


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 4)
    spec = validate_density(rho)
    rebuilt = (spec.basis_e * spec.lambdas) @ dagger(spec.basis_e)
    assert frobenius(rebuilt - rho) <= 1e-10
    # C C^dag reproduces the state in its own eigenbasis
    c = np.diag(Problem(spec, np.eye(4)).amps)
    assert frobenius(c @ c - np.diag(spec.lambdas)) <= 1e-15


def test_spectrum_sums_and_clamping():
    rng = np.random.default_rng(22)
    for n, rank in ((2, 2), (4, 2), (6, 6)):
        spec = validate_density(random_density(rng, n, rank))
        assert abs(spec.lambdas.sum() - 1.0) <= 1e-10
        # the kernel Problem leaves out carries no weight
        amps = Problem(spec, np.eye(n)).amps
        assert amps.size == rank and abs((amps**2).sum() - 1.0) <= 1e-10
        assert np.all(spec.lambdas >= 0.0) and np.all(spec.lambdas <= 1.0)
        assert np.all(np.diff(spec.lambdas) <= 0)


def degenerate(blocks) -> bool:
    """Some block b_i:b_{i+1} of the bounds blocks holds two indices or more."""
    return any(b - a > 1 for a, b in zip(blocks, blocks[1:]))


def test_degenerate_flag():
    assert Problem(validate_density(np.eye(2) / 2), SZ).blocks == (0, 2)
    assert Problem(validate_density(np.diag([0.7, 0.3])), SZ).blocks == (0, 1, 2)
    # one rule for rho (descending) and K (ascending), strict at the gap;
    # each pair of neighbours differs exactly in binary
    gap = DEFAULT_TOL.degeneracy_gap
    below = gap - np.nextafter(gap, 0.0)  # gap - below is the double under gap
    for values, flagged in [([1 - 3 * gap, 2 * gap, gap], False),
                            ([1 - gap - below, gap, below], True),
                            ([1.0], False)]:
        state = validate_density(np.diag(values))
        np.testing.assert_array_equal(state.lambdas, values)
        frame = diagonalizing_frame(np.diag(values).astype(complex), np.sqrt(values[::-1]))
        np.testing.assert_array_equal(frame.kappas, values[::-1])
        blocks = eigenspace_blocks(state.lambdas)
        assert degenerate(blocks) is degenerate(frame.blocks) is flagged
        assert frame.blocks == tuple(len(values) - b for b in reversed(blocks))
        # Problem partitions the support alone, which below is past
        problem = Problem(state, np.eye(len(values)))
        assert problem.blocks == eigenspace_blocks(state.lambdas[:problem.amps.size])
        assert Problem(replace(state, basis_e=-state.basis_e), np.eye(len(values))).blocks \
            == problem.blocks


def test_one_eigendecomposition_of_rho(tmp_path, monkeypatch):
    path = problem_file(tmp_path, random_instance(5, 3, 11), "problem.json")
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    load_problem(path).frame
    assert calls == {"eigh": 3}  # rho, H (both in validation) and K
    # the problem solves its frame on evaluate's read: K is still decomposed once
    for argv in (["compute", "--input", str(path), "-t", "1"],
                 ["sweep", "--input", str(path), "--t-start", "0", "--t-end", "4",
                  "--steps", "50"]):
        calls.clear()
        run(argv, 0)
        assert calls == {"eigh": 3}, argv
    calls.clear()
    random_instance(8, 8, 3)
    assert calls == {"eigh": 2}  # rho and H
    # the holonomy oracle takes rho's and H's decompositions from the
    # Problem: one SVD and no eigendecomposition of its own
    calls.clear()
    run(["compare", "--input", str(path), "-t", "1"], 0)
    assert calls == {"eigh": 3, "svd": 1}
    # a verify trial: rho, H, and K once, for the residuals and the phase
    calls.clear()
    run(["verify", "--dim", "8", "--trials", "1"], 0)
    assert calls == {"eigh": 3, "svd": 1}


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 16), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       identity=st.booleans())
@example(dim=16, rank=1, seed=0, identity=True)
@example(dim=1, rank=1, seed=0, identity=False)
def test_carried_spectra_rebuild_their_inputs(dim, rank, seed, identity):
    # the one decomposition of rho and of H that every reader takes, and
    # H carried on the support E of the state, its first r eigenvectors:
    # h' = E^dag H E = Q diag(w) Q^dag, and the state is E diag(lambdas) E^dag
    rank = min(rank, dim)
    problem = random_instance(dim, rank, seed)
    if identity:
        problem = Problem(problem.rho0, np.eye(dim, dtype=complex))
    rho, h = problem.rho0, problem.hamiltonian_lab
    assert frobenius((rho.basis_e * rho.lambdas) @ dagger(rho.basis_e) - rho.mat) <= 1e-13
    assert problem.amps.size == problem.lambdas.size == rank
    e = rho.basis_e[:, :rank]
    assert frobenius((e * problem.lambdas) @ dagger(e) - rho.mat) <= 1e-13
    q, w, h_prime = problem.h_eigvecs, problem.h_eigvals, problem.h_prime
    assert np.all(np.diff(w) >= 0)
    bound = 1e-13 * max(1.0, frobenius(h))
    assert frobenius((q * w) @ dagger(q) - h_prime) <= bound
    assert frobenius(dagger(e) @ h @ e - h_prime) <= bound
    assert frobenius(q @ dagger(q) - np.eye(rank)) <= bound


def test_hamiltonian_rotation_identity_for_diagonal_state():
    np.testing.assert_allclose(COMMUTING.h_prime, 0.5 * SZ, atol=1e-14)


def test_hamiltonian_rotation_hadamard_swap():
    # basis along |+>/|->: sigma_z becomes sigma_x
    rho = 0.8 * np.outer(PLUS, PLUS.conj()) + 0.2 * (np.eye(2) - np.outer(PLUS, PLUS.conj()))
    rho0 = validate_density(rho)
    state = replace(rho0, basis_e=HADAMARD)
    h_prime = Problem(state, 0.5 * SZ).h_prime
    np.testing.assert_allclose(h_prime, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_hamiltonian_rotation_preserves_spectrum():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (a + dagger(a)) / 2
    problem = Problem(validate_density(rho), h)
    h_prime, q = problem.h_prime, problem.h_eigvecs
    assert frobenius(h_prime - dagger(h_prime)) <= 1e-10
    np.testing.assert_allclose(np.linalg.eigvalsh(h_prime), np.linalg.eigvalsh(h),
                               atol=1e-10)
    # Q = E^dag V diagonalizes h' with the Problem's eigenvalues of H
    assert frobenius(dagger(q) @ q - np.eye(5)) <= 1e-13
    assert frobenius((q * problem.h_eigvals) @ dagger(q) - h_prime) <= 1e-13 * frobenius(h)


def test_problem_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Problem(validate_density(np.eye(2) / 2), np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        Problem(validate_density(np.eye(2) / 2), np.zeros((2, 3), dtype=complex))


@pytest.mark.parametrize("rho", [np.eye(2) / 2, [[0.5, 0.0], [0.0, 0.5]]],
                         ids=["ndarray", "nested-list"])
def test_problem_refuses_a_state_that_was_not_validated(rho):
    with pytest.raises(TypeError, match=r"rho0 must be validate_density's DensityMatrix, got "
                                        r"(ndarray|list)"):
        Problem(rho, np.eye(2, dtype=complex))


def test_problem_solves_its_frame_once_on_first_read(tmp_path, monkeypatch):
    """K is solved and diagonalized when the frame is first read, and the
    frame is kept: two evaluate calls on one problem solve it once, and
    writing and reading a problem file solve it not at all."""
    solved = []
    solve = states.diagonalizing_frame

    def counted(k, amps):
        solved.append(solve(k, amps))
        return solved[-1]

    monkeypatch.setattr(states, "diagonalizing_frame", counted)
    problem = load_problem(problem_file(tmp_path, random_instance(5, 3, 11), "problem.json"))
    save_problem(problem, tmp_path / "again.json")
    assert solved == [] and "frame" not in vars(problem)
    first, second = evaluate(problem, 1.0), evaluate(problem, 1.0)
    assert len(solved) == 1 and problem.frame is solved[0]
    assert first.gamma_total.tobytes() == second.gamma_total.tobytes()


def test_a_replaced_problem_solves_its_own_frame():
    """dataclasses.replace builds a new Problem, whose frame is solved for
    its own Hamiltonian, never copied from the cached one: K is linear in
    H, so doubling H doubles every kappa."""
    problem = random_instance(4, 4, 2)
    frame = problem.frame
    doubled = replace(problem, hamiltonian_lab=2 * problem.hamiltonian_lab)
    assert "frame" not in vars(doubled)
    assert doubled.frame is not frame and problem.frame is frame
    np.testing.assert_allclose(doubled.frame.kappas, 2 * frame.kappas, rtol=0, atol=1e-15)


def test_problem_keeps_a_private_copy_of_the_hamiltonian(tmp_path):
    # a complex H would be taken as it is by np.asarray: the check copies it
    h = np.array([[0.4, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])
    problem = Problem(validate_density(np.diag([0.7, 0.3])), h)
    assert not np.shares_memory(problem.hamiltonian_lab, h)
    lab, h_prime = problem.hamiltonian_lab.copy(), problem.h_prime.copy()
    gamma = evaluate(problem, 2.0).gamma_total
    h[0, 0] = 9
    assert problem.hamiltonian_lab.tobytes() == lab.tobytes()
    assert problem.h_prime.tobytes() == h_prime.tobytes()
    assert evaluate(problem, 2.0).gamma_total.tobytes() == gamma.tobytes()
    path = problem_file(tmp_path, problem, "problem.json")
    assert evaluate(load_problem(path), 2.0).gamma_total.tobytes() == gamma.tobytes()


def test_the_records_arrays_are_read_only():
    """Every array validate_density, Problem and its frame make is read-only:
    a write into one, or into a report's q (at full rank the frame's own),
    raises and leaves every later evaluate on the kept frame unchanged.
    The arrays a caller passes in stay writable."""
    rho, h = np.diag([0.5, 0.3, 0.2]), random_instance(3, 3, 0).hamiltonian_lab.copy()
    problem = Problem(validate_density(rho), h)
    assert rho.flags.writeable and h.flags.writeable
    before = evaluate(problem, 1.0)
    frame = problem.frame
    assert before.q is frame.q
    arrays = {"rho0.mat": problem.rho0.mat, "rho0.lambdas": problem.rho0.lambdas,
              "rho0.basis_e": problem.rho0.basis_e, "report q": before.q,
              **{name: getattr(problem, name) for name in (
                  "hamiltonian_lab", "lambdas", "amps", "h_eigvals", "h_eigvecs", "h_prime")},
              **{f"frame.{name}": getattr(frame, name) for name in ("k", "z", "kappas", "q")}}
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] += 1e-3
    after = evaluate(problem, 1.0)
    for column in ("gamma_total", "uhlmann", "sjoqvist", "q", "gamma", "dyn_phase"):
        assert getattr(after, column).tobytes() == getattr(before, column).tobytes(), column


@pytest.mark.parametrize("h", [
    np.diag([1e308, -1e308]),
    np.diag([1.7e308, -1.7e308]),
    np.array([[0, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0]]),
])
def test_problem_rejects_hamiltonian_past_the_cap(h):
    rho = validate_density(np.array([[0.5, 0.3], [0.3, 0.5]]))
    with pytest.raises(ValueError, match=re.escape(CAP_ERROR)):
        Problem(rho, h.astype(complex))


def test_hamiltonian_just_inside_the_cap_prepares():
    # ||H||_F = 9.9e149; a RuntimeWarning is an error in this suite
    # (pyproject.toml)
    rho = validate_density(np.array([[0.5, 0.3], [0.3, 0.5]]))
    problem = Problem(rho, np.diag([7e149, -7e149]).astype(complex))
    problem.frame
    np.testing.assert_allclose(problem.h_eigvals, [-7e149, 7e149], rtol=1e-12)


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
