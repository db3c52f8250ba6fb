"""Oracle tests: the discretized holonomy chain, the pure-state phase
reference, parallel-transport residuals, and the instance generator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixedphase import (
    PathSampling,
    Problem,
    RandomInstanceSpec,
    VanishingOverlap,
    amplitude_chain,
    circular_distance,
    dagger,
    diagonalizing_frame,
    discrete_uhlmann_holonomy,
    evolution_operator,
    frobenius,
    pancharatnam_phase,
    parallel_residual,
    prepare_problem,
    random_instance,
    total_geometric_phase,
    validate_density,
)
from mixedphase.oracles import MAX_STEPS

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def test_path_sampling_validation():
    with pytest.raises(ValueError):
        PathSampling(1.0, 1)
    with pytest.raises(ValueError):
        PathSampling(0.0, 16)
    times = PathSampling(2.0, 4).times
    np.testing.assert_allclose(times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_path_sampling_rejects_steps_beyond_the_roundoff_cap():
    assert PathSampling(1.0, MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(ValueError):
        PathSampling(1.0, MAX_STEPS + 1)
    with pytest.raises(ValueError):
        PathSampling(1.0, 10**400)


def chain_phase_and_magnitude(problem, sampling):
    """arg and |.| of Tr[w_0^dag w_N] from the literal sequential chain."""
    chain = amplitude_chain(problem, sampling)
    tr = complex(np.trace(dagger(chain[0]) @ chain[-1]))
    return float(np.angle(tr)), abs(tr)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(2, 512), t_end=st.floats(0.05, 6.0))
def test_closed_form_matches_the_literal_chain(dim, data, seed, steps, t_end):
    rank = data.draw(st.integers(1, dim), label="rank")
    prob = random_instance(RandomInstanceSpec(dim, rank, seed))
    sampling = PathSampling(t_end, steps)
    want, magnitude = chain_phase_and_magnitude(prob, sampling)
    # away from a nodal endpoint, where the angle itself is ill-conditioned
    assume(magnitude >= 1e-2)
    got = discrete_uhlmann_holonomy(prob, sampling)
    assert circular_distance(got, want) <= 1e-11, (dim, rank, steps, got, want)


@pytest.mark.parametrize("steps", [2, 3, 255, 256])
def test_closed_form_and_chain_both_vanish_at_orthogonal_endpoint(steps):
    # |+> reaches the orthogonal |-> at t = pi on any grid
    prob = Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * SZ)
    sampling = PathSampling(np.pi, steps)
    assert chain_phase_and_magnitude(prob, sampling)[1] <= 1e-12
    with pytest.raises(VanishingOverlap):
        discrete_uhlmann_holonomy(prob, sampling)


def test_holonomy_constant_path_is_zero():
    # commuting full-rank instance: the state never moves
    prob = Problem(validate_density(np.diag([0.7, 0.3])),
                   np.diag([0.4, -0.9]).astype(complex))
    hol = discrete_uhlmann_holonomy(prob, PathSampling(3.0, 512))
    assert abs(hol) <= 1e-12


def test_holonomy_pure_great_circle():
    prob = Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * SZ)
    hol = discrete_uhlmann_holonomy(prob, PathSampling(2 * np.pi, 4096))
    assert circular_distance(hol, np.pi) <= 1e-12
    assert circular_distance(hol, pancharatnam_phase(PLUS, 0.5 * SZ, 2 * np.pi)) <= 1e-12


def test_holonomy_mixed_great_circle_confirms_zero():
    rho = (np.eye(2) + 0.6 * SX) / 2
    prob = Problem(validate_density(rho), 0.5 * SZ)
    hol = discrete_uhlmann_holonomy(prob, PathSampling(2 * np.pi, 4096))
    assert circular_distance(hol, 0.0) <= 1e-12


def test_holonomy_matches_engine_on_random_instance():
    prob = random_instance(RandomInstanceSpec(3, 3, 90))
    prep = prepare_problem(prob)
    t_end = 1.7
    gamma = total_geometric_phase(prep, t_end, evolution_operator(prep, t_end))
    hol = discrete_uhlmann_holonomy(prob, PathSampling(t_end, 4096))
    assert circular_distance(hol, gamma) <= 2e-9


def test_chain_links_are_hermitian_psd():
    prob = random_instance(RandomInstanceSpec(3, 3, 91))
    chain = amplitude_chain(prob, PathSampling(1.5, 64))
    assert len(chain) == 65
    for w_i, w_next in zip(chain, chain[1:]):
        link = dagger(w_i) @ w_next
        assert frobenius(link - dagger(link)) <= 1e-10
        assert np.linalg.eigvalsh((link + dagger(link)) / 2).min() >= -1e-10


def test_holonomy_raises_at_orthogonal_endpoint():
    # half a great circle takes |+> to the orthogonal |->
    prob = Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * SZ)
    with pytest.raises(VanishingOverlap):
        discrete_uhlmann_holonomy(prob, PathSampling(np.pi, 256))


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
    prep = prepare_problem(prob)
    t = 1.3
    gamma = total_geometric_phase(prep, t, evolution_operator(prep, t))
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


def test_pancharatnam_raises_at_orthogonal_endpoint():
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(VanishingOverlap):
        pancharatnam_phase(psi, 0.5 * SX, np.pi)


def test_parallel_residual_small_for_solved_frame():
    for seed in (94, 95):
        prep = prepare_problem(random_instance(RandomInstanceSpec(4, 4, seed)))
        for t in (0.0, 0.3, 1.7):
            for j in range(4):
                resid = parallel_residual(prep, j, t, 1e-6)
                assert resid <= 1e-6


def test_parallel_residual_negative_control():
    # zeroed ancilla Hamiltonian on a noncommuting full-rank instance
    prep = prepare_problem(random_instance(RandomInstanceSpec(3, 3, 11)))
    wrong = replace(prep, frame=diagonalizing_frame(np.zeros((3, 3), dtype=complex)))
    worst = max(parallel_residual(wrong, j, 0.3, 1e-6) for j in range(3))
    assert worst > 1e-3


def test_parallel_residual_zero_hamiltonian():
    prep = prepare_problem(Problem(validate_density(np.diag([0.7, 0.3])),
                                   np.zeros((2, 2), dtype=complex)))
    for j in range(2):
        assert parallel_residual(prep, j, 0.5, 1e-6) <= 1e-9


def test_parallel_residual_argument_validation():
    prep = prepare_problem(random_instance(RandomInstanceSpec(3, 1, 96)))
    with pytest.raises(ValueError):
        parallel_residual(prep, 0, 0.3, 1e-2)
    negligible = int(np.argmin(prep.weights))
    with pytest.raises(ValueError):
        parallel_residual(prep, negligible, 0.3, 1e-6)


def test_random_instance_deterministic():
    a = random_instance(RandomInstanceSpec(2, 2, 1))
    b = random_instance(RandomInstanceSpec(2, 2, 1))
    assert np.array_equal(a.rho0.mat, b.rho0.mat)
    assert np.array_equal(a.hamiltonian_lab, b.hamiltonian_lab)


def test_random_instance_rank():
    prob = random_instance(RandomInstanceSpec(4, 2, 7))
    evals = np.linalg.eigvalsh(prob.rho0.mat)
    assert int(np.sum(evals > 1e-6)) == 2


def test_random_instance_validates_and_scales():
    prob = random_instance(RandomInstanceSpec(3, 3, 42, h_scale=2.5))
    validate_density(prob.rho0.mat)  # revalidation accepts
    assert abs(frobenius(prob.hamiltonian_lab) - 2.5) <= 1e-12


def test_random_instance_spec_validation():
    with pytest.raises(ValueError):
        RandomInstanceSpec(3, 4, 0)
    with pytest.raises(ValueError):
        RandomInstanceSpec(3, 0, 0)
