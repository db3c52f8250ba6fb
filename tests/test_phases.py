"""Phase-engine tests: component reports, the total geometric phase, the
purification trace phase, the interferometric phase, and the identities
connecting them."""

from dataclasses import replace

import numpy as np
import pytest

from mixedphase import (
    IndexOutOfRange,
    RandomInstanceSpec,
    Problem,
    Spectrum,
    VanishingOverlap,
    circular_distance,
    component_report,
    component_state,
    dagger,
    diagonalizing_frame,
    evaluate,
    evolution_operator,
    overlap_kernel,
    pancharatnam_phase,
    prepare_from_spectrum,
    prepare_problem,
    random_instance,
    report_to_dict,
    sjoqvist_phase,
    total_geometric_phase,
    uhlmann_trace_phase,
    unitary_from_hamiltonian,
    validate_density,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def bloch_x_problem(r, omega=1.0):
    """Qubit with Bloch vector r along x, precessing about z."""
    rho = (np.eye(2) + r * SX) / 2
    return Problem(validate_density(rho), 0.5 * omega * SZ)


def pure_plus_problem(omega=1.0):
    return Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * omega * SZ)


def random_pure_problem(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + dagger(a)) / 2
    return Problem(validate_density(np.outer(psi, psi.conj())), h), psi


def test_overlap_at_zero_is_the_weight():
    prep = prepare_problem(random_instance(RandomInstanceSpec(4, 4, 70)))
    for j in range(4):
        m0 = overlap_kernel(prep, j, np.eye(4))
        assert abs(m0.imag) <= 1e-14
        assert abs(m0.real - prep.weights[j]) <= 1e-12


def test_overlap_magnitude_bounded_by_weight():
    prep = prepare_problem(random_instance(RandomInstanceSpec(5, 3, 71)))
    for t in (0.3, 1.7, 5.0):
        u = evolution_operator(prep, t)
        for j in range(5):
            m = overlap_kernel(prep, j, u)
            assert abs(m) <= prep.weights[j] + 1e-12


def test_overlap_equals_direct_component_inner_product():
    # maximally mixed qubit driven along x: kernel vs explicit states
    prob = Problem(validate_density(np.eye(2) / 2), 0.5 * SX)
    prep = prepare_problem(prob)
    amps, z = prep.spectrum.amps, prep.frame.z
    for t in (0.4, 1.3, 2.9):
        u = evolution_operator(prep, t)
        for j in range(2):
            m = overlap_kernel(prep, j, u)
            direct = np.vdot(component_state(j, np.eye(2), amps, z),
                             component_state(j, u, amps, z))
            assert abs(m - direct) <= 1e-13


def test_overlap_pure_state_is_survival_amplitude():
    prob, psi = random_pure_problem(np.random.default_rng(72), 3)
    prep = prepare_problem(prob)
    j_star = int(np.argmax(prep.weights))
    for t in (0.6, 2.2):
        m = overlap_kernel(prep, j_star, evolution_operator(prep, t))
        direct = np.vdot(psi, unitary_from_hamiltonian(prob.hamiltonian_lab, t) @ psi)
        assert abs(m - direct) <= 1e-12


def test_overlap_index_bounds():
    prep = prepare_problem(bloch_x_problem(0.6))
    with pytest.raises(IndexOutOfRange):
        overlap_kernel(prep, 2, np.eye(2))


def test_commuting_instance_components_have_zero_phase():
    prob = Problem(validate_density(np.diag([0.7, 0.3])),
                   np.diag([0.5, -0.25]).astype(complex))
    prep = prepare_problem(prob)
    for t in (0.5, 1.7, 4.0):
        u = evolution_operator(prep, t)
        for j in range(2):
            rep = component_report(prep, j, t, u)
            assert abs(rep.gamma) <= 1e-12
            assert abs(rep.visibility - 1.0) <= 1e-12


def test_pure_plus_component_phase_is_pi_with_zero_dynamics():
    prep = prepare_problem(pure_plus_problem())
    t = 2 * np.pi
    u = evolution_operator(prep, t)
    j_star = int(np.argmax(prep.weights))
    rep = component_report(prep, j_star, t, u)
    assert circular_distance(rep.gamma, np.pi) <= 1e-9
    assert abs(rep.dyn_phase) <= 1e-9


def test_gamma_is_total_minus_dynamical_mod_2pi():
    prep = prepare_problem(random_instance(RandomInstanceSpec(3, 3, 73)))
    for t in (0.3, 1.7, 5.0):
        u = evolution_operator(prep, t)
        for j in range(3):
            rep = component_report(prep, j, t, u)
            assert circular_distance(rep.gamma, rep.total_phase - rep.dyn_phase) <= 1e-10


def test_zero_weight_components_use_sentinel_convention():
    prep = prepare_problem(random_instance(RandomInstanceSpec(3, 1, 74)))
    u = evolution_operator(prep, 1.0)
    small = [j for j in range(3) if prep.weights[j] <= 1e-10]
    assert small  # rank-1 state must have negligible components
    for j in small:
        rep = component_report(prep, j, 1.0, u)
        assert rep.visibility == 0.0 and rep.gamma == 0.0 and rep.total_phase == 0.0


def test_visibility_bounds_and_unity_at_zero():
    for seed in (75, 76):
        prep = prepare_problem(random_instance(RandomInstanceSpec(4, 4, seed)))
        u0 = evolution_operator(prep, 0.0)
        for j in range(4):
            rep0 = component_report(prep, j, 0.0, u0)
            assert abs(rep0.visibility - 1.0) <= 1e-10
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(prep, t)
            for j in range(4):
                rep = component_report(prep, j, t, u)
                assert 0.0 <= rep.visibility <= 1.0 + 1e-10


def test_maximally_mixed_total_phase_vanishes():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob = Problem(validate_density(np.eye(n) / n), (a + dagger(a)) / 2)
        prep = prepare_problem(prob)
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(prep, t)
            gamma = total_geometric_phase(prep, t, u)
            assert circular_distance(gamma, 0.0) <= 1e-12


def test_pure_plus_total_phase_is_pi():
    # half the solid angle of the equatorial great circle
    prep = prepare_problem(pure_plus_problem())
    t = 2 * np.pi
    gamma = total_geometric_phase(prep, t, evolution_operator(prep, t))
    assert circular_distance(gamma, np.pi) <= 1e-9
    assert circular_distance(gamma, pancharatnam_phase(PLUS, 0.5 * SZ, t)) <= 1e-9


def test_mixed_qubit_matches_closed_form_trace():
    r = 0.6
    prep = prepare_problem(bloch_x_problem(r))
    s = np.sqrt(1 - r**2)
    for t in (0.7, 1.9, 3.3, 5.1, 2 * np.pi):
        a, b = t / 2, t / 2 * s
        closed = np.angle(np.cos(a) * np.cos(b) + s * np.sin(a) * np.sin(b))
        gamma = total_geometric_phase(prep, t, evolution_operator(prep, t))
        assert circular_distance(gamma, closed) <= 1e-10


def test_cyclic_point_gamma_zero_but_interferometric_pi():
    prep = prepare_problem(bloch_x_problem(0.6))
    t = 2 * np.pi
    u = evolution_operator(prep, t)
    gamma = total_geometric_phase(prep, t, u)
    sjo = sjoqvist_phase(prep, t, u)
    assert circular_distance(gamma, 0.0) <= 1e-9
    assert circular_distance(sjo, np.pi) <= 1e-9
    # the two definitions genuinely diverge for mixed states
    assert circular_distance(gamma, sjo) > 0.5


def test_nodal_point_raises_vanishing_visibility():
    # r = 0.6 along x about z: the overlap crosses zero at t = 5 pi
    prep = prepare_problem(bloch_x_problem(0.6))
    t = 5 * np.pi
    u = evolution_operator(prep, t)
    with pytest.raises(VanishingOverlap):
        total_geometric_phase(prep, t, u)
    with pytest.raises(VanishingOverlap):
        uhlmann_trace_phase(prep, t, u)
    with pytest.raises(VanishingOverlap):
        sjoqvist_phase(prep, t, u)
    batch = evaluate(prep, t)
    assert np.isnan(batch.gamma_total[0]) and np.isnan(batch.sjoqvist[0])
    assert batch.overlap_magnitude[0] <= 1e-12


def test_uhlmann_trace_phase_zero_at_t0():
    prep = prepare_problem(random_instance(RandomInstanceSpec(4, 4, 78)))
    assert abs(uhlmann_trace_phase(prep, 0.0, np.eye(4))) <= 1e-14


def test_total_phase_equals_trace_phase_random():
    # two disjoint code paths; the full 200-instance sweep runs in the
    # acceptance suite
    for seed in range(20):
        n = (2, 3, 4, 6)[seed % 4]
        prep = prepare_problem(random_instance(RandomInstanceSpec(n, n, 200 + seed)))
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(prep, t)
            gamma = total_geometric_phase(prep, t, u)
            trace_phase = uhlmann_trace_phase(prep, t, u)
            assert circular_distance(gamma, trace_phase) <= 1e-9


def test_interferometric_phase_commuting_is_zero():
    prob = Problem(validate_density(np.diag([0.6, 0.3, 0.1])),
                   np.diag([0.7, -0.2, 0.4]).astype(complex))
    prep = prepare_problem(prob)
    for t in (0.5, 2.1, 6.0):
        u = evolution_operator(prep, t)
        assert abs(sjoqvist_phase(prep, t, u)) <= 1e-12


def test_interferometric_equals_total_for_pure_states():
    rng = np.random.default_rng(79)
    for n in (2, 3):
        for _ in range(10):
            prob, _ = random_pure_problem(rng, n)
            prep = prepare_problem(prob)
            t = 1.1
            u = evolution_operator(prep, t)
            gamma = total_geometric_phase(prep, t, u)
            sjo = sjoqvist_phase(prep, t, u)
            assert circular_distance(gamma, sjo) <= 1e-8


def test_gauge_invariance_under_eigenvector_rephasing():
    rng = np.random.default_rng(80)
    for seed in (300, 301, 302):
        problem = random_instance(RandomInstanceSpec(4, 4, seed))
        prep = prepare_problem(problem)
        t = 1.7
        gamma = total_geometric_phase(prep, t, evolution_operator(prep, t))
        spec = prep.spectrum
        rephased = Spectrum(spec.lambdas, spec.basis_e * np.exp(1j * rng.uniform(
            0, 2 * np.pi, 4)), spec.amps, spec.degenerate)
        prep2 = prepare_from_spectrum(problem, rephased)
        gamma2 = total_geometric_phase(prep2, t, evolution_operator(prep2, t))
        assert circular_distance(gamma, gamma2) <= 1e-9


def test_total_phase_ignores_ancilla_kernel_freedom():
    # for singular states the ancilla Hamiltonian is free on the kernel;
    # the phase must not see it (checked empirically)
    rng = np.random.default_rng(81)
    problem = random_instance(RandomInstanceSpec(4, 2, 82))
    prep = prepare_problem(problem)
    kernel = np.where(prep.spectrum.lambdas < 1e-12)[0]
    assert kernel.size == 2
    x = np.zeros((4, 4), dtype=complex)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x[np.ix_(kernel, kernel)] = (block + dagger(block)) / 2
    prep2 = replace(prep, frame=diagonalizing_frame(prep.frame.k + x))
    for t in (0.3, 1.7):
        u = evolution_operator(prep, t)
        gamma = total_geometric_phase(prep, t, u)
        gamma2 = total_geometric_phase(prep2, t, u)
        trace2 = uhlmann_trace_phase(prep2, t, u)
        assert circular_distance(gamma, gamma2) <= 1e-9
        assert circular_distance(gamma, trace2) <= 1e-9


def test_phase_report_structure():
    prep = prepare_problem(bloch_x_problem(0.6))
    batch = evaluate(prep, 1.0)
    assert batch.t[0] == 1.0
    assert batch.visibility[0].shape == (2,)
    assert [c["j"] for c in report_to_dict(batch, 0)["components"]] == [0, 1]
    assert not batch.degenerate_spectrum_warning
    assert abs(batch.gamma_total[0] - batch.uhlmann[0]) <= 1e-9
    degenerate = evaluate(prepare_problem(
        Problem(validate_density(np.eye(2) / 2), 0.5 * SZ)), 1.0)
    assert degenerate.degenerate_spectrum_warning
