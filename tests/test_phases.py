"""Phase-engine tests: component reports, the total geometric phase, the
purification trace phase, the interferometric phase, and the identities
connecting them."""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedphase import (
    Problem,
    circular_distance,
    discrete_uhlmann_holonomy,
    evaluate,
    pancharatnam_phase,
    prepare_problem,
    random_instance,
    validate_density,
)
from mixedphase import angles, linalg, states
from mixedphase.linalg import dagger, unitary_from_hamiltonian
from mixedphase.phases import gauge_pair
from mixedphase.serialize import reports_to_json
from mixedphase.transport import component_weights, diagonalizing_frame

from cases import PLUS, SX, SZ, bloch_x, degenerate_qubit, pure_plus
from literal import (
    component_report,
    component_state,
    evolution_operator,
    overlap_kernel,
    sjoqvist_phase,
    total_geometric_phase,
    uhlmann_trace_phase,
)


def random_pure_problem(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + dagger(a)) / 2
    return Problem(validate_density(np.outer(psi, psi.conj())), h), psi


def test_overlap_at_zero_is_the_weight():
    problem = random_instance(4, 4, 70)
    frame = prepare_problem(problem)
    q = component_weights(problem.rho0.amps, frame.z)
    for j in range(4):
        m0 = overlap_kernel(problem, frame, j, np.eye(4))
        assert abs(m0.imag) <= 1e-14
        assert abs(m0.real - q[j]) <= 1e-12


def test_overlap_magnitude_bounded_by_weight():
    problem = random_instance(5, 3, 71)
    frame = prepare_problem(problem)
    q = component_weights(problem.rho0.amps, frame.z)
    for t in (0.3, 1.7, 5.0):
        u = evolution_operator(problem, t)
        for j in range(5):
            m = overlap_kernel(problem, frame, j, u)
            assert abs(m) <= q[j] + 1e-12


def test_overlap_equals_direct_component_inner_product():
    # maximally mixed qubit driven along x: kernel vs explicit states
    prob = Problem(validate_density(np.eye(2) / 2), 0.5 * SX)
    frame = prepare_problem(prob)
    amps, z = prob.rho0.amps, frame.z
    for t in (0.4, 1.3, 2.9):
        u = evolution_operator(prob, t)
        for j in range(2):
            m = overlap_kernel(prob, frame, j, u)
            direct = np.vdot(component_state(j, np.eye(2), amps, z),
                             component_state(j, u, amps, z))
            assert abs(m - direct) <= 1e-13


def test_overlap_pure_state_is_survival_amplitude():
    prob, psi = random_pure_problem(np.random.default_rng(72), 3)
    frame = prepare_problem(prob)
    j_star = int(np.argmax(component_weights(prob.rho0.amps, frame.z)))
    for t in (0.6, 2.2):
        m = overlap_kernel(prob, frame, j_star, evolution_operator(prob, t))
        direct = np.vdot(psi, unitary_from_hamiltonian(prob.hamiltonian_lab, t) @ psi)
        assert abs(m - direct) <= 1e-12


def test_overlap_index_bounds():
    problem = bloch_x(0.6)
    frame = prepare_problem(problem)
    with pytest.raises(IndexError):
        overlap_kernel(problem, frame, 2, np.eye(2))


def test_commuting_instance_components_have_zero_phase():
    prob = Problem(validate_density(np.diag([0.7, 0.3])),
                   np.diag([0.5, -0.25]).astype(complex))
    frame = prepare_problem(prob)
    for t in (0.5, 1.7, 4.0):
        u = evolution_operator(prob, t)
        for j in range(2):
            rep = component_report(prob, frame, j, t, u)
            assert abs(rep.gamma) <= 1e-12
            assert abs(rep.visibility - 1.0) <= 1e-12


def test_pure_plus_component_phase_is_pi_with_zero_dynamics():
    problem = pure_plus()
    frame = prepare_problem(problem)
    t = 2 * np.pi
    u = evolution_operator(problem, t)
    j_star = int(np.argmax(component_weights(problem.rho0.amps, frame.z)))
    rep = component_report(problem, frame, j_star, t, u)
    assert circular_distance(rep.gamma, np.pi) <= 1e-9
    assert abs(rep.dyn_phase) <= 1e-9


def test_gamma_is_total_minus_dynamical_mod_2pi():
    problem = random_instance(3, 3, 73)
    frame = prepare_problem(problem)
    for t in (0.3, 1.7, 5.0):
        u = evolution_operator(problem, t)
        for j in range(3):
            rep = component_report(problem, frame, j, t, u)
            assert circular_distance(rep.gamma, rep.total_phase - rep.dyn_phase) <= 1e-10


def test_component_report_reads_the_weights_of_the_frame_it_is_given():
    # zeroing K substitutes another frame (z = I); its weights are not the
    # solved frame's, so a report that kept those would be stale
    problem = random_instance(3, 3, 11)
    zeroed = diagonalizing_frame(np.zeros((3, 3), dtype=complex))
    want = component_weights(problem.rho0.amps, zeroed.z)
    solved = component_weights(problem.rho0.amps, prepare_problem(problem).z)
    np.testing.assert_allclose(want, [0.879, 0.096, 0.026], atol=1e-3)
    np.testing.assert_allclose(solved, [0.071, 0.691, 0.237], atol=1e-3)
    for j in range(3):
        rep = component_report(problem, zeroed, j, 0.0, np.eye(3))
        assert abs(rep.q - want[j]) <= 1e-15
        assert abs(rep.visibility - 1.0) <= 1e-12  # m_j(0) is that frame's q_j


def test_zero_weight_components_use_sentinel_convention():
    problem = random_instance(3, 1, 74)
    frame = prepare_problem(problem)
    u = evolution_operator(problem, 1.0)
    q = component_weights(problem.rho0.amps, frame.z)
    small = [j for j in range(3) if q[j] <= 1e-10]
    assert small  # rank-1 state must have negligible components
    for j in small:
        rep = component_report(problem, frame, j, 1.0, u)
        assert rep.visibility == 0.0 and rep.gamma == 0.0 and rep.total_phase == 0.0


def test_visibility_bounds_and_unity_at_zero():
    for seed in (75, 76):
        problem = random_instance(4, 4, seed)
        frame = prepare_problem(problem)
        u0 = evolution_operator(problem, 0.0)
        for j in range(4):
            rep0 = component_report(problem, frame, j, 0.0, u0)
            assert abs(rep0.visibility - 1.0) <= 1e-10
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(problem, t)
            for j in range(4):
                rep = component_report(problem, frame, j, t, u)
                assert 0.0 <= rep.visibility <= 1.0 + 1e-10


def test_maximally_mixed_total_phase_vanishes():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob = Problem(validate_density(np.eye(n) / n), (a + dagger(a)) / 2)
        frame = prepare_problem(prob)
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(prob, t)
            gamma = total_geometric_phase(prob, frame, t, u)
            assert circular_distance(gamma, 0.0) <= 1e-12


def test_pure_plus_total_phase_is_pi():
    # half the solid angle of the equatorial great circle
    problem = pure_plus()
    frame = prepare_problem(problem)
    t = 2 * np.pi
    gamma = total_geometric_phase(problem, frame, t, evolution_operator(problem, t))
    assert circular_distance(gamma, np.pi) <= 1e-9
    assert circular_distance(gamma, pancharatnam_phase(PLUS, 0.5 * SZ, t)) <= 1e-9


def test_mixed_qubit_matches_closed_form_trace():
    r = 0.6
    problem = bloch_x(r)
    frame = prepare_problem(problem)
    s = np.sqrt(1 - r**2)
    for t in (0.7, 1.9, 3.3, 5.1, 2 * np.pi):
        a, b = t / 2, t / 2 * s
        closed = np.angle(np.cos(a) * np.cos(b) + s * np.sin(a) * np.sin(b))
        gamma = total_geometric_phase(problem, frame, t, evolution_operator(problem, t))
        assert circular_distance(gamma, closed) <= 1e-10


def test_cyclic_point_gamma_zero_but_interferometric_pi():
    problem = bloch_x(0.6)
    frame = prepare_problem(problem)
    t = 2 * np.pi
    u = evolution_operator(problem, t)
    gamma = total_geometric_phase(problem, frame, t, u)
    sjo = sjoqvist_phase(problem, t, u)
    assert circular_distance(gamma, 0.0) <= 1e-9
    assert circular_distance(sjo, np.pi) <= 1e-9
    # the two definitions genuinely diverge for mixed states
    assert circular_distance(gamma, sjo) > 0.5


@pytest.mark.parametrize("r, t", [(1.0, np.pi), (0.6, 5 * np.pi)],
                         ids=["pure_plus_at_pi", "mixed_r06_at_5pi"])
def test_every_phase_is_nan_at_a_nodal_point(r, t):
    # |+> (r = 1) reaches the orthogonal |-> at t = pi; for r = 0.6 the
    # overlap crosses zero at t = 5 pi
    problem = bloch_x(r)
    batch = evaluate(problem, t)
    assert batch.overlap_magnitude[0] <= 1e-12
    u = evolution_operator(problem, t)
    phases = {name: getattr(batch, name)[0] for name in ("gamma_total", "uhlmann", "sjoqvist")}
    frame = prepare_problem(problem)
    phases |= {fn.__name__: fn(problem, frame, t, u)
               for fn in (total_geometric_phase, uhlmann_trace_phase)}
    phases["sjoqvist_phase"] = sjoqvist_phase(problem, t, u)
    if r == 1.0:
        # the endpoint is orthogonal on every grid; for r = 0.6 the holonomy
        # reaches the nodal point only as the grid is refined
        phases["holonomy"] = discrete_uhlmann_holonomy(problem, t, 256)
        phases["pancharatnam"] = pancharatnam_phase(PLUS, 0.5 * SZ, t)
    assert all(np.isnan(v) for v in phases.values()), phases


def test_angle_or_nan_is_np_angle_bit_for_bit(monkeypatch):
    """angle_or_nan runs np.angle's complex body, arctan2(imag, real): the
    same bits on arrays and on Python complex scalars, signed zeros and
    subnormals included, once no value counts as nodal. With the package's
    tolerance those small values are nodal and stay nan."""
    rng = np.random.default_rng(30)
    small = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320]
    edges = [complex(x, y) for x in small for y in small]
    arrays = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in [(), (1,), (2, 8, 8)]]
    scalars = [complex(z) for z in rng.normal(size=(8, 2)) @ [1, 1j]]
    monkeypatch.setattr(angles, "DEFAULT_TOL", replace(angles.DEFAULT_TOL, overlap=-1.0))
    for z in [*arrays, np.array(edges), *edges, *scalars]:
        assert np.asarray(angles.angle_or_nan(z)).tobytes() == np.angle(z).tobytes(), z
    monkeypatch.undo()
    assert np.isnan(angles.angle_or_nan(np.array(edges))).all()
    assert all(math.isnan(angles.angle_or_nan(z)) for z in edges)


def test_uhlmann_trace_phase_zero_at_t0():
    problem = random_instance(4, 4, 78)
    frame = prepare_problem(problem)
    assert abs(uhlmann_trace_phase(problem, frame, 0.0, np.eye(4))) <= 1e-14


def test_total_phase_equals_trace_phase_random():
    # two disjoint code paths; the full 200-instance sweep runs in the
    # acceptance suite
    for seed in range(20):
        n = (2, 3, 4, 6)[seed % 4]
        problem = random_instance(n, n, 200 + seed)
        frame = prepare_problem(problem)
        for t in (0.3, 1.7, 5.0):
            u = evolution_operator(problem, t)
            gamma = total_geometric_phase(problem, frame, t, u)
            trace_phase = uhlmann_trace_phase(problem, frame, t, u)
            assert circular_distance(gamma, trace_phase) <= 1e-9


def test_interferometric_phase_commuting_is_zero():
    prob = Problem(validate_density(np.diag([0.6, 0.3, 0.1])),
                   np.diag([0.7, -0.2, 0.4]).astype(complex))
    for t in (0.5, 2.1, 6.0):
        u = evolution_operator(prob, t)
        assert abs(sjoqvist_phase(prob, t, u)) <= 1e-12


def test_interferometric_equals_total_for_pure_states():
    rng = np.random.default_rng(79)
    for n in (2, 3):
        for _ in range(10):
            prob, _ = random_pure_problem(rng, n)
            frame = prepare_problem(prob)
            t = 1.1
            u = evolution_operator(prob, t)
            gamma = total_geometric_phase(prob, frame, t, u)
            sjo = sjoqvist_phase(prob, t, u)
            assert circular_distance(gamma, sjo) <= 1e-8


def test_gauge_invariance_under_eigenvector_rephasing():
    rng = np.random.default_rng(80)
    for seed in (300, 301, 302):
        problem = random_instance(4, 4, seed)
        frame = prepare_problem(problem)
        t = 1.7
        gamma = total_geometric_phase(problem, frame, t, evolution_operator(problem, t))
        rho = problem.rho0
        rephased = replace(rho, basis_e=rho.basis_e * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        problem2 = Problem(rephased, problem.hamiltonian_lab)
        gamma2 = total_geometric_phase(problem2, prepare_problem(problem2), t,
                                       evolution_operator(problem2, t))
        assert circular_distance(gamma, gamma2) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gauge_pair_equals_two_separate_passes(dim, data, seed):
    """The stacked pass gives exactly, with == and no tolerance, what
    prepare_problem and evaluate give for each member alone: the problem
    with its state's eigenvectors rephased by D = diag(e^{i theta}), and
    h' and Q rephased entry by entry as D^dag h' D and D^dag Q, then the
    problem itself, whose K, kappas and z it also returns. Rotating H
    into the rephased basis by matmul instead agrees to roundoff."""
    rank = data.draw(st.integers(1, dim), label="rank")
    theta = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=dim,
                                        max_size=dim), label="theta"))
    problem = random_instance(dim, rank, seed)
    rho = problem.rho0
    times = [1.7, -0.4, 5.0]
    gammas, frame = gauge_pair(problem, theta, times)
    d = np.exp(1j * theta)
    rephased = copy.copy(problem)  # set as Problem.__post_init__ sets its derived fields
    for name, value in [("rho0", replace(rho, basis_e=rho.basis_e * d)),
                        ("h_prime", np.outer(d.conj(), d) * problem.h_prime),
                        ("h_eigvecs", d.conj()[:, None] * problem.h_eigvecs)]:
        object.__setattr__(rephased, name, value)
    own = prepare_problem(problem)
    assert gammas.shape == (2, 3)
    np.testing.assert_array_equal(gammas[0], evaluate(rephased, times).gamma_total)
    np.testing.assert_array_equal(gammas[1], evaluate(problem, times).gamma_total)
    for name in ("k", "kappas", "z"):
        np.testing.assert_array_equal(getattr(frame, name), getattr(own, name))
    rotated = evaluate(Problem(rephased.rho0, problem.hamiltonian_lab), times)
    for got, want, overlap in zip(gammas[0], rotated.gamma_total, rotated.overlap_magnitude):
        if not (math.isnan(got) and math.isnan(want)):
            assert circular_distance(got, want) * overlap <= 1e-13, (got, want, overlap)


def test_gauge_pair_rephases_only_the_eigenvectors(monkeypatch):
    """The problem is left as it is, and its Hamiltonian, checked when it
    was built, is not checked again."""
    problem = random_instance(4, 3, 12)
    rho = problem.rho0
    before = {name: getattr(rho, name).tobytes() for name in ("mat", "lambdas", "basis_e", "amps")}

    def refuse(a):
        raise AssertionError("a Hamiltonian was checked again")

    for module in (linalg, states):
        monkeypatch.setattr(module, "require_hermitian", refuse)
    gauge_pair(problem, [0.3, -2.0, 6.0, 1e-3], 1.7)
    monkeypatch.undo()
    assert problem.rho0 is rho
    assert {name: getattr(rho, name).tobytes() for name in before} == before
    for bad in ([0.0] * 3, [0.0, 0.0, np.nan, 0.0], [[0.0] * 4]):
        with pytest.raises(ValueError, match="4 finite angles"):
            gauge_pair(problem, bad, 1.7)


def test_total_phase_ignores_ancilla_kernel_freedom():
    # for singular states the ancilla Hamiltonian is free on the kernel;
    # the phase must not see it (checked empirically)
    rng = np.random.default_rng(81)
    problem = random_instance(4, 2, 82)
    frame = prepare_problem(problem)
    kernel = np.where(problem.rho0.lambdas < 1e-12)[0]
    assert kernel.size == 2
    x = np.zeros((4, 4), dtype=complex)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x[np.ix_(kernel, kernel)] = (block + dagger(block)) / 2
    shifted = diagonalizing_frame(frame.k + x)
    for t in (0.3, 1.7):
        u = evolution_operator(problem, t)
        gamma = total_geometric_phase(problem, frame, t, u)
        gamma2 = total_geometric_phase(problem, shifted, t, u)
        trace2 = uhlmann_trace_phase(problem, shifted, t, u)
        assert circular_distance(gamma, gamma2) <= 1e-9
        assert circular_distance(gamma, trace2) <= 1e-9


def test_phase_report_structure():
    batch = evaluate(bloch_x(0.6), 1.0)
    assert batch.t[0] == 1.0
    assert batch.visibility[0].shape == (2,)
    report = json.loads(next(reports_to_json(batch, "")))
    assert [c["j"] for c in report["components"]] == [0, 1]
    assert not batch.degenerate_spectrum_warning
    assert abs(batch.gamma_total[0] - batch.uhlmann[0]) <= 1e-9
    degenerate = evaluate(degenerate_qubit(), 1.0)
    assert degenerate.degenerate_spectrum_warning
