"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them on success)."""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from mixedphase import (
    Problem,
    circular_distance,
    discrete_uhlmann_holonomy,
    load_problem,
    pancharatnam_phase,
    prepare_problem,
    random_instance,
    validate_density,
)
from mixedphase.angles import principal_angle
from mixedphase.linalg import dagger, frobenius
from mixedphase.transport import (
    ancilla_equation_residual,
    diagonalizing_frame,
    transport_residual,
)

from literal import (
    component_report,
    component_state,
    evolution_operator,
    parallel_residual,
    sjoqvist_phase,
    total_geometric_phase,
    uhlmann_trace_phase,
)

from cases import bloch_x, problem_file, pure_plus

TIMES = (0.3, 1.7, 5.0)
DIMS = (2, 3, 4, 6)
PER_DIM = 50  # 200 instances total


def _criterion(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.cache
def _instances():
    out = []
    for n in DIMS:
        for i in range(PER_DIM):
            problem = random_instance(n, n, 1000 * n + i)
            out.append((problem, prepare_problem(problem)))
    return out


def test_criterion_1_total_phase_equals_trace_phase():
    worst = 0.0
    for problem, frame in _instances():
        for t in TIMES:
            u = evolution_operator(problem, t)
            gamma = total_geometric_phase(problem, frame, t, u)
            trace_phase = uhlmann_trace_phase(problem, frame, t, u)
            worst = max(worst, circular_distance(gamma, trace_phase))
    _criterion(1, worst <= 1e-9,
               f"component-sum vs trace-formula phase: max circular distance "
               f"{worst:.2e} over 200 instances x 3 times (tol 1e-9)")


def test_criterion_2_ancilla_equation_solver():
    worst_resid = worst_herm = 0.0
    for problem, frame in _instances():
        resid = ancilla_equation_residual(problem.amps, problem.h_prime, frame.k)
        worst_resid = max(worst_resid, resid / max(1.0, frobenius(problem.h_prime)))
        worst_herm = max(worst_herm, frobenius(frame.k - dagger(frame.k)))
    ok = worst_resid <= 1e-10 and worst_herm <= 1e-12
    _criterion(2, ok,
               f"ancilla-equation residual max {worst_resid:.2e} (tol 1e-10), "
               f"Hermiticity defect max {worst_herm:.2e} (tol 1e-12)")


def test_criterion_3_parallel_transport():
    worst = worst_exact = 0.0
    for problem, frame in _instances():
        exact = transport_residual(problem.amps, problem.h_prime, frame)
        worst_exact = max(worst_exact, exact / max(1.0, frobenius(problem.h_prime)))
        q = frame.q
        for t in (0.3, 1.7):
            for j in range(problem.dim):
                if q[j] > 1e-10:
                    worst = max(worst, parallel_residual(problem, frame, j, t, 1e-6))
    # negative control: zeroed ancilla Hamiltonian on a noncommuting
    # full-rank mixed instance
    problem = random_instance(3, 3, 11)
    wrong = diagonalizing_frame(np.zeros((3, 3), dtype=complex), problem.amps)
    control = max(parallel_residual(problem, wrong, j, 0.3, 1e-6) for j in range(3))
    ok = worst <= 1e-6 and worst_exact <= 1e-13 and control > 1e-3
    _criterion(3, ok,
               f"transport residual max {worst:.2e} (tol 1e-6, delta 1e-6); "
               f"energy condition max {worst_exact:.2e} (tol 1e-13); "
               f"zeroed-ancilla control {control:.2e} (must exceed 1e-3)")


def test_criterion_4_holonomy_oracle_convergence():
    t_end = 1.7
    specs = [(2, 2, 8100 + i) for i in range(10)]
    specs += [(3, 3, 8200 + i) for i in range(10)]
    specs += [(n, r, 8300 + 10 * n + r) for n in range(2, 7) for r in range(1, n)]
    worst_final = worst_ratio = worst_richardson = 0.0
    shrinks = True
    for spec in specs:
        problem = random_instance(*spec)
        gamma = total_geometric_phase(problem, prepare_problem(problem), t_end,
                                      evolution_operator(problem, t_end))
        hols = {n: discrete_uhlmann_holonomy(problem, t_end, n)
                for n in (256, 512, 1024, 2048, 4096)}
        errs = [circular_distance(h, gamma) for h in hols.values()]
        worst_final = max(worst_final, errs[-1])
        for a, b in zip(errs, errs[1:]):
            shrinks = shrinks and b <= a * 1.05 + 1e-12
            # second order: each doubling divides the error by 4, until
            # it nears the roundoff floor (about 1e-13 at these sizes)
            if b >= 1e-10:
                worst_ratio = max(worst_ratio, abs(a / b - 4.0))
        shrinks = shrinks and errs[-1] <= max(errs[0] / 4, 1e-12)
        # one Richardson step cancels the second-order term
        richardson = hols[2048] + principal_angle(hols[2048] - hols[1024]) / 3
        worst_richardson = max(worst_richardson, circular_distance(richardson, gamma))
    ok = (worst_final <= 1e-7 and shrinks and worst_ratio <= 0.05
          and worst_richardson <= 1e-11)
    _criterion(4, ok,
               f"holonomy over {len(specs)} instances of ranks 1 to n: error at "
               f"4096 steps max {worst_final:.2e} (tol 1e-7); doubling ratio off 4 "
               f"by {worst_ratio:.1e} (tol 0.05), shrinking: {shrinks}; Richardson "
               f"(4 h(2048) - h(1024))/3 off the engine by {worst_richardson:.1e} "
               f"(tol 1e-11)")


def test_criterion_5_pure_state_limit():
    t = 1.1
    worst = 0.0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        problem = random_instance(n, 1, 8500 + i)
        u = evolution_operator(problem, t)
        gamma = total_geometric_phase(problem, prepare_problem(problem), t, u)
        sjo = sjoqvist_phase(problem, t, u)
        psi = problem.rho0.basis_e[:, 0]
        panch = pancharatnam_phase(psi, problem.hamiltonian_lab, t)
        worst = max(worst, circular_distance(gamma, sjo),
                    circular_distance(gamma, panch), circular_distance(sjo, panch))
    # concrete case: equatorial great circle accumulates half its solid angle
    plus = pure_plus()
    t_cyc = 2 * np.pi
    gamma_plus = total_geometric_phase(plus, prepare_problem(plus), t_cyc,
                                       evolution_operator(plus, t_cyc))
    plus_err = circular_distance(gamma_plus, np.pi)
    ok = worst <= 1e-8 and plus_err <= 1e-9
    _criterion(5, ok,
               f"pure-state limit: max pairwise distance {worst:.2e} over 50 "
               f"rank-1 instances (tol 1e-8); great-circle case off pi by "
               f"{plus_err:.2e} (tol 1e-9)")


def test_criterion_6_definitions_diverge_for_mixed_states():
    r = 0.6
    problem = bloch_x(r)
    t = 2 * np.pi
    u = evolution_operator(problem, t)
    gamma = total_geometric_phase(problem, prepare_problem(problem), t, u)
    sjo = sjoqvist_phase(problem, t, u)
    hol = discrete_uhlmann_holonomy(problem, t, 4096)
    closed = float(np.angle(-np.cos(np.pi * np.sqrt(1 - r**2))))
    split = circular_distance(gamma, sjo)
    ok = (circular_distance(gamma, 0.0) <= 1e-12
          and circular_distance(sjo, np.pi) <= 1e-12
          and abs(split - np.pi) <= 1e-12
          and circular_distance(hol, gamma) <= 1e-12
          and circular_distance(gamma, closed) <= 1e-12)
    _criterion(6, ok,
               f"r=0.6 cyclic point: total phase {gamma:+.2e}, interferometric "
               f"{sjo:+.6f}, split {split:.6f} (pi within 1e-12), holonomy "
               f"{hol:+.2e} (confirms within 1e-12)")


def test_criterion_7_structural_invariants():
    failures = []
    # maximally mixed: zero phase for all sampled times and Hamiltonians
    rng = np.random.default_rng(97)
    for n in (2, 3):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        problem = Problem(validate_density(np.eye(n) / n), (a + dagger(a)) / 2)
        frame = prepare_problem(problem)
        for t in np.linspace(0.2, 6.0, 7):
            u = evolution_operator(problem, t)
            g = total_geometric_phase(problem, frame, t, u)
            if circular_distance(g, 0.0) > 1e-9:
                failures.append(f"maximally mixed phase {g:.2e} at t={t:.2f}")
    # commuting state and Hamiltonian: both phases vanish
    q = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    rho = q @ np.diag([0.4, 0.3, 0.2, 0.1]) @ dagger(q)
    h = q @ np.diag([1.2, -0.7, 0.3, 0.9]) @ dagger(q)
    problem = Problem(validate_density(rho), h)
    frame = prepare_problem(problem)
    for t in TIMES:
        u = evolution_operator(problem, t)
        g = total_geometric_phase(problem, frame, t, u)
        s = sjoqvist_phase(problem, t, u)
        if circular_distance(g, 0.0) > 1e-9 or circular_distance(s, 0.0) > 1e-9:
            failures.append(f"commuting instance phases {g:.2e}/{s:.2e} at t={t}")
    # gauge invariance under eigenvector rephasing
    worst_gauge = 0.0
    for problem, frame in _instances()[::10]:
        t = 1.7
        gamma = total_geometric_phase(problem, frame, t, evolution_operator(problem, t))
        rho = problem.rho0
        rephased = replace(rho, basis_e=rho.basis_e * np.exp(1j * rng.uniform(0, 2 * np.pi,
                                                                              problem.dim)))
        problem2 = Problem(rephased, problem.hamiltonian_lab)
        gamma2 = total_geometric_phase(problem2, prepare_problem(problem2), t,
                                       evolution_operator(problem2, t))
        worst_gauge = max(worst_gauge, circular_distance(gamma, gamma2))
    if worst_gauge > 1e-9:
        failures.append(f"gauge shift {worst_gauge:.2e}")
    # weights, visibilities, and completeness of the decomposition
    worst_q = worst_nu = worst_rebuild = 0.0
    for problem, frame in _instances()[::7]:
        worst_q = max(worst_q, abs(frame.q.sum() - 1.0))
        for t in TIMES:
            u = evolution_operator(problem, t)
            for j in range(problem.dim):
                rep = component_report(problem, frame, j, t, u)
                worst_nu = max(worst_nu, rep.visibility - (1.0 + 1e-10))
            total = sum(np.outer(chi, chi.conj()) for chi in
                        (component_state(j, u, problem.amps, frame.z)
                         for j in range(problem.dim)))
            rho_t = u @ np.diag(problem.lambdas) @ dagger(u)
            worst_rebuild = max(worst_rebuild, frobenius(total - rho_t))
    if worst_q > 1e-10:
        failures.append(f"weight sum off by {worst_q:.2e}")
    if worst_nu > 0:
        failures.append(f"visibility above bound by {worst_nu:.2e}")
    if worst_rebuild > 1e-10:
        failures.append(f"decomposition rebuild residual {worst_rebuild:.2e}")
    _criterion(7, not failures,
               "structural invariants (maximally mixed, commuting, gauge, "
               "weights, visibility, completeness) all hold"
               + ("" if not failures else "; " + "; ".join(failures)))


def test_criterion_8_cli_contract(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    verify = subprocess.run(
        [sys.executable, "-m", "mixedphase", "verify", "--dim", "4", "--trials",
         "50", "--seed", "7", "--tol", "1e-9"],
        capture_output=True, text=True, env=env)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2, "rho": [[[1.0, 0.0]] * 3] * 3,
                               "hamiltonian": [[[0.0, 0.0]] * 2] * 2}))
    malformed = subprocess.run(
        [sys.executable, "-m", "mixedphase", "compute", "--input", str(bad),
         "-t", "1.0"], capture_output=True, text=True, env=env)
    problem = random_instance(4, 4, 99)
    back = load_problem(problem_file(tmp_path, problem, "roundtrip.json"))
    exact = (np.array_equal(back.rho0.mat, problem.rho0.mat)
             and np.array_equal(back.hamiltonian_lab, problem.hamiltonian_lab))
    # an input error: nothing on stdout, one error line on stderr
    one_line = (malformed.stdout == "" and malformed.stderr.startswith("error: ")
                and len(malformed.stderr.splitlines()) == 1)
    ok = verify.returncode == 0 and malformed.returncode == 2 and one_line and exact
    _criterion(8, ok,
               f"verify exit {verify.returncode} (want 0), malformed input exit "
               f"{malformed.returncode} (want 2) with one error line: {one_line}, "
               f"round-trip exact: {exact}")
