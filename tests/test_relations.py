"""The paper's symmetries as relations between two runs of the engine.

Each relation maps a problem and a time to another problem and time at
which a correct engine gives the same phases, or minus them. It needs no
second implementation, no ancilla and no reference (metamorphic testing:
Segura, Fraser, Sanchez and Ruiz-Cortes, IEEE TSE 42, 805 (2016)). For
all three headline phases and any t:

- joint basis change: (W rho W^dag, W H W^dag) gives the same phases,
  for any unitary W;
- complex conjugation: (rho*, H*) at t gives minus the phases at -t;
- sign of H: (rho, -H) at t gives the phases at -t;
- time scale: (rho, s H) at t / s gives the phases at t, for s > 0;
- product: (rho_1 (x) rho_2, H_1 (x) I + I (x) H_2) gives the sum of
  the two factors' phases, mod 2 pi.

Conjugation and scaling by a power of two hold bit for bit, and are
asserted so. The other bounds were set from draws 0 to 19,999 of draw()
below, a superset of the draws each test takes (one BLAS thread). Their
worst distances were 6.6e-12 (joint basis change), 1.2e-13 (sign of H)
and 3.2e-12 (time scale, s log-uniform in [0.1, 10]), each at a draw
whose interferometric sum was small (|sum| 6e-4 to 1.5e-3). Each bound
is that worst value times 10 or less, rounded down. The degenerate
states' bound was set the same way, from draws 0 to 9,999 of
degenerate_draw() (worst 8.0e-13). The product bounds were set from the
test's own draws, as each bound, times 10, rounded down.
"""

import math

import numpy as np

from mixedphase import Problem, circular_distance, evaluate, random_instance, \
    validate_density
from mixedphase.linalg import dagger

from cases import haar_unitary, product

HEADLINE = ("gamma_total", "uhlmann", "sjoqvist")
DRAWS = 200
JOINT_BOUND, SIGN_BOUND, SCALE_BOUND, DEGENERATE_BOUND = 5e-11, 1e-12, 3e-11, 5e-12
# the worst of the 200 product draws: 1.2e-13 (total and Uhlmann phases),
# 1.2e-12 (interferometric phase)
PRODUCT_BOUND, PRODUCT_SJOQVIST_BOUND = 1e-12, 1e-11


def draw(i):
    """Draw i: random_instance with n in 1..12 and rank in 1..n, 5 times
    in [-30, 30], a Haar W and a scale s log-uniform in [0.1, 10]."""
    rng = np.random.default_rng(i)
    n = int(rng.integers(1, 13))
    problem = random_instance(n, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**62)))
    times = rng.uniform(-30.0, 30.0, 5)
    return problem, times, haar_unitary(rng, n), math.exp(rng.uniform(math.log(0.1),
                                                                      math.log(10.0)))


def rotated(problem, w) -> Problem:
    """(W rho W^dag, W H W^dag), through the public constructors: the state
    is validated and decomposed again, in the basis LAPACK picks."""
    return Problem(validate_density(w @ problem.rho0.mat @ dagger(w)),
                   w @ problem.hamiltonian_lab @ dagger(w))


def worst_distance(a, b, names=HEADLINE) -> float:
    """The largest circular distance between the named phases of batches
    a and b, whose nans must sit in the same places."""
    worst = 0.0
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        np.testing.assert_array_equal(np.isnan(x), np.isnan(y), err_msg=name)
        live = ~np.isnan(x)
        worst = max([worst, *map(circular_distance, x[live], y[live])])
    return worst


def test_joint_basis_change_keeps_every_phase():
    worst = 0.0
    for i in range(DRAWS):
        problem, times, w, _ = draw(i)
        worst = max(worst, worst_distance(evaluate(problem, times),
                                          evaluate(rotated(problem, w), times)))
    assert worst <= JOINT_BOUND, worst


def test_complex_conjugation_negates_every_phase_bit_for_bit():
    """Equal with ==, nan in the same places: only the sign of a zero
    phase may differ (at n = 1, arctan2 of a +0 or -0 imaginary part)."""
    for i in range(DRAWS):
        problem, times, _, _ = draw(i)
        conjugate = Problem(validate_density(problem.rho0.mat.conj()),
                            problem.hamiltonian_lab.conj())
        got, want = evaluate(conjugate, times), evaluate(problem, -times)
        for name in HEADLINE:
            assert np.array_equal(getattr(got, name), -getattr(want, name),
                                  equal_nan=True), (i, name)


def test_sign_of_h_reverses_time():
    worst = 0.0
    for i in range(DRAWS):
        problem, times, _, _ = draw(i)
        worst = max(worst, worst_distance(evaluate(problem, times), evaluate(
            Problem(problem.rho0, -problem.hamiltonian_lab), -times)))
    assert worst <= SIGN_BOUND, worst


def test_time_scale_keeps_every_phase():
    """Bit for bit at s = 4, where H s, t / s and every product of the two
    are exact; to the bound for s in [0.1, 10]."""
    worst = 0.0
    for i in range(DRAWS):
        problem, times, _, s = draw(i)
        want = evaluate(problem, times)
        four = evaluate(Problem(problem.rho0, 4.0 * problem.hamiltonian_lab), times / 4.0)
        for name in HEADLINE:
            assert getattr(four, name).tobytes() == getattr(want, name).tobytes(), (i, name)
        worst = max(worst, worst_distance(want, evaluate(
            Problem(problem.rho0, s * problem.hamiltonian_lab), times / s)))
    assert worst <= SCALE_BOUND, worst


def degenerate_draw(i):
    """Draw i of a state with a repeated nonzero eigenvalue: n in 2..8, a
    level of multiplicity m in 2..n and n - m other random levels, in a
    Haar basis; random_instance's Hamiltonian, 5 times and a Haar W."""
    rng = np.random.default_rng(i)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, n + 1))
    levels = np.concatenate([np.full(m, rng.uniform(0.1, 1.0)), rng.uniform(0.0, 1.0, n - m)])
    v = haar_unitary(rng, n)
    rho = (v * (levels / levels.sum())) @ dagger(v)
    h = random_instance(n, n, int(rng.integers(0, 2**62))).hamiltonian_lab
    return Problem(validate_density((rho + dagger(rho)) / 2), h), rng.uniform(-30.0, 30.0, 5), \
        haar_unitary(rng, n)


def test_joint_basis_change_at_degenerate_states_keeps_the_total_phase():
    """gamma_total and uhlmann only. Inside a degenerate eigenspace of rho
    the eigenbasis is the eigensolver's choice, and a basis change moves
    that choice. The total phase does not depend on it, but the
    interferometric phase reads each eigenvector's own h'_jj, so sjoqvist
    is not unique there: on these draws it moved by up to pi. Every draw
    is flagged degenerate_spectrum_warning."""
    worst = 0.0
    for i in range(DRAWS):
        problem, times, w = degenerate_draw(i)
        batch = evaluate(problem, times)
        assert batch.degenerate_spectrum_warning
        worst = max(worst, worst_distance(batch, evaluate(rotated(problem, w), times),
                                          ("gamma_total", "uhlmann")))
    assert worst <= DEGENERATE_BOUND, worst


def product_draw(i):
    """Draw i of a product system: two random_instance factors, each with
    n in 1..8 and rank in 1..n, and 4 times in [-20, 20]."""
    rng = np.random.default_rng(i)
    factors = []
    for _ in range(2):
        n = int(rng.integers(1, 9))
        factors.append(random_instance(n, int(rng.integers(1, n + 1)),
                                       int(rng.integers(0, 2**62))))
    return factors, rng.uniform(-20.0, 20.0, 4)


def test_a_product_system_adds_its_factors_phases():
    """Every phase of rho_1 (x) rho_2 under H_1 (x) I + I (x) H_2 is the
    sum of its factors' phases: the purification, K on the support and
    each phase's sum factor. The interferometric sum factors only in the
    product eigenbasis, which the eigensolver picks only where the
    state's support spectrum is not degenerate, so sjoqvist is held to it
    on unflagged draws. The repeated zeros of a rank-deficient product
    raise no flag, and no draw here is flagged. rho_1 (x) rho_1, whose
    cross terms coincide, is left out: its sjoqvist is the eigensolver's
    choice."""
    worst = dict.fromkeys(HEADLINE, 0.0)
    for i in range(DRAWS):
        factors, times = product_draw(i)
        whole = evaluate(product(*factors), times)
        assert not whole.degenerate_spectrum_warning, i
        first, second = (evaluate(factor, times) for factor in factors)
        for name in HEADLINE:
            got, want = getattr(whole, name), getattr(first, name) + getattr(second, name)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
            live = ~np.isnan(got)
            worst[name] = max([worst[name], *map(circular_distance, got[live], want[live])])
    assert max(worst["gamma_total"], worst["uhlmann"]) <= PRODUCT_BOUND, worst
    assert worst["sjoqvist"] <= PRODUCT_SJOQVIST_BOUND, worst
