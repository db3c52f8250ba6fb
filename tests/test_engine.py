"""Batch engine tests: evaluate() against the literal per-t definitions,
each fed an evolution operator built independently of the engine's
cached eigendecomposition.

Complex quantities are compared absolutely. A phase is compared as its
circular distance times the magnitude of the complex number it is the
argument of: roundoff moves that number by a fixed absolute amount, so
only the scaled distance is held to a fixed bound near nodal points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedphase import (
    Problem,
    RandomInstanceSpec,
    VanishingOverlap,
    circular_distance,
    component_report,
    evaluate,
    overlap_kernel,
    prepare_problem,
    random_instance,
    sjoqvist_phase,
    total_geometric_phase,
    uhlmann_trace_phase,
    unitary_from_hamiltonian,
    validate_density,
)
from mixedphase.serialize import sweep_header, sweep_to_csv

TOL = 1e-12
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bloch_x_prep(r):
    return prepare_problem(Problem(validate_density((np.eye(2) + r * SX) / 2), 0.5 * SZ))


def literal_or_nan(fn, *args):
    try:
        return fn(*args)
    except VanishingOverlap:
        return math.nan


def assert_phase_close(got, want, magnitude, label):
    if math.isnan(want):
        assert math.isnan(got), f"{label}: got {got}, want nan"
        return
    assert circular_distance(got, want) * magnitude <= TOL, (label, got, want, magnitude)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 16))
    rank = draw(st.sampled_from(sorted({n, max(1, n // 2), 1})))
    seed = draw(st.integers(0, 2**32 - 1))
    times = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=5))
    # t = 0 and a repeated time in every batch
    return random_instance(RandomInstanceSpec(n, rank, seed)), times + [0.0, times[0]]


@settings(max_examples=60, deadline=None)
@given(instances())
def test_batch_matches_literal_definitions(case):
    problem, times = case
    prep = prepare_problem(problem)
    batch = evaluate(prep, times)
    assert len(batch) == len(times)
    assert np.array_equal(batch.q, prep.weights)
    for i, t in enumerate(times):
        u = unitary_from_hamiltonian(prep.h_prime, t)
        for j in range(prep.dim):
            m = overlap_kernel(prep, j, u)
            assert abs(batch.overlaps[i, j] - m) <= TOL
            rep = component_report(prep, j, t, u)
            assert abs(batch.visibility[i, j] - rep.visibility) * rep.q <= TOL
            assert batch.dyn_phase[i, j] == rep.dyn_phase
            assert_phase_close(batch.gamma[i, j], rep.gamma, abs(m), f"gamma_{j}")
            assert_phase_close(batch.total_phase[i, j], rep.total_phase, abs(m),
                               f"total_phase_{j}")
        magnitude = batch.overlap_magnitude[i]
        assert_phase_close(batch.gamma_total[i],
                           literal_or_nan(total_geometric_phase, prep, t, u),
                           magnitude, "gamma_total")
        # the literal trace phase builds exp(-iKt) from K itself
        assert_phase_close(batch.uhlmann[i],
                           literal_or_nan(uhlmann_trace_phase, prep, t, u),
                           magnitude, "uhlmann")
        sjo_magnitude = abs(np.sum(prep.spectrum.lambdas * np.diag(u)
                                   * np.exp(1j * np.diag(prep.h_prime).real * t)))
        assert_phase_close(batch.sjoqvist[i],
                           literal_or_nan(sjoqvist_phase, prep, t, u),
                           sjo_magnitude, "sjoqvist")


def test_nodal_point_gives_nan_in_the_literal_columns():
    # r = 0.6 along x about z: the overlap crosses zero at t = 5 pi
    prep = bloch_x_prep(0.6)
    t = 5 * np.pi
    batch = evaluate(prep, [1.0, t])
    u = unitary_from_hamiltonian(prep.h_prime, t)
    literal = {
        "gamma_total": literal_or_nan(total_geometric_phase, prep, t, u),
        "uhlmann": literal_or_nan(uhlmann_trace_phase, prep, t, u),
        "sjoqvist": literal_or_nan(sjoqvist_phase, prep, t, u),
    }
    assert all(math.isnan(v) for v in literal.values())
    for name in literal:
        column = getattr(batch, name)
        assert not math.isnan(column[0]) and math.isnan(column[1]), name
    assert batch.overlap_magnitude[1] <= 1e-12
    assert not np.isnan(batch.gamma).any() and not np.isnan(batch.visibility).any()


def test_evaluate_rejects_non_finite_times():
    prep = bloch_x_prep(0.6)
    for bad in ([np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError):
            evaluate(prep, bad)


def test_sweep_csv_header_and_column_order():
    prep = bloch_x_prep(0.6)
    batch = evaluate(prep, [0.0, 1.0, 5 * np.pi])
    lines = sweep_to_csv(batch).splitlines()
    assert lines[0] == sweep_header(2) == (
        "t,gamma_total,uhlmann,sjoqvist,overlap_magnitude,"
        "q_0,nu_0,gamma_0,q_1,nu_1,gamma_1")
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        want = [batch.t[i], batch.gamma_total[i], batch.uhlmann[i], batch.sjoqvist[i],
                batch.overlap_magnitude[i]]
        for j in range(2):
            want += [batch.q[j], batch.visibility[i, j], batch.gamma[i, j]]
        got = [float(x) for x in line.split(",")]
        np.testing.assert_array_equal(got, want)  # repr round-trips; nan == nan here
