"""Batch engine tests: evaluate() against the literal per-t definitions,
each fed an evolution operator built independently of the engine's
cached eigendecomposition, and the kernel components evaluate restores.

Complex quantities are compared absolutely. A phase is compared as its
circular distance times the magnitude of the complex number it is the
argument of: roundoff moves that number by a fixed absolute amount, so
only the scaled distance is held to a fixed bound near nodal points.
"""

import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedphase import (
    circular_distance,
    evaluate,
    random_instance,
)
from mixedphase.angles import angle_or_nan
from mixedphase.linalg import dagger, unitary_from_hamiltonian
from mixedphase.tolerances import DEFAULT_TOL
from mixedphase.serialize import sweep_header, sweep_to_csv, sweep_to_json

from literal import (
    component_report,
    overlap_kernel,
    sjoqvist_phase,
    support_evolution,
    total_geometric_phase,
    uhlmann_trace_phase,
)

from cases import bloch_x

TOL = 1e-12


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
    return random_instance(n, rank, seed), times + [0.0, times[0]]


def support_columns(batch, frame) -> np.ndarray:
    """The columns of batch that are frame's r components, in its order,
    after checking its n - r others, the kernel's: each is exactly
    q = 0, visibility = gamma = total_phase = 0 and dyn_phase = t * 0.0,
    and they stand together where ascending kappa puts 0."""
    n, r = batch.q.size, frame.kappas.size
    at = int(np.count_nonzero(frame.kappas < 0.0))
    kernel = np.arange(at, at + n - r)
    support = np.setdiff1d(np.arange(n), kernel)
    assert np.flatnonzero(batch.q == 0.0).tolist() == kernel.tolist()
    zeros = np.zeros((len(batch), n - r))
    for name in ("visibility", "gamma", "total_phase"):
        assert getattr(batch, name)[:, kernel].tobytes() == zeros.tobytes(), name
    assert batch.dyn_phase[:, kernel].tobytes() == (batch.t[:, None] * zeros).tobytes()
    assert batch.dyn_phase[:, support].tobytes() == (batch.t[:, None] * frame.kappas).tobytes()
    return support


@settings(max_examples=60, deadline=None)
@given(instances())
def test_batch_matches_literal_definitions(case):
    problem, times = case
    frame = problem.frame
    batch = evaluate(problem, times)
    assert len(batch) == len(times)
    support = support_columns(batch, frame)
    assert np.array_equal(batch.q[support], np.abs(frame.z) ** 2 @ problem.amps**2)
    for i, t in enumerate(times):
        u = support_evolution(problem, t)
        for j, col in enumerate(support):
            m = overlap_kernel(problem, frame, j, u)
            rep = component_report(problem, frame, j, t, u)
            assert abs(batch.visibility[i, col] - rep.visibility) * rep.q <= TOL
            assert batch.dyn_phase[i, col] == rep.dyn_phase
            assert_phase_close(batch.gamma[i, col], rep.gamma, abs(m), f"gamma_{j}")
            assert_phase_close(batch.total_phase[i, col], rep.total_phase, abs(m),
                               f"total_phase_{j}")
        magnitude = batch.overlap_magnitude[i]
        assert_phase_close(batch.gamma_total[i],
                           total_geometric_phase(problem, frame, t, u), magnitude,
                           "gamma_total")
        # the literal trace phase builds exp(-iKt) from K itself
        assert_phase_close(batch.uhlmann[i],
                           uhlmann_trace_phase(problem, frame, t, u), magnitude, "uhlmann")
        sjo_magnitude = abs(np.sum(problem.lambdas * np.diag(u)
                                   * np.exp(1j * np.diag(problem.h_prime).real * t)))
        assert_phase_close(batch.sjoqvist[i], sjoqvist_phase(problem, t, u), sjo_magnitude,
                           "sjoqvist")


def test_nodal_point_gives_nan_in_the_literal_columns():
    # r = 0.6 along x about z: the overlap crosses zero at t = 5 pi
    problem = bloch_x(0.6)
    frame = problem.frame
    t = 5 * np.pi
    batch = evaluate(problem, [1.0, t])
    u = unitary_from_hamiltonian(problem.h_prime, t)
    literal = {
        "gamma_total": total_geometric_phase(problem, frame, t, u),
        "uhlmann": uhlmann_trace_phase(problem, frame, t, u),
        "sjoqvist": sjoqvist_phase(problem, t, u),
    }
    assert all(math.isnan(v) for v in literal.values())
    for name in literal:
        column = getattr(batch, name)
        assert not math.isnan(column[0]) and math.isnan(column[1]), name
    assert batch.overlap_magnitude[1] <= 1e-12
    assert not np.isnan(batch.gamma).any() and not np.isnan(batch.visibility).any()


def test_evaluate_rejects_non_finite_times():
    problem = bloch_x(0.6)
    for bad in ([np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError):
            evaluate(problem, bad)


@pytest.mark.parametrize("times", [np.zeros((2, 2)), [[0.0, 1.0]], np.ones((1, 1, 3))])
def test_evaluate_refuses_times_of_two_or_more_dimensions(times):
    """A 2-D grid is not read as its rows run together: a (2, 2) array
    would otherwise be a batch of four times."""
    with pytest.raises(ValueError, match=re.escape(
            f"times must be a scalar or a 1-D sequence, got shape {np.shape(times)}")):
        evaluate(bloch_x(0.6), times)
    assert len(evaluate(bloch_x(0.6), np.zeros(4))) == 4


def test_sweep_csv_header_and_column_order():
    batch = evaluate(bloch_x(0.6), [0.0, 1.0, 5 * np.pi])
    out = io.StringIO()
    sweep_to_csv(batch, out)
    lines = out.getvalue().splitlines()
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


def eager_columns(problem, times):
    """Every PhaseBatch column by the expressions evaluate uses, written
    out here once more: the reference for evaluate. The r support columns
    are computed; the kernel's n - r are q = kappa = 0 and the sentinels,
    spliced in where ascending kappa puts 0."""
    t = np.asarray(times, dtype=float).reshape(-1)
    frame, q_h, amps = problem.frame, problem.h_eigvecs, problem.amps
    weights = np.abs(frame.z) ** 2 @ amps**2
    e = np.exp(-1j * np.outer(t, problem.h_eigvals))
    d = np.exp(-1j * np.outer(t, frame.kappas))
    p = np.abs(dagger(q_h) @ (frame.z * amps).T) ** 2
    overlaps = e @ p
    rotated = overlaps * d
    total = rotated.sum(axis=1)
    trace = np.einsum("ta,ta->t", e, d @ p.T)
    p_i = (np.abs(q_h) ** 2).T * problem.lambdas
    d_i = np.exp(-1j * np.outer(t, -np.diag(problem.h_prime).real))
    interferometric = ((e @ p_i) * d_i).sum(axis=1)
    live = weights > DEFAULT_TOL.weight
    energy = max(np.abs(problem.h_eigvals).max(), np.abs(frame.kappas).max())
    at, kernel = int(np.count_nonzero(frame.kappas < 0.0)), problem.dim - amps.size

    def spliced(a):
        return np.concatenate([a[..., :at], np.zeros(a.shape[:-1] + (kernel,)), a[..., at:]],
                              axis=-1)

    return {
        "t": t,
        "gamma_total": angle_or_nan(total),
        "uhlmann": angle_or_nan(trace),
        "sjoqvist": angle_or_nan(interferometric),
        "overlap_magnitude": np.abs(total),
        "sjoqvist_magnitude": np.abs(interferometric),
        "q": spliced(weights),
        "visibility": spliced(np.divide(np.abs(overlaps), weights,
                                        out=np.zeros(overlaps.shape), where=live)),
        "gamma": spliced(np.where(live, np.angle(rotated), 0.0)),
        "dyn_phase": np.outer(t, spliced(frame.kappas)),
        "total_phase": spliced(np.where(live, np.angle(overlaps), 0.0)),
        "resolution": np.abs(t) * energy * np.finfo(float).eps,
    }


SPLIT_CASES = {
    # nodal at 5 pi, where every headline phase is nan
    "nodal qubit": (bloch_x(0.6), [5 * np.pi, -5 * np.pi, 1.0, 5 * np.pi, 0.0]),
    # rank 2 of 5: three zero-weight components carry the sentinels
    "rank-deficient": (random_instance(5, 2, 31), [-3.5, 2.0, -3.5, 0.0, 11.25]),
    "full rank": (random_instance(6, 6, 32), [-0.25, -0.25, 7.0]),
    # full rank with a least eigenvalue of 3.6e-8
    "tiny eigenvalue": (random_instance(16, 16, 351), [0.5, -2.0, 9.0]),
}
COLUMNS = list(eager_columns(*SPLIT_CASES["nodal qubit"]))


@pytest.mark.parametrize("first", COLUMNS)
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_every_column_matches_the_eager_expressions_in_any_read_order(case, first):
    problem, times = SPLIT_CASES[case]
    want = eager_columns(problem, times)
    batch = evaluate(problem, times)
    for name in [first] + COLUMNS:
        got = getattr(batch, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name  # signed zeros and nans too
    if case == "nodal qubit":
        assert np.isnan(want["gamma_total"]).sum() == 3 and np.isnan(want["uhlmann"]).any()
    if case == "rank-deficient":
        assert (want["q"] <= DEFAULT_TOL.weight).sum() == 3


def test_every_array_of_a_batch_is_real():
    """The batch holds report columns only; the complex m_j(t) they are
    read from is released when evaluate returns."""
    problem, times = SPLIT_CASES["rank-deficient"]
    batch = evaluate(problem, times)
    arrays = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)
              if isinstance(getattr(batch, f.name), np.ndarray)}
    assert set(arrays) == set(COLUMNS)
    for name, column in arrays.items():
        assert column.dtype == np.float64, name


@pytest.mark.parametrize("bad, message", [
    ([0.0, np.nan], "times must be finite"),
    (np.inf, "times must be finite"),
    ([1.0, 1e17], "time 1e+17 is past the resolvable range"),  # |t| E = 5e16 > 2**52
])
def test_evaluate_on_a_solved_frame_raises_as_on_a_fresh_problem(bad, message):
    """evaluate checks its times in the same place, before any table,
    whether the problem's frame is solved by this call or was solved
    before and injected (as verify's residual checks leave it solved)."""
    errors = []
    for solved in (False, True):
        problem = bloch_x(0.6)
        if solved:
            vars(problem)["frame"] = bloch_x(0.6).frame
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            evaluate(problem, bad)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("dim, rank, seed", [(5, 2, 31), (16, 3, 3)])
def test_kernel_components_are_exact_zeros_in_every_report(dim, rank, seed):
    """The n - r kernel components of a rank-r state: exactly q = 0,
    visibility = gamma = total_phase = 0 and dyn_phase = t * 0.0 (signed
    as t), where ascending kappa puts 0; the CSV still writes n q_j,
    nu_j, gamma_j triples and the JSON n components."""
    problem = random_instance(dim, rank, seed)
    times = [-3.5, 0.0, 2.0, -0.0, 11.25]
    batch = evaluate(problem, times)
    assert problem.amps.size == rank and batch.q.shape == (dim,)
    support = support_columns(batch, problem.frame)
    assert support.size == rank
    out = io.StringIO()
    sweep_to_csv(batch, out)
    header, *rows = out.getvalue().splitlines()
    assert header == sweep_header(dim) and len(rows) == len(times)
    assert all(len(row.split(",")) == 5 + 3 * dim for row in rows)
    out = io.StringIO()
    sweep_to_json(batch, out)
    reports = json.loads(out.getvalue())
    assert [len(report["components"]) for report in reports] == [dim] * len(times)
    kernel = np.setdiff1d(np.arange(dim), support)
    for report, t in zip(reports, times):
        for j in kernel:
            c = report["components"][j]
            assert (c["q"], c["visibility"], c["gamma"], c["total_phase"]) == (0, 0, 0, 0)
            assert math.copysign(1.0, c["dyn_phase"]) == math.copysign(1.0, t)


def assert_row_of(lone, batch, i):
    """Every column of the batch of one time, lone, equals row i of batch
    bit for bit (nan in the same places); q and the scalars are per batch."""
    for f in dataclasses.fields(lone):
        got, want = getattr(lone, f.name), getattr(batch, f.name)
        if isinstance(got, np.ndarray) and f.name != "q":
            got, want = got[0], want[i]
        assert np.array_equal(got, want, equal_nan=True), (f.name, i)


AS_ONE_TIME = [float, np.asarray, lambda t: [t]]  # a float, a 0-d array, a one-element list


def assert_lone_rows(problem, grid):
    """Each time of the grid, evaluated alone in each form, is its row in
    the grid and in a batch of two, bit for bit."""
    batch = evaluate(problem, grid)
    for i, t in enumerate(grid):
        pair = evaluate(problem, [grid[i - 1], t])
        assert_row_of(evaluate(problem, grid[i - 1]), pair, 0)
        for form in AS_ONE_TIME:
            lone = evaluate(problem, form(t))
            assert_row_of(lone, batch, i)
            assert_row_of(lone, pair, 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 16), data=st.data(), seed=st.integers(0, 2**32 - 1),
       grid=st.lists(st.floats(-50.0, 50.0), min_size=11, max_size=11))
def test_a_single_time_is_its_row_in_any_batch(n, data, seed, grid):
    """A one-row product would run numpy's matrix-vector code, which rounds
    otherwise: evaluate runs every product as of two or more rows, so a
    lone t, given in any form, is bit for bit its row in any batch."""
    rank = data.draw(st.sampled_from(sorted({1, max(1, n // 2), n})))
    assert_lone_rows(random_instance(n, rank, seed), grid)


@pytest.mark.parametrize("dim, rank", [(64, 64), (64, 8)])
def test_a_single_time_is_its_row_in_any_batch_at_n_64(dim, rank):
    assert_lone_rows(random_instance(dim, rank, 0), np.linspace(-50.0, 50.0, 11))


def test_the_batch_owns_its_times():
    """evaluate keeps a read-only copy of the times: a later write to the
    caller's array moves no row's time, and the batch's own refuses one."""
    times = np.linspace(0, 1, 3)
    batch = evaluate(random_instance(3, 3, 0), times)
    times[1] = 99
    assert batch.t.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        batch.t[0] = 1.0
