"""Problem-file and report serialization tests."""

import functools
import gc
import io
import json
import math
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixedphase import (
    DEFAULT_TOL,
    NotPSD,
    Problem,
    ProblemFileError,
    evaluate,
    load_problem,
    prepare_problem,
    random_instance,
    validate_density,
)
from mixedphase import serialize
from mixedphase.linalg import close_eigenvalues
from mixedphase.oracles import discrete_uhlmann_holonomy
from mixedphase.serialize import (
    _matrix_from_pairs,
    compare_to_json,
    problem_to_dict,
    reports_to_json,
    sweep_header,
    sweep_to_csv,
    sweep_to_json,
)

from cases import bloch_x, degenerate_qubit, entries_file, problem_file, run


def test_round_trip_is_bitwise_exact(tmp_path):
    prob = random_instance(3, 3, 5)
    # require_hermitian's copy keeps a Fortran-ordered input's order
    fortran = Problem(validate_density(np.asfortranarray(prob.rho0.mat)),
                      np.asfortranarray(prob.hamiltonian_lab))
    assert fortran.hamiltonian_lab.flags.f_contiguous
    for p in (prob, fortran):
        back = load_problem(problem_file(tmp_path, p, "instance.json"))
        assert np.array_equal(back.rho0.mat, prob.rho0.mat)
        assert np.array_equal(back.hamiltonian_lab, prob.hamiltonian_lab)


def loaded(tmp_path, data):
    """load_problem of a file in tmp_path that holds data as JSON."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return load_problem(path)


def test_shape_mismatch_names_the_field(tmp_path):
    data = problem_to_dict(random_instance(3, 3, 6))
    data["dimension"] = 2
    with pytest.raises(ProblemFileError, match="rho.*2 rows"):
        loaded(tmp_path, data)


def test_missing_key_and_bad_entries(tmp_path):
    with pytest.raises(ProblemFileError, match="hamiltonian"):
        loaded(tmp_path, {"dimension": 1, "rho": [[[1.0, 0.0]]]})
    with pytest.raises(ProblemFileError, match=r"\[re, im\]"):
        loaded(tmp_path, {"dimension": 1, "rho": [[1.0]], "hamiltonian": [[[0.0, 0.0]]]})
    with pytest.raises(ProblemFileError, match="dimension"):
        loaded(tmp_path, {"dimension": 0, "rho": [], "hamiltonian": []})


NOT_PSD = {
    "dimension": 2,
    "rho": [[[0.6, 0.0], [0.6, 0.0]], [[0.6, 0.0], [0.4, 0.0]]],
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}


def test_validation_errors_propagate(tmp_path):
    with pytest.raises(NotPSD):
        loaded(tmp_path, NOT_PSD)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    # the second file nests deeper than the parser's recursion limit
    for text in ("{not json", "[" * 200_000):
        path.write_text(text)
        with pytest.raises(ProblemFileError, match="invalid JSON"):
            load_problem(path)


def _with_hamiltonian_entry(value):
    """A valid 2 x 2 problem file's text with hamiltonian[1][1] = [0, value]."""
    data = problem_to_dict(random_instance(2, 2, 1))
    data["hamiltonian"][1][1] = [0.0, value]
    return json.dumps(data)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("text, error, reached", [
    pytest.param(json.dumps(problem_to_dict(random_instance(2, 2, 1))), None,
                 {"convert", "validate"}, id="valid"),
    pytest.param("{not json", ProblemFileError, set(), id="invalid_json"),
    pytest.param(_with_hamiltonian_entry(True), ProblemFileError, {"convert"},
                 id="bool_entry"),
    pytest.param(_with_hamiltonian_entry(10**400), ProblemFileError, {"convert"},
                 id="huge_integer"),
    pytest.param(_with_hamiltonian_entry(float("nan")), ProblemFileError, {"convert"},
                 id="nan_token"),
    pytest.param(json.dumps(NOT_PSD), NotPSD, {"convert", "validate"}, id="not_psd"),
])
def test_load_problem_restores_the_collector_state(tmp_path, monkeypatch, enabled, text,
                                                   error, reached):
    # load_problem pauses garbage collection from the parse until the
    # parsed tree is freed; validation runs under the caller's setting,
    # and every exit, by a return or an error, restores that setting
    seen = {}
    convert, validate = serialize._matrices_from_dict, serialize.validate_density

    def spy_convert(data):
        seen["convert"] = gc.isenabled()
        return convert(data)

    def spy_validate(mat):
        seen["validate"] = gc.isenabled()
        return validate(mat)

    monkeypatch.setattr(serialize, "_matrices_from_dict", spy_convert)
    monkeypatch.setattr(serialize, "validate_density", spy_validate)
    path = tmp_path / "problem.json"
    path.write_text(text)
    if not enabled:
        gc.disable()
    try:
        if error is None:
            load_problem(path)
        else:
            with pytest.raises(error):
                load_problem(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert set(seen) == reached
    assert seen.get("convert") is not True
    assert seen.get("validate", enabled) is enabled


def test_report_dict_keys_and_null_for_undefined():
    problem = bloch_x(0.6)
    data = json.loads(next(reports_to_json(evaluate(problem, 1.0), "")))
    assert list(data) == ["t", "gamma_total", "uhlmann", "sjoqvist",
                          "overlap_magnitude", "components", "warnings"]
    assert data["warnings"] == []
    assert list(data["components"][0]) == ["j", "q", "visibility", "gamma",
                                           "dyn_phase", "total_phase"]
    nodal = json.loads(next(reports_to_json(evaluate(problem, 5 * np.pi), "")))
    assert nodal["gamma_total"] is None and nodal["sjoqvist"] is None
    assert any("nodal" in w for w in nodal["warnings"])
    json.dumps(nodal)  # undefined phases must serialize cleanly
    # compare's report: the same layout, and a nan holonomy nulls exactly
    # itself and its three distances
    batch = evaluate(problem, 1.0)
    text = compare_to_json(batch, discrete_uhlmann_holonomy(problem, 1.0, 256), 256)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    for holonomy, want in ((0.5, set()),
                           (math.nan, {"holonomy", "gamma_total_vs_holonomy",
                                       "uhlmann_vs_holonomy", "sjoqvist_vs_holonomy"})):
        data = json.loads(compare_to_json(batch, holonomy, 256))
        assert list(data) == ["t", "gamma_total", "uhlmann", "sjoqvist", "holonomy",
                              "holonomy_steps", "overlap_magnitude", "pairwise_distances"]
        assert (data["t"], data["holonomy_steps"]) == (1.0, 256)
        assert {key for key, value in chain(data.items(), data["pairwise_distances"].items())
                if value is None} == want


def test_the_sjoqvist_nodal_warning_quotes_the_interferometric_sum():
    # at t = pi this qubit's interferometric sum, cos(t / 2), vanishes,
    # while the total phase is defined with overlap magnitude 0.76
    data = json.loads(next(reports_to_json(evaluate(bloch_x(0.6), np.pi), "")))
    assert data["sjoqvist"] is None and data["gamma_total"] is not None
    [warning] = data["warnings"]
    quoted = re.fullmatch(r"sjoqvist undefined at a nodal point \(overlap magnitude (.+)\)",
                          warning)
    assert float(quoted[1]) <= DEFAULT_TOL.overlap


def test_degenerate_spectrum_warning_surfaces():
    data = json.loads(next(reports_to_json(evaluate(degenerate_qubit(), 0.7), "")))
    assert any("degenerate" in w for w in data["warnings"])


def test_degenerate_ancilla_spectrum_warning_surfaces(tmp_path):
    # rho's spectrum is far from degenerate, but H = I makes K = -I, so z
    # and every per-component column depend on the eigensolver
    problem = Problem(validate_density(np.diag([0.5, 0.3, 0.2])), np.eye(3))
    frame = prepare_problem(problem)
    assert not close_eigenvalues(problem.rho0.lambdas)
    assert np.ptp(frame.kappas) < 1e-12 and close_eigenvalues(frame.kappas)
    assert evaluate(problem, 1.0).degenerate_spectrum_warning
    path = problem_file(tmp_path, problem, "k_degenerate.json")
    assert json.loads(run(["compute", "--input", path, "-t", "1"], 0))["warnings"] == [
        "spectrum is (near-)degenerate: eigenbasis-dependent quantities "
        "are not unique within degenerate blocks"]


def test_sweep_header_and_nan_rows():
    assert sweep_header(2) == ("t,gamma_total,uhlmann,sjoqvist,overlap_magnitude,"
                               "q_0,nu_0,gamma_0,q_1,nu_1,gamma_1")
    row = written(sweep_to_csv, evaluate(bloch_x(0.6), [5 * np.pi])).splitlines()[1]
    fields = row.split(",")
    assert len(fields) == 11
    assert fields[1] == "nan"  # undefined phase serializes as the literal nan
    assert not math.isnan(float(fields[4]))


def written(writer, batch):
    """The text a streaming sweep writer writes for batch."""
    out = io.StringIO()
    writer(batch, out)
    return out.getvalue()


def csv_reference(batch):
    """The CSV of batch formatted cell by cell: every float, q_j in every
    row included, through str."""
    n = batch.q.size
    table = np.empty((len(batch), 5 + 3 * n))
    for col, values in enumerate((batch.t, batch.gamma_total, batch.uhlmann,
                                  batch.sjoqvist, batch.overlap_magnitude)):
        table[:, col] = values
    table[:, 5::3] = batch.q
    table[:, 6::3] = batch.visibility
    table[:, 7::3] = batch.gamma
    rows = [",".join(map(str, row.tolist())) for row in table]
    return "\n".join([sweep_header(n)] + rows + [""])


def reference_report(batch, i):
    """Row i of batch as the JSON report object, built as a dict."""
    def nullable(x):
        return None if math.isnan(x) else float(x)

    warnings = []
    if batch.degenerate_spectrum_warning:
        warnings.append(
            "spectrum is (near-)degenerate: eigenbasis-dependent quantities "
            "are not unique within degenerate blocks"
        )
    for name, magnitude in (("gamma_total", batch.overlap_magnitude),
                            ("uhlmann", batch.overlap_magnitude),
                            ("sjoqvist", batch.sjoqvist_magnitude)):
        if math.isnan(getattr(batch, name)[i]):
            warnings.append(
                f"{name} undefined at a nodal point "
                f"(overlap magnitude {magnitude[i]:.3e})"
            )
    resolution = abs(float(batch.t[i])) * batch.energy * np.finfo(float).eps
    if resolution > DEFAULT_TOL.overlap:
        warnings.append(
            f"resolution bound |t| E eps = {resolution:.3e} exceeds the overlap "
            f"tolerance {DEFAULT_TOL.overlap:.1e} (E = {batch.energy:.3e}, the largest "
            "energy): the phases carry roundoff of that size"
        )
    columns = zip(batch.q.tolist(), batch.visibility[i].tolist(),
                  batch.gamma[i].tolist(), batch.dyn_phase[i].tolist(),
                  batch.total_phase[i].tolist())
    return {
        "t": float(batch.t[i]),
        "gamma_total": nullable(batch.gamma_total[i]),
        "uhlmann": nullable(batch.uhlmann[i]),
        "sjoqvist": nullable(batch.sjoqvist[i]),
        "overlap_magnitude": float(batch.overlap_magnitude[i]),
        "components": [
            {
                "j": j,
                "q": q,
                "visibility": nu,
                "gamma": gamma,
                "dyn_phase": dyn,
                "total_phase": total,
            }
            for j, (q, nu, gamma, dyn, total) in enumerate(columns)
        ],
        "warnings": warnings,
    }


@st.composite
def sweeps(draw):
    times = draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8))
    times += [times[0]]  # a repeated time in every batch
    qubit = draw(st.sampled_from([None, functools.partial(bloch_x, 0.6), degenerate_qubit]))
    if qubit is not None:
        grid = np.linspace(0.0, 10 * np.pi, draw(st.sampled_from([3, 5, 11])))
        return qubit(), times + grid.tolist()
    n = draw(st.integers(1, 16))
    rank = draw(st.sampled_from(sorted({n, max(1, n // 2), 1})))
    return random_instance(n, rank, draw(st.integers(0, 2**32 - 1))), times


@settings(max_examples=60, deadline=None)
@given(sweeps())
@example((bloch_x(0.6), np.linspace(-10 * np.pi, 10 * np.pi, 5).tolist()))
@example((bloch_x(0.6), [-1e4, 8e3, 1e4, 1e5]))  # rows past the resolution bound
def test_sweep_csv_matches_cell_by_cell_formatting(case):
    problem, times = case
    batch = evaluate(problem, times)
    assert written(sweep_to_csv, batch) == csv_reference(batch)
    # the JSON writers against json.dumps of the report objects
    references = [reference_report(batch, i) for i in range(len(batch))]
    assert written(sweep_to_json, batch) == json.dumps(references, indent=2) + "\n"
    reports = list(reports_to_json(batch, ""))
    assert reports == [json.dumps(reference, indent=2) for reference in references]


def test_matrix_parse_keeps_ints_and_signed_zeros_exact(tmp_path):
    # the file holds ints and -0.0 as written
    hamiltonian = [[[2**70, -0.0], [1, 2.5]], [[1, -2.5], [-0.0, 0]]]
    rho = [[[1, 0], [0.0, -0.0]], [[-0.0, 0], [0, 0.0]]]
    problem = load_problem(entries_file(tmp_path, hamiltonian, rho))
    for got, pairs in ((problem.hamiltonian_lab, hamiltonian), (problem.rho0.mat, rho)):
        want = np.array([[complex(re, im) for re, im in row] for row in pairs])
        assert got.tobytes() == want.tobytes()  # bitwise, signs of zero included
    assert np.signbit(problem.hamiltonian_lab.imag[0, 0])
    assert np.signbit(problem.hamiltonian_lab.real[1, 1])


ZERO = [0.0, 0.0]


@pytest.mark.parametrize("hamiltonian, message", [
    ([[[True, 0.0], ZERO], [ZERO, ZERO]],
     "hamiltonian[0][0]: complex entries must be [re, im] pairs"),
    ([[ZERO, ["1.0", 0.0]], [ZERO, ZERO]],
     "hamiltonian[0][1]: complex entries must be [re, im] pairs"),
    ([[ZERO, ZERO], [[0.0, 0.0, 0.0], ZERO]],
     "hamiltonian[1][0]: complex entries must be [re, im] pairs"),
    ([[ZERO, ZERO], [ZERO, 0.0]],
     "hamiltonian[1][1]: complex entries must be [re, im] pairs"),
    ([[ZERO, ZERO], [ZERO]], "hamiltonian: row 1 must have 2 entries, got 1"),
    ([{"re": 0.0, "im": 0.0}, [ZERO, ZERO]],
     "hamiltonian: row 0 must have 2 entries, got dict"),
    ([[ZERO, ZERO], [ZERO, [0.0, 10**400]]],
     "hamiltonian[1][1]: entry is too large for a double"),
    ([[ZERO, [float("nan"), 0.0]], [ZERO, ZERO]], "hamiltonian: non-finite entries"),
])
def test_matrix_parse_rejections_name_the_entry(tmp_path, hamiltonian, message):
    with pytest.raises(ProblemFileError) as exc:
        load_problem(entries_file(tmp_path, hamiltonian))
    assert str(exc.value) == message


# finite doubles (-0.0 and subnormals among them) and ints past 2**64
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70),
                    st.sampled_from([-0.0, 5e-324, -5e-324, 2**70, -2**70]))
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)  # [re, im], the one form JSON gives


@st.composite
def pair_matrices(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(st.lists(PAIRS, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(pair_matrices())
def test_flat_conversion_equals_the_nested_one(case):
    n, obj = case
    nested = np.array(list(chain.from_iterable(obj)), dtype=float).view(complex).reshape(n, n)
    assert _matrix_from_pairs(obj, n, "rho").tobytes() == nested.tobytes()


# one corruption of a [re, im] entry, or of a whole row, with the message
# that names it
ENTRY_CORRUPTIONS = {
    "bool": (lambda pair: [True, pair[1]], "complex entries must be [re, im] pairs"),
    "str": (lambda pair: [pair[0], "1.0"], "complex entries must be [re, im] pairs"),
    "triple": (lambda pair: [*pair, 0.0], "complex entries must be [re, im] pairs"),
    "tuple": (lambda pair: tuple(pair), "complex entries must be [re, im] pairs"),
    "huge": (lambda pair: [10**400, pair[1]], "entry is too large for a double"),
    "nan": (lambda pair: [pair[0], float("nan")], None),
}
ROW_CORRUPTIONS = [{"re": 0.0}, 0.5, "row", None, []]


@st.composite
def corrupted_matrices(draw):
    """A pair matrix with one or two corruptions, and the message naming
    the first in row-major order (a row before its own entries). A nan
    is named only when nothing else is wrong."""
    n, obj = draw(pair_matrices())
    obj = [list(row) for row in obj]
    spots = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)),
                          min_size=1, max_size=2, unique=True))
    messages = []
    for i, j in sorted(spots, key=lambda spot: spot[1] < 0):  # rows after entries
        if j < 0:
            row = obj[i] = draw(st.sampled_from(ROW_CORRUPTIONS))
            got = len(row) if type(row) is list else type(row).__name__
            messages.append((i, j, f"hamiltonian: row {i} must have {n} entries, got {got}"))
        else:
            kind = draw(st.sampled_from(sorted(ENTRY_CORRUPTIONS)))
            corrupt, message = ENTRY_CORRUPTIONS[kind]
            obj[i][j] = corrupt(obj[i][j])
            if message is not None:
                messages.append((i, j, f"hamiltonian[{i}][{j}]: {message}"))
    # a replaced row sorts before the entries it dropped
    return n, obj, min(messages)[2] if messages else "hamiltonian: non-finite entries"


@settings(max_examples=150, deadline=None)
@given(corrupted_matrices())
def test_malformed_entries_are_named_in_row_major_order(case):
    n, obj, message = case
    with pytest.raises(ProblemFileError) as exc:
        _matrix_from_pairs(obj, n, "hamiltonian")
    assert str(exc.value) == message


def test_resolution_warning_past_the_bound(tmp_path):
    # a row warns when |t| E eps exceeds the overlap tolerance; the CSV has
    # no warnings and does not change
    problem = random_instance(3, 3, 5)
    path = problem_file(tmp_path, problem, "instance.json")
    energy = evaluate(problem, 0.0).energy
    eps = float(np.finfo(float).eps)
    bound = DEFAULT_TOL.overlap / (energy * eps)
    below, above = 0.99 * bound, 1.01 * bound
    warning = (f"resolution bound |t| E eps = {above * energy * eps:.3e} exceeds the "
               f"overlap tolerance 1.0e-12 (E = {energy:.3e}, the largest energy): the "
               "phases carry roundoff of that size")
    for t, want in ((below, []), (above, [warning])):
        report = json.loads(run(["compute", "--input", path, "-t", repr(t)], 0))
        assert report["warnings"] == want
    sweep = ["sweep", "--input", path, "--t-start", repr(below), "--t-end",
             repr(above), "--steps", "2"]
    rows = json.loads(run(sweep + ["--format", "json"], 0))
    assert [row["warnings"] for row in rows] == [[], [warning]]
    assert run(sweep, 0) == written(sweep_to_csv, evaluate(load_problem(path), [below, above]))
