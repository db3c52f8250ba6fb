"""Problem-file and report serialization tests."""

import functools
import gc
import io
import json
import math
import random
import re
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mixedphase import (
    DEFAULT_TOL,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    Problem,
    ProblemFileError,
    evaluate,
    load_problem,
    random_instance,
    validate_density,
)
from mixedphase import serialize
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

from cases import CAP_ERROR, bloch_x, degenerate_qubit, entries_file, problem_file, run


def test_round_trip_is_bitwise_exact(tmp_path):
    prob = random_instance(3, 3, 5)
    # require_hermitian's copy keeps a Fortran-ordered input's order
    fortran = Problem(validate_density(np.asfortranarray(prob.rho0.mat)),
                      np.asfortranarray(prob.hamiltonian_lab))
    assert fortran.hamiltonian_lab.flags.f_contiguous
    compact = tmp_path / "compact.json"
    for p in (prob, fortran):
        back = load_problem(problem_file(tmp_path, p, "instance.json"))
        assert np.array_equal(back.rho0.mat, prob.rho0.mat)
        assert np.array_equal(back.hamiltonian_lab, prob.hamiltonian_lab)
        # save_problem's indent=2 layout and its compact twin are both read
        # row by row, not by the whole-tree parse
        compact.write_text(json.dumps(problem_to_dict(p)))
        for path in (tmp_path / "instance.json", compact):
            rho, ham = serialize._streamed_matrices(path.read_text())
            assert rho.tobytes() == back.rho0.mat.tobytes()
            assert ham.tobytes() == back.hamiltonian_lab.tobytes()


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


# the CI corpus's valid 2 x 2 problem
VALID = {
    "dimension": 2,
    "rho": [[[0.5, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.5, 0.0]]],
    "hamiltonian": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
}
CRLF = json.dumps(VALID, indent=2).replace("\n", "\r\n") + "\r\n"


@pytest.mark.parametrize("data, message", [
    pytest.param("\ufeff".encode() + json.dumps(VALID).encode(),
                 "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                 "line 1 column 1 (char 0)", id="bom"),
    pytest.param(b"\xff" + json.dumps(VALID).encode(),
                 "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                 id="bad_utf8"),
    # the parser reads the text with its line ends translated: each CRLF
    # counts as one character
    pytest.param(CRLF[:60].encode(),
                 "invalid JSON: Expecting ',' delimiter: line 6 column 10 (char 54)",
                 id="crlf_cut"),
    # int's digit limit, which json.loads reports as a bare ValueError
    pytest.param(json.dumps(VALID).replace("-0.5", "1" * 5001).encode(),
                 "invalid JSON: an integer has more than 4300 digits", id="long_integer"),
])
def test_read_errors_are_pinned(tmp_path, data, message):
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    assert run(["compute", "--input", str(path), "-t", "1"], 2) == f"error: {path}: {message}"


def test_crlf_file_loads_as_its_lf_twin(tmp_path):
    crlf, lf = tmp_path / "crlf.json", tmp_path / "lf.json"
    crlf.write_bytes(CRLF.encode())
    lf.write_text(CRLF.replace("\r\n", "\n"))
    assert b"\r\n" in crlf.read_bytes() and b"\r" not in lf.read_bytes()
    a, b = load_problem(crlf), load_problem(lf)
    for got, want in ((a.rho0.mat, b.rho0.mat), (a.hamiltonian_lab, b.hamiltonian_lab),
                      (a.h_prime, b.h_prime)):
        assert got.tobytes() == want.tobytes()


def outcome(path):
    """load_problem's outcome on the file at path: the error's type and
    message, or the bytes of rho and H."""
    try:
        problem = load_problem(path)
    except Exception as exc:
        return type(exc), str(exc)
    return problem.rho0.mat.tobytes(), problem.hamiltonian_lab.tobytes()


def whole_tree_outcome(path):
    """outcome(path) by the whole-tree parse: json.loads, then the
    conversion and the two checks, each check's errors prefixed with the
    matrix it checks."""
    prefix = ""
    try:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON: {exc}") from exc
        rho, ham = serialize._matrices_from_dict(data)
        prefix = "rho: "
        state = validate_density(rho)
        prefix = "hamiltonian: "
        problem = Problem(state, ham)
    except Exception as exc:
        return type(exc), prefix + str(exc)
    return problem.rho0.mat.tobytes(), problem.hamiltonian_lab.tobytes()


COMPACT = json.dumps(VALID)
# a valid 3 x 3 problem as save_problem lays it out: each row, entry and
# value on lines of its own
INDENTED = json.dumps({
    "dimension": 3,
    "rho": [[[0.5, 0.0], [0.1, 0.05], [0.0, 0.0]], [[0.1, -0.05], [0.3, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]]],
    "hamiltonian": [[[1.0, 0.0], [0.2, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.0], [0.0, 0.1]],
                    [[0.0, 0.0], [0.0, -0.1], [-1.0, 0.0]]],
}, indent=2)


def mutated(text, seed):
    """text with one character replaced, inserted or deleted."""
    rng = random.Random(seed)
    at, char = rng.randrange(len(text)), rng.choice('{}[],:" \t\r\n-+.0123456789eEx\\u')
    return text[:at] + rng.choice([char, char + text[at], ""]) + text[at + 1:]


def test_every_prefix_and_mutation_loads_as_the_whole_tree_parse(tmp_path):
    path = tmp_path / "problem.json"
    # the mutations that keep the object's layout (a digit or whitespace
    # changed: 61 of COMPACT's, 156 of INDENTED's) are converted as they
    # are parsed
    for valid, least in ((COMPACT, 30), (INDENTED, 75)):
        files = [valid[:k] for k in range(len(valid) + 1)]
        files += [mutated(valid, seed) for seed in range(400)]
        streamed = 0
        for text in files:
            path.write_bytes(text.encode())
            assert outcome(path) == whole_tree_outcome(path), text
            streamed += serialize._streamed_matrices(path.read_text()) is not None
        assert streamed >= least, valid


ROWS = tuple(f'"{key}": {json.dumps(VALID[key])}' for key in ("rho", "hamiltonian"))
OTHER_RHO = '"rho": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]'
H0, H1 = VALID["hamiltonian"]
# COMPACT with spaces, tabs, CRs and LFs around each { : , [ ] }, but
# none before the first {
SPACED = "".join(f" \t\r\n{c}\n\r\t " if c in "{:,[]}" else c
                 for c in COMPACT.replace(" ", "")).lstrip()


def with_hamiltonian(*rows):
    """COMPACT with the hamiltonian's rows replaced by rows."""
    return json.dumps({**VALID, "hamiltonian": list(rows)})


@pytest.mark.parametrize("text, streamed", [
    pytest.param(COMPACT, True, id="compact"),
    pytest.param(CRLF, True, id="crlf"),
    pytest.param(COMPACT + "\r\n", True, id="trailing_crlf"),
    # only save_problem's layout is converted as it is parsed: its keys in
    # their order, written plainly, and JSON whitespace between the tokens
    pytest.param(COMPACT.replace('"rho"', '"\\u0072ho"'), False, id="escaped_key"),
    pytest.param('{"dimension": 2, %s, %s}' % ROWS[::-1], False, id="hamiltonian_before_rho"),
    pytest.param(SPACED, True, id="whitespace_around_every_token"),
    pytest.param('{"dimension": 2, %s, %s, "dimension": 3}' % ROWS, False,
                 id="dimension_repeated_after_the_matrices"),
    pytest.param('{"dimension": 2, %s, %s, %s}' % (*ROWS, OTHER_RHO), False,
                 id="rho_repeated"),
    pytest.param('{%s, %s, "dimension": 2}' % ROWS, False, id="rho_before_dimension"),
    pytest.param('{"note": {"a": [1, {"b": null}]}, "dimension": 2, %s, %s, "more": [[]]}'
                 % ROWS, False, id="extra_keys"),
    pytest.param(" " + COMPACT, False, id="leading_space"),
    pytest.param(COMPACT + "x", False, id="trailing_x"),
    pytest.param("\ufeff" + COMPACT, False, id="bom"),
    pytest.param("", False, id="empty"),
    pytest.param("{}", False, id="empty_object"),
    pytest.param("[%s]" % COMPACT, False, id="top_level_list"),
    pytest.param('{"dimension": true, %s, %s}' % ROWS, False, id="dimension_true"),
    pytest.param('{"dimension": 2.0, %s, %s}' % ROWS, False, id="dimension_float"),
    # a 1 x 1 matrix passes every scan of the conversion with n = true
    pytest.param('{"dimension": true, "rho": [[[1.0, 0.0]]], "hamiltonian": [[[0, 0]]]}',
                 False, id="dimension_true_1x1"),
    pytest.param('{"dimension": 1.0, "rho": [[[1.0, 0.0]]], "hamiltonian": [[[0, 0]]]}',
                 False, id="dimension_float_1x1"),
    pytest.param('{"dimension": 2, %s, %s,}' % ROWS, False, id="trailing_comma"),
    pytest.param('{"dimension": 2, %s; %s}' % ROWS, False, id="wrong_separator"),
    # each matrix is scanned row by row: n rows of n [re, im] pairs
    pytest.param(with_hamiltonian(H0 + [[0.0, 0.0]], H1), False, id="row_of_n_plus_1_entries"),
    pytest.param(with_hamiltonian(H0), False, id="n_minus_1_rows"),
    pytest.param(with_hamiltonian(H0, H1, H1), False, id="n_plus_1_rows"),
    pytest.param("]] [[".join(COMPACT.rsplit("]], [[", 1)), False, id="rows_without_a_comma"),
    # the last row followed by a comma where the list's ] should be
    pytest.param(COMPACT[:-2] + ",}", False, id="matrix_closed_by_a_comma"),
    pytest.param(with_hamiltonian(H0, [H1[0], True]), False, id="true_in_a_row"),
    pytest.param(with_hamiltonian(H0, [H1[0], [1, [2]]]), False, id="list_in_an_entry"),
    # entries of length 2 that are not lists
    pytest.param(with_hamiltonian(H0, [H1[0], "ab"]), False, id="two_character_entry"),
    pytest.param(with_hamiltonian(H0, [H1[0], {"re": 0.0, "im": 0.0}]), False,
                 id="two_key_entry"),
])
def test_named_files_load_as_the_whole_tree_parse(tmp_path, text, streamed):
    # a file is converted as it is parsed only where nothing about it is
    # odd; the whole-tree parse judges every other
    path = tmp_path / "problem.json"
    path.write_bytes(text.encode())
    assert outcome(path) == whole_tree_outcome(path)
    assert (serialize._streamed_matrices(path.read_text()) is not None) is streamed


@pytest.mark.parametrize("rho, hamiltonian, error, message", [
    pytest.param([[[1.7e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.7e308, 0.0]]], None,
                 ValueError, f"rho: {CAP_ERROR}", id="rho_past_the_cap"),
    pytest.param(None, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e151, 0.0]]],
                 ValueError, f"hamiltonian: {CAP_ERROR}", id="hamiltonian_past_the_cap"),
    pytest.param([[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], None, NotHermitian,
                 "rho: not Hermitian: ||a - a^dag||_F = 4.243e-01 exceeds 1.0e-10",
                 id="rho_not_hermitian"),
    pytest.param(None, [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], NotHermitian,
                 "hamiltonian: not Hermitian: ||a - a^dag||_F = 1.414e+00 exceeds 1.0e-10",
                 id="hamiltonian_not_hermitian"),
    pytest.param([[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]], None, NotUnitTrace,
                 "rho: trace is not one: |Tr - 1| = 2.000e-01 exceeds 1.0e-10",
                 id="rho_trace"),
    pytest.param(NOT_PSD["rho"], None, NotPSD,
                 "rho: not positive semidefinite: smallest eigenvalue -1.083e-01 is below "
                 "-1.0e-12", id="rho_not_psd"),
])
def test_check_errors_name_the_matrix(tmp_path, rho, hamiltonian, error, message):
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = entries_file(tmp_path, hamiltonian or zero, rho)
    with pytest.raises(error) as exc:
        load_problem(path)
    assert type(exc.value) is error and str(exc.value) == message
    assert run(["compute", "--input", path, "-t", "1"], 2) == f"error: {path}: {message}"


@pytest.mark.parametrize("n", [8, 64])
def test_load_peaks_at_the_text_plus_one_matrix_of_values(tmp_path, n):
    """Each matrix's rows are scanned one at a time and only their values
    kept, so a warm load peaks at no more than the text, plus one
    matrix's flat values, one row's parse, both matrices' arrays and the
    finiteness mask of one (n * n bytes), give or take 4 KB. On these
    files the bounds are 19,107 B (n = 8) and 807,098 B (n = 64), and the
    load peaks at 18,658 and 805,724 B; the file read alone peaks at about
    17,200 and 788,600 B. With each matrix's tree parsed whole, the load
    peaked at 22,649 and 1,224,160 B."""
    # compact, as the benchmark writes its problem files
    data = problem_to_dict(random_instance(n, n, 7))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    text, row = path.read_text(), json.dumps(data["hamiltonian"][0])
    values = []
    for pairs in data["hamiltonian"]:
        values += chain.from_iterable(pairs)  # grown as the load grows it
    # each value a float of its own, as the parse makes them
    flat = sys.getsizeof(values) + len(values) * float.__basicsize__
    array = sys.getsizeof(np.zeros((n, n), complex))

    def peak(call):
        # a full collection empties the float and list free lists, so the
        # call allocates every object it builds under tracing
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    load_problem(path)  # warm
    parse = peak(lambda: json.loads(row))
    load = peak(lambda: load_problem(path))
    bound = sys.getsizeof(text) + flat + parse + 2 * array + n * n + 4096
    assert load <= bound, (load, bound)


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
                              "holonomy_steps", "overlap_magnitude", "pairwise_distances",
                              "warnings"]
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


@pytest.mark.parametrize("make, t, code", [(degenerate_qubit, 1.0, 0),
                                           (lambda: bloch_x(0.6), 5 * np.pi, 3),
                                           (lambda: bloch_x(0.6), 1e4, 0)],
                         ids=["degenerate", "nodal", "past-resolution"])
def test_compare_prints_the_batchs_warnings(tmp_path, make, t, code):
    # compare's warnings are the batch's, after pairwise_distances, in
    # json.dumps(indent=2) layout, in process and from the command line
    problem = make()
    batch = evaluate(problem, t)
    [warnings] = batch.warnings()
    assert warnings
    text = compare_to_json(batch, 0.5, 256)
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    assert list(data)[-2:] == ["pairwise_distances", "warnings"]
    assert data["warnings"] == warnings
    path = problem_file(tmp_path, problem, "problem.json")
    data = json.loads(run(["compare", "--input", path, "-t", repr(t),
                           "--holonomy-steps", "256"], code))
    assert data["warnings"] == warnings


def test_degenerate_spectrum_warning_surfaces():
    problem = degenerate_qubit()
    assert problem.blocks == (0, 2)
    data = json.loads(next(reports_to_json(evaluate(problem, 0.7), "")))
    assert any("degenerate" in w for w in data["warnings"])


def test_degenerate_ancilla_spectrum_warning_surfaces(tmp_path):
    # rho's spectrum is far from degenerate, but H = I makes K = -I, so z
    # and every per-component column depend on the eigensolver
    problem = Problem(validate_density(np.diag([0.5, 0.3, 0.2])), np.eye(3))
    frame = problem.frame
    assert problem.blocks == (0, 1, 2, 3)
    assert np.ptp(frame.kappas) < 1e-12 and frame.blocks == (0, 3)
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
# a tuple entry alone: a pair of numbers of another sequence type, which
# only the row's entry type scan refuses
@example((2, [[[0.0, 0.0], (0.5, 0.0)], [[0.0, 0.0], [0.0, 0.0]]],
          "hamiltonian[0][1]: complex entries must be [re, im] pairs"))
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
