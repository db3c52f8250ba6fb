"""Problem-file and report serialization tests."""

import gc
import json
import math

import numpy as np
import pytest

from mixedphase import (
    NotPSD,
    Problem,
    ProblemFileError,
    evaluate,
    load_problem,
    prepare_problem,
    random_instance,
    save_problem,
    validate_density,
)
from mixedphase.serialize import (
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    sweep_header,
    sweep_to_csv,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_round_trip_is_bitwise_exact(tmp_path):
    prob = random_instance(3, 3, 5)
    path = tmp_path / "instance.json"
    save_problem(prob, path)
    back = load_problem(path)
    assert np.array_equal(back.rho0.mat, prob.rho0.mat)
    assert np.array_equal(back.hamiltonian_lab, prob.hamiltonian_lab)


def test_shape_mismatch_names_the_field():
    data = problem_to_dict(random_instance(3, 3, 6))
    data["dimension"] = 2
    with pytest.raises(ProblemFileError, match="rho.*2 rows"):
        problem_from_dict(data)


def test_missing_key_and_bad_entries():
    with pytest.raises(ProblemFileError, match="hamiltonian"):
        problem_from_dict({"dimension": 1, "rho": [[[1.0, 0.0]]]})
    with pytest.raises(ProblemFileError, match=r"\[re, im\]"):
        problem_from_dict({"dimension": 1, "rho": [[1.0]],
                           "hamiltonian": [[[0.0, 0.0]]]})
    with pytest.raises(ProblemFileError, match="dimension"):
        problem_from_dict({"dimension": 0, "rho": [], "hamiltonian": []})


def test_validation_errors_propagate():
    bad = {
        "dimension": 2,
        "rho": [[[0.6, 0.0], [0.6, 0.0]], [[0.6, 0.0], [0.4, 0.0]]],
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    with pytest.raises(NotPSD):
        problem_from_dict(bad)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    # the second file nests deeper than the parser's recursion limit
    for text in ("{not json", "[" * 200_000):
        path.write_text(text)
        with pytest.raises(ProblemFileError, match="invalid JSON"):
            load_problem(path)


def test_load_problem_restores_the_collector_state(tmp_path):
    # load_problem pauses garbage collection during the parse only
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFileError):
        load_problem(path)
    assert gc.isenabled()
    save_problem(random_instance(2, 2, 1), path)
    gc.disable()
    try:
        load_problem(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_report_dict_keys_and_null_for_undefined():
    rho = (np.eye(2) + 0.6 * np.array([[0, 1], [1, 0]])) / 2
    prep = prepare_problem(Problem(validate_density(rho), 0.5 * SZ))
    data = report_to_dict(evaluate(prep, 1.0), 0)
    assert list(data) == ["t", "gamma_total", "uhlmann", "sjoqvist",
                          "overlap_magnitude", "components", "warnings"]
    assert data["warnings"] == []
    assert list(data["components"][0]) == ["j", "q", "visibility", "gamma",
                                           "dyn_phase", "total_phase"]
    nodal = report_to_dict(evaluate(prep, 5 * np.pi), 0)
    assert nodal["gamma_total"] is None and nodal["sjoqvist"] is None
    assert any("nodal" in w for w in nodal["warnings"])
    json.dumps(nodal)  # undefined phases must serialize cleanly


def test_degenerate_spectrum_warning_surfaces():
    prep = prepare_problem(Problem(validate_density(np.eye(2) / 2), 0.5 * SZ))
    data = report_to_dict(evaluate(prep, 0.7), 0)
    assert any("degenerate" in w for w in data["warnings"])


def test_sweep_header_and_nan_rows():
    assert sweep_header(2) == ("t,gamma_total,uhlmann,sjoqvist,overlap_magnitude,"
                               "q_0,nu_0,gamma_0,q_1,nu_1,gamma_1")
    rho = (np.eye(2) + 0.6 * np.array([[0, 1], [1, 0]])) / 2
    prep = prepare_problem(Problem(validate_density(rho), 0.5 * SZ))
    row = sweep_to_csv(evaluate(prep, [5 * np.pi])).splitlines()[1]
    fields = row.split(",")
    assert len(fields) == 11
    assert fields[1] == "nan"  # undefined phase serializes as the literal nan
    assert not math.isnan(float(fields[4]))
