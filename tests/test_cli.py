"""CLI contract tests: subcommands, file handling, and exit codes
(0 success, 1 verification failure, 2 input error, 3 undefined phase)."""

import json

import numpy as np
import pytest

from mixedphase import Problem, circular_distance, save_problem, validate_density
from mixedphase.cli import main

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
CYCLIC_T = 2 * np.pi


@pytest.fixture
def mixed_file(tmp_path):
    rho = (np.eye(2) + 0.6 * SX) / 2
    path = tmp_path / "mixed.json"
    save_problem(Problem(validate_density(rho), 0.5 * SZ), path)
    return str(path)


@pytest.fixture
def pure_file(tmp_path):
    path = tmp_path / "pure.json"
    save_problem(Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * SZ),
                 path)
    return str(path)


@pytest.fixture
def maximally_mixed_file(tmp_path):
    path = tmp_path / "mm.json"
    save_problem(Problem(validate_density(np.eye(2) / 2), 0.8 * SX), path)
    return str(path)


def test_compute_maximally_mixed(maximally_mixed_file, capsys):
    assert main(["compute", "--input", maximally_mixed_file, "-t", "1.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["gamma_total"]) <= 1e-9
    assert abs(data["uhlmann"]) <= 1e-9


def test_compute_cyclic_mixed_point(mixed_file, capsys):
    assert main(["compute", "--input", mixed_file, "-t", str(CYCLIC_T)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert circular_distance(data["gamma_total"], 0.0) <= 1e-9
    assert circular_distance(data["sjoqvist"], np.pi) <= 1e-9
    assert len(data["components"]) == 2


def test_compute_writes_output_file(mixed_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["compute", "--input", mixed_file, "-t", "0.4",
                 "--output", str(out)]) == 0
    assert "gamma_total" in json.loads(out.read_text())


def test_compute_undefined_phase_exits_3(mixed_file, capsys):
    assert main(["compute", "--input", mixed_file, "-t", str(5 * np.pi)]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["gamma_total"] is None
    assert data["warnings"]


def test_compute_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    blob = {
        "dimension": 2,
        "rho": [[[1.0, 0.0]] * 3] * 3,  # 3x3 matrix against dimension 2
        "hamiltonian": [[[0.0, 0.0]] * 2] * 2,
    }
    path.write_text(json.dumps(blob))
    assert main(["compute", "--input", str(path), "-t", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "rho" in err and "2" in err


def test_compute_missing_file_exits_2(tmp_path, capsys):
    assert main(["compute", "--input", str(tmp_path / "nope.json"), "-t", "1.0"]) == 2


def test_sweep_commuting_all_zero(tmp_path, capsys):
    path = tmp_path / "comm.json"
    save_problem(Problem(validate_density(np.diag([0.7, 0.3])),
                         np.diag([0.4, -0.2]).astype(complex)), path)
    assert main(["sweep", "--input", str(path), "--t-start", "0.0",
                 "--t-end", "5.0", "--steps", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t,gamma_total,uhlmann,sjoqvist,overlap_magnitude")
    assert len(lines) == 51
    for line in lines[1:]:
        assert abs(float(line.split(",")[1])) <= 1e-9


def test_sweep_pure_precession_ends_at_pi(pure_file, capsys):
    assert main(["sweep", "--input", pure_file, "--t-start", "0.0",
                 "--t-end", str(CYCLIC_T), "--steps", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 101
    last_gamma = float(lines[-1].split(",")[1])
    assert circular_distance(last_gamma, np.pi) <= 1e-9


def test_sweep_json_format(mixed_file, tmp_path):
    out = tmp_path / "rows.json"
    assert main(["sweep", "--input", mixed_file, "--t-start", "0.0",
                 "--t-end", "1.0", "--steps", "5", "--format", "json",
                 "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    assert rows[0]["t"] == 0.0 and rows[-1]["t"] == 1.0


def test_sweep_usage_errors(mixed_file, capsys):
    assert main(["sweep", "--input", mixed_file, "--t-start", "0.0",
                 "--t-end", "1.0", "--steps", "1"]) == 2
    assert main(["sweep", "--input", mixed_file, "--t-start", "2.0",
                 "--t-end", "1.0", "--steps", "10"]) == 2


def test_verify_small_batch_passes(capsys):
    assert main(["verify", "--dim", "2", "--trials", "5", "--seed", "7",
                 "--tol", "1e-9"]) == 0
    assert "verified 5/5" in capsys.readouterr().out


def test_verify_dim6_batch_passes(capsys):
    assert main(["verify", "--dim", "6", "--trials", "20", "--seed", "3",
                 "--tol", "1e-9"]) == 0
    assert "verified 20/20" in capsys.readouterr().out


def test_verify_zero_tolerance_fails(capsys):
    assert main(["verify", "--dim", "2", "--trials", "3", "--seed", "7",
                 "--tol", "0"]) == 1
    out = capsys.readouterr().out
    assert "seed" in out


def test_verify_usage_error(capsys):
    assert main(["verify", "--dim", "2", "--trials", "0"]) == 2


@pytest.mark.parametrize("option", [
    ["--seed", "-1"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
])
def test_verify_bad_seed_or_tolerance_exits_2(capsys, option):
    assert main(["verify", "--dim", "2", "--trials", "1"] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option[0] in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_compare_pure_state_all_four_agree(pure_file, capsys):
    assert main(["compare", "--input", pure_file, "-t", str(CYCLIC_T),
                 "--holonomy-steps", "1024"]) == 0
    data = json.loads(capsys.readouterr().out)
    for key in ("gamma_total_vs_uhlmann", "gamma_total_vs_sjoqvist",
                "gamma_total_vs_holonomy"):
        assert data["pairwise_distances"][key] <= 1e-12


def test_compare_mixed_cyclic_point(mixed_file, capsys):
    assert main(["compare", "--input", mixed_file, "-t", str(CYCLIC_T),
                 "--holonomy-steps", "1024"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert circular_distance(data["gamma_total"], 0.0) <= 1e-12
    assert circular_distance(data["holonomy"], 0.0) <= 1e-12
    assert circular_distance(data["sjoqvist"], np.pi) <= 1e-12
    assert abs(data["pairwise_distances"]["gamma_total_vs_sjoqvist"] - np.pi) <= 1e-12


def test_compare_too_few_steps_exits_2(mixed_file):
    assert main(["compare", "--input", mixed_file, "-t", "1.0",
                 "--holonomy-steps", "10"]) == 2


def test_compare_huge_step_count_is_cheap(mixed_file, capsys):
    # the closed form costs O(log N): 1e12 steps is a matrix power, not a grid
    assert main(["compare", "--input", mixed_file, "-t", str(CYCLIC_T),
                 "--holonomy-steps", str(10**12)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["holonomy_steps"] == 10**12
    # roundoff grows like steps * machine epsilon (about 2e-4 here)
    assert circular_distance(data["holonomy"], 0.0) <= 1e-3


@pytest.mark.parametrize("steps", [2**52 + 1, 10**400])
def test_compare_steps_beyond_roundoff_cap_exits_2(mixed_file, capsys, steps):
    assert main(["compare", "--input", mixed_file, "-t", "1.0",
                 "--holonomy-steps", str(steps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--holonomy-steps" in captured.err and "Traceback" not in captured.err


def test_compare_orthogonal_endpoint_exits_3(pure_file, capsys):
    # |+> reaches the orthogonal state at t = pi: holonomy undefined
    assert main(["compare", "--input", pure_file, "-t", str(np.pi),
                 "--holonomy-steps", "256"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["holonomy"] is None
    assert data["pairwise_distances"]["gamma_total_vs_holonomy"] is None


def test_compute_non_finite_time_exits_2(mixed_file):
    assert main(["compute", "--input", mixed_file, "-t", "inf"]) == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _problem_file(tmp_path, hamiltonian, rho=None):
    rho = rho or [[[0.5, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.5, 0.0]]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"dimension": 2, "rho": rho, "hamiltonian": hamiltonian}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["compute", "-t", "1.0"],
    ["sweep", "--t-start", "0.0", "--t-end", "1.0", "--steps", "3"],
    ["compare", "-t", "1.0", "--holonomy-steps", "256"],
])
def test_non_hermitian_hamiltonian_exits_2(tmp_path, capsys, argv):
    # at 1e200 both Frobenius norms of the check overflow a double
    for entry in (1.0, 1e200):
        path = _problem_file(tmp_path,
                             [[[0.0, 0.0], [entry, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        assert main(argv[:1] + ["--input", path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not Hermitian" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1


def test_boolean_entry_exits_2(tmp_path, capsys):
    path = _problem_file(tmp_path, [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    assert main(["compute", "--input", path, "-t", "1.0"]) == 2
    assert "hamiltonian[0][0]" in capsys.readouterr().err


def test_huge_integer_entry_exits_2(tmp_path, capsys):
    huge = 10**400  # written out as 401 digits: an int too large for a double
    path = _problem_file(tmp_path, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, huge]]])
    assert main(["compute", "--input", path, "-t", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "hamiltonian[1][1]" in err and "too large" in err
    assert "Traceback" not in err



@pytest.mark.parametrize("case", ["huge_hamiltonian", "huge_rho",
                                  "output_in_missing_directory", "output_is_a_directory"])
@pytest.mark.parametrize("argv", [
    ["compute", "-t", "1.0"],
    ["sweep", "--t-start", "0.0", "--t-end", "1.0", "--steps", "3"],
    ["compare", "-t", "1.0", "--holonomy-steps", "256"],
])
def test_hostile_input_or_output_exits_2(tmp_path, capsys, argv, case):
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    # finite, but on the default rho h' carries it off the diagonal, and
    # h' + h'^dag overflows
    huge = 1.7e308
    hamiltonian, rho, output, message = {
        "huge_hamiltonian": ([[[huge, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-huge, 0.0]]],
                             None, None, "range of a double"),
        "huge_rho": (zero, [[[0.5, 0.0], [1e200, 0.0]], [[0.3, 0.0], [0.5, 0.0]]], None,
                     "not Hermitian"),
        "output_in_missing_directory": (zero, None, tmp_path / "missing" / "out.txt",
                                        "No such file"),
        "output_is_a_directory": (zero, None, tmp_path, "directory"),
    }[case]
    extra = ["--output", str(output)] if output else []
    path = _problem_file(tmp_path, hamiltonian, rho)
    assert main(argv[:1] + ["--input", path] + argv[1:] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
