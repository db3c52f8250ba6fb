"""CLI contract tests: subcommands, file handling, and exit codes
(0 success, 1 verification failure, 2 input error, 3 undefined phase)."""

import gc
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mixedphase import Problem, circular_distance, evaluate, load_problem, random_instance, \
    validate_density
from mixedphase import cli, phases, states
from mixedphase.cli import main
from mixedphase.serialize import problem_to_dict

from cases import CAP_ERROR, SX, bloch_x, entries_file, problem_file, pure_plus, run

CYCLIC_T = 2 * np.pi


@pytest.fixture
def mixed_file(tmp_path):
    return problem_file(tmp_path, bloch_x(0.6), "mixed.json")


@pytest.fixture
def pure_file(tmp_path):
    return problem_file(tmp_path, pure_plus(), "pure.json")


@pytest.fixture
def maximally_mixed_file(tmp_path):
    return problem_file(tmp_path, Problem(validate_density(np.eye(2) / 2), 0.8 * SX), "mm.json")


def test_compute_maximally_mixed(maximally_mixed_file):
    data = json.loads(run(["compute", "--input", maximally_mixed_file, "-t", "1.0"], 0))
    assert abs(data["gamma_total"]) <= 1e-9
    assert abs(data["uhlmann"]) <= 1e-9


def test_compute_cyclic_mixed_point(mixed_file):
    data = json.loads(run(["compute", "--input", mixed_file, "-t", str(CYCLIC_T)], 0))
    assert circular_distance(data["gamma_total"], 0.0) <= 1e-9
    assert circular_distance(data["sjoqvist"], np.pi) <= 1e-9
    assert len(data["components"]) == 2


def test_compute_writes_output_file(mixed_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["compute", "--input", mixed_file, "-t", "0.4", "--output", str(out)], 0) == ""
    assert "gamma_total" in json.loads(out.read_text())


def test_compute_undefined_phase_exits_3(mixed_file):
    data = json.loads(run(["compute", "--input", mixed_file, "-t", str(5 * np.pi)], 3))
    assert data["gamma_total"] is None
    assert data["warnings"]


def test_compute_malformed_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    blob = {
        "dimension": 2,
        "rho": [[[1.0, 0.0]] * 3] * 3,  # 3x3 matrix against dimension 2
        "hamiltonian": [[[0.0, 0.0]] * 2] * 2,
    }
    path.write_text(json.dumps(blob))
    assert run(["compute", "--input", str(path), "-t", "1.0"], 2) == (
        f"error: {path}: rho: expected 2 rows to match dimension 2, got 3")


def test_compute_missing_file_exits_2(tmp_path):
    path = tmp_path / "nope.json"
    assert run(["compute", "--input", str(path), "-t", "1.0"], 2).startswith(
        f"error: {path}: [Errno 2] No such file")


def test_sweep_commuting_all_zero(tmp_path):
    path = problem_file(tmp_path, Problem(validate_density(np.diag([0.7, 0.3])),
                                          np.diag([0.4, -0.2]).astype(complex)), "comm.json")
    lines = run(["sweep", "--input", path, "--t-start", "0.0", "--t-end", "5.0",
                 "--steps", "50"], 0).strip().splitlines()
    assert lines[0].startswith("t,gamma_total,uhlmann,sjoqvist,overlap_magnitude")
    assert len(lines) == 51
    for line in lines[1:]:
        assert abs(float(line.split(",")[1])) <= 1e-9


def test_sweep_pure_precession_ends_at_pi(pure_file):
    lines = run(["sweep", "--input", pure_file, "--t-start", "0.0", "--t-end", str(CYCLIC_T),
                 "--steps", "100"], 0).strip().splitlines()
    assert len(lines) == 101
    last_gamma = float(lines[-1].split(",")[1])
    assert circular_distance(last_gamma, np.pi) <= 1e-9


def test_sweep_json_format(mixed_file, tmp_path):
    out = tmp_path / "rows.json"
    assert run(["sweep", "--input", mixed_file, "--t-start", "0.0", "--t-end", "1.0",
                "--steps", "5", "--format", "json", "--output", str(out)], 0) == ""
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    assert rows[0]["t"] == 0.0 and rows[-1]["t"] == 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_never_holds_its_report_text(tmp_path, fmt):
    """The writers write each row as it is formatted, so a warm sweep
    peaks at about its evaluation's own peak, not that plus the report
    text. Measured at n = 16 (full rank) on 400 steps: the load, prepare
    and evaluate chain peaks at 857 KB and the op at 858 KB, for a 416 KB
    CSV and a 1,572 KB JSON file. Writers that build every row's text and
    then join it peak at 1,188 KB (CSV) and 3,499 KB (JSON), past the
    bounds of 1,065 KB and 1,643 KB."""
    path = problem_file(tmp_path, random_instance(16, 16, 3), "instance.json")
    output = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--input", path, "--t-start", "0", "--t-end", "40",
            "--steps", "400", "--format", fmt, "--output", str(output)]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(argv) == 0  # warm: parser built, modules loaded
    op = peak(lambda: main(argv))
    evaluation = peak(lambda: evaluate(load_problem(path), np.linspace(0.0, 40.0, 400)))
    size = output.stat().st_size
    assert op <= evaluation + size / 2, (op, evaluation, size)


def test_sweep_usage_errors(mixed_file):
    sweep = ["sweep", "--input", mixed_file, "--t-start"]
    assert run(sweep + ["0.0", "--t-end", "1.0", "--steps", "1"], 2) == (
        "error: --steps must be at least 2, got 1")
    assert run(sweep + ["2.0", "--t-end", "1.0", "--steps", "10"], 2) == (
        "error: --t-start must be below --t-end, got 2.0 >= 1.0")
    # finite times whose grid overflows: the span itself (in subtract), or
    # a grid point of a finite span at the double limit (in multiply)
    for t_start, t_end, steps in (("-1e308", "1e308", "3"),
                                  ("0", "1.7976931348623157e308", "7")):
        line = run(sweep + [t_start, "--t-end", t_end, "--steps", steps], 2)
        assert "--t-start" in line and "--t-end" in line
        assert "overflow encountered" not in line


def test_verify_small_batch_passes():
    assert "verified 5/5" in run(["verify", "--dim", "2", "--trials", "5", "--seed", "7",
                                  "--tol", "1e-9"], 0)


def test_verify_dim6_batch_passes():
    assert "verified 20/20" in run(["verify", "--dim", "6", "--trials", "20", "--seed", "3",
                                    "--tol", "1e-9"], 0)


def test_verify_passes_at_a_dimension_whose_states_have_tiny_eigenvalues():
    """At dim 192 the least eigenvalue of a full-rank random state is far
    below 1e-6 on most draws; the instance is kept as drawn."""
    assert "verified 1/1" in run(["verify", "--dim", "192", "--trials", "1"], 0)


def test_verify_zero_tolerance_fails():
    assert "seed" in run(["verify", "--dim", "2", "--trials", "3", "--seed", "7",
                          "--tol", "0"], 1)


def test_verify_failure_counts_the_instances_that_passed(monkeypatch):
    calls = itertools.count(1)
    original = cli._verify_trial

    def fail_third(problem, tol):
        return "injected failure" if next(calls) == 3 else original(problem, tol)

    monkeypatch.setattr(cli, "_verify_trial", fail_third)
    out = run(["verify", "--dim", "2", "--trials", "5", "--seed", "7"], 1)
    assert "injected failure" in out
    assert "passed 2 of 5 instances before first failure" in out


SOLVE, FRAME = states.solve_ancilla_hamiltonian, states.diagonalizing_frame
SETUP, PHI = phases._setup, phases._phi
ANCILLA, HOLONOMY = "ancilla-equation residual", "total phase vs holonomy"
PARALLEL = "parallel-transport residual"


def weights_from_c(k, amps):
    """The frame of k with its weights q built from c in place of c^2."""
    frame = FRAME(k, amps)
    return replace(frame, q=np.abs(frame.z) ** 2 @ amps)


@pytest.mark.parametrize("site, mutant, check", [
    ("states.solve_ancilla_hamiltonian", lambda a, h: SOLVE(a, h).T, ANCILLA),
    ("states.solve_ancilla_hamiltonian", lambda a, h: -SOLVE(a, h), ANCILLA),
    ("states.solve_ancilla_hamiltonian", lambda a, h: SOLVE(a, h.conj()), ANCILLA),
    ("states.solve_ancilla_hamiltonian", lambda a, h: SOLVE(a, h.T), ANCILLA),
    ("phases._setup", lambda a, w, q, z, k, t: SETUP(a, w, q, z.conj(), k, t), HOLONOMY),
    ("phases._setup", lambda a, w, q, z, k, t: SETUP(a, w, q, z.T, k, t), HOLONOMY),
    ("phases._setup", lambda a, w, q, z, k, t: SETUP(a, w, q.conj(), z, k, t), HOLONOMY),
    ("phases._setup", lambda a, w, q, z, k, t: SETUP(a, w, q.T, z, k, t), HOLONOMY),
    ("phases._setup", lambda a, w, q, z, k, t: SETUP(a**2, w, q, z, k, t), HOLONOMY),
    ("phases._phi", lambda t, e, p, k: PHI(t, e, p, -k), HOLONOMY),
    ("states.diagonalizing_frame", weights_from_c, PARALLEL),
], ids=["K-transposed", "K-negated", "h'-conjugated", "h'-transposed", "z-conjugated",
        "z-transposed", "Q-conjugated", "Q-transposed", "lambda-for-c", "kappa-sign",
        "q-from-c"])
def test_verify_catches_each_engine_mutant(monkeypatch, site, mutant, check):
    """Mutants of the ancilla solve, of the kernel P = |Q^dag C z^T|^2 and
    of Phi's phases e^{-i kappa_j t}, and of the frame's weights q: each
    fails verify, and the check that names it is the ancilla-equation
    residual (K and h' before the solve), the parallel-transport residual
    (q, which the frame carries) or the holonomy (all the others). This is
    the record behind verify having no gauge-rephasing check: rephasing
    the eigenbasis by diagonal phases is removed by the |.|^2 in P, and
    when verify still ran that check, over seeds 0-19, it caught no mutant
    here that the residuals or the holonomy missed."""
    argv = ["verify", "--dim", "4", "--trials", "5"]
    assert run(argv, 0).startswith("verified 5/5 ")  # the engine as it is
    monkeypatch.setattr(f"mixedphase.{site}", mutant)
    first, last = run(argv, 1).splitlines()
    assert first.startswith("verification failed for instance seed ") and check in first
    assert last.endswith("of 5 instances before first failure")


def test_verify_catches_an_engine_that_sees_another_hamiltonian(monkeypatch):
    """Negative control: the holonomy oracle evolves the state under
    H (1 + 1e-6) while the engine sees H. The ancilla and transport
    checks read the problem's own h' and the engine's preparation of it,
    so only the holonomy can fail."""
    holonomy = cli.discrete_uhlmann_holonomy

    def perturbed(problem, t_end, steps):
        return holonomy(Problem(problem.rho0, problem.hamiltonian_lab * (1 + 1e-6)), t_end,
                        steps)

    monkeypatch.setattr(cli, "discrete_uhlmann_holonomy", perturbed)
    assert "total phase vs holonomy" in run(["verify", "--dim", "4", "--trials", "5",
                                             "--seed", "7", "--tol", "1e-9"], 1)


def test_verify_checks_each_hamiltonian_once(monkeypatch):
    """Per trial: the random state in validate_density and its Hamiltonian
    in Problem. The frame and the total phase read the Problem as it is,
    and check nothing again."""
    from mixedphase import linalg, oracles, states

    calls = []
    check = linalg.require_hermitian

    def counted(a):
        calls.append(a)
        return check(a)

    for module in (linalg, oracles, states):
        monkeypatch.setattr(module, "require_hermitian", counted)
    run(["verify", "--dim", "8", "--trials", "20", "--seed", "3"], 0)
    assert len(calls) == 40


def test_verify_reads_the_total_phase_off_the_frame_it_checks(monkeypatch):
    """Each trial solves one frame, the problem's, checks its residuals,
    and takes the total phase from evaluate, the engine code of compute,
    sweep and compare, which reads that same frame: K is solved and
    decomposed once per trial."""
    solved, evaluated = [], []
    solve, engine = states.diagonalizing_frame, cli.evaluate

    def record_frame(k, amps):
        solved.append(solve(k, amps))
        return solved[-1]

    def record_engine(problem, times):
        evaluated.append(vars(problem).get("frame"))  # read before evaluate runs
        return engine(problem, times)

    monkeypatch.setattr(states, "diagonalizing_frame", record_frame)
    monkeypatch.setattr(cli, "evaluate", record_engine)
    assert "verified 4/4 random instances (dim 3)" in run(["verify", "--dim", "3",
                                                           "--trials", "4"], 0)
    assert len(solved) == 4
    assert all(got is want for got, want in zip(evaluated, solved, strict=True))


def test_verify_catches_a_corrupted_frame(monkeypatch):
    """Negative control for the transport check: the kappas moved, k
    untouched, so the ancilla equation still holds and only the transport
    check, which reads the kappas, must catch it."""
    solve = states.diagonalizing_frame

    def corrupted(k, amps):
        frame = solve(k, amps)
        return replace(frame, kappas=frame.kappas + 1e-6)

    monkeypatch.setattr(states, "diagonalizing_frame", corrupted)
    assert run(["verify", "--dim", "3", "--trials", "4", "--seed", "7"], 1).splitlines() == [
        "verification failed for instance seed 2882744023523087010: "
        "parallel-transport residual 5.505e-07 > 1.000e-09",
        "passed 0 of 4 instances before first failure"]


@pytest.mark.parametrize("argv, stdout, code", [
    (["--dim", "3", "--trials", "6", "--seed", "2", "--tol", "1e-13"],
     "verification failed for instance seed 1206473021768521264: total phase vs holonomy "
     "(65536 steps) differ by 1.974e-12 > 1.000e-13 at t=1.7\n"
     "passed 0 of 6 instances before first failure\n", 1),
    # the residuals read the raw h' = E^dag H E, not the symmetrized copy
    # the eigensolver and the K solve use (which gives 2.354e-17 here)
    (["--dim", "8", "--trials", "4", "--seed", "5", "--tol", "0"],
     "verification failed for instance seed 3712420728229738858: ancilla-equation "
     "residual 3.996e-17 > 0.000e+00\n"
     "passed 0 of 4 instances before first failure\n", 1),
    (["--dim", "1", "--trials", "3", "--seed", "1"],
     "verified 3/3 random instances (dim 1): ancilla equation, holonomy, parallel "
     "transport all within tolerance 1.0e-09\n", 0),
])
def test_verify_output_is_pinned(argv, stdout, code):
    assert run(["verify"] + argv, code) == stdout


def test_verify_memory_does_not_grow_with_trials(capsys):
    """Trials run one at a time, each freeing its arrays before the next:
    the peak of a warm op (parser built) is flat in --trials. A stack
    across all trials would grow with it."""
    def peak(trials):
        argv = ["verify", "--dim", "8", "--trials", str(trials), "--seed", "3"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(5), peak(80)
    assert many <= few + 4096, (few, many)


def test_verify_usage_error():
    assert run(["verify", "--dim", "2", "--trials", "0"], 2) == (
        "error: --trials must be at least 1, got 0")


@pytest.mark.parametrize("option", [
    ["--seed", "-1"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
])
def test_verify_bad_seed_or_tolerance_exits_2(option):
    assert option[0] in run(["verify", "--dim", "2", "--trials", "1"] + option, 2)


def test_compare_pure_state_all_four_agree(pure_file):
    data = json.loads(run(["compare", "--input", pure_file, "-t", str(CYCLIC_T),
                           "--holonomy-steps", "1024"], 0))
    for key in ("gamma_total_vs_uhlmann", "gamma_total_vs_sjoqvist",
                "gamma_total_vs_holonomy"):
        assert data["pairwise_distances"][key] <= 1e-12


def _compare_report(tmp_path, want_exit, args) -> str:
    """compare's report for args. Its stdout must be laid out as
    json.dumps(report, indent=2) + "\\n" lays it out, and an --output run
    must write the same bytes."""
    out = run(["compare", *args], want_exit)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    path = tmp_path / "compare.json"
    assert run(["compare", *args, "--output", str(path)], want_exit) == ""
    assert path.read_bytes() == out.encode()
    return out


# want: phases in report order. A subnormal t, and 1e15, the largest
# power of ten that repr writes as a decimal; at t = 1e15 doubles near the
# phase arguments t/2 are 0.06 rad apart, so no phase is pinned there
@pytest.mark.parametrize("t_text, want", [
    (repr(CYCLIC_T), {"gamma_total": 0.0, "sjoqvist": np.pi, "holonomy": 0.0}),
    ("1e-320", {"gamma_total": 0.0, "uhlmann": 0.0, "sjoqvist": 0.0, "holonomy": 0.0}),
    ("1000000000000000.0", {}),
], ids=["cyclic", "subnormal", "1e15"])
def test_compare_mixed_cyclic_point(mixed_file, tmp_path, t_text, want):
    out = _compare_report(tmp_path, 0, ["--input", mixed_file, "-t", t_text,
                                        "--holonomy-steps", "1024"])
    assert f'\n  "t": {t_text},\n' in out
    data = json.loads(out)
    for name, phase in want.items():
        assert circular_distance(data[name], phase) <= 1e-12
    for (a, x), (b, y) in itertools.combinations(want.items(), 2):
        assert abs(data["pairwise_distances"][f"{a}_vs_{b}"] - circular_distance(x, y)) <= 1e-12


def test_compare_takes_the_holonomy_before_the_frame(mixed_file, monkeypatch):
    """The holonomy, where compare peaks in memory, runs while the problem
    holds no frame; evaluate solves it afterwards."""
    holonomy, held = cli.discrete_uhlmann_holonomy, []

    def record(problem, t_end, steps):
        held.append("frame" in vars(problem))
        return holonomy(problem, t_end, steps)

    monkeypatch.setattr(cli, "discrete_uhlmann_holonomy", record)
    run(["compare", "--input", mixed_file, "-t", "1"], 0)
    assert held == [False]


def test_compare_too_few_steps_exits_2(mixed_file):
    assert run(["compare", "--input", mixed_file, "-t", "1.0", "--holonomy-steps", "10"],
               2) == "error: --holonomy-steps must be in 256..2**52, got 10"


def test_compare_huge_step_count_is_cheap(mixed_file):
    # the closed form costs O(log N): 1e12 steps is 39 squarings and one
    # product per further set bit of N, each written with @, not a grid
    data = json.loads(run(["compare", "--input", mixed_file, "-t", str(CYCLIC_T),
                           "--holonomy-steps", str(10**12)], 0))
    assert data["holonomy_steps"] == 10**12
    # roundoff grows like steps * machine epsilon (about 2e-4 here)
    assert circular_distance(data["holonomy"], 0.0) <= 1e-3


@pytest.mark.parametrize("steps", [2**52 + 1, 10**400])
def test_compare_steps_beyond_roundoff_cap_exits_2(mixed_file, steps):
    assert run(["compare", "--input", mixed_file, "-t", "1.0", "--holonomy-steps", str(steps)],
               2) == f"error: --holonomy-steps must be in 256..2**52, got {steps}"


def test_compare_accepts_the_roundoff_cap(mixed_file):
    # 2**52 written out, so that a lowered MAX_STEPS fails here
    assert json.loads(run(["compare", "--input", mixed_file, "-t", "1.0", "--holonomy-steps",
                           str(2**52)], 0))["holonomy_steps"] == 2**52


@pytest.mark.parametrize("problem, t, defined",
                         [("pure_file", np.pi, []), ("mixed_file", 5 * np.pi, ["holonomy"])],
                         ids=["pure_plus_at_pi", "mixed_r06_at_5pi"])
def test_compare_orthogonal_endpoint_exits_3(request, tmp_path, problem, t, defined):
    # |+> reaches the orthogonal state at t = pi, and every phase is
    # undefined; the r = 0.6 overlap crosses zero at t = 5 pi, which the
    # 256-step holonomy reaches only as its grid is refined. Each distance
    # from an undefined phase is undefined too.
    data = json.loads(_compare_report(tmp_path, 3, [
        "--input", request.getfixturevalue(problem), "-t", repr(t), "--holonomy-steps", "256"]))
    phases = ["gamma_total", "uhlmann", "sjoqvist", "holonomy"]
    assert [name for name in phases if data[name] is not None] == defined
    assert list(data["pairwise_distances"].values()) == [None] * 6


def test_compute_non_finite_time_exits_2(mixed_file):
    assert run(["compute", "--input", mixed_file, "-t", "inf"], 2) == (
        "error: --time must be finite, got inf")


@pytest.mark.parametrize("command", [*cli.COMMANDS, None])
def test_building_the_parser_leaves_no_cyclic_garbage(command):
    """argparse leaves a throw-away HelpFormatter in a reference cycle per
    add_argument (73 objects for the tree); each cached build, of one
    command's parser or of the tree, frees them itself, so where the next
    collection falls does not move an op's peak."""
    cli.build_parser.cache_clear()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli.build_parser(command)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_run_builds_only_its_commands_parser(mixed_file, command):
    argv = {"compute": ["--input", mixed_file, "-t", "1"],
            "sweep": ["--input", mixed_file, "--t-start", "0", "--t-end", "1", "--steps", "2"],
            "verify": ["--dim", "1", "--trials", "1"],
            "compare": ["--input", mixed_file, "-t", "1", "--holonomy-steps", "256"]}[command]
    cli.build_parser.cache_clear()
    run([command] + argv, 0)
    assert cli.build_parser.cache_info().currsize == 1
    cli.build_parser(command)  # the one parser built is this command's: a cache hit
    assert cli.build_parser.cache_info()[:2] == (1, 1)


def test_unknown_command_exits_2():
    # argparse's own errors reach main's one error line, with the parser's name
    assert run(["frobnicate"], 2).startswith(
        "error: mixedphase: argument command: invalid choice: 'frobnicate'")


def test_unknown_option_is_named_under_its_command(mixed_file):
    assert run(["compute", "--input", mixed_file, "-t", "1", "--bogus"], 2) == (
        "error: mixedphase compute: unrecognized arguments: --bogus")


@pytest.mark.parametrize("argv, line", [
    (["--bogus"], "error: mixedphase: unrecognized arguments: --bogus"),
    (["--bogus", "compute"], "error: mixedphase compute: the following arguments are required: "
                             "--input, --time/-t"),
    ([], "error: mixedphase: the following arguments are required: command"),
    (["--"], "error: mixedphase: the following arguments are required: command"),
])
def test_the_tree_names_an_unknown_option_before_asking_for_a_command(argv, line):
    # such a line goes to the full subcommand tree
    assert run(argv, 2) == line


@pytest.mark.parametrize("exponent_form, plain", [("-1e-3", "-0.001"), ("-2E1", "-20.0")])
def test_negative_time_in_exponent_form_parses(mixed_file, exponent_form, plain):
    # argparse alone reads -1e-3 as an unknown option and exits 2
    compute = ["compute", "--input", mixed_file, "-t"]
    assert run(compute + [exponent_form], 0) == run(compute + [plain], 0)


@pytest.mark.parametrize("argv, message", [
    (["compute", "--input", "{path}", "-t", "-inf"], "error: --time must be finite, got -inf"),
    (["sweep", "--input", "{path}", "--t-start", "-1e308", "--t-end", "0", "--steps", "2"],
     "error: time -1e+308 is past the resolvable range"),
    (["verify", "--dim", "2", "--tol", "-1e-9"], "error: --tol must be finite and at least 0"),
    # the grid's spacing t_end - t_start overflows inside np.linspace
    (["sweep", "--input", "{path}", "--t-start", "-1.7e308", "--t-end", "1.7e308",
      "--steps", "3"], "error: the grid from --t-start to --t-end exceeds the range of a "
                       "double, got -1.7e+308 and 1.7e+308\n"),
    # the other bad times and a problem file that is not an object get
    # their own one-line errors too
    (["sweep", "--input", "{path}", "--t-start", "0", "--t-end", "inf", "--steps", "3"],
     "error: --t-start and --t-end must be finite\n"),
    (["compare", "--input", "{path}", "-t", "0"],
     "error: --time must be finite and positive, got 0.0\n"),
    (["compare", "--input", "{path}", "-t", "nan"],
     "error: --time must be finite and positive, got nan\n"),
    (["compute", "--input", "{empty}", "-t", "1"],
     "error: {empty}: problem file must be a JSON object\n"),
])
def test_negative_value_in_exponent_form_gets_its_own_error(mixed_file, tmp_path, argv,
                                                            message):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    paths = {"path": mixed_file, "empty": str(empty)}
    # a message that ends in a newline is the whole line
    line = run([arg.format(**paths) for arg in argv], 2) + "\n"
    assert line.startswith(message.format(**paths))


def test_help_before_a_negative_number_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-h", "-1e-3"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mixedphase compute")


@pytest.mark.parametrize("argv", [
    ["compute", "-t", "1.0"],
    ["sweep", "--t-start", "0.0", "--t-end", "1.0", "--steps", "3"],
    ["compare", "-t", "1.0", "--holonomy-steps", "256"],
])
def test_non_hermitian_hamiltonian_exits_2(tmp_path, argv):
    # at 1e200 the matrix is past the cap, which is checked first
    for entry, message in ((1.0, "not Hermitian"), (1e200, CAP_ERROR)):
        path = entries_file(tmp_path, [[[0.0, 0.0], [entry, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        assert message in run(argv[:1] + ["--input", path] + argv[1:], 2)


def test_boolean_entry_exits_2(tmp_path):
    path = entries_file(tmp_path, [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    assert "hamiltonian[0][0]" in run(["compute", "--input", path, "-t", "1.0"], 2)


def test_huge_integer_entry_exits_2(tmp_path):
    huge = 10**400  # written out as 401 digits: an int too large for a double
    path = entries_file(tmp_path, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, huge]]])
    line = run(["compute", "--input", path, "-t", "1.0"], 2)
    assert "hamiltonian[1][1]" in line and "too large" in line



@pytest.mark.parametrize("case", ["huge_hamiltonian", "huge_rho", "huge_non_hermitian",
                                  "huge_trace", "output_in_missing_directory",
                                  "output_is_a_directory"])
@pytest.mark.parametrize("argv", [
    ["compute", "-t", "1.0"],
    ["sweep", "--t-start", "0.0", "--t-end", "1.0", "--steps", "3"],
    ["compare", "-t", "1.0", "--holonomy-steps", "256"],
])
def test_hostile_input_or_output_exits_2(tmp_path, argv, case):
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    # finite entries past the cap on ||a||_F, refused before any other
    # check: h' + h'^dag, ||H - H^dag||_F and Tr rho would overflow
    huge = 1.7e308
    hamiltonian, rho, output, message = {
        "huge_hamiltonian": ([[[huge, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-huge, 0.0]]],
                             None, None, CAP_ERROR),
        "huge_rho": (zero, [[[0.5, 0.0], [1e200, 0.0]], [[0.3, 0.0], [0.5, 0.0]]], None,
                     CAP_ERROR),
        "huge_non_hermitian": ([[[0.0, 0.0], [huge, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], None,
                               None, CAP_ERROR),
        "huge_trace": (zero, [[[huge, 0.0], [0.0, 0.0]], [[0.0, 0.0], [huge, 0.0]]], None,
                       CAP_ERROR),
        "output_in_missing_directory": (zero, None, tmp_path / "missing" / "out.txt",
                                        "No such file"),
        "output_is_a_directory": (zero, None, tmp_path, "directory"),
    }[case]
    extra = ["--output", str(output)] if output else []
    path = entries_file(tmp_path, hamiltonian, rho)
    assert message in run(argv[:1] + ["--input", path] + argv[1:] + extra, 2)


@pytest.mark.parametrize("argv", [
    ["sweep", "--t-start", "0", "--t-end", "1", "--steps", str(10**15)],
    ["verify", "--dim", str(10**8), "--trials", "1"],
])
def test_unallocatable_size_exits_2(mixed_file, argv):
    # PiB-scale arrays, past a 47-bit address space: the allocation fails
    # at once, before any memory is touched
    if argv[0] == "sweep":
        argv = argv[:1] + ["--input", mixed_file] + argv[1:]
    run(argv, 2)


def test_overflow_inside_a_command_exits_2(mixed_file, monkeypatch):
    # main runs each handler with numpy overflow raised; its net turns the
    # FloatingPointError into one error line
    monkeypatch.setattr(cli, "evaluate", lambda problem, t: np.float64(1e308) * 10)
    assert run(["compute", "--input", mixed_file, "-t", "1.0"], 2).startswith(
        "error: input magnitudes exceed the range of a double")


def test_non_psd_rho_beyond_the_symmetrization_range_exits_2(tmp_path):
    # rho + rho^dag would overflow, and in the 3x3 case the smallest
    # eigenvalue lies past the double range: both are past the cap on
    # ||rho||_F, refused before they are decomposed
    x = 1.7e308
    for rho in ([[0.5, 1e308], [1e308, 0.5]], [[0.5, x, x], [x, 0.25, -x], [x, -x, 0.25]]):
        zero = [[[0.0, 0.0]] * len(rho)] * len(rho)
        path = entries_file(tmp_path, zero, [[[v, 0.0] for v in row] for row in rho])
        assert CAP_ERROR in run(["compute", "--input", path, "-t", "1.0"], 2)


@pytest.mark.parametrize("scale, t, code", [
    (7e149, "0", 0),    # ||H||_F = 9.9e149, just inside the cap
    (7e149, "1", 2),    # |t| E = 7e149: the phase arguments are unresolved
    (7e149, "1e300", 2),  # t E itself overflows a double
    (0.5, "1e17", 2),   # |t| E = 5e16 > 2**52 on a unit-norm qubit
    (0.5, "-1e17", 2),
    (0.5, "9e15", 0),   # |t| E = 4.5e15, just inside 2**52
    (0.5, "1.2e16", 2),  # |t| E = 6e15, between 2**52 and 2**53
])
def test_time_past_the_resolvable_range_exits_2(tmp_path, scale, t, code):
    path = entries_file(tmp_path, [[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-scale, 0.0]]])
    text = run(["compute", "--input", path, f"--time={t}"], code)
    if code == 2:
        assert f"time {float(t):g} is past the resolvable range" in text


# Hypothesis fuzzing of the whole command line: small problem files,
# valid, malformed or of extreme magnitude, under edge flag values. The
# sizes allocate nothing large (n <= 4, --steps <= 64, --trials <= 2).
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
              st.text(max_size=3), st.sampled_from([10**400, -10**400])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)
NUMBERS = st.one_of(st.floats(-20.0, 20.0), st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 5e3, 9e15, 1e17, 1e300, 1.7e308, -1e17, -1e300]))
STEPS = st.one_of(st.integers(0, 4096), st.sampled_from([256, 2**52, 2**52 + 1, 10**30]))
REQUIRED = ("--dim", "--input", "--t-start", "--t-end", "--steps", "-t")


@st.composite
def problem_files(draw, directory):
    """The path of a small problem file, valid or malformed, or a path
    that is missing or a directory."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["entry", "row", "key", "dimension",
                                                 "scale", "junk", "missing", "directory"]))
    if kind == "missing":
        return str(directory / "missing.json")
    if kind == "directory":
        return str(directory)
    n = draw(st.integers(1, 4))
    data = problem_to_dict(random_instance(n, draw(st.integers(1, n)),
                                           draw(st.integers(0, 2**32 - 1))))
    name = draw(st.sampled_from(["rho", "hamiltonian"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "entry":
        data[name][i][j] = draw(st.one_of(JUNK, st.lists(NUMBERS, min_size=2, max_size=2)))
    elif kind == "row":
        data[name][i] = draw(JUNK)
    elif kind == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "dimension":
        data["dimension"] = draw(JUNK)
    elif kind == "scale":
        factor = draw(NUMBERS)
        data[name] = [[[re * factor, im * factor] for re, im in row] for row in data[name]]
    elif kind == "junk":
        data = draw(JUNK)
    text = json.dumps(data, indent=draw(st.sampled_from([None, 2])))
    edit = draw(st.sampled_from(["none"] * 4 + ["truncate", "bom", "crlf", "latin1"]))
    if edit == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    raw = {"bom": "\ufeff" + text, "crlf": text.replace("\n", "\r\n")}.get(edit, text)
    path = directory / "problem.json"
    path.write_bytes((b"\xff" if edit == "latin1" else b"") + raw.encode("utf-8"))
    return str(path)


@st.composite
def command_lines(draw, directory):
    """A command line over small flag values and the exit codes it may
    give, or one malformed for argparse, which must exit 2: a numeric
    option given a non-number, a required option left out, an unknown
    option or an unknown command."""
    command = draw(st.sampled_from(["compute", "sweep", "compare", "verify"]))
    if command == "verify":
        argv = ["verify", "--dim", str(draw(st.integers(-1, 4))),
                "--trials", str(draw(st.integers(-1, 2))),
                "--seed", str(draw(st.integers(-1, 2**64))),
                "--tol", repr(draw(st.one_of(st.sampled_from([1e-9, 0.0]), NUMBERS)))]
    else:
        argv = [command, "--input", draw(problem_files(directory))]
    if command == "sweep":
        argv += ["--t-start", repr(draw(NUMBERS)), "--t-end", repr(draw(NUMBERS)),
                 "--steps", str(draw(st.integers(-1, 64))),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
    elif command in ("compute", "compare"):
        argv += ["-t", repr(draw(NUMBERS))]
    if command == "compare":
        argv += ["--holonomy-steps", str(draw(STEPS))]
    pairs = range(1, len(argv), 2)  # argv[i] is an option and argv[i + 1] its value
    edit = draw(st.sampled_from(["none"] * 12 + ["number", "required", "option", "command"]))
    if edit == "number":
        i = draw(st.sampled_from([i for i in pairs if argv[i] not in ("--input", "--format")]))
        argv[i + 1] = draw(st.sampled_from(["", "abc", "1j", "0x10"]))
    elif edit == "required":
        i = draw(st.sampled_from([i for i in pairs if argv[i] in REQUIRED]))
        del argv[i:i + 2]
    elif edit == "option":
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    elif edit == "command":
        argv[0] = draw(st.sampled_from(["", "frobnicate", "Compute"]))
    return argv, {0, 1, 2, 3} if edit == "none" else 2


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_command_lines_keep_the_exit_code_contract(tmp_path, data):
    run(*data.draw(command_lines(tmp_path)))
