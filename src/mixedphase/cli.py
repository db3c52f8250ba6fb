"""Command-line interface.

Subcommands: compute (one time point), sweep (time grid to CSV/JSON),
verify (randomized invariant batches), compare (phase definitions
against the brute-force holonomy). Exit codes: 0 success, 1
verification failure, 2 input error, 3 undefined phase.

Each command's options are defined once, in _add_arguments. A process
builds only the parser of the command it runs; the full subcommand tree,
built from the same definitions, parses any other command line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import re
import sys
from typing import TextIO

import numpy as np

from .angles import circular_distance
from .errors import GeometricPhaseError
from .linalg import frobenius
from .oracles import MAX_STEPS, discrete_uhlmann_holonomy, random_instance
from .phases import evaluate
from .serialize import ProblemFileError, compare_to_json, load_problem, reports_to_json, \
    sweep_to_csv, sweep_to_json
from .states import Problem
from .transport import ancilla_equation_residual, transport_residual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED_PHASE = 3

# verify compares the engine with the holonomy oracle at one time. With
# 2**16 steps the oracle's discretization error at t = 1.7 stays below
# about 1e-10 for unit-norm Hamiltonians at dims 1 to 16, which sets the
# smallest --tol that verify can meet.
VERIFY_TIME = 1.7
VERIFY_HOLONOMY_STEPS = 2**16
# a negative number as float() reads it, exponent form, inf and nan included
NEGATIVE_NUMBER = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)", re.I)


def _destination(output: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The --output file, opened for writing, or stdout. Each command
    opens it only once its report is computed, so a run that fails
    before then writes nothing."""
    return open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout)


def _load(path: str) -> Problem:
    """load_problem, with the path prefixed to any error it raises."""
    try:
        return load_problem(path)
    except (GeometricPhaseError, ValueError, OSError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def cmd_compute(args) -> int:
    if not math.isfinite(args.time):
        raise ValueError(f"--time must be finite, got {args.time}")
    batch = evaluate(_load(args.input), args.time)
    with _destination(args.output) as dest:
        dest.write(next(reports_to_json(batch, "")) + "\n")
    undefined = np.isnan([batch.gamma_total, batch.uhlmann, batch.sjoqvist]).any()
    return EXIT_UNDEFINED_PHASE if undefined else EXIT_OK


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        raise ValueError("--t-start and --t-end must be finite")
    if not args.t_start < args.t_end:
        raise ValueError(f"--t-start must be below --t-end, got {args.t_start} >= {args.t_end}")
    try:  # main raises on overflow: the span, or a grid point near the double limit
        times = np.linspace(args.t_start, args.t_end, args.steps)
    except FloatingPointError:
        raise ValueError(f"the grid from --t-start to --t-end exceeds the range of a "
                         f"double, got {args.t_start} and {args.t_end}") from None
    batch = evaluate(_load(args.input), times)
    with _destination(args.output) as dest:
        (sweep_to_csv if args.format == "csv" else sweep_to_json)(batch, dest)
    return EXIT_OK


def _verify_trial(problem: Problem, tol: float) -> str | None:
    """Run the invariant checks on one instance; return the violated
    invariant's description or None. The residuals and evaluate's total
    phase read the problem's one frame, solved once."""
    amps, h_prime, frame = problem.amps, problem.h_prime, problem.frame
    resid = ancilla_equation_residual(amps, h_prime, frame.k)
    bound = tol * max(1.0, frobenius(h_prime))
    if resid > bound:
        return f"ancilla-equation residual {resid:.3e} > {bound:.3e}"
    resid = transport_residual(amps, h_prime, frame)
    if resid > bound:
        return f"parallel-transport residual {resid:.3e} > {bound:.3e}"
    # the engine's total phase against the holonomy of the density-matrix
    # path, which never sees the ancilla
    gamma = evaluate(problem, VERIFY_TIME).gamma_total[0]
    holonomy = discrete_uhlmann_holonomy(problem, VERIFY_TIME, VERIFY_HOLONOMY_STEPS)
    dist = circular_distance(gamma, holonomy)
    if not dist <= tol:  # also catches a nan (nodal) phase
        return (f"total phase vs holonomy ({VERIFY_HOLONOMY_STEPS} steps) differ by "
                f"{dist:.3e} > {tol:.3e} at t={VERIFY_TIME}")
    return None


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.dim < 1:
        raise ValueError(f"--dim must be at least 1, got {args.dim}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and at least 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    for passed in range(args.trials):
        inst_seed = int(rng.integers(0, 2**62))
        # drawn in the argument list: no name holds the last trial's
        # problem while the next one is built
        failure = _verify_trial(random_instance(args.dim, args.dim, inst_seed), args.tol)
        if failure is not None:
            print(f"verification failed for instance seed {inst_seed}: {failure}")
            print(f"passed {passed} of {args.trials} instances before first failure")
            return EXIT_VERIFY_FAILED
    print(f"verified {args.trials}/{args.trials} random instances (dim {args.dim}): "
          f"ancilla equation, holonomy, parallel transport "
          f"all within tolerance {args.tol:.1e}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if not 256 <= args.holonomy_steps <= MAX_STEPS:
        raise ValueError(f"--holonomy-steps must be in 256..2**{MAX_STEPS.bit_length() - 1}, "
                         f"got {args.holonomy_steps}")
    if not (math.isfinite(args.time) and args.time > 0):
        raise ValueError(f"--time must be finite and positive, got {args.time}")
    problem = _load(args.input)
    # the holonomy, compare's peak, before evaluate solves the frame the problem keeps
    holonomy = discrete_uhlmann_holonomy(problem, args.time, args.holonomy_steps)
    batch = evaluate(problem, args.time)
    with _destination(args.output) as dest:
        dest.write(compare_to_json(batch, holonomy, args.holonomy_steps))
    undefined = any(map(math.isnan, (holonomy, batch.gamma_total[0], batch.uhlmann[0],
                                     batch.sjoqvist[0])))
    return EXIT_UNDEFINED_PHASE if undefined else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line: main reports it
        raise ValueError(f"{self.prog}: {message}")


# each command and its line in the top-level help, in the order that
# help and argparse's "invalid choice" message list them
COMMANDS = {
    "compute": "all phases of a problem file at one time",
    "sweep": "phases over a uniform time grid",
    "verify": "randomized invariant verification batches",
    "compare": "phase definitions vs the brute-force holonomy",
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Define one command's options on parser and set its handler: the one
    definition behind the command's own parser and its place in the tree."""
    add = parser.add_argument
    if command == "compute":
        add("--input", required=True, help="problem file (JSON)")
        add("--time", "-t", type=float, required=True, help="evolution time")
        handler = cmd_compute
    elif command == "sweep":
        add("--input", required=True)
        add("--t-start", type=float, required=True)
        add("--t-end", type=float, required=True)
        add("--steps", type=int, required=True, help="grid points (>= 2)")
        add("--format", choices=("csv", "json"), default="csv")
        handler = cmd_sweep
    elif command == "verify":
        add("--dim", type=int, required=True)
        add("--trials", type=int, default=50)
        add("--seed", type=int, default=7)
        add("--tol", type=float, default=1e-9)
        handler = cmd_verify
    else:
        add("--input", required=True)
        add("--time", "-t", type=float, required=True)
        add("--holonomy-steps", type=int, default=4096,
            help="discretization steps (256 to 2**52)")
        handler = cmd_compare
    if command != "verify":
        add("--output", help="output path (default: stdout)")
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with no command the full subcommand
    tree, built on first use and then reused: parsing leaves it unchanged,
    and building it costs more than a small op. A run builds only the
    parser of the command it runs; the tree serves every other command
    line (-h, no command, an unknown command or option)."""
    if command is not None:
        parser = _Parser(prog=f"mixedphase {command}")
        _add_arguments(parser, command)
    else:
        parser = _Parser(
            prog="mixedphase",
            description="Geometric phases of mixed states under unitary evolution",
        )
        # not required: _parse asks for a command only when no unknown
        # option stands before it, so that the error names the option
        sub = parser.add_subparsers(dest="command")
        for name, help_line in COMMANDS.items():
            _add_arguments(sub.add_parser(name, help=help_line), name)
    # Each add_argument leaves a throw-away HelpFormatter in a reference cycle; freeing
    # them here takes 2-4 KB off a cold op's peak (compare 0.0468 -> 0.0440 MB).
    gc.collect(0)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by its command's own parser when argv[0] names one,
    else by the tree, so that the help and the errors of any other
    command line are the tree's."""
    if argv and argv[0] in COMMANDS:
        parser, argv = build_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
        # argparse would ask for the missing command before it names an
        # unknown option; a lone -- is left unread, and is no option
        args, extras = parser.parse_known_args(argv)
        if args.command is None and extras in ([], ["--"]):
            parser.error("the following arguments are required: command")
    return parser.parse_args(argv)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number that follows an option attached to
    it (-t -1e-3 becomes -t=-1e-3): argparse reads only -N and -N.N as
    negative numbers, and -1e-3, -2E1 or -inf as an unknown option."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (NEGATIVE_NUMBER.fullmatch(arg) and prev.startswith("-") and "=" not in prev
                and not NEGATIVE_NUMBER.fullmatch(prev) and prev != "-h"
                and not "--help".startswith(prev)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one subcommand. Bad input, including a malformed command line,
    a problem whose numbers overflow a double, a size whose arrays cannot
    be allocated and an output path that cannot be written, exits 2 with
    one error line and no traceback; this is the one place that writes
    it. Only -h/--help prints usage, and exits 0."""
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse(argv)
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except FloatingPointError as exc:
        message = f"input magnitudes exceed the range of a double ({exc})"
    except (GeometricPhaseError, ValueError, OSError, MemoryError) as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR
