"""Command-line interface.

Subcommands: compute (one time point), sweep (time grid to CSV/JSON),
verify (randomized invariant batches), compare (phase definitions
against the brute-force holonomy). Exit codes: 0 success, 1
verification failure, 2 input error, 3 undefined phase.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .angles import circular_distance
from .errors import GeometricPhaseError, VanishingOverlap
from .linalg import frobenius
from .oracles import MAX_STEPS, PathSampling, RandomInstanceSpec, \
    discrete_uhlmann_holonomy, parallel_residual, random_instance
from .phases import evaluate, evolution_operator, prepare_from_spectrum, \
    prepare_problem, uhlmann_trace_phase
from .serialize import ProblemFileError, load_problem, report_to_dict, sweep_to_csv, \
    sweep_to_json
from .states import Problem, Spectrum, spectral_decompose
from .tolerances import DEFAULT_TOL
from .transport import ancilla_equation_residual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED_PHASE = 3

VERIFY_TIMES = (0.3, 1.7, 5.0)


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> Problem:
    """load_problem, with the path prefixed to any error it raises."""
    try:
        return load_problem(path)
    except (GeometricPhaseError, ValueError, OSError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def cmd_compute(args) -> int:
    if not math.isfinite(args.time):
        return _fail_input(f"--time must be finite, got {args.time}")
    report = report_to_dict(evaluate(prepare_problem(_load(args.input)), args.time), 0)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    undefined = None in (report["gamma_total"], report["uhlmann"], report["sjoqvist"])
    return EXIT_UNDEFINED_PHASE if undefined else EXIT_OK


def cmd_sweep(args) -> int:
    if args.steps < 2:
        return _fail_input(f"--steps must be at least 2, got {args.steps}")
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        return _fail_input("--t-start and --t-end must be finite")
    if not args.t_start < args.t_end:
        return _fail_input(
            f"--t-start must be below --t-end, got {args.t_start} >= {args.t_end}"
        )
    batch = evaluate(prepare_problem(_load(args.input)),
                     np.linspace(args.t_start, args.t_end, args.steps))
    text = sweep_to_csv(batch) if args.format == "csv" else sweep_to_json(batch)
    _emit(text, args.output)
    return EXIT_OK


def _verify_trial(problem: Problem, rng, tol: float) -> str | None:
    """Run the invariant checks on one instance; return the violated
    invariant's description or None."""
    spectrum = spectral_decompose(problem.rho0)
    # The gauge-rephased instance is evaluated first, so that it and the
    # instance itself are never held at once.
    theta = rng.uniform(0.0, 2.0 * np.pi, size=problem.dim)
    rephased = Spectrum(spectrum.lambdas, spectrum.basis_e * np.exp(1j * theta),
                        spectrum.amps, spectrum.degenerate)
    gamma_rephased = float(evaluate(prepare_from_spectrum(problem, rephased),
                                    VERIFY_TIMES[1]).gamma_total[0])
    prep = prepare_from_spectrum(problem, spectrum)
    resid = ancilla_equation_residual(spectrum.amps, prep.h_prime, prep.frame.k)
    bound = tol * max(1.0, frobenius(prep.h_prime))
    if resid > bound:
        return f"ancilla-equation residual {resid:.3e} > {bound:.3e}"
    # the engine's total phase against the literal trace formula through exp(-iKt)
    gammas = evaluate(prep, VERIFY_TIMES).gamma_total.tolist()
    for t, gamma in zip(VERIFY_TIMES, gammas):
        trace_phase = uhlmann_trace_phase(prep, t, evolution_operator(prep, t))
        dist = circular_distance(gamma, trace_phase)
        if not dist <= tol:  # also catches a nan (nodal) engine phase
            return (f"total phase vs purification trace phase differ by "
                    f"{dist:.3e} > {tol:.3e} at t={t}")
    for j in range(prep.dim):
        if prep.weights[j] <= DEFAULT_TOL.weight:
            continue
        resid = parallel_residual(prep, j, VERIFY_TIMES[0], 1e-6)
        if resid > 1e-6:
            return f"parallel-transport residual {resid:.3e} > 1e-6 for component {j}"
    dist = circular_distance(gammas[1], gamma_rephased)
    if not dist <= tol:
        return f"gauge rephasing moved the total phase by {dist:.3e} > {tol:.3e}"
    return None


def cmd_verify(args) -> int:
    if args.trials < 1:
        return _fail_input(f"--trials must be at least 1, got {args.trials}")
    if args.dim < 1:
        return _fail_input(f"--dim must be at least 1, got {args.dim}")
    if args.seed < 0:
        return _fail_input(f"--seed must be at least 0, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        return _fail_input(f"--tol must be finite and at least 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    for _ in range(args.trials):
        inst_seed = int(rng.integers(0, 2**62))
        problem = random_instance(RandomInstanceSpec(args.dim, args.dim, inst_seed))
        try:
            failure = _verify_trial(problem, rng, args.tol)
        except GeometricPhaseError as exc:
            failure = str(exc)
        if failure is not None:
            print(f"verification failed for instance seed {inst_seed}: {failure}")
            print(f"passed 0 of {args.trials} batches before first failure")
            return EXIT_VERIFY_FAILED
    print(f"verified {args.trials}/{args.trials} random instances (dim {args.dim}): "
          f"ancilla equation, phase identity, parallel transport, gauge invariance "
          f"all within tolerance {args.tol:.1e}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if not 256 <= args.holonomy_steps <= MAX_STEPS:
        return _fail_input(
            f"--holonomy-steps must be in 256..2**52, got {args.holonomy_steps}"
        )
    if not (math.isfinite(args.time) and args.time > 0):
        return _fail_input(f"--time must be finite and positive, got {args.time}")
    problem = _load(args.input)
    batch = evaluate(prepare_problem(problem), args.time)
    try:
        holonomy = discrete_uhlmann_holonomy(
            problem, PathSampling(args.time, args.holonomy_steps))
    except VanishingOverlap:
        holonomy = math.nan
    values = {
        "gamma_total": float(batch.gamma_total[0]),
        "uhlmann": float(batch.uhlmann[0]),
        "sjoqvist": float(batch.sjoqvist[0]),
        "holonomy": holonomy,
    }
    names = list(values)
    distances = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            key = f"{a}_vs_{b}"
            if math.isnan(values[a]) or math.isnan(values[b]):
                distances[key] = None
            else:
                distances[key] = circular_distance(values[a], values[b])
    out = {
        "t": args.time,
        **{k: (None if math.isnan(v) else v) for k, v in values.items()},
        "holonomy_steps": args.holonomy_steps,
        "overlap_magnitude": float(batch.overlap_magnitude[0]),
        "pairwise_distances": distances,
    }
    _emit(json.dumps(out, indent=2) + "\n", args.output)
    undefined = any(math.isnan(v) for v in values.values())
    return EXIT_UNDEFINED_PHASE if undefined else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged, and building it costs more than a small op."""
    parser = argparse.ArgumentParser(
        prog="mixedphase",
        description="Geometric phases of mixed states under unitary evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="all phases of a problem file at one time")
    p.add_argument("--input", required=True, help="problem file (JSON)")
    p.add_argument("--time", "-t", type=float, required=True, help="evolution time")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("sweep", help="phases over a uniform time grid")
    p.add_argument("--input", required=True)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid points (>= 2)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="randomized invariant verification batches")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("compare",
                       help="phase definitions vs the brute-force holonomy")
    p.add_argument("--input", required=True)
    p.add_argument("--time", "-t", type=float, required=True)
    p.add_argument("--holonomy-steps", type=int, default=4096,
                   help="discretization steps (256 to 2**52)")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input, including a problem whose numbers
    overflow a double and an output path that cannot be written, exits 2
    with one error line and no traceback."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except FloatingPointError as exc:
        return _fail_input(f"input magnitudes exceed the range of a double ({exc})")
    except (GeometricPhaseError, ValueError, OSError) as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
