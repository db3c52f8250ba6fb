#!/usr/bin/env python3
"""Closed-loop benchmark of the four mixedphase CLI commands.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client in one process sends each op only after the previous one
returned. An op is one in-process `mixedphase.cli.main(argv)` call, so
interpreter start-up is left out, with its output captured in memory
and checked against the independent scipy reference in reference.py.
Inputs come from problems.py, seeded by --seed; the library receives
only the generated files (and, for verify, a seed drawn from the same
stream).

--trace 0 measures the end-to-end metrics with tracing off. Their times
are rescaled to a reference machine speed by a calibration loop timed
between the ops (see Calibration); raw medians are kept in the details.
--trace 1 alternates untraced and traced ops on the same input and
reports the per-layer metrics of tracer.py, the tracing overhead and
byte-for-byte agreement of traced and untraced output. --workload all
runs every workload untraced and prints each end-to-end metric with its
unit. BENCHMARK.json says why each workload is there and which layer
metrics should move its end-to-end numbers.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. The line before it holds provenance and details;
the full record and the traced spans are written under bench/.work/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

# One BLAS thread, set before anything loads numpy: faster than two at
# n <= 64 on a 2-core machine, and independent of what else the machine
# runs. numpy, scipy and the package are imported inside functions.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", ".work")

WORKLOADS = ("sweep", "compare", "compute", "verify")
# Workload sizes are part of each workload's definition.
SWEEP_DIM, SWEEP_GRID = 16, (0.0, 40.0, 400)
COMPARE_DIM, COMPARE_T, COMPARE_STEPS = 8, 3.0, 2048
COMPUTE_DIM, COMPUTE_T = 64, 4.0
VERIFY_DIM, VERIFY_TRIALS, VERIFY_TOL = 8, 20, "1e-9"
# Distinct inputs each workload's ops cycle through. compare needs many:
# its phase_err, the oracle's discretisation error, varies threefold
# between instances; a 20 s run (~180 ops) covers all 128.
POOL = {"sweep": 4, "compare": 128, "compute": 16, "verify": 8}
PHASE_ERR_FLOOR = 1e-12
TAIL_BEYOND = 10      # op_tail_s: the sample with this many slower ones
WARMUP_OPS, WARMUP_S = 3, 1.0
SPAN_OPS = 2          # traced ops whose spans are written out
# Reference speed: the calibration loop's time on an uncontended core of
# a 2.1 GHz Intel Xeon. Timed results are reported as if every op had run
# at that speed.
CALIBRATION_SEED, CALIBRATION_REF_S = 20260101, 5.0e-3


@dataclass(frozen=True)
class OpInput:
    argv: list[str]
    check: Callable[[str], tuple[float, list[str]]]


@dataclass
class Op:
    wall: float
    code: object
    text: str
    err: str


def build_inputs(name: str, seed: int, work: str):
    """(op inputs, setup problem files, items per op) for one workload."""
    import numpy as np

    import problems
    import reference as ref

    rng = np.random.default_rng(seed)
    if name == "sweep":
        t0, t1, steps = SWEEP_GRID
        grid = np.linspace(t0, t1, steps)
        pool = problems.make_pool(rng, SWEEP_DIM, POOL[name], work, name)
        ops = [OpInput(["sweep", "--input", p, "--t-start", repr(t0), "--t-end", repr(t1),
                        "--steps", str(steps), "--format", "csv"],
                       functools.partial(ref.check_sweep, ref=ref.reference(rho, h, grid)))
               for p, rho, h in pool]
        return ops, [p for p, _, _ in pool], steps
    if name == "compare":
        pool = problems.make_pool(rng, COMPARE_DIM, POOL[name], work, name)
        ops = [OpInput(["compare", "--input", p, "-t", repr(COMPARE_T),
                        "--holonomy-steps", str(COMPARE_STEPS)],
                       functools.partial(ref.check_compare,
                                         ref=ref.reference(rho, h, [COMPARE_T]),
                                         steps=COMPARE_STEPS))
               for p, rho, h in pool]
        return ops, [p for p, _, _ in pool], 1
    if name == "compute":
        pool = problems.make_pool(rng, COMPUTE_DIM, POOL[name], work, name)
        ops = [OpInput(["compute", "--input", p, "-t", repr(COMPUTE_T)],
                       functools.partial(ref.check_compute,
                                         ref=ref.reference(rho, h, [COMPUTE_T])))
               for p, rho, h in pool]
        return ops, [p for p, _, _ in pool], 1
    if name == "verify":
        seeds = [int(s) for s in rng.integers(0, 2**31, size=POOL[name])]
        setup = problems.make_pool(rng, VERIFY_DIM, VERIFY_TRIALS, work, name)
        check = functools.partial(ref.check_verify, trials=VERIFY_TRIALS, dim=VERIFY_DIM)
        ops = [OpInput(["verify", "--dim", str(VERIFY_DIM), "--trials", str(VERIFY_TRIALS),
                        "--seed", str(s), "--tol", VERIFY_TOL], check) for s in seeds]
        return ops, [p for p, _, _ in setup], VERIFY_TRIALS
    raise ValueError(f"unknown workload {name!r}")


def corrupt(name: str, text: str) -> str:
    """The op's output with one returned phase moved by 1e-6 (verify: one
    instance reported as not verified), for the negative control."""
    if name == "verify":
        return text.replace(f"{VERIFY_TRIALS}/{VERIFY_TRIALS}",
                            f"{VERIFY_TRIALS - 1}/{VERIFY_TRIALS}", 1)
    if name == "sweep":
        lines = text.split("\n")
        cols = lines[-2].split(",")
        cols[2] = repr(float(cols[2]) + 1e-6)
        lines[-2] = ",".join(cols)
        return "\n".join(lines)
    out = json.loads(text)
    out["uhlmann"] += 1e-6
    return json.dumps(out)


class Bench:
    """One workload's inputs and the means to run and judge its ops."""

    def __init__(self, name: str, seed: int):
        import mixedphase.cli
        import mixedphase.phases
        import mixedphase.serialize

        self.cli = mixedphase.cli
        self.phases = mixedphase.phases
        self.serialize = mixedphase.serialize
        self.name = name
        self.work = os.path.join(WORK, f"{name}-{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.inputs, self.setup_files, self.items = build_inputs(name, seed, self.work)
        self._verdicts: dict = {}

    def op(self, i: int) -> Op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.inputs[i].argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op
                code = f"raised {exc!r}"
            wall = time.perf_counter() - start
        return Op(wall, code, out.getvalue(), err.getvalue())

    def judge(self, i: int, op: Op) -> tuple[float, list[str]]:
        """Worst phase error and problems; identical output of the same
        input is judged once."""
        if op.code != 0:
            return 0.0, [f"exit code {op.code!r}: {op.err.strip()[:200]}"]
        key = (i, op.text)
        if key not in self._verdicts:
            self._verdicts[key] = self.inputs[i].check(op.text)
        return self._verdicts[key]

    def setup_sample(self, i: int) -> float:
        path = self.setup_files[i % len(self.setup_files)]
        start = time.perf_counter()
        self.phases.prepare_problem(self.serialize.load_problem(path))
        return time.perf_counter() - start

    def peak_mem_mb(self) -> tuple[float, Op]:
        tracemalloc.start()
        try:
            op = self.op(0)
            return tracemalloc.get_traced_memory()[1] / 1e6, op
        finally:
            tracemalloc.stop()

    def warm_up(self) -> list[str]:
        """Untimed ops until caches are warm; returns their problems, since
        these outputs are checked like any other."""
        start, n, problems = time.perf_counter(), 0, []
        while n < WARMUP_OPS or time.perf_counter() - start < WARMUP_S:
            k = n % len(self.inputs)
            problems += self.judge(k, self.op(k))[1]
            self.setup_sample(n)
            n += 1
        gc.collect()
        return problems

    def negative_control(self, i: int, op: Op) -> bool:
        """True when the checker rejects a corrupted copy of a correct output."""
        if op.code != 0:
            return False
        return bool(self.inputs[i].check(corrupt(self.name, op.text))[1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: its value
    and its percentile rank."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (1.0 - min(TAIL_BEYOND, len(ordered) - 1) / len(ordered))


class Calibration:
    """A fixed stand-in for the ops' kind of work, timed between ops.

    Small dense LAPACK calls and Python-level JSON work on matrices drawn
    from a constant seed, independent of the package and the workload.
    On a shared machine the speed of the CPU drifts by +-30% within
    seconds; the ops and this loop slow down together, so their ratio
    stays within a few percent where raw wall time does not.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(CALIBRATION_SEED)
        a = rng.standard_normal((8, 12, 12)) + 1j * rng.standard_normal((8, 12, 12))
        self.np = np
        self.mats = list(a + a.conj().transpose(0, 2, 1))

    def time(self) -> float:
        np = self.np
        start = time.perf_counter()
        for _ in range(6):
            for m in self.mats:
                w, q = np.linalg.eigh(m)
                np.linalg.svd(m)
                (q * np.exp(-1j * w)) @ q.conj().T
            json.loads(json.dumps(m.real.tolist()))
        return time.perf_counter() - start


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced closed loop: end-to-end metrics.

    Every op and set-up time is rescaled to reference speed: multiplied by
    CALIBRATION_REF_S over the mean calibration time measured just before
    and just after it. Raw medians are kept in the details.
    """
    peak_mb, op = bench.peak_mem_mb()
    untimed_problems = bench.judge(0, op)[1] + bench.warm_up()
    calibration = Calibration()
    calibration.time()
    walls, setups, scales, failures = [], [], [], []
    errs = {}  # input index -> worst phase error of its output
    control = None
    cal_before = calibration.time()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(bench.inputs)
        op = bench.op(k)
        # set-up interleaved with the ops, so both see the same machine state
        setup = bench.setup_sample(i)
        errs[k], problems = bench.judge(k, op)
        if problems:
            failures.append(f"op {i} ({bench.inputs[k].argv[0]}): {problems[:3]}")
        elif control is None:
            control = bench.negative_control(k, op)
        cal_after = calibration.time()
        walls.append(op.wall)
        setups.append(setup)
        scales.append(2.0 * CALIBRATION_REF_S / (cal_before + cal_after))
        cal_before = cal_after
        i += 1
    attempted, failed = len(walls), len(failures)
    ref_walls = [w * c for w, c in zip(walls, scales)]
    tail_s, tail_pct = tail(ref_walls)
    metrics = {
        "items_per_s": (bench.items * (attempted - failed) / math.fsum(ref_walls), "1/s"),
        "op_p50_s": (statistics.median(ref_walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(s * c for s, c in zip(setups, scales)), "s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "phase_err": (max(PHASE_ERR_FLOOR, math.sqrt(
            math.fsum(e * e for e in errs.values()) / len(errs))), "rad"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "items_per_op": bench.items,
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_samples": attempted,
        "setup_samples": len(setups),
        "phase_err_inputs": len(errs),
        "raw_op_p50_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setups),
        "slowdown_vs_reference_p50": statistics.median(1.0 / c for c in scales),
        "fail_frac": failed / attempted,
        "negative_control": "rejected" if control else "NOT REJECTED",
        "failures": failures[:5],
        "untimed_op_problems": untimed_problems[:5],
    }
    return {"correct": failed == 0 and bool(control) and not untimed_problems,
            "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Alternating untraced and traced ops on the same input: per-layer
    metrics of the traced ops, and the tracing overhead as the difference
    of the two medians. A layer's share is its self time over the traced
    op's wall time."""
    from tracer import Tracer

    tracer = Tracer()
    failures = [f"warm-up: {p}" for p in bench.warm_up()]
    plain_walls, traced_walls, summaries, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(bench.inputs)
        plain = bench.op(k)
        tracer.reset()
        tracer.install()
        try:
            root = tracer.begin()
            start = time.perf_counter()
            traced = bench.op(k)
            tracer.end(root, start, time.perf_counter())
        finally:
            tracer.uninstall()
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        summaries.append(tracer.summary(traced.wall))
        if len(spans) < SPAN_OPS:
            spans.append(tracer.spans)
        for label, op in (("untraced", plain), ("traced", traced)):
            problems = bench.judge(k, op)[1]
            if problems:
                failures.append(f"op {i} {label}: {problems[:3]}")
        if (traced.code, traced.text) != (plain.code, plain.text):
            failures.append(f"op {i}: traced output differs from untraced output")
        i += 1
    metrics = {key: (statistics.median(s[key] for s in summaries), unit)
               for key, unit in per_layer_units().items() if key != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), "s")
    with open(os.path.join(bench.work, "spans.jsonl"), "w", encoding="utf-8") as fh:
        for n, op_spans in enumerate(spans):
            for sid, name, start, end, parent, _cs, _ce in op_spans:
                fh.write(json.dumps({"op": n, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    attempted = 2 * i
    details = {"traced_ops": i, "untraced_op_p50_s": statistics.median(plain_walls),
               "traced_op_p50_s": statistics.median(traced_walls),
               "failures": failures[:5]}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "details": details}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from provenance import provenance

    bench = Bench(name, seed)
    gc.collect()
    result = (measure_traced if trace else measure)(bench, seconds)
    result["workload"] = name
    result["provenance"] = provenance(ROOT, SRC, seed)
    with open(os.path.join(bench.work, f"result-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return result


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixedphase", "cli.py")):
        print(f"error: no mixedphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mixedphase

    if os.path.dirname(os.path.abspath(mixedphase.__file__)) != os.path.join(SRC,
                                                                             "mixedphase"):
        raise RuntimeError(f"imported mixedphase from {mixedphase.__file__}, not {SRC}")
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": result["workload"], "details": result["details"],
                          "provenance": result["provenance"]}))
        print(result_line(result))
        return 0
    results = {}
    for name in WORKLOADS:
        result = run(name, args.seed, args.seconds, False)
        results[name] = result
        for key, (value, unit) in result["metrics"].items():
            print(f"{name:8} {key:12} {value:<14.6g} {unit}")
        d = result["details"]
        print(f"{name:8} {'fail_frac':12} {d['fail_frac']:<14.6g} ratio"
              f"   (correct: {result['correct']}; op_tail_s is"
              f" p{d['op_tail_percentile']} of {d['op_tail_samples']} ops)")
    print(json.dumps({name: json.loads(result_line(r)) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
