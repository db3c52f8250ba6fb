"""Problem-file and report serialization.

Problem files are JSON with keys dimension, rho, hamiltonian; matrices
are row-major nested arrays and every complex number is a two-element
[re, im] array. Reports serialize to JSON (undefined phases as null) or
CSV sweep tables (undefined phases as the literal nan).
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import GeometricPhaseError
from .phases import PhaseBatch
from .states import Problem, validate_density


class ProblemFileError(GeometricPhaseError):
    """Problem file does not match the expected schema."""


def _matrix_from_pairs(obj, n: int, name: str) -> np.ndarray:
    # C-level scans of the rows, entries and values, then one conversion.
    # Exact types: JSON true/false load as bool, an int subclass.
    if (type(obj) is list and len(obj) == n and set(map(type, obj)) == {list}
            and set(map(len, obj)) == {n}):
        entries = list(chain.from_iterable(obj))
        if (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}
                and set(map(type, chain.from_iterable(entries))) <= {int, float}):
            try:
                # .view keeps the sign of a -0.0 real part; re + 1j*im would not
                out = np.array(entries, dtype=float).view(complex).reshape(n, n)
            except OverflowError:  # an integer too large for a double
                pass
            else:
                if not np.isfinite(out).all():
                    raise ProblemFileError(f"{name}: non-finite entries")
                return out
    _raise_first_malformed(obj, n, name)


def _raise_first_malformed(obj, n: int, name: str) -> NoReturn:
    """Raise ProblemFileError naming the first row or entry, in row-major
    order, that fails the scans of _matrix_from_pairs or holds an
    integer too large for a double."""
    if type(obj) is not list or len(obj) != n:
        raise ProblemFileError(
            f"{name}: expected {n} rows to match dimension {n}, "
            f"got {len(obj) if type(obj) is list else type(obj).__name__}"
        )
    for i, row in enumerate(obj):
        if type(row) is not list or len(row) != n:
            raise ProblemFileError(
                f"{name}: row {i} must have {n} entries, "
                f"got {len(row) if type(row) is list else type(row).__name__}"
            )
        for j, entry in enumerate(row):
            if (type(entry) not in (list, tuple) or len(entry) != 2
                    or not set(map(type, entry)) <= {int, float}):
                raise ProblemFileError(
                    f"{name}[{i}][{j}]: complex entries must be [re, im] pairs"
                )
            try:
                float(entry[0]), float(entry[1])
            except OverflowError:
                raise ProblemFileError(
                    f"{name}[{i}][{j}]: entry is too large for a double"
                ) from None


def _matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _matrices_from_dict(data) -> tuple[np.ndarray, np.ndarray]:
    """(rho, hamiltonian) of a problem-file dictionary; shape errors raise
    ProblemFileError."""
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")
    for key in ("dimension", "rho", "hamiltonian"):
        if key not in data:
            raise ProblemFileError(f"missing required key: {key}")
    n = data["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProblemFileError(f"dimension must be a positive integer, got {n!r}")
    return (_matrix_from_pairs(data["rho"], n, "rho"),
            _matrix_from_pairs(data["hamiltonian"], n, "hamiltonian"))


def problem_from_dict(data: dict) -> Problem:
    """Parse and validate a problem-file dictionary. Shape errors raise
    ProblemFileError; density-matrix invariant violations propagate from
    validation with the violated invariant named."""
    rho, ham = _matrices_from_dict(data)
    return Problem(validate_density(rho), ham)


def problem_to_dict(problem: Problem) -> dict:
    return {
        "dimension": problem.dim,
        "rho": _matrix_to_pairs(problem.rho0.mat),
        "hamiltonian": _matrix_to_pairs(problem.hamiltonian_lab),
    }


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        # json.load builds a list per matrix entry (8,000 at n = 64), all
        # alive until it returns: a collection during the parse finds no
        # garbage, yet about ten run per such file and push the lists
        # toward full collections.
        enabled = gc.isenabled()
        gc.disable()
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ProblemFileError("invalid JSON: nested too deeply") from None
        finally:
            if enabled:
                gc.enable()
    rho, ham = _matrices_from_dict(data)
    del data  # free the parsed tree before validation decomposes rho
    return Problem(validate_density(rho), ham)


def save_problem(problem: Problem, path) -> None:
    """Canonical serializer; floats round-trip bitwise through JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def _nullable(x: float):
    return None if math.isnan(x) else float(x)


def report_warnings(batch: PhaseBatch, i: int) -> list[str]:
    """The warnings of row i of batch."""
    warnings = []
    if batch.degenerate_spectrum_warning:
        warnings.append(
            "spectrum is (near-)degenerate: eigenbasis-dependent quantities "
            "are not unique within degenerate blocks"
        )
    for name in ("gamma_total", "uhlmann", "sjoqvist"):
        if math.isnan(getattr(batch, name)[i]):
            warnings.append(
                f"{name} undefined at a nodal point "
                f"(overlap magnitude {batch.overlap_magnitude[i]:.3e})"
            )
    return warnings


def report_to_dict(batch: PhaseBatch, i: int) -> dict:
    """Row i of batch as the JSON report object."""
    columns = zip(batch.q.tolist(), batch.visibility[i].tolist(),
                  batch.gamma[i].tolist(), batch.dyn_phase[i].tolist(),
                  batch.total_phase[i].tolist())
    return {
        "t": float(batch.t[i]),
        "gamma_total": _nullable(batch.gamma_total[i]),
        "uhlmann": _nullable(batch.uhlmann[i]),
        "sjoqvist": _nullable(batch.sjoqvist[i]),
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
        "warnings": report_warnings(batch, i),
    }


def sweep_header(dim: int) -> str:
    cols = ["t", "gamma_total", "uhlmann", "sjoqvist", "overlap_magnitude"]
    for j in range(dim):
        cols += [f"q_{j}", f"nu_{j}", f"gamma_{j}"]
    return ",".join(cols)


def sweep_to_csv(batch: PhaseBatch) -> str:
    """One row per time in the sweep_header column order, formatted
    straight from the batch arrays.

    q_j does not depend on t, so it is formatted once, into a %-template
    for the row; each row fills in only t, the four headline columns and
    the nu_j, gamma_j pairs. repr and str of a float are the same text.
    """
    n = batch.q.size
    table = np.empty((len(batch), 5 + 2 * n))
    for col, values in enumerate((batch.t, batch.gamma_total, batch.uhlmann,
                                  batch.sjoqvist, batch.overlap_magnitude)):
        table[:, col] = values
    table[:, 5::2] = batch.visibility
    table[:, 6::2] = batch.gamma
    template = ",".join(["%r"] * 5 + [f"{q!r},%r,%r" for q in batch.q.tolist()])
    lines = [sweep_header(n)]
    lines += [template % tuple(row.tolist()) for row in table]
    lines.append("")  # the trailing newline, without copying the joined text
    return "\n".join(lines)


def sweep_to_json(batch: PhaseBatch) -> str:
    return json.dumps([report_to_dict(batch, i) for i in range(len(batch))],
                      indent=2) + "\n"
