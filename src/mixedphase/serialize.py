"""Problem-file and report serialization.

Problem files are JSON with keys dimension, rho, hamiltonian; matrices
are row-major nested arrays and every complex number is a two-element
[re, im] array.

Every report, CSV or JSON, fills a %-template with its numbers (sweep
and compute: each time's row, _rows); a JSON template has the layout of
json.dumps(report, indent=2), its "key": %s lines made by _slots. A nan
(undefined) phase is nan in CSV and null in JSON. The sweep writers write
each row to a text stream as it is formatted: the text is never held whole.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import chain, combinations
from typing import Iterator, NoReturn, TextIO

import numpy as np

from .angles import circular_distance
from .errors import GeometricPhaseError
from .phases import _PHASES, PhaseBatch
from .states import Problem, validate_density


class ProblemFileError(GeometricPhaseError):
    """Problem file does not match the expected schema."""


def _matrix_from_rows(rows, n: int) -> np.ndarray | None:
    """The n x n matrix of rows, n lists of n [re, im] pairs taken one at
    a time, so that one row's tree need be alive; or None if a row or an
    entry has another form, a value is not an int or a float (exact
    types: JSON true/false load as bool, an int subclass), or a value is
    too large for a double or not finite."""
    values = []
    for row in rows:
        if (type(row) is not list or len(row) != n or set(map(type, row)) != {list}
                or set(map(len, row)) != {2}):
            return None
        values += chain.from_iterable(row)
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        # .view keeps the sign of a -0.0 real part; re + 1j*im would not
        out = np.array(values, dtype=float).view(complex).reshape(n, n)
    except OverflowError:  # an integer too large for a double
        return None
    return out if np.isfinite(out).all() else None


def _matrix_from_pairs(obj, n: int, name: str) -> np.ndarray:
    out = _matrix_from_rows(obj, n) if type(obj) is list and len(obj) == n else None
    if out is None:
        _raise_first_malformed(obj, n, name)
    return out


def _raise_first_malformed(obj, n: int, name: str) -> NoReturn:
    """Raise ProblemFileError naming the first row or entry, in row-major
    order, that fails the scans of _matrix_from_rows or holds an integer
    too large for a double; or, if none does, the non-finite entries."""
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
            if (type(entry) is not list or len(entry) != 2
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
    raise ProblemFileError(f"{name}: non-finite entries")


def _matrix_to_pairs(m: np.ndarray) -> list:
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


_SCAN = json.JSONDecoder().scan_once  # the C scanner json.loads uses
_WS = "[ \t\n\r]*"  # JSON's whitespace, for each space in the patterns below
# save_problem's layout, and its compact form, around the scanned values
_OPEN = re.compile(r'\{ "dimension" : '.replace(" ", _WS))
_RHO = re.compile(r' , "rho" : \[ '.replace(" ", _WS))
_HAMILTONIAN = re.compile(r' , "hamiltonian" : \[ '.replace(" ", _WS))
_CLOSE = re.compile(r" \} ".replace(" ", _WS))
_SEPARATOR = re.compile(r" ([,\]]) ".replace(" ", _WS))  # after a row: "," or the list's "]"


def _streamed_matrices(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(rho, hamiltonian) of text in save_problem's layout, {"dimension":
    n, "rho": [n rows], "hamiltonian": [n rows]} with JSON whitespace
    between tokens and after the }, each matrix's rows scanned one at a
    time and their values kept; or None, for the whole-tree parse to
    judge, if the layout differs, n is not an int of at least 1, or a
    scan or a conversion raises or refuses."""

    def rows(n):
        # the n rows that start at text[end]; leaves end past the list's ]
        nonlocal end
        for i in range(n):
            row, end = _SCAN(text, end)
            yield row
            separator = _SEPARATOR.match(text, end)
            if separator is None or separator[1] != ("]" if i == n - 1 else ","):
                raise ValueError("not a list of n rows")
            end = separator.end()

    try:
        # a token that does not match gives None, whose .end() raises
        n, end = _SCAN(text, _OPEN.match(text).end())
        if type(n) is not int or n < 1:
            return None
        end = _RHO.match(text, end).end()
        rho = _matrix_from_rows(rows(n), n)
        end = _HAMILTONIAN.match(text, end).end()
        hamiltonian = _matrix_from_rows(rows(n), n)
    except Exception:
        return None
    if rho is None or hamiltonian is None or _CLOSE.fullmatch(text, end) is None:
        return None
    return rho, hamiltonian


def problem_to_dict(problem: Problem) -> dict:
    return {
        "dimension": problem.dim,
        "rho": _matrix_to_pairs(problem.rho0.mat),
        "hamiltonian": _matrix_to_pairs(problem.hamiltonian_lab),
    }


def _named(name: str, check, *args):
    """check(*args), with name prefixed to the message of the error it
    raises; the error keeps its type."""
    try:
        return check(*args)
    except (GeometricPhaseError, ValueError) as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def _read_matrices(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    matrices = _streamed_matrices(text)
    if matrices is not None:
        return matrices
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON: {exc}") from exc
    except ValueError:  # the one other: an integer past int's digit limit
        raise ProblemFileError("invalid JSON: an integer has more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ProblemFileError("invalid JSON: nested too deeply") from None
    del text  # kept through the conversion, it took compute's peak to 1.83 MB
    return _matrices_from_dict(data)


def load_problem(path) -> Problem:
    """The problem in the file at path: the problem-file schema's one reader."""
    # A file in save_problem's layout, indented or compact, is read by
    # _streamed_matrices and peaks at the file read (its bytes and the
    # decoded text), or at the text plus one matrix's values, one row's
    # parse and both arrays: 0.81 MB at n = 64, against 1.59 MB for the
    # text plus the whole tree. Every other file goes to the whole-tree
    # parse (json.loads, then _matrices_from_dict), which writes every
    # error text.
    rho, ham = _read_matrices(path)
    return _named("hamiltonian", Problem, _named("rho", validate_density, rho), ham)


def save_problem(problem: Problem, path) -> None:
    """Canonical serializer; floats round-trip bitwise through JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


# the headline PhaseBatch columns, as sweep and compute write them and compare reads them
_HEADLINE = ("t", *_PHASES, "overlap_magnitude")


def _slots(indent: str, keys) -> str:
    """A JSON object's "key": %s lines at indent, as json.dumps(indent=2) joins them."""
    return ",\n".join(f'{indent}"{key}": %s' for key in keys)


def _strings(items: list[str], indent: str) -> str:
    """A list of strings as json.dumps(indent=2) writes it, its closing ] at indent."""
    return json.dumps(items, indent=2).replace("\n", "\n" + indent) if items else "[]"


# compare's report, with %s in each value slot
_COMPARED = (*_PHASES, "holonomy")
_COMPARE_TEMPLATE = '{\n%s,\n  "pairwise_distances": {\n%s\n  },\n  "warnings": %%s\n}\n' % (
    _slots("  ", ("t", *_COMPARED, "holonomy_steps", "overlap_magnitude")),
    _slots("    ", (f"{a}_vs_{b}" for a, b in combinations(_COMPARED, 2))))


def _rows(batch: PhaseBatch, *per_component):
    """Each time's row as a list of floats: the _HEADLINE columns, then
    the given [time, component] arrays interleaved component by
    component."""
    k, head = len(per_component), len(_HEADLINE)
    table = np.empty((len(batch), head + k * batch.q.size))
    table[:, :head] = np.transpose([getattr(batch, name) for name in _HEADLINE])
    for col, values in enumerate(per_component, head):
        table[:, col::k] = values
    for row in table:
        yield row.tolist()


def sweep_header(dim: int) -> str:
    cols = list(_HEADLINE)
    for j in range(dim):
        cols += [f"q_{j}", f"nu_{j}", f"gamma_{j}"]
    return ",".join(cols)


def sweep_to_csv(batch: PhaseBatch, out: TextIO) -> None:
    """Write the header, then one row per time in the sweep_header column
    order, to the text stream out, each row as soon as it is formatted."""
    cells = ["%r"] * len(_HEADLINE) + [f"{q!r},%r,%r" for q in batch.q.tolist()]
    template = ",".join(cells) + "\n"
    out.write(sweep_header(batch.q.size) + "\n")
    out.writelines(template % tuple(row) for row in _rows(batch, batch.visibility, batch.gamma))


def reports_to_json(batch: PhaseBatch, indent: str) -> Iterator[str]:
    """Yield each row's report object as json.dumps(report, indent=2) writes it,
    every line prefixed with indent: t, the three headline phases (null where nan),
    overlap_magnitude, per component j, q, visibility, gamma, dyn_phase and
    total_phase, then the row's list of batch.warnings()."""
    # at n = 64 one report takes about 250 us, json.dumps(report, indent=2) 600 us
    i1, i2, i3 = indent + "  ", indent + "    ", indent + "      "
    # j and q_j formatted once; a float's str is its repr, as in json
    slots = _slots(i3, ("visibility", "gamma", "dyn_phase", "total_phase"))
    components = ",\n".join(f'{i2}{{\n{i3}"j": {j},\n{i3}"q": {q!r},\n{slots}\n{i2}}}'
                            for j, q in enumerate(batch.q.tolist()))
    head = _slots(i1, _HEADLINE)
    template = (f'{indent}{{\n{head},\n{i1}"components": [\n{components}\n{i1}],\n'
                f'{i1}"warnings": %s\n{indent}}}')
    rows = _rows(batch, batch.visibility, batch.gamma, batch.dyn_phase, batch.total_phase)
    for row, warnings in zip(rows, batch.warnings()):
        row[1:4] = ["null" if math.isnan(x) else x for x in row[1:4]]
        row.append(_strings(warnings, i1))
        yield template % tuple(row)


def compare_to_json(batch: PhaseBatch, holonomy: float, steps: int) -> str:
    """compare's report on a batch of one time, as json.dumps(report, indent=2)
    + "\n" writes it: t, the three headline phases, the holonomy of the
    density-matrix path, the number of steps it was taken in, overlap_magnitude,
    the circular distance of each pair of the four phases, then the time's
    batch.warnings(). A nan phase, and each distance from one, is null."""
    t, *phases, overlap = [getattr(batch, name).item() for name in _HEADLINE]
    phases.append(holonomy)
    # math.remainder keeps a nan, so a distance from a nan phase is nan
    distances = [circular_distance(a, b) for a, b in combinations(phases, 2)]
    cells = ["null" if math.isnan(x) else x for x in (*phases, *distances)]
    return _COMPARE_TEMPLATE % (t, *cells[:4], steps, overlap, *cells[4:],
                                _strings(batch.warnings()[0], "  "))


def sweep_to_json(batch: PhaseBatch, out: TextIO) -> None:
    """Write the list of every row's report object, as json.dumps(reports,
    indent=2) writes it, to the text stream out, each report as soon as
    it is formatted."""
    separator = "[\n"
    for report in reports_to_json(batch, "  "):
        out.write(separator)
        out.write(report)
        separator = ",\n"
    out.write("[]\n" if separator == "[\n" else "\n]\n")
