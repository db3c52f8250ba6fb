"""Independent reference phases and the output checkers built on them.

Nothing here imports mixedphase. The ancilla Hamiltonian comes from
scipy's Bartels-Stewart solver applied to the defining equation
C^2 K^T + K^T C^2 = -2 C H' C, and the evolution operators from scipy's
Pade matrix exponential, where the library uses a closed-form entrywise
solve and eigendecomposition-based exponentials. The total geometric
phase and the Uhlmann phase are both checked against
arg Tr[C U C V^T], so the library's two routes are each compared with a
third.

Each checker returns (worst phase error, list of problems found); an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# An op fails when a returned phase is farther than this from the
# reference; the holonomy oracle is a discretisation, so it gets the
# acceptance suite's bound instead.
PHASE_TOL = 1e-9
HOLONOMY_TOL = 2e-3
# Non-phase numbers (weights, visibilities, magnitudes, dynamical phases).
VALUE_TOL = 1e-9


def circular_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, math.tau))


@dataclass(frozen=True)
class Reference:
    """Reference values at each requested time t (arrays indexed [t]
    or [t, component])."""

    times: np.ndarray
    uhlmann: np.ndarray            # = total geometric phase
    sjoqvist: np.ndarray
    overlap_magnitude: np.ndarray  # |Tr[C U C V^T]|
    sjoqvist_magnitude: np.ndarray
    q: np.ndarray                  # [component]
    visibility: np.ndarray
    gamma: np.ndarray
    dyn_phase: np.ndarray
    total_phase: np.ndarray


def reference(rho: np.ndarray, h: np.ndarray, times) -> Reference:
    times = np.asarray(times, dtype=float)
    lam, e = scipy.linalg.eigh(rho)
    lam, e = np.clip(lam[::-1], 0.0, 1.0), e[:, ::-1]  # descending
    amps = np.sqrt(lam)
    c = np.diag(amps)
    hp = e.conj().T @ h @ e
    k = scipy.linalg.solve_sylvester(np.diag(lam), np.diag(lam), -2.0 * c @ hp @ c).T
    kappas, qk = scipy.linalg.eigh((k + k.conj().T) / 2.0)
    w = qk.conj().T * amps  # row j: component j at t = 0
    weights = np.abs(qk.conj().T) ** 2 @ lam
    out = {name: [] for name in ("uhlmann", "sjoqvist", "overlap_magnitude",
                                 "sjoqvist_magnitude", "visibility", "gamma",
                                 "dyn_phase", "total_phase")}
    for t in times:
        u = scipy.linalg.expm(-1j * t * hp)
        v = scipy.linalg.expm(-1j * t * k)
        m = np.einsum("jk,kl,jl->j", w.conj(), u, w)
        dyn = kappas * t
        trace = np.trace(c @ u @ c @ v.T)
        sjoqvist = np.sum(lam * np.diag(u) * np.exp(1j * np.diag(hp).real * t))
        out["uhlmann"].append(np.angle(trace))
        out["overlap_magnitude"].append(abs(trace))
        out["sjoqvist"].append(np.angle(sjoqvist))
        out["sjoqvist_magnitude"].append(abs(sjoqvist))
        out["visibility"].append(np.abs(m) / weights)
        out["gamma"].append(np.angle(m * np.exp(-1j * dyn)))
        out["dyn_phase"].append(dyn)
        out["total_phase"].append(np.angle(m))
    return Reference(times=times, q=weights,
                     **{name: np.array(vals) for name, vals in out.items()})


class _Audit:
    """Accumulates the worst phase error and every tolerance breach.

    A phase fails when its circular distance from the reference exceeds
    the tolerance. The worst error is the distance times the magnitude of
    the complex number the phase is the argument of: roundoff moves that
    number by a fixed absolute amount, so near a node its argument swings
    by roundoff divided by the magnitude, which would read as a change
    where nothing but roundoff changed.
    """

    def __init__(self):
        self.worst = 0.0
        self.problems: list[str] = []

    def phase(self, label: str, got, want: float, magnitude: float,
              tol: float = PHASE_TOL) -> None:
        if got is None or not math.isfinite(got):
            self.problems.append(f"{label}: got {got!r}, want {want:.17g}")
            return
        dist = circular_distance(float(got), float(want))
        self.worst = max(self.worst, dist * magnitude)
        if dist > tol:
            self.problems.append(f"{label}: off the reference by {dist:.3e}")

    def value(self, label: str, got, want: float) -> None:
        if got is None or not abs(float(got) - float(want)) <= VALUE_TOL:
            self.problems.append(f"{label}: got {got!r}, want {want:.17g}")

    def result(self) -> tuple[float, list[str]]:
        return self.worst, self.problems


def _audit_components(audit: _Audit, ref: Reference, i: int, comps: list[dict]) -> None:
    if len(comps) != ref.q.size:
        audit.problems.append(f"{len(comps)} components, want {ref.q.size}")
        return
    for j, c in enumerate(comps):
        audit.value(f"q_{j}", c.get("q"), ref.q[j])
        audit.value(f"nu_{j}", c.get("visibility"), ref.visibility[i, j])
        m_j = ref.q[j] * ref.visibility[i, j]
        audit.phase(f"gamma_{j}", c.get("gamma"), ref.gamma[i, j], m_j)
        if "dyn_phase" in c:
            audit.value(f"dyn_phase_{j}", c["dyn_phase"], ref.dyn_phase[i, j])
            audit.phase(f"total_phase_{j}", c["total_phase"], ref.total_phase[i, j], m_j)


def _audit_headline(audit: _Audit, ref: Reference, i: int, row: dict) -> None:
    audit.value("t", row.get("t"), ref.times[i])
    audit.phase("gamma_total", row.get("gamma_total"), ref.uhlmann[i],
                ref.overlap_magnitude[i])
    audit.phase("uhlmann", row.get("uhlmann"), ref.uhlmann[i], ref.overlap_magnitude[i])
    audit.phase("sjoqvist", row.get("sjoqvist"), ref.sjoqvist[i], ref.sjoqvist_magnitude[i])
    audit.value("overlap_magnitude", row.get("overlap_magnitude"),
                ref.overlap_magnitude[i])


def check_compute(text: str, ref: Reference) -> tuple[float, list[str]]:
    audit = _Audit()
    try:
        out = json.loads(text)
        _audit_headline(audit, ref, 0, out)
        _audit_components(audit, ref, 0, out["components"])
        if out["warnings"]:
            audit.problems.append(f"unexpected warnings: {out['warnings']}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        audit.problems.append(f"unparseable output: {exc!r}")
    return audit.result()


def check_sweep(text: str, ref: Reference) -> tuple[float, list[str]]:
    audit = _Audit()
    n = ref.q.size
    header = ["t", "gamma_total", "uhlmann", "sjoqvist", "overlap_magnitude"]
    for j in range(n):
        header += [f"q_{j}", f"nu_{j}", f"gamma_{j}"]
    try:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != header:
            audit.problems.append("CSV header differs from the documented columns")
        if len(rows) - 1 != ref.times.size:
            audit.problems.append(f"{len(rows) - 1} rows, want {ref.times.size}")
        for i, row in enumerate(rows[1:ref.times.size + 1]):
            vals = [float(x) for x in row]
            if len(vals) != len(header):
                audit.problems.append(f"row {i} has {len(vals)} columns")
                continue
            _audit_headline(audit, ref, i, dict(zip(header[:5], vals)))
            comps = [{"q": vals[5 + 3 * j], "visibility": vals[6 + 3 * j],
                      "gamma": vals[7 + 3 * j]} for j in range(n)]
            _audit_components(audit, ref, i, comps)
    except (ValueError, IndexError) as exc:
        audit.problems.append(f"unparseable output: {exc!r}")
    return audit.result()


def check_compare(text: str, ref: Reference, steps: int) -> tuple[float, list[str]]:
    audit = _Audit()
    try:
        out = json.loads(text)
        _audit_headline(audit, ref, 0, out)
        audit.phase("holonomy", out["holonomy"], ref.uhlmann[0], ref.overlap_magnitude[0],
                    HOLONOMY_TOL)
        if out["holonomy_steps"] != steps:
            audit.problems.append(f"holonomy_steps {out['holonomy_steps']}, want {steps}")
        names = ("gamma_total", "uhlmann", "sjoqvist", "holonomy")
        for a_i, a in enumerate(names):
            for b in names[a_i + 1:]:
                got = out["pairwise_distances"][f"{a}_vs_{b}"]
                audit.value(f"{a}_vs_{b}", got, circular_distance(out[a], out[b]))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        audit.problems.append(f"unparseable output: {exc!r}")
    return audit.result()


def check_verify(text: str, trials: int, dim: int) -> tuple[float, list[str]]:
    """verify returns no phases, so its worst error is 0 by definition;
    the reference is the documented success line (every invariant holds
    for every valid instance)."""
    lines = text.strip().splitlines()
    want = f"verified {trials}/{trials} random instances (dim {dim}):"
    if len(lines) != 1 or not lines[0].startswith(want):
        return 0.0, [f"unexpected verify output: {text.strip()[:200]!r}"]
    return 0.0, []
