"""Phase engine.

The mixed-state phases are one construction in different
representations z (unitary frames) of the ancilla's Hilbert space:

    Phi(z, t) = arg sum_j m_j(z, t) e^{-i kappa_j(z) t},
    m_j(z, t) = <e_j| z* C U(t) C z^T |e_j> = sum_a P_aj e^{-i eps_a t},

with P = |Q^dag C z^T|^2 for h' = Q diag(eps) Q^dag (H's decomposition,
made once by Problem, carried on the state's support: eps are H's
eigenvalues and Q = e^dag V) and kappa_j(z) = -<psi_j|h'|psi_j> / q_j, the
negated energy of component psi_j = C z^T |e_j> of weight q_j. The frame
that diagonalizes the ancilla Hamiltonian K (kappa_j its eigenvalues;
E_j = -kappa_j is the parallel-transport condition) gives the total
geometric phase; z = I (kappa_j = -h'_jj) gives Sjoqvist's
interferometric phase, which agrees with it only for pure states.
evaluate computes both on a whole time grid by matrix products, through
one helper for Phi's sum (_phi): once with the frame's kernel and
kappas, once with z = I. Its uhlmann column, arg Tr[C U C V^T],
contracts the frame's kernel over kappa first: the total phase again,
not an independent check. The independent checks are the discretized
holonomy oracle, the 40-digit mpmath reference of tests/exact.py
(gamma_total and sjoqvist from rho and the lab H alone) and the
benchmark's scipy reference (solve_sylvester for K, expm for U and V).

One pipeline call: evaluate(problem, times) reads every phase off the
problem's ancilla frame (Problem.frame); PhaseBatch is the only result
type, and a single t is row 0 of evaluate(problem, t), bit for bit its
row in any batch. At a nodal point evaluate stores nan, as do the
literal per-t definitions it is checked against (tests/literal.py) and
the oracles: one convention, angles.angle_or_nan, and nothing raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import angle_or_nan
from .linalg import MAX_PHASE, dagger, past_resolvable_range
from .states import Problem
from .tolerances import DEFAULT_TOL
from .transport import AncillaFrame

_PHASES = ("gamma_total", "uhlmann", "sjoqvist")  # in the order every report writes them


@dataclass(frozen=True, eq=False)
class PhaseBatch:
    """Every phase of one instance on a grid of times.

    Arrays are real and indexed [time] or [time, component], except q, which is
    time-invariant and indexed [component]; t is the batch's own read-only copy
    of the times. The per-component arrays are the report's columns; the complex
    m_j(t) they are read from is not kept. A headline phase at a nodal point
    (the modulus of its sum at or below the overlap tolerance) is nan, with that
    modulus still recorded: overlap_magnitude for gamma_total and uhlmann,
    sjoqvist_magnitude for sjoqvist. Negligible components, those of the state's
    kernel (q = 0) among them, carry the sentinels visibility = gamma =
    total_phase = 0. energy is the largest |eps_a| or |kappa_j|: |t| times it is
    the largest phase argument, and resolution, |t| energy eps (eps the machine
    epsilon), bounds each row's roundoff in the phases.
    """

    t: np.ndarray
    gamma_total: np.ndarray
    uhlmann: np.ndarray
    sjoqvist: np.ndarray
    overlap_magnitude: np.ndarray
    sjoqvist_magnitude: np.ndarray
    q: np.ndarray
    visibility: np.ndarray
    gamma: np.ndarray
    dyn_phase: np.ndarray
    total_phase: np.ndarray
    resolution: np.ndarray
    degenerate_spectrum_warning: bool
    energy: float

    def __len__(self) -> int:
        return self.t.size

    def warnings(self) -> list[list[str]]:
        """Each row's warnings, in report order: the degeneracy sentence, a
        nodal warning per nan headline phase quoting its own sum's modulus,
        and the roundoff warning where resolution exceeds the overlap tolerance."""
        tol = DEFAULT_TOL.overlap
        degenerate = ["spectrum is (near-)degenerate: eigenbasis-dependent quantities are not "
                      "unique within degenerate blocks"] * self.degenerate_spectrum_warning
        columns = (*_PHASES, "overlap_magnitude", "overlap_magnitude", "sjoqvist_magnitude")
        return [degenerate + [f"{name} undefined at a nodal point (overlap magnitude {m:.3e})"
                              for name, x, m in zip(_PHASES, row, row[3:]) if math.isnan(x)]
                + ([f"resolution bound |t| E eps = {r:.3e} exceeds the overlap tolerance "
                    f"{tol:.1e} (E = {self.energy:.3e}, the largest energy): the phases carry "
                    "roundoff of that size"] if r > tol else [])
                for *row, r in zip(*(getattr(self, c).tolist() for c in (*columns, "resolution")))]


def prepare_problem(problem: Problem) -> AncillaFrame:
    """problem.frame, by the name the benchmark's set-up probe reads."""
    return problem.frame


def _batched(table, kernel):
    """table @ kernel, a one-row [time, ...] table stacked on itself: numpy sends a one-row
    operand to matrix-vector code, which rounds otherwise, so a row is the same in any batch."""
    return (np.concatenate((table, table)) @ kernel)[:1] if len(table) == 1 else table @ kernel


def _phi(t, e, p, kappas):
    """Phi(z, t) before its arg, for the representation z with kernel p
    and energies kappas: e^{-i kappa_j t}, m_j = (e @ p)_j, m_j e^{-i kappa_j t}
    and its sum over j, each [time, j] (the sum [time])."""
    d = np.exp(-1j * (t[:, None] * kappas))  # e^{-i kappa_j t}, [time, j]
    overlaps = _batched(e, p)
    rotated = overlaps * d
    return d, overlaps, rotated, rotated.sum(axis=-1)


def evaluate(problem: Problem, times) -> PhaseBatch:
    """Every phase and per-component report at each of times (a scalar
    or a 1-D sequence; repeats and negative times are allowed).

    Costs problem.frame's first read (the ancilla solve and K's r x r
    eigendecomposition), then exponential tables of T x n and T x r and
    three products with the n x r kernel, a lone t's stacked to two rows
    (_batched); nothing of size T x n x n is formed, and the complex
    tables, m_j(t) among them, are released on return. Raises ValueError
    for times of two or more dimensions, and past |t| E = 2**52, E the
    largest |eps_a| or |kappa_j| (the batch's energy), where doubles at the
    phase arguments t E are 1 rad or more apart. Here alone the n components
    are restored from the support's r, and the degeneracy flag set, when a
    block of the support's or K's spectrum holds two eigenvalues.
    """
    frame, eps = problem.frame, problem.h_eigvals
    t = np.array(times, dtype=float, ndmin=1)  # a copy: the batch's own, read-only
    if t.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D sequence, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {times}")
    t.setflags(write=False)
    # both spectra ascend, so |.| peaks at their ends (0.0 first, so that no spectrum gives -0.0)
    energy = float(max(0.0, -eps[0], eps[-1], -frame.kappas[0], frame.kappas[-1]))
    late = t[np.abs(t) > MAX_PHASE / energy] if energy else t[:0]
    if late.size:
        raise past_resolvable_range(float(late[0]), energy)
    # P_aj = |<eps_a| C z^T |e_j>|^2, n x r. The Uhlmann kernel |(Q^T C z^dag)_ab|^2
    # is the same matrix, as (Q^T C z^dag)_ab is the conjugate of (Q^dag C z^T)_ab.
    p = np.abs(dagger(problem.h_eigvecs) @ (frame.z * problem.amps).T) ** 2
    e = np.exp(-1j * (t[:, None] * eps))  # e^{-i eps_a t}, [time, a]
    d, overlaps, rotated, total = _phi(t, e, p, frame.kappas)
    trace = np.einsum("ta,ta->t", e, _batched(d, p.T))  # contracted K-side first
    # z = I: kernel |Q^dag C|^2 and kappa_j(I) = -h'_jj
    p_i = (np.abs(problem.h_eigvecs) ** 2).T * problem.lambdas
    interferometric = _phi(t, e, p_i, -np.diag(problem.h_prime).real)[-1]
    live = frame.q > DEFAULT_TOL.weight
    columns = [frame.q, frame.kappas,
               np.divide(np.abs(overlaps), frame.q, out=np.zeros(overlaps.shape), where=live),
               np.where(live, np.angle(rotated), 0.0), np.where(live, np.angle(overlaps), 0.0)]
    if problem.dim > frame.kappas.size:  # the state's kernel: q = kappa = 0, sentinels
        at, kernel = np.searchsorted(frame.kappas, 0.0), problem.dim - frame.kappas.size
        columns = [np.concatenate([c[..., :at], np.zeros(c.shape[:-1] + (kernel,)), c[..., at:]],
                                  axis=-1) for c in columns]
    q, kappas, visibility, gamma, total_phase = columns
    return PhaseBatch(
        t=t,
        gamma_total=angle_or_nan(total),
        uhlmann=angle_or_nan(trace),
        sjoqvist=angle_or_nan(interferometric),
        overlap_magnitude=np.abs(total),
        sjoqvist_magnitude=np.abs(interferometric),
        q=q,
        visibility=visibility,
        gamma=gamma,
        dyn_phase=t[:, None] * kappas,  # np.outer's expression
        total_phase=total_phase,
        resolution=np.abs(t) * energy * np.finfo(float).eps,
        # a block of close kappas leaves z, and every per-component column,
        # not unique within it, as a block of close lambdas leaves basis_e;
        # fewer blocks than eigenvalues means some block holds two or more
        degenerate_spectrum_warning=any(len(blocks) - 1 < blocks[-1]
                                        for blocks in (problem.blocks, frame.blocks)),
        energy=energy,
    )
