"""Seeded problem-file generator for the benchmark.

The library under test only ever sees the files written here; it never
draws its own inputs (except `verify`, which receives a seed drawn from
the same stream). States are complex-Gaussian Wishart matrices B B^dag
normalised to unit trace, redrawn until clearly full rank with a
resolvable spectrum; Hamiltonians are complex-Gaussian Hermitian
matrices rescaled to unit Frobenius norm.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Smallest eigenvalue and eigenvalue gap a generated state must clear:
# far above the library's degeneracy (1e-9) and PSD (1e-12) floors, so
# the eigenbasis and the component ordering are unique.
MIN_EIGENVALUE = 1e-8
MIN_GAP = 1e-8


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    # exactly Hermitian in floating point: entry (k, l) and (l, k) are
    # computed from the same two numbers
    return (a + a.conj().T) / 2.0


def random_problem(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One (rho, h) pair: full-rank unit-trace rho, unit-norm Hermitian h."""
    while True:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = _hermitian_part(b @ b.conj().T)
        rho /= np.trace(rho).real
        lam = np.linalg.eigvalsh(rho)
        if lam[0] > MIN_EIGENVALUE and np.min(np.diff(lam), initial=1.0) > MIN_GAP:
            break
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = _hermitian_part(a)
    h /= np.linalg.norm(h, "fro")
    return rho, h


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_problem(path: str, rho: np.ndarray, h: np.ndarray) -> None:
    """Problem-file format of the CLI: dimension, rho, hamiltonian, with
    complex entries as [re, im] pairs (floats round-trip exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": rho.shape[0], "rho": _pairs(rho),
                   "hamiltonian": _pairs(h)}, fh)


def make_pool(rng: np.random.Generator, n: int, count: int, directory: str,
              stem: str) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Write count problems of dimension n; return (path, rho, h) each."""
    os.makedirs(directory, exist_ok=True)
    pool = []
    for i in range(count):
        rho, h = random_problem(rng, n)
        path = os.path.join(directory, f"{stem}_{i}.json")
        write_problem(path, rho, h)
        pool.append((path, rho, h))
    return pool
