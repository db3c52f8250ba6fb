"""Dense complex-matrix kernel.

Hermitian eigendecompositions, unitary evolution operators, polar
factors, and PSD square roots, shared by every other module. All
functions are pure and never mutate their inputs; sizes are small
(n up to a few dozen), so everything is done densely via LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitian, NotPSD
from .tolerances import DEFAULT_TOL


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def require_hermitian(a) -> np.ndarray:
    """Return a as a complex array, raising NotHermitian if it is not
    symmetric within the hermiticity tolerance, relative to
    max(1, ||a||_F).

    Above ||a||_F = 1e300, where ||a - a^dag||_F <= 2 ||a||_F could
    overflow (or ||a||_F already has), the norms are taken of a / s
    instead, with s the power of two at or just below max |Re a_ij|,
    |Im a_ij|. That division is exact and the scaled norms cannot
    overflow, so the test holds at every finite magnitude.
    """
    a = as_square(a)
    tol = DEFAULT_TOL.hermiticity
    b, scale = a, 1.0
    with np.errstate(over="ignore"):
        norm = frobenius(a)
    if norm > 1e300:
        peak = max(np.abs(a.real).max(), np.abs(a.imag).max())
        scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
        b = a / scale
        norm = frobenius(b)
    defect = frobenius(b - dagger(b))
    # defect * scale > tol * max(1, norm * scale)
    if defect > tol * norm and defect * scale > tol:
        raise NotHermitian(defect * scale)
    return a


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, q): eigenvalues w ascending, eigenvector columns q
    orthonormal, with a @ q = q @ diag(w) up to roundoff. The input is
    symmetrized before the solve so tiny anti-Hermitian noise cannot
    leak into complex eigenvalues.
    """
    a = require_hermitian(a)
    w, q = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w, q


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """Evolution operator exp(-i h t) for Hermitian h (hbar = 1).

    Built from the eigendecomposition, so the result is unitary to
    roundoff for any t; no scaling-and-squaring is involved.
    """
    return unitary_from_eig(*hermitian_eig(h), t)


def unitary_from_eig(w, q, t: float) -> np.ndarray:
    """exp(-i h t) from an eigendecomposition (w, q) of h, as returned by
    hermitian_eig, so that one decomposition serves every t."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return (q * np.exp(-1j * w * t)) @ dagger(q)


def polar_unitary(a) -> np.ndarray:
    """Unitary factor u of the left polar form a = p @ u with p PSD.

    Computed as x @ yh from the SVD a = x @ diag(s) @ yh. For singular a
    the SVD convention fixes the result deterministically.
    """
    a = as_square(a)
    x, _, yh = np.linalg.svd(a)
    return x @ yh


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix.

    Eigenvalues in [-psd, 0) are clamped to zero; anything below -psd
    raises NotPSD.
    """
    w, q = hermitian_eig(a)
    if w.size and w[0] < -DEFAULT_TOL.psd:
        raise NotPSD(float(w[0]))
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ dagger(q)
