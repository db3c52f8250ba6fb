"""Dense complex-matrix kernel.

Hermitian eigendecompositions, unitary evolution operators and polar
factors, shared by every other module. All functions are pure and never
mutate their inputs; sizes are small (n up to a few dozen), so
everything is done densely via LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitian
from .tolerances import DEFAULT_TOL


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix."""
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    """||a||_F, bit for bit np.linalg.norm(a, "fro") by the expression that
    function runs, without its wrapper. The sum of squares overflows to
    inf past about 1e154 per entry."""
    x = a.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


# The largest Frobenius norm a matrix may enter with. Below it the sum of
# squares in ||a||_F, h' + h'^dag and the norms of K and of verify's
# residuals all stay finite; a Hamiltonian this large resolves no time
# past about 4e-134 (2**52 over its largest energy, at n <= 64).
MAX_NORM = 1e150


def require_hermitian(a) -> np.ndarray:
    """Check that a is a Hermitian matrix from outside and return it as a
    new complex array, a private copy that shares no memory with the
    argument. Raises ValueError if a is not square, or if ||a||_F is not
    finite or exceeds MAX_NORM (so a nan or inf entry is refused too),
    and NotHermitian if a is not symmetric within the hermiticity
    tolerance, relative to max(1, ||a||_F).
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore"):
        norm = frobenius(a)
    if not norm <= MAX_NORM:
        raise ValueError("matrix has a non-finite entry or a Frobenius norm "
                         f"past {MAX_NORM:.0e}")
    defect = frobenius(a - dagger(a))
    if defect > DEFAULT_TOL.hermiticity * max(1.0, norm):
        raise NotHermitian(defect)
    return a


# Past |t| E = 2**52, E the largest energy, the doubles at the phase
# arguments t E are 1 rad or more apart. t E itself may overflow, so a
# time is compared as |t| > MAX_PHASE / E.
MAX_PHASE = 2.0**52


def past_resolvable_range(t: float, energy: float) -> ValueError:
    """The error for a time t with |t| energy past MAX_PHASE."""
    return ValueError(f"time {t:g} is past the resolvable range: |t| times "
                      f"the largest energy {energy:.3e} exceeds 2**52")


def close_eigenvalues(w) -> bool:
    """True when two neighbours of the sorted spectrum w (either order) are
    closer than the degeneracy gap: their eigenvectors, and all that is
    read from them, are then not unique."""
    gaps = np.abs(w[1:] - w[:-1])  # np.diff's expression, without its checks
    return bool(gaps.size and gaps.min() < DEFAULT_TOL.degeneracy_gap)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, q): eigenvalues w ascending, eigenvector columns q
    orthonormal, with a @ q = q @ diag(w) up to roundoff. The input is
    not checked: a matrix from outside passes require_hermitian where it
    enters (Problem, validate_density, pancharatnam_phase), and every
    other caller builds a Hermitian one. np.linalg.eigh reads only the
    lower triangle; the matrix is symmetrized before the solve so that
    both triangles enter.
    """
    return np.linalg.eigh((a + dagger(a)) / 2.0)


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """Evolution operator exp(-i h t) for Hermitian h (hbar = 1).

    Built from the eigendecomposition, so the result is unitary to
    roundoff for any t; no scaling-and-squaring is involved.
    """
    return unitary_from_eig(*hermitian_eig(h), t)


def unitary_from_eig(w, q, t: float) -> np.ndarray:
    """exp(-i h t) from an eigendecomposition (w, q) of h, as returned by
    hermitian_eig (w ascending), so that one decomposition serves every t.
    Raises ValueError for a t that is not finite, or past the resolvable
    range of the largest |w_a| (past_resolvable_range, as evaluate)."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    energy = float(max(-w[0], w[-1]))
    if energy and abs(t) > MAX_PHASE / energy:
        raise past_resolvable_range(float(t), energy)
    return (q * np.exp(-1j * w * t)) @ dagger(q)


def polar_unitary(a) -> np.ndarray:
    """Unitary factor u of the left polar form a = p @ u with p PSD.

    Computed as x @ yh from the SVD a = x @ diag(s) @ yh of a as given;
    for singular a the SVD convention fixes the result deterministically.
    """
    x, _, yh = np.linalg.svd(a)
    return x @ yh

