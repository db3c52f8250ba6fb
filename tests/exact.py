"""A 40-digit reference for the two headline phases.

The tests import this module as `exact`, as they import `literal`; the
package itself uses none of it. It reads a Problem's rho0.mat and
hamiltonian_lab and nothing the Problem derived from them, and computes
in mpmath at 40 significant digits, so it shares neither LAPACK nor
double rounding with the engine:

    gamma_total = arg Tr[C U' C V^T],  sjoqvist = arg sum_k lambda_k U'_kk e^{i h'_kk t},

with rho = e diag(lambda) e^dag from mpmath's eighe, C = diag(c),
c_k = sqrt(lambda_k), h' = e^dag H e, U' = exp(-i h' t) and
V = exp(-i K t) from mpmath's expm, and K from the closed form of
transport.solve_ancilla_hamiltonian, (K^T)_kl = -2 c_k c_l h'_kl /
(lambda_k + lambda_l), wherever that sum is not 0. The input matrices
are taken as their Hermitian parts, and negative eigenvalues of rho
(roundoff of a rank-deficient state) as 0, as validate_density clamps
them. It takes no support cut: the eigenvalues a rank-deficient state's
roundoff leaves in its kernel enter as they are, so the engine's
removal of the kernel (Problem) is held to this reference, not copied
into it. For a
degenerate rho the Sjoqvist value depends on eighe's basis within the
block, as the engine's does on LAPACK's; the tests leave it out.
"""

from __future__ import annotations

import mpmath as mp

from mixedphase.states import Problem

DIGITS = 40


def _hermitian_part(a) -> mp.matrix:
    m = mp.matrix(a.tolist())
    return (m + m.H) / 2


def headline_phases(problem: Problem, t: float) -> tuple[float, float]:
    """(gamma_total, sjoqvist) of problem at time t, each rounded once to
    a double from its 40-digit value."""
    with mp.workdps(DIGITS):
        lambdas, e = mp.eighe(_hermitian_part(problem.rho0.mat))
        n = len(lambdas)
        lambdas = [max(lam, 0) for lam in lambdas]
        amps = [mp.sqrt(lam) for lam in lambdas]
        h = e.H * _hermitian_part(problem.hamiltonian_lab) * e
        k = mp.matrix(n, n)
        for a in range(n):
            for b in range(n):
                if lambdas[a] + lambdas[b]:
                    # K_ba = (K^T)_ab
                    k[b, a] = -2 * amps[a] * amps[b] * h[a, b] / (lambdas[a] + lambdas[b])
        t = mp.mpf(t)
        u = mp.expm(-1j * t * h)
        v = mp.expm(-1j * t * k)
        total = mp.fsum(amps[a] * u[a, b] * amps[b] * v[a, b]
                        for a in range(n) for b in range(n))
        interferometric = mp.fsum(lambdas[a] * u[a, a] * mp.expj(t * mp.re(h[a, a]))
                                  for a in range(n))
        return float(mp.arg(total)), float(mp.arg(interferometric))
