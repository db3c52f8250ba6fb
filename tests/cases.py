"""Inputs that more than one test module builds, each built here once,
and `run`, the one in-process call of the command line.

The tests import this module as `cases`, as they import `literal`
(pytest puts tests/ on the path); the package itself uses none of it.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from mixedphase import Problem, cli, save_problem, validate_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
# require_hermitian's one message for a matrix with a non-finite entry or
# a Frobenius norm past MAX_NORM, at every entry point
CAP_ERROR = "matrix has a non-finite entry or a Frobenius norm past 1e+150"
# rho = diag(0.7, 0.3) under H = sz / 2: H commutes with rho
COMMUTING = Problem(validate_density(np.diag([0.7, 0.3])), 0.5 * SZ)


def bloch_x(r, omega=1.0) -> Problem:
    """rho = (I + r sx) / 2, Bloch vector r along x, under H = omega sz / 2.
    At r = 0.6 and omega = 1 the total phase is 0 and the interferometric
    phase pi at t = 2 pi, and every headline phase is nan at t = 5 pi."""
    return Problem(validate_density((np.eye(2) + r * SX) / 2), 0.5 * omega * SZ)


def pure_plus(omega=1.0) -> Problem:
    """|+> under H = omega sz / 2: phase pi at t = 2 pi / omega, and
    orthogonal to the start at t = pi / omega."""
    return Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * omega * SZ)


def degenerate_qubit() -> Problem:
    """rho = I/2 under sz/2: every report warns of the degenerate spectrum."""
    return Problem(validate_density(np.eye(2) / 2), 0.5 * SZ)


def kron_sum(h1, h2) -> np.ndarray:
    """H1 (x) I + I (x) H2: each Hamiltonian acting on its own factor."""
    return np.kron(h1, np.eye(len(h2))) + np.kron(np.eye(len(h1)), h2)


def product(a: Problem, b: Problem) -> Problem:
    """The product system of two problems, rho_a (x) rho_b under
    kron_sum(H_a, H_b), through the public constructors."""
    return Problem(validate_density(np.kron(a.rho0.mat, b.rho0.mat)),
                   kron_sum(a.hamiltonian_lab, b.hamiltonian_lab))


def haar_unitary(rng, n) -> np.ndarray:
    """A Haar-random n x n unitary: Q of the QR of a complex Gaussian,
    with the phases of R's diagonal divided out (Mezzadri, Notices of the
    AMS 54, 592 (2007)); without that step Q is not Haar-distributed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def problem_file(tmp_path, problem: Problem, name: str) -> str:
    """The path of the file tmp_path / name that save_problem writes."""
    path = tmp_path / name
    save_problem(problem, path)
    return str(path)


def entries_file(tmp_path, hamiltonian, rho=None) -> str:
    """The path of tmp_path / "problem.json" holding raw [re, im] entries,
    unchecked; rho defaults to the valid state [[0.5, 0.3], [0.3, 0.5]]."""
    rho = rho or [[[0.5, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.5, 0.0]]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"dimension": len(hamiltonian), "rho": rho,
                                "hamiltonian": hamiltonian}))
    return str(path)


def run(argv, code) -> str:
    """Run cli.main(argv) with stdout and stderr captured, assert that it
    returns code (or, for a set, one of its codes) and keeps the CLI
    contract for the code it returns, and return the error line (exit 2)
    or stdout. The contract: an input error (exit 2) writes nothing to
    stdout and exactly one stderr line, starting "error: ", which main
    alone writes; every other exit writes nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main(argv)
    assert got in (code if isinstance(code, set) else {code}), (got, err.getvalue())
    if got == cli.EXIT_INPUT_ERROR:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")
        return line
    assert err.getvalue() == ""
    return out.getvalue()
