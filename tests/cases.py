"""Inputs that more than one test module builds, each built here once.

The tests import this module as `cases`, as they import `literal`
(pytest puts tests/ on the path); the package itself uses none of it.
"""

from __future__ import annotations

import json

import numpy as np

from mixedphase import Problem, save_problem, validate_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def bloch_x(r, omega=1.0) -> Problem:
    """rho = (I + r sx) / 2, Bloch vector r along x, under H = omega sz / 2.
    At r = 0.6 and omega = 1 the total phase is 0 and the interferometric
    phase pi at t = 2 pi, and every headline phase is nan at t = 5 pi."""
    return Problem(validate_density((np.eye(2) + r * SX) / 2), 0.5 * omega * SZ)


def pure_plus(omega=1.0) -> Problem:
    """|+> under H = omega sz / 2: phase pi at t = 2 pi / omega, and
    orthogonal to the start at t = pi / omega."""
    return Problem(validate_density(np.outer(PLUS, PLUS.conj())), 0.5 * omega * SZ)


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
