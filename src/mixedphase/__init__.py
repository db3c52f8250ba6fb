"""Geometric phases of mixed quantum states under unitary evolution.

One construction, Phi(z, t) = arg sum_j m_j(z, t) e^{i t E_j(z)}, in two
representations z of the ancilla: the frame where every component is
parallel-transported (E_j = -kappa_j) gives the total geometric phase,
which the purification trace phase equals, and z = I gives the
interferometric phase that agrees only for pure states. Brute-force
oracles (a discretized holonomy chain, the pure-state limit) cross-check.

The package exports the pipeline: a Problem, whose ancilla frame
(Problem.frame) is solved on first read, and evaluate, which reads every
phase off that frame on a time grid and returns a PhaseBatch; the
oracles; and the errors. The stages of the construction are in the
modules states, transport, linalg and serialize. The literal per-time
definitions the engine is tested against are not part of the package:
they live with the tests, in tests/literal.py.
"""

from .angles import circular_distance
from .errors import (
    DimensionMismatch,
    GeometricPhaseError,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)
from .oracles import discrete_uhlmann_holonomy, pancharatnam_phase, random_instance
from .phases import PhaseBatch, evaluate
from .serialize import ProblemFileError, load_problem, save_problem
from .states import Problem, validate_density
from .tolerances import DEFAULT_TOL

__version__ = "0.1.0"
