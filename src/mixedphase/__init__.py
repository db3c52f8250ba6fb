"""Geometric phases of mixed quantum states under unitary evolution.

One construction, Phi(z, t) = arg sum_j m_j(z, t) e^{i t E_j(z)}, in two
representations z of the ancilla: the frame where every component is
parallel-transported (E_j = -kappa_j) gives the total geometric phase,
which the purification trace phase equals, and z = I gives the
interferometric phase that agrees only for pure states. Brute-force
oracles (a discretized holonomy chain, the pure-state limit) cross-check.
"""

from .angles import circular_distance, principal_angle
from .errors import (
    DimensionMismatch,
    GeometricPhaseError,
    IndexOutOfRange,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    VanishingOverlap,
)
from .linalg import (
    dagger,
    frobenius,
    hermitian_eig,
    polar_unitary,
    psd_sqrt,
    unitary_from_hamiltonian,
)
from .oracles import (
    PathSampling,
    RandomInstanceSpec,
    amplitude_chain,
    discrete_uhlmann_holonomy,
    pancharatnam_phase,
    parallel_residual,
    random_instance,
)
from .phases import (
    ComponentReport,
    PhaseBatch,
    PreparedProblem,
    component_report,
    evaluate,
    evolution_operator,
    overlap_kernel,
    prepare_from_spectrum,
    prepare_problem,
    sjoqvist_phase,
    total_geometric_phase,
    uhlmann_trace_phase,
)
from .serialize import (
    ProblemFileError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    save_problem,
)
from .states import (
    DensityMatrix,
    Problem,
    Spectrum,
    hamiltonian_in_eigenbasis,
    spectral_decompose,
    validate_density,
)
from .tolerances import DEFAULT_TOL, Tolerances
from .transport import (
    AncillaFrame,
    ancilla_equation_residual,
    component_state,
    component_weights,
    diagonalizing_frame,
    solve_ancilla_hamiltonian,
)

__version__ = "0.1.0"
