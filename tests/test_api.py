"""The public surface: the pipeline in mixedphase, the literal references
in mixedphase.literal."""

import types

import mixedphase
import mixedphase.literal

PUBLIC = {
    "Problem", "validate_density", "load_problem", "save_problem", "random_instance",
    "prepare_problem", "evaluate", "PhaseBatch", "PreparedProblem",
    "discrete_uhlmann_holonomy", "pancharatnam_phase", "circular_distance", "DEFAULT_TOL",
    "GeometricPhaseError", "NotHermitian", "NotPSD", "NotUnitTrace", "DimensionMismatch",
    "IndexOutOfRange", "ProblemFileError",
}

LITERAL = (
    "ComponentReport", "overlap_kernel", "component_report", "total_geometric_phase",
    "uhlmann_trace_phase", "sjoqvist_phase", "amplitude_chain", "parallel_residual",
    "component_state",
)


def test_package_exports_exactly_the_pipeline():
    exported = {name for name, value in vars(mixedphase).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
    assert len(PUBLIC) == 20
    errors = [name for name in PUBLIC if isinstance(getattr(mixedphase, name), type)
              and issubclass(getattr(mixedphase, name), mixedphase.GeometricPhaseError)]
    assert len(errors) == 7


def test_literal_definitions_live_in_one_module():
    for name in LITERAL:
        assert getattr(mixedphase.literal, name).__module__ == "mixedphase.literal"
        assert not hasattr(mixedphase, name)
