"""The public surface: the pipeline in mixedphase; the literal references
live with the tests, in tests/literal.py, and not in the package."""

import dataclasses
import importlib
import importlib.util
import pkgutil
import types

import mixedphase
from mixedphase import phases
from mixedphase.transport import AncillaFrame

import literal

PUBLIC = {
    "Problem", "validate_density", "load_problem", "save_problem", "random_instance",
    "prepare_problem", "evaluate", "PhaseBatch",
    "discrete_uhlmann_holonomy", "pancharatnam_phase", "circular_distance", "DEFAULT_TOL",
    "GeometricPhaseError", "NotHermitian", "NotPSD", "NotUnitTrace", "DimensionMismatch",
    "ProblemFileError",
}

LITERAL = (
    "ComponentReport", "overlap_kernel", "component_report", "total_geometric_phase",
    "uhlmann_trace_phase", "sjoqvist_phase", "amplitude_chain", "parallel_residual",
    "component_state", "evolution_operator", "psd_sqrt",
)


def test_package_exports_exactly_the_pipeline():
    exported = {name for name, value in vars(mixedphase).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
    assert len(PUBLIC) == 18
    errors = [name for name in PUBLIC if isinstance(getattr(mixedphase, name), type)
              and issubclass(getattr(mixedphase, name), mixedphase.GeometricPhaseError)]
    assert len(errors) == 6


def test_no_module_defines_a_prepared_problem():
    # evaluate takes the Problem and prepares its own ancilla frame, which
    # is all prepare_problem returns; the Hamiltonian in the state
    # eigenbasis is the Problem's alone, and no module rotates it again
    frame = mixedphase.prepare_problem(mixedphase.random_instance(3, 2, 0))
    assert type(frame) is AncillaFrame
    for info in pkgutil.iter_modules(mixedphase.__path__):
        module = importlib.import_module(f"mixedphase.{info.name}")
        assert not hasattr(module, "PreparedProblem"), info.name
        assert not hasattr(module, "hamiltonian_in_eigenbasis"), info.name


def test_evaluate_alone_decides_degeneracy(monkeypatch):
    # no record carries a degeneracy flag of its own; evaluate reads both
    # spectra through the one gap rule, linalg.close_eigenvalues
    for info in pkgutil.iter_modules(mixedphase.__path__):
        module = importlib.import_module(f"mixedphase.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type):
                assert not hasattr(value, "degenerate"), f"{info.name}.{name}"
    spectra = []
    rule = phases.close_eigenvalues
    monkeypatch.setattr(phases, "close_eigenvalues", lambda w: spectra.append(w) or rule(w))
    problem = mixedphase.random_instance(3, 3, 0)
    frame = mixedphase.prepare_problem(problem)
    assert not mixedphase.evaluate(problem, 1.0).degenerate_spectrum_warning
    assert len(spectra) == 2
    assert spectra[0] is problem.lambdas
    assert spectra[1].tobytes() == frame.kappas.tobytes()


def test_literal_definitions_live_in_one_module():
    assert importlib.util.find_spec("mixedphase.literal") is None
    modules = [mixedphase] + [importlib.import_module(f"mixedphase.{info.name}")
                              for info in pkgutil.iter_modules(mixedphase.__path__)]
    for name in LITERAL:
        assert getattr(literal, name).__module__ == "literal"
        assert not any(hasattr(module, name) for module in modules)


def test_records_compare_and_hash_by_identity():
    # each record holds arrays, whose elementwise == has no truth value;
    # equality and hashing are by identity, so records also go in sets
    problem = mixedphase.random_instance(2, 2, 0)
    assert problem != mixedphase.random_instance(2, 2, 0)  # an equal draw
    records = [problem, problem.rho0, mixedphase.prepare_problem(problem),
               mixedphase.evaluate(problem, [0.0, 1.0])]
    for record in records:
        assert type(record).__eq__ is object.__eq__, type(record).__name__
        assert record == record and hash(record) == hash(record)
        assert record != dataclasses.replace(record)
    assert len(set(records + records)) == 4
