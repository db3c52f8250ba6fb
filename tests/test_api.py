"""The public surface: the pipeline in mixedphase; the literal references
live with the tests, in tests/literal.py, and not in the package."""

import ast
import copy
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import types

import mixedphase
from mixedphase import cli, linalg, phases, states, transport
from mixedphase.transport import AncillaFrame

import literal

PUBLIC = {
    "Problem", "validate_density", "load_problem", "save_problem", "random_instance",
    "evaluate", "PhaseBatch",
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
    assert len(PUBLIC) == 17
    errors = [name for name in PUBLIC if isinstance(getattr(mixedphase, name), type)
              and issubclass(getattr(mixedphase, name), mixedphase.GeometricPhaseError)]
    assert len(errors) == 6


def test_no_module_defines_a_prepared_problem():
    # the Problem is the prepared problem: it solves its own ancilla frame,
    # which evaluate reads; the Hamiltonian in the state eigenbasis is the
    # Problem's alone, and no module rotates it again
    frame = mixedphase.random_instance(3, 2, 0).frame
    assert type(frame) is AncillaFrame
    for info in pkgutil.iter_modules(mixedphase.__path__):
        module = importlib.import_module(f"mixedphase.{info.name}")
        assert not hasattr(module, "PreparedProblem"), info.name
        assert not hasattr(module, "hamiltonian_in_eigenbasis"), info.name


def test_evaluate_alone_decides_degeneracy():
    # no record carries a degeneracy flag of its own; evaluate reads the
    # partitions Problem and AncillaFrame carry, and nothing else
    for info in pkgutil.iter_modules(mixedphase.__path__):
        module = importlib.import_module(f"mixedphase.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type):
                assert not hasattr(value, "degenerate"), f"{info.name}.{name}"
    problem = mixedphase.random_instance(3, 3, 0)
    frame = problem.frame
    assert problem.blocks == frame.blocks == (0, 1, 2, 3)
    assert not mixedphase.evaluate(problem, 1.0).degenerate_spectrum_warning
    # the same spectra under a joined partition, of either record, set it
    # (copy.copy keeps the frame already solved)
    joined = copy.copy(problem)
    object.__setattr__(joined, "blocks", (0, 3))
    assert vars(joined)["frame"] is frame
    assert mixedphase.evaluate(joined, 1.0).degenerate_spectrum_warning
    vars(problem)["frame"] = dataclasses.replace(frame, blocks=(0, 1, 3))
    assert mixedphase.evaluate(problem, 1.0).degenerate_spectrum_warning


def test_each_derived_quantity_has_one_owner():
    # the gap is read in linalg.eigenspace_blocks alone, which runs where a
    # spectrum is made (Problem's lambdas, diagonalizing_frame's kappas);
    # q is made in diagonalizing_frame alone, and K never reaches hermitian_eig
    sources = {info.name: inspect.getsource(importlib.import_module(f"mixedphase.{info.name}"))
               for info in pkgutil.iter_modules(mixedphase.__path__)}
    gap = {name for name, source in sources.items() if ".degeneracy_gap" in source}
    assert gap == {"linalg"}
    assert ".degeneracy_gap" in inspect.getsource(linalg.eigenspace_blocks)
    calls = {name: len(re.findall(r"(?<!def )eigenspace_blocks\(", source))
             for name, source in sources.items()}
    assert {name for name, count in calls.items() if count} == {"states", "transport"}
    assert calls["states"] == calls["transport"] == 1
    for name in ("close_eigenvalues", "component_weights"):
        assert not any(name in source for source in sources.values()), name
    assert "hermitian_eig(" not in sources["transport"]
    assert [source.count("@ amps**2") for source in sources.values()].count(1) == 1
    assert "@ amps**2" in inspect.getsource(transport.diagonalizing_frame)


def test_problem_alone_solves_its_frame():
    # K is solved and diagonalized in Problem.frame alone; evaluate is the
    # engine's one entry, and the CLI reaches the engine through it
    sources = {info.name: inspect.getsource(importlib.import_module(f"mixedphase.{info.name}"))
               for info in pkgutil.iter_modules(mixedphase.__path__)}
    for name in ("solve_ancilla_hamiltonian", "diagonalizing_frame"):
        callers = {module for module, source in sources.items()
                   if re.search(rf"(?<!def ){name}\(", source)}
        assert callers == {"states"}, name
        assert f"{name}(" in inspect.getsource(states.Problem.frame.func)
    assert not any("_evaluate" in source for source in sources.values())
    imported = re.search(r"from \.phases import (.*)", sources["cli"])[1]
    assert imported == "evaluate"
    assert not hasattr(cli, "prepare_problem")


def test_every_product_with_a_time_table_is_batched():
    # numpy sends a one-row left operand of @ to its matrix-vector code,
    # which rounds otherwise: phases._batched is the one place where a
    # [time, ...] table meets a kernel through @, so a single t is bit for
    # bit its row in any batch. evaluate's own @ builds the kernel P from
    # time-invariant arrays, and evaluate holds what _setup did
    assert not hasattr(phases, "_setup")
    products = {}
    for func in ast.walk(ast.parse(inspect.getsource(phases))):
        if isinstance(func, ast.FunctionDef):
            products[func.name] = [node for node in ast.walk(func) if isinstance(node, ast.BinOp)
                                   and isinstance(node.op, ast.MatMult)]
    assert {name for name, found in products.items() if found} == {"_batched", "evaluate"}
    [kernel] = products["evaluate"]
    assert {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)} == {
        "dagger", "problem", "frame"}
    assert [ast.unparse(node.right) for node in products["_batched"]] == ["kernel", "kernel"]
    source = inspect.getsource(phases)
    assert source.count("_batched(e, p)") == source.count("_batched(d, p.T)") == 1


def test_the_batch_alone_writes_the_warnings():
    # PhaseBatch.warnings holds every warning's text and the one comparison
    # of the resolution bound with the overlap tolerance; the writers only
    # lay its lists out, and serialize reads no tolerance
    sources = {info.name: inspect.getsource(importlib.import_module(f"mixedphase.{info.name}"))
               for info in pkgutil.iter_modules(mixedphase.__path__)}
    assert "DEFAULT_TOL" not in sources["serialize"]
    assert "tolerances" not in sources["serialize"]
    owner = inspect.getsource(mixedphase.PhaseBatch.warnings)
    for text in ("resolution bound", "undefined at a nodal point", "(near-)degenerate"):
        assert {name for name, source in sources.items() if text in source} == {"phases"}, text
        assert text in owner, text
    # angle_or_nan's nodal rule is the one other reader of the overlap tolerance
    assert {name for name, source in sources.items()
            if "DEFAULT_TOL.overlap" in source} == {"angles", "phases"}
    assert sources["phases"].count("DEFAULT_TOL.overlap") == 1
    assert "DEFAULT_TOL.overlap" in owner


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
    records = [problem, problem.rho0, problem.frame,
               mixedphase.evaluate(problem, [0.0, 1.0])]
    for record in records:
        assert type(record).__eq__ is object.__eq__, type(record).__name__
        assert record == record and hash(record) == hash(record)
        assert record != dataclasses.replace(record)
    assert len(set(records + records)) == 4
