"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumbins

SRC = Path(sumbins.__file__).parent
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements():
    # `python -O` strips asserts, so every check in the package must raise
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in sumbins.__all__ if not hasattr(sumbins, name)]
    for path, _ in _modules():
        module = importlib.import_module(f"sumbins.{path.stem}")
        names = getattr(module, "__all__", ())
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []


def test_no_unused_top_level_imports():
    # __init__.py imports only to re-export; everywhere else an import that
    # no expression names is dead
    unused = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def test_benchmark_layers_resolve(monkeypatch):
    # bench/tracing.py wraps these functions by name; a renamed or deleted
    # one would silently drop its metrics from the benchmark record
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = []
    for layer in tracing.LAYERS:
        owner = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer.module}:{layer.attr}")
    assert missing == []


def test_no_unreferenced_private_helpers():
    # a private top-level def or class that nothing else in the package
    # names is dead code
    defined, named = {}, []
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.append(node.id)
            elif isinstance(node, ast.Attribute):
                named.append(node.attr)
            elif isinstance(node, ast.alias):
                named.append(node.asname or node.name)
    unreferenced = [where for name, where in defined.items() if name not in named]
    assert unreferenced == []


def test_no_private_parameters():
    # an underscore-prefixed parameter is a private knob on a function that
    # callers see; internal state belongs in a private helper instead
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                name = getattr(node, "name", "<lambda>")
                found += [f"{path.name}:{node.lineno} {name}({p.arg})" for p in params if p.arg.startswith("_")]
    assert found == []


def test_one_sorted_join():
    # every list match in solvers.py runs on _join_pair_states; a sort
    # anywhere else in the module is a second join growing back
    tree = ast.parse((SRC / "solvers.py").read_text())
    join = next(node for node in tree.body if getattr(node, "name", None) == "_join_pair_states")
    inside = {id(node) for node in ast.walk(join)}
    found = [
        f"solvers.py:{node.lineno} {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inside
        and (node.attr == "argsort" or (node.attr == "sort" and getattr(node.value, "id", None) == "np"))
    ]
    assert found == []


def test_one_solver_contract():
    # every public solver takes a SolverBudget as ``budget`` and returns a
    # SolveOutcome, the two pigeonhole solvers included
    off = []
    for module in ("solvers", "pigeonhole"):
        mod = importlib.import_module(f"sumbins.{module}")
        for name in mod.__all__:
            if name.startswith("solve_"):
                sig = inspect.signature(getattr(mod, name))
                if "budget" not in sig.parameters or sig.return_annotation not in ("SolveOutcome", sumbins.SolveOutcome):
                    off.append(f"{module}.{name}")
    assert off == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the demos call the public API the way a reader would; an API change
    # that breaks one shows here instead of in a reader's terminal
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
