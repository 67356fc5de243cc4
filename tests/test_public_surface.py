"""The names other code reaches by string: ``downsum.__all__`` and the
perfbench trace targets, and what a traced request records; and the
exception classes the package raises, which the CLI must all catch.

A later deletion that breaks ``from downsum import *`` or ``perfbench/run.py
--trace 1`` fails here by name instead of at the first traced request.
"""

import argparse
import ast
import builtins
import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import downsum
import downsum.cli  # noqa: F401  (every downsum module is loaded before the snapshot)
from downsum import DownsumError

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
ORACLE = Path(__file__).resolve().parent / "oracle.py"
PACKAGE = Path(downsum.__file__).resolve().parent


def _snapshot():
    """Every module-level binding and class attribute of the loaded downsum modules."""
    bindings = {("argparse", "parse_args"): argparse.ArgumentParser.parse_args}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "downsum":
            continue
        for name, value in vars(module).items():
            bindings[module_name, name] = value
            if isinstance(value, type):
                bindings.update(((module_name, name, k), v) for k, v in vars(value).items())
    return bindings


def _resolve(module_name, attribute):
    value = importlib.import_module(module_name)
    for part in attribute.split("."):
        value = getattr(value, part)
    return value


def test_every_exported_name_resolves():
    missing = [name for name in downsum.__all__ if not hasattr(downsum, name)]
    assert not missing


def test_no_raise_escapes_the_cli():
    """Every ``raise Name(...)`` in the package raises a class ``cli.main``
    maps to exit code 2, so bad input never ends in a traceback.

    Only explicit raises of a named class are checked.  Implicit errors,
    such as a TypeError from bad library arguments, are out of scope.
    """
    exit_two = (DownsumError, OSError, ValueError, ArithmeticError)
    escaping = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = downsum if path.stem == "__init__" else importlib.import_module(f"downsum.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = node.exc.func.id  # raising a dotted or computed class fails here
                raised = getattr(module, name, None) or getattr(builtins, name)
                if not issubclass(raised, exit_two):
                    escaping.append(f"{path.name}:{node.lineno} {name}")
    assert not escaping


def test_no_public_name_is_defined_in_two_modules():
    """Each public function or class has one home module: the same name
    defined in two would be two spellings of one computation, or two
    computations under one name."""
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                homes.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def test_every_private_helper_is_named_outside_its_definition():
    """Every module-level private function, class or constant of the package
    is named, as an ast.Name or ast.Attribute, in some package module outside
    its own definition, so a helper is deleted with its last caller."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            definitions += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    assert definitions
    unnamed = []
    for name, definition in definitions:
        inside = set(map(id, ast.walk(definition)))
        if not any(
            id(node) not in inside
            and (isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name)
            for tree in trees for node in ast.walk(tree)
        ):
            unnamed.append(name)
    assert unnamed == []


def test_test_oracle_imports_only_the_standard_library():
    """tests/oracle.py imports nothing from downsum, directly or through
    another test module, so an expected value built on it never runs the
    code it checks."""
    imported = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names] == []


def _resolve_decorator(module, node):
    """The object a decorator expression names in module, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return getattr(_resolve_decorator(module, node.value), node.attr, None)
    return getattr(module, node.id, None) if isinstance(node, ast.Name) else None


def test_no_function_caches_its_results():
    """No function or method in the package is wrapped in a functools cache,
    so nothing it returns outlives the caller's last reference."""
    caches = (functools.lru_cache, functools.cache, functools.cached_property)
    cached = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = downsum if path.stem == "__init__" else importlib.import_module(f"downsum.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if _resolve_decorator(module, decorator) in caches:
                        cached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not cached


HEAVY_MODULES = ("typing", "dataclasses", "inspect")


def test_no_module_imports_typing_or_dataclasses():
    """Annotation names come from collections.abc and records are plain
    classes or named tuples, so the package never asks for either module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            banned = [root for root in roots if root in ("typing", "dataclasses")]
            found += [f"{path.name}:{node.lineno} {root}" for root in banned]
    assert not found


def _loaded_in_fresh_interpreter(statement):
    """The HEAVY_MODULES in sys.modules after a new interpreter runs statement."""
    probe = f"import sys\n{statement}\nprint(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_cli_import_loads_no_heavy_module():
    """A cold ``import downsum.cli`` adds none of typing, dataclasses or
    inspect to what the bare interpreter (site hooks included) has loaded."""
    already = _loaded_in_fresh_interpreter("pass")
    assert _loaded_in_fresh_interpreter("import downsum.cli") - already == set()


def test_every_trace_target_resolves_and_import_installs_nothing():
    before = _snapshot()
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert _snapshot() == before
    for module_name, attribute, _ in tracing.TARGETS:
        assert callable(_resolve(module_name, attribute)), (module_name, attribute)



@pytest.fixture
def run_traced(monkeypatch):
    """perfbench's run_traced: argv -> (exit code, the traced request's summary)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() rebinds names in the downsum modules and on their classes;
    # monkeypatch puts every one back after the test.
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", argparse.ArgumentParser.parse_args)
    targets = {attribute for _, attribute, _ in tracing.TARGETS}
    for key, value in _snapshot().items():
        if ".".join(key[1:]) in targets:
            owner = sys.modules[key[0]]
            monkeypatch.setattr(getattr(owner, key[1]) if len(key) == 3 else owner, key[-1], value)

    def run(argv):
        code, payload = tracing.run_traced(downsum.cli.main, argv)
        return code, json.loads(payload.split("\n")[0])

    return run


@pytest.mark.parametrize("max_order, code", [("4", 0), ("400", 2)])
def test_traced_downsample_builds_no_family(run_traced, tmp_path, max_order, code):
    """The per-layer trace of a two-factor ``downsample`` sees no family build.

    ``error_report`` reads each factor's weights from the fixed-point
    recurrence, no further than the order it reaches: on 121 samples the
    window [0, 60) at factor 2 reaches order 31, so ``--max-order 400``
    fails at order 32, and neither run calls ``correction_family``.
    """
    source = tmp_path / "bump.csv"
    source.write_text("".join(f"{t},{(t - 25) ** 2 / 625}\n" for t in range(121)))
    result, trace = run_traced([
        "downsample", "--input", str(source), "--col", "1", "--window", "60",
        "--factors", "5,2", "--max-order", max_order, "--output", str(tmp_path / "out.csv"),
    ])
    assert result == code
    assert trace["summary"].get("family.correction_family", {"calls": 0})["calls"] == 0
    assert trace["max_order"] == 0


@pytest.mark.parametrize("argv, parse_calls", [
    (["verify", "--degree", "4", "--trials", "1", "--seed", "7", "--x-grid=-1/2,2", "--classical"], 0),
    (["coeffs", "--help"], 2),
])
def test_traced_parse_runs_only_for_help_and_errors(run_traced, argv, parse_calls):
    """A well-formed argv is read without argparse, so its trace has no
    ``cli.parse`` span and the reading is ``cli.main``'s self time; help
    builds the parser and runs it, one ``cli.parse`` span each."""
    result, trace = run_traced(argv)
    assert result == 0
    assert trace["summary"].get("cli.parse", {"calls": 0})["calls"] == parse_calls
