"""The names other code reaches by string: ``downsum.__all__`` and the
perfbench trace targets.

A later deletion that breaks ``from downsum import *`` or ``perfbench/run.py
--trace 1`` fails here by name instead of at the first traced request.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import downsum
import downsum.cli  # noqa: F401  (every downsum module is loaded before the snapshot)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_every_trace_target_resolves_and_import_installs_nothing():
    before = _snapshot()
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert _snapshot() == before
    for module_name, attribute, _ in tracing.TARGETS:
        assert callable(_resolve(module_name, attribute)), (module_name, attribute)
