"""Contracts that no behaviour test sees: the package's public names, and the
names the benchmark's tracer wraps.

``perfbench/spans.py`` replaces functions at the names their callers look
up, so a wrapped name that no longer exists crashes a traced benchmark run,
and a ``qdetchar.cli`` name that ``cli.py`` no longer calls leaves its layer
silently empty.  This module reads ``perfbench/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qdetchar

_ROOT = Path(__file__).resolve().parents[1]
# In the order ``qdetchar/__init__.py`` adds their ``__all__``.
_MODULES = [
    "config", "errors", "fock", "detectors", "retrodiction", "phasespace", "herald", "fileio",
]


def test_public_names_are_declared_once_and_resolve():
    names = qdetchar.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qdetchar, name), name
    modules = [importlib.import_module(f"qdetchar.{m}") for m in _MODULES]
    assert names == ["__version__"] + [n for module in modules for n in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(qdetchar, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qdetchar import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qdetchar.__all__)


@pytest.fixture(scope="module")
def wraps():
    path = _ROOT / "perfbench" / "spans.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not beside this test suite")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.WRAPS]


def test_every_wrapped_name_resolves(wraps):
    for module, attr in wraps:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_every_wrapped_cli_name_is_called_in_cli(wraps):
    source = Path(importlib.import_module("qdetchar.cli").__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    for module, attr in wraps:
        if module == "qdetchar.cli":
            assert attr in called, attr
