"""Contracts that no behaviour test sees: the package's public names, and the
names the benchmark uses.

``perfbench/spans.py`` replaces functions at the names their callers look
up, so a wrapped name that no longer exists crashes a traced benchmark run,
and a ``qdetchar.cli`` name that ``cli.py`` no longer calls leaves its layer
silently empty.  The rest of ``perfbench/`` imports and calls ``qdetchar``
names directly, so removing or reshaping one of them fails the benchmark's
set-up.  This module reads ``perfbench/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
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
def perfbench():
    path = _ROOT / "perfbench"
    if not path.is_dir():
        pytest.skip("perfbench/ is not beside this test suite")
    return path


@pytest.fixture(scope="module")
def wraps(perfbench):
    path = perfbench / "spans.py"
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


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _qdetchar_uses(tree):
    """``(dotted name, call node or None)`` for each ``qdetchar`` name ``tree`` takes."""
    bound = {}  # local name -> the qdetchar name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qdetchar":
                    bound[alias.asname or "qdetchar"] = alias.name if alias.asname else "qdetchar"
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdetchar":
            for alias in node.names:
                name = bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield name, None
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node)
            root, _, rest = (dotted or "").partition(".")
            if root in bound:
                yield ".".join(filter(None, [bound[root], rest])), calls.get(id(node))


def _resolve(dotted):
    """``(obj, whole)``: the object ``dotted`` names, looked up through modules.

    ``obj`` is ``None`` when a module lacks the name.  Past the first object
    that is not a module, the rest is an attribute of an object (a class,
    say) and is left unchecked; ``whole`` is false when some was left.
    """
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not inspect.ismodule(obj):
            return obj, False
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return None, True
        obj = getattr(obj, part)
    return obj, True


def test_every_qdetchar_name_perfbench_uses_resolves_and_binds(perfbench):
    """Each ``qdetchar`` name a benchmark file imports or reads exists, and
    each direct call of a function takes the arguments the benchmark passes."""
    seen = set()
    for path in sorted(perfbench.glob("*.py")):
        for dotted, call in _qdetchar_uses(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add(dotted)
            obj, whole = _resolve(dotted)
            assert obj is not None, f"{path.name}: {dotted}"
            starred = call is not None and (
                any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)
            )
            if call is not None and whole and not starred:
                args = [None] * len(call.args)
                try:
                    inspect.signature(obj).bind(*args, **{k.arg: None for k in call.keywords})
                except TypeError as exc:
                    pytest.fail(f"{path.name}:{call.lineno}: {dotted}: {exc}")
    # The scan finds the names perfbench is known to take, in each import form.
    for name in ("qdetchar.fileio.save_ensemble", "qdetchar.retrodiction.uniform_fock_ensemble",
                 "qdetchar.herald.tmsv", "qdetchar.phasespace.witness_report",
                 "qdetchar.cli.main", "qdetchar.detectors.lossy_pnr"):
        assert name in seen, name
