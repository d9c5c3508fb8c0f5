"""Contracts that no behaviour test sees: the package's public names, the
names the benchmark uses, and the grammar of the oldest Python declared.

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
import re
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
    """``(dotted name, call node or None, loaded)`` for each ``qdetchar`` name ``tree`` takes.

    ``loaded`` is false for an import and true for a read as a ``Name`` or an
    ``Attribute``; a relative import is one of the package's own modules.
    """
    bound = {}  # local name -> the qdetchar name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qdetchar":
                    bound[alias.asname or "qdetchar"] = alias.name if alias.asname else "qdetchar"
                    yield alias.name, None, False
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["qdetchar" if node.level else None, node.module]))
            if module.split(".")[0] == "qdetchar":
                for alias in node.names:
                    name = bound[alias.asname or alias.name] = f"{module}.{alias.name}"
                    yield name, None, False
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node)
            root, _, rest = (dotted or "").partition(".")
            if root in bound:
                yield ".".join(filter(None, [bound[root], rest])), calls.get(id(node)), True


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
        for dotted, call, _ in _qdetchar_uses(ast.parse(path.read_text(encoding="utf-8"))):
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


# Public names that no file reads beyond their own definitions, each kept for a reason.
_UNUSED_BY_DESIGN = {
    # The Bayes-versus-proposition-operator cross-check needs a second route to
    # the posterior that shares no code with retrodict_ensemble; only the tests
    # that compare the two routes call it.
    "proposition_operator",
    # The reader of the grid files that ``wigner`` writes; the program only
    # writes them.
    "read_wigner_grid",
}


def _user_trees():
    """``(path, tree)`` for each file whose reads count as a use of a public name:
    the package's modules, the demos, the benchmark and README's Python blocks."""
    for folder in ("src/qdetchar", "demos", "perfbench"):
        for path in sorted((_ROOT / folder).glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))
    readme = _ROOT / "README.md"
    for block in re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        yield readme, ast.parse(block)


def _own_reads(tree):
    """Names a module reads bare, each outside the ``def`` or ``class`` that defines it."""
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                yield node.id


def test_every_public_name_is_used_beyond_its_definition(wraps):
    """A name in ``qdetchar.__all__`` is read, as a ``Name`` or as an
    ``Attribute`` of a ``qdetchar`` module, somewhere beside its own
    definition, or the benchmark wraps it by name.  A field spelt like a
    function (``row.squeezing_witness``) is not a read of the function."""
    home = {"__version__": _ROOT / "src/qdetchar/_version.py"}
    for module in _MODULES:
        for name in importlib.import_module(f"qdetchar.{module}").__all__:
            home[name] = _ROOT / f"src/qdetchar/{module}.py"
    modules = {"qdetchar"} | {f"qdetchar.{path.stem}" for path in (_ROOT / "src/qdetchar").glob("*.py")}
    used = {attr for _, attr in wraps}
    for path, tree in _user_trees():
        for dotted, _, loaded in _qdetchar_uses(tree):
            module, _, name = dotted.rpartition(".")
            if loaded and module in modules:
                used.add(name)
        used.update(name for name in _own_reads(tree) if home.get(name) == path)
    assert sorted(set(qdetchar.__all__) - used) == sorted(_UNUSED_BY_DESIGN)


def test_every_source_file_parses_at_the_oldest_python_declared():
    """Each ``.py`` file of the project parses under the grammar of the oldest
    Python that ``pyproject.toml`` declares, for hosts that run only a newer one.

    ``ast.parse(feature_version=...)`` is best-effort: it checks grammar only
    (syntax such as ``except*`` or PEP 695 generics), not names that a newer
    standard library added, such as ``tomllib``.
    """
    text = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # tomllib itself is 3.11+, so the floor is read with a regex.
    major, minor = map(int, re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups())
    files = [f for top in ("src", "tests", "perfbench", "demos") for f in sorted((_ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
