"""Shared random-object builders for the test suite."""

import json

import numpy as np
import pytest
from hypothesis import example
from hypothesis import strategies as st

# JSON numbers at the edges a reader must handle: an integer past 64 bits, one
# past the float range, and a signed zero.
EDGE_PARTS = (2**64 + 1, 10**400, -0.0)

# Any value a JSON number parses to: integers past 64 bits and past the float
# range, NaN, infinities and a signed zero included; and any JSON value made of them.
JSON_PARTS = st.booleans() | st.integers() | st.floats() | st.sampled_from(EDGE_PARTS)
ANY_JSON = st.recursive(
    JSON_PARTS | st.none() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def every_edge_at_every_site(sites):
    """Stack an ``@example`` of each of ``EDGE_PARTS`` at each of ``sites`` on a property.

    Drawn at random, an edge value reaches any one site too rarely.
    """

    def stacked(test):
        for site in sites:
            for value in EDGE_PARTS:
                test = example(site=site, value=value)(test)
        return test

    return stacked


def mutated(text, site, value):
    """The JSON document ``text`` with ``value`` put at ``site``, a path of keys."""
    doc = json.loads(text)
    *parents, last = site
    parent = doc
    for key in parents:
        parent = parent[key]
    parent[last] = value
    return json.dumps(doc)


# Where a mutation puts its value in a saved lossy_pnr(0.7, 3) file: each header
# field, the metadata and one of its values, the outcome list, one outcome, its
# label, its matrix, one row of it and one [re, im] pair.
MEASUREMENT_SITES = [
    ("format_version",), ("dim",), ("guard_levels",), ("metadata",), ("metadata", "eta"),
    ("outcomes",), ("outcomes", 1), ("outcomes", 1, "label"), ("outcomes", 1, "matrix"),
    ("outcomes", 1, "matrix", 2), ("outcomes", 1, "matrix", 2, 0),
]


# Where a mutation puts its value in a saved uniform_fock_ensemble(3) file: each
# header field, the metadata and one value in it, the entry list, one entry, its
# label, prior and matrix, one row of it and one [re, im] pair.
ENSEMBLE_SITES = [
    ("format_version",), ("dim",), ("metadata",), ("metadata", "note"),
    ("entries",), ("entries", 1), ("entries", 1, "label"), ("entries", 1, "prior"),
    ("entries", 1, "matrix"), ("entries", 1, "matrix", 2), ("entries", 1, "matrix", 2, 0),
]


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_element_matrix(rng, dim):
    """Random PSD matrix with spectrum scaled into [0, 1]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    w, v = np.linalg.eigh(h)
    return (v * (w / w[-1])) @ v.conj().T


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    return h / np.trace(h).real


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


_LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    """Fail any test on a warning that it neither expects nor filters.

    The mark goes first among each test's own, so the test's and its class's
    and module's ``filterwarnings`` marks are applied after it and win.  One
    warning is let through: hypothesis reports a failing example by importing
    ``libcst``, which warns that ``mypy_extensions.TypedDict`` is deprecated;
    as an error, it stopped the whole run at the first failing property.
    """
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_LIBCST_IMPORT), append=False)
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
