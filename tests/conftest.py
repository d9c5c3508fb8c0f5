"""Shared random-object builders for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

# Any value a JSON number parses to: integers past 64 bits and past the float
# range, NaN, infinities and a signed zero included; and any JSON value made of them.
JSON_PARTS = (
    st.booleans() | st.integers() | st.floats() | st.sampled_from([2**64 + 1, 10**400, -0.0])
)
ANY_JSON = st.recursive(
    JSON_PARTS | st.none() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


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


def pytest_collection_modifyitems(items):
    """Fail any test on a warning that it neither expects nor filters.

    The mark goes first among each test's own, so the test's and its class's
    and module's ``filterwarnings`` marks are applied after it and win.
    """
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
