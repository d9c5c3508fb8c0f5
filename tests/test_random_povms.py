"""Property searches over random dense measurements.

Each example draws a POVM ``E_k = S^{-1/2} G_k G_k^H S^{-1/2}`` with
``S = sum_k G_k G_k^H`` and complex Gaussian ``G_k``, seeded from
hypothesis, at dim 2-16 with 2-5 outcomes.  Such elements are full rank
and mix every number level, unlike the diagonal canonical models.
"""

import tempfile
from pathlib import Path

import numpy as np
from conftest import random_dense_povm
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import (
    Povm,
    PovmElement,
    born_probability,
    detectivity,
    estimator_identity_residuals,
    estimator_report,
    load_povm,
    require_valid,
    retrodicted_state,
    save_povm,
)
from qdetchar.cli import main
from qdetchar.retrodiction import IDENTITY_SLACK

_EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def random_povms(draw):
    """A seeded dense POVM and a seeded random target ket of the same dim."""
    dim, count = draw(st.integers(2, 16)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    elements = random_dense_povm(rng, dim, count)
    povm = Povm(tuple(PovmElement(f"e{k}", e) for k, e in enumerate(elements)), guard_levels=0)
    require_valid(povm)
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return povm, ket / np.linalg.norm(ket)


@_EXAMPLES
@given(random_povms())
def test_estimator_identities_hold(drawn):
    povm, ket = drawn
    for element in povm:
        row = estimator_report(element, ket, "random")
        assert estimator_report(retrodicted_state(element), ket, "random") == row
        weight_res, det_res = estimator_identity_residuals(row)
        assert weight_res <= IDENTITY_SLACK and det_res <= IDENTITY_SLACK


@_EXAMPLES
@given(random_povms())
def test_detectivity_agrees_with_the_born_route(drawn):
    povm, ket = drawn
    for element in povm:
        born = born_probability(ket, element)
        for source in (element, retrodicted_state(element)):
            assert abs(detectivity(source, ket) - born) <= 1e-12


@_EXAMPLES
@given(random_povms())
def test_two_target_report_of_the_saved_file_verifies(drawn):
    povm, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "povm.json", Path(tmp) / "report.json"
        save_povm(povm, path)
        argv = ["characterize", str(path), "--target", "fock:0", "--target", "squeezed:0.2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0


@_EXAMPLES
@given(random_povms())
def test_save_load_save_is_byte_identical(drawn):
    povm, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_povm(povm, a)
        save_povm(load_povm(a), b)
        assert a.read_bytes() == b.read_bytes()
