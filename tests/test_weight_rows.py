"""Estimator rows of a phase-insensitive POVM, built from its weight matrix.

``cli._report`` builds a POVM's estimator rows from ``Povm.weights``
(``retrodiction._rows_from_weights``) when it has them, and with
``estimator_report`` one outcome at a time otherwise.  Both routes must give
the same rows, notices and refusals, in the same order.  Two summation
orders of the same ``d`` non-negative terms differ by at most ``2 (d + 1)``
ulp of the sum, which bounds every float here; on the canonical models only
the fidelity moves at all.
"""

import contextlib
import io
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import (
    DEFAULT_THRESHOLDS,
    DEFAULT_TOLS,
    Povm,
    PovmElement,
    Tolerances,
    TruncationWarning,
    ideal_pnr,
    lossy_pnr,
    on_off_apd,
    require_valid,
)
from qdetchar.cli import _report, parse_target

FLOATS = ("trace_weight", "projectivity", "ideality", "fidelity", "detectivity")
CANONICAL_TARGETS = ("fock:1", "coherent:1,0", "squeezed:0.3")


def targets_at(specs, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # coherent:1,0 at dim 2
        return [parse_target(spec, dim) for spec in specs]


def report(povm, targets, route="weights", tols=DEFAULT_TOLS):
    """``(rows, stderr, refusal)`` of ``cli._report`` on one route; ``refusal`` is the error text."""
    err, rows, refusal = io.StringIO(), None, None
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stderr(err):
        if route == "per outcome":
            m.setattr(Povm, "weights", property(lambda self: None))
        try:
            rows = _report(povm, "", targets, None, tols, DEFAULT_THRESHOLDS).estimators
        except (ValueError, RuntimeError) as exc:
            refusal = f"{type(exc).__name__}: {exc}"
    return rows, err.getvalue(), refusal


def both_routes(povm, targets):
    """Each route's rows; the notices and refusals must match."""
    assert povm.weights is not None
    (got, got_err, got_refusal), (want, want_err, want_refusal) = (
        report(povm, targets, route) for route in ("weights", "per outcome")
    )
    assert (got_err, got_refusal) == (want_err, want_refusal)
    return got, want


def ulps(a, b) -> float:
    """``|a - b|`` in ulp of the larger magnitude; 0 when both are ``None`` or equal."""
    if a == b:
        return 0.0
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


def assert_same_rows(got, want, bound):
    assert [(r.outcome_label, r.target, r.category) for r in got] == [
        (r.outcome_label, r.target, r.category) for r in want
    ]
    for g, w in zip(got, want):
        for key in FLOATS:
            assert ulps(getattr(g, key), getattr(w, key)) <= bound, (g.outcome_label, g.target, key)


@st.composite
def phase_insensitive_povms(draw):
    """Random column-stochastic weights as a diagonal POVM, some outcomes null, and targets."""
    dim, count = draw(st.integers(2, 64)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((count, dim)) ** rng.uniform(0.5, 4.0)
    nulls = draw(st.lists(st.integers(0, count - 1), max_size=count - 1, unique=True))
    p[nulls] = 0.0
    p[:, p.sum(axis=0) == 0.0] = 1.0  # a level no outcome sees goes to each live one
    p[nulls] = 0.0
    p /= p.sum(axis=0)
    labels = [f"k{k}" for k in rng.permutation(count)]
    povm = Povm(tuple(PovmElement(label, np.diag(row)) for label, row in zip(labels, p)))
    require_valid(povm)
    specs = draw(st.lists(
        st.one_of(
            st.integers(0, dim - 1).map(lambda n: f"fock:{n}"),
            st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda a: f"coherent:{a[0]!r},{a[1]!r}"),
            st.floats(-1, 1).map(lambda r: f"squeezed:{r!r}"),
        ),
        min_size=1, max_size=3, unique=True,
    ))
    return povm, targets_at(specs, dim)


@settings(max_examples=40, deadline=None)
@given(phase_insensitive_povms())
def test_weight_rows_are_the_per_outcome_rows(drawn):
    povm, targets = drawn
    for chosen in (targets, [(None, None)]):
        got, want = both_routes(povm, chosen)
        assert_same_rows(got, want, 2 * (povm.dim + 1))


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Rotating an element costs each entry about d roundings, and Tr(E^2) and
# Tr(E) read them back: a relative move below 8 d eps (measured worst 2.0 d eps
# over 4,000 examples at dims 2-64).
ROTATION_EPS = 8


@settings(max_examples=40, deadline=None)
@given(phase_insensitive_povms(), st.integers(0, 2**32 - 1))
def test_projectivity_ideality_and_category_do_not_move_under_a_unitary(drawn, seed):
    povm, targets = drawn
    u = haar_unitary(np.random.default_rng(seed), povm.dim)
    rotated = Povm(tuple(
        PovmElement(e.label, u @ e.matrix @ u.conj().T) for e in povm
    ))
    assert rotated.weights is None  # the dense route

    bound = ROTATION_EPS * povm.dim * oracles.EPS
    thresholds = DEFAULT_THRESHOLDS
    for a, b in zip(report(povm, targets)[0], report(rotated, targets)[0], strict=True):
        assert a.outcome_label == b.outcome_label
        for key in ("projectivity", "ideality"):
            assert abs(getattr(a, key) - getattr(b, key)) <= bound * getattr(a, key), key
        near = (
            abs(a.projectivity - thresholds.projectivity_min) <= bound
            or abs(a.ideality - thresholds.ideality_min) <= bound
        )
        assert near or a.category == b.category


@settings(max_examples=40, deadline=None)
@given(phase_insensitive_povms(), st.integers(0, 2**32 - 1))
def test_fidelity_and_detectivity_follow_the_target_under_a_unitary(drawn, seed):
    # Rotating every element and the target by one unitary leaves each
    # overlap as it was.  Both lie in [0, 1] and each rotated entry carries
    # about d roundings, so they move by less than 8 d eps absolute (measured
    # worst 1.5 d eps over 5,000 examples at dims 2-64); relative to a tiny
    # overlap they move without bound.
    povm, targets = drawn
    u = haar_unitary(np.random.default_rng(seed), povm.dim)
    rotated = Povm(tuple(
        PovmElement(e.label, u @ e.matrix @ u.conj().T) for e in povm
    ))
    turned = [(spec, u @ ket) for spec, ket in targets]

    bound = ROTATION_EPS * povm.dim * oracles.EPS
    pairs = zip(report(povm, targets)[0], report(rotated, turned)[0], strict=True)
    for a, b in pairs:
        assert (a.outcome_label, a.target) == (b.outcome_label, b.target)
        for key in ("fidelity", "detectivity"):
            assert abs(getattr(a, key) - getattr(b, key)) <= bound, key


@pytest.mark.parametrize("case", [
    "short ket", "no label", "state refused first", "probability above 1", "trace off by rounding",
])
def test_a_refusal_comes_after_the_same_notices(case):
    zero, live = np.zeros((4, 4)), np.diag([0.5, 0.5, 0.5, 0.5])
    first = {
        "state refused first": np.diag([1e-3, -5e-11, 0.0, 0.0]),
        "probability above 1": np.diag([1.0005, 0.0, 0.0, 0.0]),  # within psd 1e-3 of 1
        "trace off by rounding": np.diag([0.64, 0.27, 0.04, 0.02]),  # 1 + 2.2e-16 over its weight
    }.get(case, live)
    povm = Povm((PovmElement("null", zero), PovmElement("first", first), PovmElement("next", live)))
    short = [("short", np.ones(3))]
    bad = {"short ket": short, "no label": [(None, np.ones(4))], "state refused first": short}.get(case, [])
    tols = {
        "probability above 1": Tolerances(psd=1e-3), "trace off by rounding": Tolerances(norm=0.0),
    }.get(case, DEFAULT_TOLS)
    refusals = [
        report(povm, [("fock:0", np.eye(4)[0])] + bad, route, tols)[1:]
        for route in ("weights", "per outcome")
    ]
    assert refusals[0] == refusals[1]
    err, refusal = refusals[0]
    assert err == "skipping null outcome 'null'\n"
    assert refusal.startswith("ValueError: ")
    state_refused = case in ("state refused first", "trace off by rounding")
    assert ("retrodicted state of 'first'" in refusal) == state_refused


def canonical_models(dim):
    return {
        "ideal-pnr": ideal_pnr(dim),
        "lossy-pnr 0.9": lossy_pnr(0.9, dim),
        "lossy-pnr 0.5": lossy_pnr(0.5, dim),
        "lossy-pnr 0.2": lossy_pnr(0.2, dim),
        "apd 0.5 0.02": on_off_apd(0.5, 0.02, dim),
        "apd 0.2 0.0": on_off_apd(0.2, 0.0, dim),
    }


# Measured on the models below: the fidelity, summed in order here and
# through BLAS on the per-outcome route, moves by at most 4 ulp.
FIDELITY_ULP = 4


@pytest.mark.parametrize("dim", [2, 12, 60])
def test_canonical_rows_keep_every_bit_but_the_fidelity(dim):
    targets = targets_at(CANONICAL_TARGETS, dim)
    for name, povm in canonical_models(dim).items():
        got, want = both_routes(povm, targets)
        assert_same_rows(got, want, FIDELITY_ULP)
        for g, w in zip(got, want):
            assert [getattr(g, k) for k in FLOATS if k != "fidelity"] == [
                getattr(w, k) for k in FLOATS if k != "fidelity"
            ], (name, g.outcome_label, g.target)


# Both routes against the exact estimators of the exact binomial weights: the
# weights' own roundings (at most 5 ulp each) and the sums'.  Measured worst:
# 5 ulp on the per-outcome route and 6 on the weights route.
ORACLE_ULP = 8


@pytest.mark.parametrize("dim", [2, 12, 60])
@pytest.mark.parametrize("eta", [0.9, 0.5, 0.2])
def test_both_routes_lie_within_their_budget_of_the_exact_estimators(eta, dim):
    povm = lossy_pnr(eta, dim)
    targets = targets_at(CANONICAL_TARGETS, dim)
    got, want = both_routes(povm, targets)
    for pair, (label, ket) in zip(zip(got, want), targets * len(got)):
        truth = oracles.lossy_pnr_estimators(eta, dim, int(pair[0].outcome_label), ket)
        for row in pair:
            for key in FLOATS:
                assert ulps(getattr(row, key), truth[key]) <= ORACLE_ULP, (row.outcome_label, label, key)


@pytest.mark.parametrize("eta", [0.9, 0.5])
def test_weight_rows_reach_the_untruncated_projectivity_at_dim_150(eta):
    # the levels past 150 hold below 1e-17 of each outcome n <= 10 at these
    # efficiencies (at eta 0.2 they hold 1e-5); measured worst 3 ulp
    rows = report(lossy_pnr(eta, 150), [(None, None)])[0]
    for n in range(11):
        truth = oracles.untruncated_lossy_pnr_projectivity(eta, n)
        assert ulps(rows[n].projectivity, truth) <= 4, n
        assert ulps(rows[n].ideality, truth / eta) <= 4, n


def test_untruncated_projectivity_at_half_efficiency():
    assert oracles.untruncated_lossy_pnr_projectivity(0.5, 10) == pytest.approx(0.0625035, abs=5e-8)
