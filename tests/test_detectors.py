"""Detector models, POVM containers and physical validation."""

import math
import re
import sys
from fractions import Fraction
from math import comb

import numpy as np
import oracles
import pytest
from conftest import random_element_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import (
    Povm,
    PovmElement,
    Tolerances,
    coherent_state,
    complete_with_rest,
    default_guard_levels,
    fock_state,
    ideal_pnr,
    lossy_pnr,
    on_off_apd,
    retrodicted_state,
    scaled_projector,
    validate_povm,
)
from qdetchar import detectors
from qdetchar.fock import _spectrum, hermitize


def loss_power_step(eta):
    """``lo / hi``: ``hi = fl(1 - eta)`` and ``lo`` its exact rounding error, by
    which a loss power ``hi**k`` is corrected to ``hi**k + hi**k * (k * (lo / hi))``;
    0 where ``1.0 - eta`` is exact, as it is for every ``eta >= 0.5``."""
    hi = 1.0 - eta
    lo = (1.0 - hi) - eta
    return lo / hi if lo else 0.0


def model_weights(build, *args):
    """The weight matrix ``build(*args)`` hands to ``_diagonal_povm``, without
    spreading it into the dense block (1 GB for ``lossy_pnr`` at dim 400)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_diagonal_povm", lambda labels, weights: weights)
        return build(*args)


DIAGONAL_MODELS = {
    "ideal-pnr": ideal_pnr,
    "lossy-pnr": lambda d: lossy_pnr(0.3, d),
    "apd": lambda d: on_off_apd(0.7, 0.02, d),
}


class TestContainers:
    def test_element_basic_properties(self):
        el = PovmElement("x", 0.25 * np.eye(4))
        assert el.dim == 4
        np.testing.assert_allclose(el.trace_weight, 1.0)
        assert not el.is_null()
        assert PovmElement("z", np.zeros((3, 3))).is_null()

    def test_outcome_at_the_trace_floor_is_null(self):
        tiny = np.diag([5e-13, 0.0, 0.0, 0.0])
        povm = Povm((PovmElement("tiny", tiny), PovmElement("rest", np.eye(4) - tiny)))
        report = validate_povm(povm)
        assert report.passed
        assert [e.is_null for e in report.elements] == [True, False]
        assert PovmElement("t", tiny).is_null(Tolerances(trace_floor=5e-13))
        assert not PovmElement("t", tiny).is_null(Tolerances(trace_floor=1e-13))

    def test_element_matrix_is_read_only(self):
        el = PovmElement("x", np.eye(3))
        with pytest.raises(ValueError):
            el.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_element_keeps_its_own_copy(self, dtype):
        given = np.eye(3, dtype=dtype)
        el = PovmElement("x", given)
        given[0, 0] = 2.0
        assert el.matrix[0, 0] == 1.0
        assert not el.matrix.flags.writeable and given.flags.writeable

    @pytest.mark.parametrize("kind", ["view-of-writable", "strided", "float"])
    def test_element_copies_a_read_only_array_that_can_still_be_written(self, kind):
        # A writable array is copied too: test_element_keeps_its_own_copy.
        base = np.eye(6, dtype=float if kind == "float" else complex)
        given = {"view-of-writable": base[:], "strided": base[::2, ::2], "float": base}[kind]
        given.setflags(write=False)
        if kind != "view-of-writable":
            base.setflags(write=False)
        el = PovmElement("x", given)
        assert not np.shares_memory(el.matrix, base)
        base.setflags(write=True)  # the owner of the data can always write again
        base[0, 0] = 2.0
        assert el.matrix[0, 0] == 1.0 and not el.matrix.flags.writeable

    def test_element_keeps_a_view_of_a_frozen_block(self):
        block = np.zeros((2, 3, 3), dtype=complex)
        block[:, [0, 1, 2], [0, 1, 2]] = [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]
        block.setflags(write=False)
        view = block[1]
        el = PovmElement("x", view)
        assert el.matrix is view and np.shares_memory(el.matrix, block)

    @pytest.mark.parametrize(
        "povm", [ideal_pnr(4), lossy_pnr(0.5, 4), on_off_apd(0.5, 0.1, 4)],
        ids=["ideal-pnr", "lossy-pnr", "apd"],
    )
    def test_canonical_elements_are_frozen_views_of_one_block(self, povm):
        block = povm.elements[0].matrix.base
        assert block.shape == (len(povm), 4, 4) and not block.flags.writeable
        for e in povm:
            assert e.matrix.base is block
            with pytest.raises(ValueError):
                e.matrix.setflags(write=True)

    def test_povm_rejects_duplicates_and_mixed_dims(self):
        a = PovmElement("a", 0.5 * np.eye(3))
        with pytest.raises(ValueError, match="unique"):
            Povm((a, PovmElement("a", 0.5 * np.eye(3))))
        with pytest.raises(ValueError, match="dimensions"):
            Povm((a, PovmElement("b", 0.5 * np.eye(4))))

    def test_povm_needs_an_outcome(self):
        with pytest.raises(ValueError, match="^a measurement needs at least one outcome$"):
            Povm(())

    def test_povm_lookup_and_guard_range(self):
        p = ideal_pnr(5)
        assert p.outcome("3").matrix[3, 3] == 1.0
        with pytest.raises(KeyError):
            p.outcome("nope")
        with pytest.raises(ValueError, match="guard_levels"):
            Povm(p.elements, guard_levels=5)

    def test_default_guard_is_top_fifth(self):
        assert default_guard_levels(10) == 2
        assert default_guard_levels(11) == 3
        assert default_guard_levels(4) == 1


class TestDiagonalModels:
    """A canonical model checks its weight matrix once and holds views of one block."""

    @pytest.mark.parametrize("dim", [2, 12, 200])
    @pytest.mark.parametrize("kind", list(DIAGONAL_MODELS))
    def test_no_element_rescans_its_dense_matrix(self, kind, dim, monkeypatch):
        calls = []
        square = detectors._square

        def counted(m, what):
            calls.append(what)
            return square(m, what)

        monkeypatch.setattr(detectors, "_square", counted)
        assert len(DIAGONAL_MODELS[kind](dim)) >= 2
        assert calls == []
        PovmElement("x", np.eye(2))  # the count does see a direct construction
        assert calls == ["element 'x'"]

    @pytest.mark.parametrize("dim", [2, 12, 60])
    @pytest.mark.parametrize("kind", list(DIAGONAL_MODELS))
    def test_elements_are_read_only_views_of_their_weights(self, kind, dim, monkeypatch):
        seen = []
        build = detectors._diagonal_povm

        def kept(labels, weights):
            seen.append(weights)
            return build(labels, weights)

        monkeypatch.setattr(detectors, "_diagonal_povm", kept)
        povm = DIAGONAL_MODELS[kind](dim)
        [weights] = seen
        block = povm.elements[0].matrix.base
        assert block.shape == (len(povm), dim, dim) and not block.flags.writeable
        for e, w in zip(povm, weights, strict=True):
            assert type(e) is PovmElement and type(e.label) is str
            assert e.matrix.base is block and not e.matrix.flags.writeable
            assert e.matrix.tobytes() == np.diag(w).astype(complex).tobytes()
            again = PovmElement(e.label, e.matrix)
            assert again.matrix is e.matrix and again.label == e.label

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_weight_is_refused(self, bad):
        weights = np.eye(3)
        weights[1, 2] = bad
        with pytest.raises(ValueError, match="^weights: non-finite entries$"):
            detectors._diagonal_povm(["0", "1", "2"], weights)

    @pytest.mark.parametrize("weights, message", [
        (np.ones(3), "weights: expected a matrix, got shape (3,)"),
        (np.ones((2, 1)), "truncation dimension must be at least 2, got 1"),
    ], ids=["1-d", "dim-1"])
    def test_a_weight_matrix_of_the_wrong_shape_is_refused(self, weights, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            detectors._diagonal_povm(["0", "1"], weights)

    BAD = {
        "nan": (np.nan, "non-finite entries"),
        "inf": (np.inf, "non-finite entries"),
        "non-square": (None, "expected a square matrix, got shape (3, 2)"),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    def test_a_direct_element_keeps_every_check(self, bad):
        # A read-only view of a frozen block, as a model's element is, gets
        # no pass from PovmElement itself.
        value, reason = self.BAD[bad]
        block = np.zeros((2, 3, 3), dtype=complex)
        block[1, 0, 0] = 1.0 if value is None else value
        block.setflags(write=False)
        view = block[1] if value is not None else block[1][:, :2]
        with pytest.raises(ValueError, match="^" + re.escape(f"element 'x': {reason}") + "$"):
            PovmElement("x", view)


class TestIdealPnr:
    def test_projectors_and_validation(self):
        p = ideal_pnr(6)
        assert p.labels == tuple(str(n) for n in range(6))
        total = sum(e.matrix for e in p)
        np.testing.assert_array_equal(total, np.eye(6))
        report = validate_povm(p)
        assert report.passed and report.completeness_residual <= 1e-12

    @pytest.mark.parametrize("d", [2, 7, 60])
    def test_each_outcome_is_a_row_of_the_identity(self, d):
        for n, e in enumerate(ideal_pnr(d)):
            assert e.matrix.tobytes() == np.diag(np.eye(d)[n]).astype(complex).tobytes()


class TestLossyPnr:
    def test_binomial_thinning_entries(self):
        p = lossy_pnr(0.6, 10)
        el1 = p.outcome("1")
        for m in range(10):
            expected = float(
                comb(m, 1) * Fraction(3, 5) * Fraction(2, 5) ** (m - 1)
            ) if m >= 1 else 0.0
            np.testing.assert_allclose(el1.matrix[m, m].real, expected, atol=1e-14)

    @staticmethod
    def assert_entries_are_the_per_entry_formula(eta, d):
        """Each entry equals ``comb(m, n) * eta**n * power`` bit for bit, ``power``
        being ``(1.0 - eta) ** (m - n)`` with its two-term correction."""
        step = loss_power_step(eta)
        for n, e in enumerate(lossy_pnr(eta, d)):
            want = np.zeros((d, d), dtype=complex)
            for m in range(n, d):
                power = (1.0 - eta) ** (m - n)
                power += power * ((m - n) * step)
                want[m, m] = comb(m, n) * eta**n * power
            assert e.matrix.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(2, 60))
    def test_entries_are_the_per_entry_formula_bit_for_bit(self, eta, d):
        self.assert_entries_are_the_per_entry_formula(eta, d)

    def test_entries_at_dim_200_are_the_per_entry_formula_bit_for_bit(self):
        self.assert_entries_are_the_per_entry_formula(0.5, 200)

    # Five roundings (the binomial, eta**n, the loss power, its two-term
    # correction and two products, one of them exact for eta >= 0.5) cost at
    # most 5 ulp, whatever the dim: the two-term base 1 - eta leaves no error
    # that grows with m - n.  Measured worst: 3 ulp at every eta and dim below,
    # against 35 ulp at (0.2, 60) and 119 at (0.2, 200) with a rounded base.
    WEIGHT_ULP = 5

    def assert_weights_within_budget(self, eta, dim, levels):
        for n, e in enumerate(lossy_pnr(eta, dim)):
            got = np.real(np.diagonal(e.matrix))
            assert not got[:n].any()
            for m in levels(n):
                want = oracles.lossy_pnr_weight(eta, m, n)
                assert abs(got[m] - want) <= self.WEIGHT_ULP * np.spacing(want), (n, m)

    @pytest.mark.parametrize("dim", [2, 12, 60])
    @pytest.mark.parametrize("eta", [0.9, 0.5, 0.2, 0.05])
    def test_weights_lie_within_their_budget_of_the_exact_binomial(self, eta, dim):
        self.assert_weights_within_budget(eta, dim, lambda n: range(n, dim))

    @pytest.mark.parametrize("eta", [0.2, 0.05])
    def test_weights_below_half_efficiency_keep_the_budget_at_dim_200(self, eta):
        # every seventh level of each outcome, the last one included
        self.assert_weights_within_budget(eta, 200, lambda n: range(199, n - 1, -7))

    def test_weight_overflow_raises_before_the_block_is_allocated(self, monkeypatch):
        zeros = np.zeros

        def two_dim_zeros(shape, *args, **kwargs):
            assert np.size(shape) < 3, "block allocated before every weight was computed"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", two_dim_zeros)
        # float(comb(1030, 515)) is beyond a double; the refusal names the dim
        with pytest.raises(ValueError, match=r"^dim 1031: binomial weight C\(1030, "):
            lossy_pnr(0.5, 1031)

    def test_completeness_exact_on_all_levels(self):
        for eta in (0.3, 0.6, 0.99):
            p = lossy_pnr(eta, 40)
            total = sum(e.matrix for e in p)
            assert np.max(np.abs(total - np.eye(40))) <= 1e-12

    def test_unit_efficiency_reduces_to_ideal(self):
        lossy = lossy_pnr(1.0, 12)
        ideal = ideal_pnr(12)
        for a, b in zip(lossy, ideal):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)

    def test_zero_efficiency_all_null_but_first(self):
        p = lossy_pnr(0.0, 6)
        np.testing.assert_array_equal(p.outcome("0").matrix, np.eye(6))
        for e in list(p)[1:]:
            assert e.is_null()
        # null outcomes are kept in place, not deleted
        assert len(p) == 6
        assert validate_povm(p).passed

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            lossy_pnr(1.5, 8)


class TestOnOffApd:
    def test_click_complement_sums_to_identity(self):
        p = on_off_apd(0.37, 0.05, 14)
        total = p.outcome("off").matrix + p.outcome("on").matrix
        np.testing.assert_array_equal(total, np.eye(14))
        assert validate_povm(p).passed

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 60))
    def test_elements_are_the_diagonal_matrices_bit_for_bit(self, eta, nu, d):
        k = np.arange(d)
        power = np.array([(1.0 - eta) ** n for n in range(d)])
        off = (1.0 - nu) * (power + power * (k * loss_power_step(eta)))
        p = on_off_apd(eta, nu, d)
        assert p.outcome("off").matrix.tobytes() == np.diag(off).astype(complex).tobytes()
        assert p.outcome("on").matrix.tobytes() == np.diag(1 - off).astype(complex).tobytes()

    @pytest.mark.parametrize("dim", [12, 60, 200])
    @pytest.mark.parametrize("eta, nu", [(0.2, 0.0), (0.05, 0.0), (0.2, 0.02), (0.9, 0.02)])
    def test_no_click_weights_lie_within_3_ulp_of_the_exact_power(self, eta, nu, dim):
        # 1 - nu, the power and its two-term correction, and one product, each
        # rounded once; measured worst 2 ulp (35 ulp at (0.2, 60) and 119 at
        # (0.2, 200) with a rounded base)
        got = np.real(np.diagonal(on_off_apd(eta, nu, dim).outcome("off").matrix))
        for m in range(dim):
            want = float((1 - Fraction(nu)) * (1 - Fraction(eta)) ** m)
            assert abs(got[m] - want) <= 3 * np.spacing(want), m

    def test_click_probability_on_two_photons(self):
        # 1 - (1-eta)^2 at eta = 0.5 and no dark counts
        p = on_off_apd(0.5, 0.0, 8)
        np.testing.assert_allclose(p.outcome("on").matrix[2, 2].real, 0.75, atol=1e-15)

    def test_dark_counts_lift_vacuum_click(self):
        p = on_off_apd(0.5, 0.1, 8)
        np.testing.assert_allclose(p.outcome("off").matrix[0, 0].real, 0.9, atol=1e-15)
        np.testing.assert_allclose(p.outcome("on").matrix[0, 0].real, 0.1, atol=1e-15)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            on_off_apd(0.5, -0.1, 8)

    @pytest.mark.parametrize("eta, nu, message", [
        (-0.1, 0.0, "efficiency must lie in [0, 1], got -0.1"),
        (1.5, 0.0, "efficiency must lie in [0, 1], got 1.5"),
        (0.5, 1.5, "dark-count rate must lie in [0, 1], got 1.5"),
    ], ids=["efficiency-low", "efficiency-high", "dark-count-high"])
    def test_rejects_parameters_outside_0_1(self, eta, nu, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            on_off_apd(eta, nu, 8)


def binomial_loss(a, d):
    """``B[j, m] = C(m, j) e^j (1 - e)^(m - j)`` for ``e = a / 64``, exact in
    integers and rounded once: the weight of ``j`` of ``m`` photons passing loss ``e``."""
    b = np.zeros((d, d))
    for m in range(d):
        for j in range(m + 1):
            b[j, m] = comb(m, j) * a**j * (64 - a) ** (m - j) / 64**m
    return b


@st.composite
def loss_pairs(draw):
    """``(a, b, d)``: efficiencies ``a / 64`` and ``b / 64`` whose every power to
    ``d - 1``, and every power of their product and of each complement, stays a
    normal double, where the weight budget holds."""
    d = draw(st.integers(2, 200))
    lo = 2.0 ** (-1022 / (d - 1))  # lo**(d - 1) is the least normal double
    least, most = math.ceil(64 * lo), math.floor(64 * (1 - lo))
    a = draw(st.integers(least, most))
    b = draw(st.integers(max(least, math.ceil(4096 * lo / a)), most))
    return (a, b, d) if draw(st.booleans()) else (b, a, d)


class TestLossComposes:
    """Loss ``e2`` after ``lossy_pnr(e1)`` is ``lossy_pnr(e1 * e2)``, against
    binomial weights built here from integers alone."""

    @staticmethod
    def relative_error(a, b, d):
        """The largest ``|W(e1) @ B(e2) - W(e1 e2)|`` in units of ``W(e1 e2)``'s entry
        times ``d eps``; an entry that is 0 on either side must be 0 on both."""
        got = model_weights(lossy_pnr, a / 64, d) @ binomial_loss(b, d)
        want = model_weights(lossy_pnr, a * b / 4096, d)
        assert np.array_equal(got == 0, want == 0)
        nonzero = want != 0
        return np.max(np.abs(got - want)[nonzero] / want[nonzero]) / (d * sys.float_info.epsilon)

    # The composed side sums d products of rounded weights, so its error grows
    # with d; measured worst 0.28 d eps over 60 cases.
    @settings(max_examples=60, deadline=None)
    @given(loss_pairs())
    def test_loss_after_loss_is_the_product_efficiency(self, pair):
        assert self.relative_error(*pair) <= 2.0

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="lossy_pnr takes eta**n as a float, which underflows past about dim 300: "
        "0.15625**n is subnormal from n = 382, so the weights of lossy_pnr(0.15625, 400) "
        "lose their digits (the open dim-300 underflow, ROADMAP item 16)",
    )
    def test_loss_composes_at_dim_400(self):
        assert self.relative_error(16, 40, 400) <= 2.0

    # Both read the one table of loss powers, so at nu = 0 they agree bit for bit.
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(2, 400))
    def test_no_click_is_lossy_pnr_outcome_0(self, eta, d):
        off = model_weights(on_off_apd, eta, 0.0, d)[0]
        zero = model_weights(lossy_pnr, eta, d)[0]
        assert off.tobytes() == zero.tobytes()


def loss_kraus(a, d):
    """The pure-loss channel's Kraus operators at efficiency ``e = a / 64``,
    ``A_k = sum_n sqrt(C(n, k) e^(n-k) (1 - e)^k) |n-k><n|``, stacked by ``k``;
    each entry's square is one exact quotient of integers, rounded once."""
    ops = np.zeros((d, d, d))
    for k in range(d):
        for n in range(k, d):
            ops[k, n - k, n] = math.sqrt(comb(n, k) * a ** (n - k) * (64 - a) ** k / 64**n)
    return ops


# Loss ahead of ideal PNR, as the adjoint channel on its dense elements:
# sum_k A_k^dag E_m A_k is lossy_pnr's element m.  The Kraus side rounds each
# entry's square, its root and one product (a sum of zeros besides), so it
# lies within 2 eps of the truth and lossy_pnr within its 5 ulp; measured
# worst 3.0 eps relative over 6,700 elements (dims 2-64, dyadic etas), held
# to 8.  Off the diagonal both sides are exactly 0.
@settings(max_examples=15, deadline=None)
@given(st.integers(1, 63), st.integers(2, 64))
def test_loss_is_the_adjoint_channel_on_ideal_pnr(a, d):
    ideal = np.array([e.matrix for e in ideal_pnr(d)])
    want = np.array([e.matrix for e in lossy_pnr(a / 64, d)])
    assert not ideal.imag.any() and not want.imag.any()
    got = sum(op.T @ ideal.real @ op for op in loss_kraus(a, d))
    levels = np.arange(d)
    off = ~np.eye(d, dtype=bool)
    assert not got[:, off].any() and not want[:, off].any()
    got, want = got[:, levels, levels], want.real[:, levels, levels]
    assert np.array_equal(got == 0, want == 0)
    nonzero = want != 0
    assert np.max(np.abs(got - want)[nonzero] / want[nonzero]) <= 8 * sys.float_info.epsilon


class TestScaledProjector:
    def test_rank_one_and_weight(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        el = scaled_projector(v, 0.3)
        w = np.linalg.eigvalsh(el.matrix)
        np.testing.assert_allclose(el.trace_weight, 0.3, atol=1e-12)
        assert abs(w[-2]) <= 1e-12  # second eigenvalue: rank one
        np.testing.assert_allclose(w[-1], 0.3, atol=1e-12)

    def test_normalizes_target(self):
        el = scaled_projector(2.0 * fock_state(1, 4), 1.0)
        np.testing.assert_allclose(el.matrix[1, 1].real, 1.0, atol=1e-15)

    def test_rejects_bad_weight_and_zero_vector(self):
        with pytest.raises(ValueError):
            scaled_projector(fock_state(0, 4), 0.0)
        with pytest.raises(ValueError):
            scaled_projector(np.zeros(4), 0.5)


class TestCompleteWithRest:
    def test_rest_spectrum(self):
        el = scaled_projector(fock_state(1, 3), 0.3)
        p = complete_with_rest([el])
        w = np.linalg.eigvalsh(p.outcome("rest").matrix)
        np.testing.assert_allclose(np.sort(w), [0.7, 1.0, 1.0], atol=1e-12)
        assert validate_povm(p).passed

    def test_rejects_overweight_elements(self):
        el = PovmElement("too-big", 1.2 * np.eye(3))
        with pytest.raises(ValueError, match="exceed"):
            complete_with_rest([el])

    def test_clips_roundoff_negative_complement(self):
        el = PovmElement("full", np.eye(3) * (1.0 + 5e-11))
        p = complete_with_rest([el])
        assert np.linalg.eigvalsh(p.outcome("rest").matrix)[0] >= 0.0


def canonical_models(dim):
    """The four canonical devices, with the benchmark's parameters."""
    hit = scaled_projector(coherent_state(1.0, dim), 0.6)
    return [ideal_pnr(dim), lossy_pnr(0.7, dim), on_off_apd(0.5, 0.02, dim),
            complete_with_rest([hit])]


class TestValidation:
    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_spectra_match_eigvalsh_bit_for_bit(self):
        # Every element and retrodicted state that validation and retrodiction check.
        checked = 0
        for dim in (2, 12, 60):
            for povm in canonical_models(dim):
                for el in povm:
                    matrices = [el.matrix]
                    if not el.is_null():
                        matrices.append(retrodicted_state(el).state)
                    for m in matrices:
                        w = _spectrum(m)
                        assert w.tobytes() == np.linalg.eigvalsh(hermitize(m)).tobytes()
                        checked += 1
        assert checked == 2 * (2 + 2 + 2 + 2) + 2 * (12 + 12 + 2 + 2) + 2 * (60 + 60 + 2 + 2)

    def test_random_completed_measurements_pass(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 12))
            m = 0.5 * random_element_matrix(rng, d)
            p = complete_with_rest([PovmElement("a", m)])
            assert validate_povm(p).passed

    def test_non_hermitian_flagged(self):
        bad = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        p = Povm((PovmElement("h", bad), PovmElement("r", np.eye(2) - 0.5 * (bad + bad.conj().T))))
        report = validate_povm(p)
        assert not report.passed
        assert report.elements[0].hermiticity_defect > 1e-10

    def test_overcomplete_residual_reported(self):
        p = Povm((PovmElement("a", 0.5 * np.eye(3)), PovmElement("b", 0.6 * np.eye(3))))
        report = validate_povm(p)
        assert not report.passed
        np.testing.assert_allclose(report.completeness_residual, 0.1, atol=1e-12)

    def test_eigenvalue_above_one_flagged(self):
        p = Povm((PovmElement("a", 1.2 * np.eye(2)),))
        report = validate_povm(p)
        assert not report.passed and report.elements[0].max_eigenvalue > 1.0

    def test_guard_levels_forgive_truncation_leak(self):
        # complete on levels 0..6, leaking on the top three
        d = 10
        diag = np.ones(d)
        diag[-3:] = 0.7
        p_strict = Povm((PovmElement("a", np.diag(diag).astype(complex)),), guard_levels=0)
        p_guarded = Povm((PovmElement("a", np.diag(diag).astype(complex)),), guard_levels=3)
        assert not validate_povm(p_strict).passed
        report = validate_povm(p_guarded)
        assert report.passed and report.checked_levels == 7

    def test_tolerances_are_adjustable(self):
        p = Povm((PovmElement("a", (1.0 + 1e-7) * np.eye(2)),))
        assert not validate_povm(p).passed
        assert validate_povm(p, Tolerances(psd=1e-6, completeness=1e-6)).passed

    # A finite entry near the float limit: the defect, the diagonal spectrum
    # and the completeness sum overflowed with a RuntimeWarning, and an
    # overflowed Hermitian part made eigvalsh raise LinAlgError.
    @pytest.mark.parametrize("i, j, value", [(0, 0, 9e307), (0, 0, 9e307j), (0, 1, 1e308),
                                             (0, 1, 1.7e308 + 1.7e308j)],
                             ids=["diagonal", "imaginary-diagonal", "off-diagonal", "complex"])
    def test_an_entry_near_the_float_limit_fails_without_a_warning(self, i, j, value):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = m[j, i] = value
        report = validate_povm(Povm((PovmElement("a", m), PovmElement("b", m))))
        assert not report.passed and not report.elements[0].passed

    def test_summary_mentions_residual(self):
        p = Povm((PovmElement("a", 0.5 * np.eye(2)),))
        assert "completeness residual 0.5" in validate_povm(p).summary()
