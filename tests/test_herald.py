"""Heralded preparation from two-mode squeezed vacuum and the limit scan."""

import numpy as np
import pytest
from conftest import random_density, random_element_matrix, random_pure
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdetchar import (
    HeraldImpossibleError,
    PovmElement,
    TailToleranceError,
    Tolerances,
    TmsvParams,
    TruncationWarning,
    fock_state,
    heralded_closed_form,
    heralded_state,
    heralded_state_from_joint,
    lossy_pnr,
    on_off_apd,
    retrodicted_state,
    retrodictive_limit_scan,
    scaled_projector,
    tmsv,
    trace_distance,
)
from qdetchar.fock import conjugate_in_fock, number_mean


def fock_projector(n, dim, label=None):
    return scaled_projector(fock_state(n, dim), 1.0, label=label or str(n))


def kron_heralded(rho_ab, element_matrix, dim_a, dim_b):
    """Reference route: the unnormalized ``Tr_B{rho_AB (1_A (x) E)}``.

    The O((dA dB)^3) joint-space kernel and matmul that both heralding
    routes used before their contractions, kept verbatim as their oracle.
    """
    joint = rho_ab @ np.kron(np.eye(dim_a), element_matrix)
    return np.einsum("ikjk->ij", joint.reshape(dim_a, dim_b, dim_a, dim_b))


def assert_matches_kron(result, rho_ab, element_matrix, dim_a, dim_b):
    unnorm = kron_heralded(rho_ab, element_matrix, dim_a, dim_b)
    prob = float(np.real(np.trace(unnorm)))
    assert abs(result.success_probability - prob) <= 1e-12
    assert np.max(np.abs(result.conditional_state - unnorm / prob)) <= 1e-12


FINITE = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestTmsv:
    def test_amplitude_ladder(self):
        vec = tmsv(TmsvParams(0.5, 20))
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-15)
        # |n, n> lives at flat index n*dim + n
        np.testing.assert_allclose(vec[21] / vec[0], 0.5, atol=1e-15)
        np.testing.assert_allclose(vec[2 * 21] / vec[0], 0.25, atol=1e-15)
        off_diagonal = vec.reshape(20, 20) - np.diag(np.diag(vec.reshape(20, 20)))
        assert np.all(off_diagonal == 0.0)

    def test_reduced_state_is_thermal(self):
        vec = tmsv(TmsvParams(0.5, 20))
        rho_a = np.einsum("ikjk->ij", np.outer(vec, vec.conj()).reshape(20, 20, 20, 20))
        diag = np.diag(rho_a).real
        np.testing.assert_allclose(diag[1:] / diag[:-1], 0.25, atol=1e-12)
        # mean photon number lam^2/(1 - lam^2) = 1/3
        np.testing.assert_allclose(number_mean(rho_a), 1.0 / 3.0, atol=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            TmsvParams(1.0, 10)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            TmsvParams(-0.1, 10)
        with pytest.raises(ValueError):
            TmsvParams(0.5, 1)

    def test_tail_property_and_warning(self):
        assert TmsvParams(0.5, 10).tail == 0.5**20
        with pytest.warns(TruncationWarning, match="truncation budget"):
            TmsvParams(0.9, 20)


class TestPathEquivalence:
    # tail warnings are irrelevant here: both routes share the truncation
    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_routes_agree_on_random_elements(self, rng):
        for _ in range(20):
            d = int(rng.integers(6, 11))
            lam = float(rng.choice([0.2, 0.7]))
            el = PovmElement("e", random_element_matrix(rng, d))
            params = TmsvParams(lam, d)
            via_joint = heralded_state(tmsv(params), el)
            via_form = heralded_closed_form(params, el)
            assert (
                trace_distance(via_joint.conditional_state, via_form.conditional_state)
                <= 1e-10
            )
            # closed form keeps the untruncated normalization; the ket route
            # renormalizes after truncation, hence the (1 - lam^(2 dim)) factor
            np.testing.assert_allclose(
                via_joint.success_probability * (1.0 - lam ** (2 * d)),
                via_form.success_probability,
                rtol=1e-12,
            )

    def test_fock_projector_success_probability(self):
        # herald on |n><n| succeeds with probability (1 - lam^2) lam^(2n)
        lam, d = 0.6, 25
        params = TmsvParams(lam, d)
        for n in (0, 1, 4):
            res = heralded_closed_form(params, fock_projector(n, d))
            expected = (1.0 - lam**2) * lam ** (2 * n)
            assert abs(res.success_probability - expected) <= 1e-10
            np.testing.assert_allclose(
                res.conditional_state,
                np.outer(fock_state(n, d), fock_state(n, d)),
                atol=1e-12,
            )

    def test_click_herald_filters_the_retro_diagonal(self):
        lam, d = 0.4, 30
        el = on_off_apd(0.3, 0.0, d).outcome("on")
        res = heralded_closed_form(TmsvParams(lam, d), el)
        profile = lam ** (2 * np.arange(d)) * (1.0 - 0.7 ** np.arange(d))
        np.testing.assert_allclose(
            np.diag(res.conditional_state).real, profile / profile.sum(), atol=1e-12
        )

    def test_weak_squeezing_heralds_mostly_vacuum(self):
        el = on_off_apd(0.5, 0.1, 40).outcome("off")
        res = heralded_closed_form(TmsvParams(1e-3, 40), el)
        assert res.conditional_state[0, 0].real > 0.999


class TestJointConditioning:
    def test_product_state_factorizes(self, rng):
        # conditioning mode B of rho_A x rho_B leaves rho_A untouched
        da, db = 5, 7
        wa = rng.random(da)
        rho_a = np.diag(wa / wa.sum()).astype(complex)
        v = rng.normal(size=db) + 1j * rng.normal(size=db)
        v /= np.linalg.norm(v)
        rho_b = np.outer(v, v.conj())
        el = PovmElement("e", random_element_matrix(rng, db))
        res = heralded_state_from_joint(np.kron(rho_a, rho_b), el)
        np.testing.assert_allclose(res.conditional_state, rho_a, atol=1e-12)
        expected = float(np.real(np.trace(rho_b @ el.matrix)))
        np.testing.assert_allclose(res.success_probability, expected, atol=1e-12)

    def test_impossible_outcome_raises(self):
        # lam=0 TMSV is |0,0>, which can never trip a single-photon projector
        params = TmsvParams(0.0, 8)
        with pytest.raises(HeraldImpossibleError, match="probability"):
            heralded_closed_form(params, fock_projector(1, 8))
        with pytest.raises(HeraldImpossibleError):
            heralded_state(tmsv(params), fock_projector(1, 8))

    def test_input_shape_guards(self):
        el = fock_projector(0, 4)
        with pytest.raises(ValueError, match="joint ket"):
            heralded_state(np.eye(16, dtype=complex), el)
        with pytest.raises(ValueError, match="zero"):
            heralded_state(np.zeros(16, dtype=complex), el)
        with pytest.raises(ValueError, match="factor"):
            heralded_state_from_joint(np.eye(6, dtype=complex) / 6, el)


class TestAgainstKronOracle:
    """Both contracted routes against ``kron_heralded``."""

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 5), (5, 2), (3, 7), (9, 4)])
    def test_random_mixed_joint_states(self, dim_a, dim_b):
        rng = np.random.default_rng([1010, dim_a, dim_b])
        for _ in range(5):
            el = PovmElement("e", random_element_matrix(rng, dim_b))
            rho_ab = random_density(rng, dim_a * dim_b)
            res = heralded_state_from_joint(rho_ab, el)
            assert_matches_kron(res, rho_ab, el.matrix, dim_a, dim_b)

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 5), (5, 2), (3, 7), (9, 4)])
    def test_random_pure_joint_states(self, dim_a, dim_b):
        rng = np.random.default_rng([2020, dim_a, dim_b])
        for _ in range(5):
            el = PovmElement("e", random_element_matrix(rng, dim_b))
            psi = random_pure(rng, dim_a * dim_b)
            res = heralded_state(3.0 * psi, el)  # the route normalizes the ket
            assert_matches_kron(res, np.outer(psi, psi.conj()), el.matrix, dim_a, dim_b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(2, 8), st.integers(2, 8), st.integers(1, 3)).flatmap(
            lambda dims: st.tuples(
                st.just(dims),
                arrays(np.complex128, (dims[0] * dims[1], dims[2]), elements=FINITE),
                arrays(np.complex128, (dims[1], dims[1]), elements=FINITE),
            )
        )
    )
    def test_random_psd_joint_states(self, case):
        (dim_a, dim_b, _), factor, g = case
        # joint state G G^dagger of rank <= 3; its first column is the ket
        gram = factor @ factor.conj().T
        tr = np.trace(gram).real
        psi_norm = np.linalg.norm(factor[:, 0])
        assume(tr > 1e-6 and psi_norm > 1e-6)
        h = g @ g.conj().T
        top = np.linalg.eigvalsh(h)[-1]
        assume(top > 1e-6)
        el = PovmElement("e", h / top)
        rho_ab = gram / tr
        prob = np.trace(kron_heralded(rho_ab, el.matrix, dim_a, dim_b)).real
        psi = factor[:, 0] / psi_norm
        pure = np.outer(psi, psi.conj())
        pure_prob = np.trace(kron_heralded(pure, el.matrix, dim_a, dim_b)).real
        assume(prob > 1e-3 and pure_prob > 1e-3)
        assert_matches_kron(heralded_state_from_joint(rho_ab, el), rho_ab, el.matrix, dim_a, dim_b)
        assert_matches_kron(heralded_state(factor[:, 0], el), pure, el.matrix, dim_a, dim_b)

    @pytest.mark.parametrize("outcome", ["on", "dense"])
    def test_dim_120_tmsv_against_closed_form(self, outcome):
        # rho_AB at dim 120 would take 3.3 GB; the ket route never builds it
        dim, lam = 120, 0.7
        if outcome == "on":
            el = on_off_apd(0.5, 0.0, dim).outcome("on")
        else:
            el = PovmElement("dense", random_element_matrix(np.random.default_rng(120), dim))
        params = TmsvParams(lam, dim)
        via_joint = heralded_state(tmsv(params), el)
        via_form = heralded_closed_form(params, el)
        assert (
            trace_distance(via_joint.conditional_state, via_form.conditional_state) <= 1e-10
        )


class TestLimitScan:
    def test_fock_projector_reaches_the_limit_at_any_lam(self):
        scan = retrodictive_limit_scan(fock_projector(2, 35), [0.1, 0.5, 0.8], 35)
        assert scan.fidelity_monotonic
        for pt in scan.points:
            np.testing.assert_allclose(pt.fidelity, 1.0, atol=1e-12)

    def test_click_outcome_converges_monotonically(self):
        el = on_off_apd(0.5, 0.0, 80).outcome("on")
        scan = retrodictive_limit_scan(el, [0.3, 0.6, 0.9], 80)
        fids = [pt.fidelity for pt in scan.points]
        assert fids[0] < fids[1] < fids[2]
        assert scan.fidelity_monotonic

    def test_refuses_fat_tails(self):
        el = fock_projector(0, 30)
        with pytest.raises(TailToleranceError, match="increase dim"):
            retrodictive_limit_scan(el, [0.999], 30)

    def test_tail_budget_follows_tols_and_refusals_keep_their_order(self):
        el = fock_projector(0, 30)
        scan = retrodictive_limit_scan(el, [0.9], 30, Tolerances(tail=0.01))
        assert [pt.lam for pt in scan.points] == [0.9]
        with pytest.raises(TailToleranceError, match="lam=0.999 leaves tail"):
            retrodictive_limit_scan(el, [0.5, 0.999, 1.0], 30)
        with pytest.raises(ValueError, match=r"\[0, 1\), got 1.0"):
            retrodictive_limit_scan(el, [0.5, 1.0, 0.999], 30)

    def test_rejects_mismatched_dims_and_bad_lam(self):
        el = fock_projector(0, 30)
        with pytest.raises(ValueError, match="scan dim"):
            retrodictive_limit_scan(el, [0.5], 20)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            retrodictive_limit_scan(el, [1.0], 30)
        with pytest.raises(ValueError, match="^the scan is empty; give at least one lam$"):
            retrodictive_limit_scan(el, [], 30)

    def test_heralded_state_approaches_conjugate_retro(self):
        el = lossy_pnr(0.6, 70).outcome("2")
        target = conjugate_in_fock(retrodicted_state(el).state)
        distances = [
            trace_distance(
                heralded_closed_form(TmsvParams(lam, 70), el).conditional_state, target
            )
            for lam in (0.5, 0.7, 0.9)
        ]
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] < 0.14

    def test_lam_guideline_is_reported_not_asserted(self, capsys):
        # empirical guideline: F should pass 1 - 1e-3 once
        # lam^2 >= 1 - 1/(4 <n>_retr); violations are findings, not failures
        d = 130
        el = lossy_pnr(0.6, d).outcome("1")
        nbar = number_mean(retrodicted_state(el).state)
        lam = float(np.sqrt(1.0 - 1.0 / (4.0 * nbar)))
        scan = retrodictive_limit_scan(el, [0.5, 0.8, lam], d)
        assert scan.fidelity_monotonic
        final = scan.points[-1].fidelity
        if final < 1.0 - 1e-3:
            print(
                f"finding: guideline lam={lam:.4f} (from <n>_retr={nbar:.4f}) "
                f"reaches only F={final:.6f}; 1 - F = {1 - final:.2e} > 1e-3"
            )
