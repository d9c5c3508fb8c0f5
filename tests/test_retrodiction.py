"""Retrodicted states, estimators, taxonomy and Bayesian inference."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_element_matrix, random_pure
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdetchar import (
    CategoryThresholds,
    NullOutcomeError,
    OutcomeCategory,
    PhaseSpaceGrid,
    Povm,
    PovmElement,
    ProbeEnsemble,
    ProbeEntry,
    RetrodictedState,
    TmsvParams,
    Tolerances,
    UnreachableOutcomeError,
    born_probability,
    classify_outcome,
    coherent_state,
    detectivity,
    estimator_report,
    fidelity,
    fock_state,
    heralded_closed_form,
    heralded_state,
    heralded_state_from_joint,
    ideal_pnr,
    ideality,
    load_ensemble,
    lossy_pnr,
    nonclassicality_of_measurement,
    on_off_apd,
    projectivity,
    proposition_operator,
    retrodict_ensemble,
    retrodicted_state,
    retrodictive_limit_scan,
    save_ensemble,
    scaled_projector,
    tmsv,
    uniform_fock_ensemble,
)
from qdetchar import retrodiction
from qdetchar.fock import assert_density_matrix


class TestBornProbability:
    def test_number_state_on_ideal_counter(self):
        p = ideal_pnr(5)
        assert born_probability(fock_state(1, 5), p.outcome("1")) == 1.0
        assert born_probability(fock_state(1, 5), p.outcome("2")) == 0.0

    def test_coherent_state_vacuum_count_under_loss(self):
        # Poisson thinning: no-count probability at eta=0.5 is exp(-0.5)
        p = lossy_pnr(0.5, 30)
        prob = born_probability(coherent_state(1.0, 30), p.outcome("0"))
        np.testing.assert_allclose(prob, np.exp(-0.5), atol=1e-6)

    def test_accepts_kets_and_density_matrices(self, rng):
        v = random_pure(rng, 6)
        el = PovmElement("e", random_element_matrix(rng, 6))
        np.testing.assert_allclose(
            born_probability(v, el),
            born_probability(np.outer(v, v.conj()), el),
            atol=1e-14,
        )

    def test_a_density_matrix_must_have_unit_trace(self):
        el = ideal_pnr(3).outcome("1")
        with pytest.raises(ValueError, match=r"^state: trace 0\.5 deviates from 1 beyond 1e-09$"):
            born_probability(np.diag([0, 0.5, 0]), el)
        with pytest.raises(ValueError, match=r"^target: trace 2\.0 deviates from 1 beyond 1e-09$"):
            detectivity(el, np.diag([0, 2.0, 0]))
        loose = Tolerances(norm=0.6)
        assert born_probability(np.diag([0, 0.5, 0]), el, loose) == 0.5
        assert detectivity(el, np.diag([0, 0.5, 0]), loose) == 0.5

    def test_rejects_unphysical_inputs(self):
        el = PovmElement("neg", -0.5 * np.eye(3))
        with pytest.raises(ValueError, match="probability"):
            born_probability(fock_state(0, 3), el)
        with pytest.raises(ValueError, match="dim"):
            born_probability(fock_state(0, 4), PovmElement("e", np.eye(3)))


    def test_bound_follows_the_norm_tolerance(self):
        el = PovmElement("over", (1.0 + 1e-6) * np.eye(3))
        with pytest.raises(ValueError, match="probability"):
            born_probability(fock_state(0, 3), el)
        assert born_probability(fock_state(0, 3), el, Tolerances(norm=1e-5)) == 1.0
        vacuum = ProbeEnsemble((ProbeEntry(1.0, np.diag([1.0, 0.0, 0.0]), "vac"),))
        posterior = retrodict_ensemble(Povm((el,)), "over", vacuum, Tolerances(norm=1e-5))
        assert posterior == [("vac", 1.0)]


class TestRetrodictedState:
    def test_click_element_diagonal_profile(self):
        # click outcome of a lossless-dark APD retrodicts diag ~ 1 - (1-eta)^n
        p = on_off_apd(0.5, 0.0, 8)
        retro = retrodicted_state(p.outcome("on"))
        weights = 1.0 - 0.5 ** np.arange(8)
        np.testing.assert_allclose(
            np.diag(retro.state).real, weights / weights.sum(), atol=1e-12
        )
        np.testing.assert_allclose(retro.trace_weight, weights.sum(), atol=1e-12)

    def test_is_valid_density_matrix(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            retro = retrodicted_state(el)
            assert_density_matrix(retro.state)

    def test_null_outcome_refused(self):
        with pytest.raises(NullOutcomeError):
            retrodicted_state(PovmElement("null", np.zeros((4, 4))))

    def test_a_state_is_returned_as_it_is(self):
        el = on_off_apd(0.5, 0.0, 8).outcome("on")
        retro = retrodicted_state(el)
        assert retro.element is el
        assert retrodicted_state(retro) is retro
        assert retrodicted_state(retro, Tolerances(norm=1e-15)) is retro

    def test_state_cannot_be_changed_after_its_check(self):
        retro = retrodicted_state(on_off_apd(0.5, 0.0, 8).outcome("on"))
        before = estimator_report(retro, fock_state(1, 8), "fock:1")
        with pytest.raises(ValueError, match="read-only"):
            retro.state[0, 0] = 7
        assert estimator_report(retro, fock_state(1, 8), "fock:1") == before

    def test_a_state_is_built_from_its_element_alone(self):
        el = ideal_pnr(3).outcome("1")
        with pytest.raises(TypeError):
            RetrodictedState(state=np.eye(3) / 3, element=el, trace_weight=1.0)
        retro = RetrodictedState(el)
        assert retro.element is el and retro.trace_weight == 1.0
        assert np.array_equal(retro.state, np.diag([0, 1, 0])) and not retro.state.flags.writeable
        assert estimator_report(retro).category is OutcomeCategory.PROJECTIVE_IDEAL
        assert RetrodictedState(retro).element is el
        with pytest.raises(NullOutcomeError):
            RetrodictedState(PovmElement("null", np.zeros((4, 4))))

    def test_a_state_keeps_no_link_to_the_callers_array(self):
        m = np.array(ideal_pnr(3).outcome("1").matrix)
        retro = RetrodictedState(m)
        m[0, 0] = 7
        assert retro.state[0, 0] == 0 and retro.element.label == "element"

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 16).flatmap(
            lambda d: arrays(
                np.complex128,
                (d, d),
                elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            )
        ),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_a_state_is_its_element_over_its_trace(self, g, scale, seed):
        # the element does not depend on g's scale; taking g to unit peak
        # keeps h out of the subnormal range, where scale / top overflows
        # (parts divided apart: complex division by a subnormal overflows too)
        peak = np.abs(g).max()
        assume(peak > 0.0)
        g = g.real / peak + 1j * (g.imag / peak)
        h = g @ g.conj().T
        top = np.linalg.eigvalsh(h)[-1]
        assume(top > 0.0)
        el = PovmElement("r", h * (scale / top))
        assume(not el.is_null())
        retro = RetrodictedState(el)
        assert retro.state.tobytes() == (el.matrix / el.trace_weight).tobytes()
        assert retro.trace_weight == el.trace_weight
        target = random_pure(np.random.default_rng(seed), el.dim)
        row = estimator_report(retro, target, "t")  # never the identity check's RuntimeError
        assert row.trace_weight == el.trace_weight


# Each public function that takes a measurement element, called on one; the
# state it retrodicts must give the same result.
_TAKES_AN_ELEMENT = {
    "ideality": ideality,
    "born_probability": lambda el: born_probability(coherent_state(0.5, 20), el),
    "heralded_closed_form": lambda el: heralded_closed_form(TmsvParams(0.4, 20), el),
    "heralded_state": lambda el: heralded_state(tmsv(TmsvParams(0.4, 20)), el),
    "heralded_state_from_joint": lambda el: heralded_state_from_joint(
        np.kron(np.diag(np.arange(1.0, 4.0)) / 6, np.eye(20) / 20), el
    ),
    "retrodictive_limit_scan": lambda el: retrodictive_limit_scan(el, (0.2, 0.4)),
    "nonclassicality_of_measurement": lambda el: nonclassicality_of_measurement(
        el, PhaseSpaceGrid.symmetric(4.4, 11)
    ),
}


def _same(a, b) -> bool:
    """Equal results, compared field by field and array by array."""
    if dataclasses.is_dataclass(a):
        fields = dataclasses.fields(a)
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name", list(_TAKES_AN_ELEMENT))
def test_a_function_taking_an_element_also_takes_its_retrodicted_state(name):
    el = scaled_projector(coherent_state(0.3, 20), 0.7, label="click")
    call = _TAKES_AN_ELEMENT[name]
    assert _same(call(retrodicted_state(el)), call(el))


class TestEstimators:
    def test_projectivity_bounds(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            val = projectivity(retrodicted_state(el))
            assert 1.0 / d - 1e-12 < val <= 1.0 + 1e-12

    def test_pure_element_has_unit_projectivity(self, rng):
        el = scaled_projector(random_pure(rng, 9), 0.42)
        np.testing.assert_allclose(
            projectivity(retrodicted_state(el)), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(ideality(el), 0.42, atol=1e-12)

    def test_ideality_never_exceeds_one(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            assert ideality(el) <= 1.0 + 1e-9

    def test_weight_identity(self, rng):
        # ideality = projectivity * trace weight
        for _ in range(50):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            retro = retrodicted_state(el)
            np.testing.assert_allclose(
                ideality(el), projectivity(retro) * retro.trace_weight, atol=1e-9
            )

    def test_detectivity_identity(self, rng):
        # detectivity * projectivity = ideality * fidelity
        for _ in range(50):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            target = random_pure(rng, d)
            retro = retrodicted_state(el)
            lhs = detectivity(el, target) * projectivity(retro)
            rhs = ideality(el) * fidelity(retro, target)
            assert abs(lhs - rhs) <= 1e-10

    def test_detectivity_matches_born_route(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 17))
            el = PovmElement("r", random_element_matrix(rng, d))
            target = random_pure(rng, d)
            assert abs(detectivity(el, target) - born_probability(target, el)) <= 1e-12

    def test_click_fidelity_to_single_photon(self):
        p = on_off_apd(0.5, 0.0, 8)
        retro = retrodicted_state(p.outcome("on"))
        weights = [1 - Fraction(1, 2) ** n for n in range(8)]
        expected = float(weights[1] / sum(weights))
        np.testing.assert_allclose(
            fidelity(retro, fock_state(1, 8)), expected, atol=1e-12
        )

    def test_fidelity_normalizes_and_guards(self, rng):
        el = scaled_projector(fock_state(2, 6), 0.5)
        retro = retrodicted_state(el)
        np.testing.assert_allclose(
            fidelity(retro, 3.0 * fock_state(2, 6)), 1.0, atol=1e-12
        )
        with pytest.raises(ValueError):
            fidelity(retro, np.zeros(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_are_refused(self, bad):
        el = on_off_apd(0.5, 0.0, 8).outcome("on")
        ket, rho = fock_state(1, 8), np.eye(8, dtype=complex) / 8
        ket[3] = rho[3, 3] = bad
        for target in (ket, rho):
            with pytest.raises(ValueError, match="finite"):
                detectivity(el, target)
        with pytest.raises(ValueError, match="finite"):
            fidelity(retrodicted_state(el), ket)
        with pytest.raises(ValueError, match="finite"):
            estimator_report(el, np.full(8, bad), "nan")

    def test_wrong_dim_targets_name_both_dims(self):
        el = ideal_pnr(4).outcome("1")
        ket = fock_state(1, 3)
        message = r"^target dim 3 != element dim 4$"
        with pytest.raises(ValueError, match=message):
            fidelity(retrodicted_state(el), ket)
        for target in (ket, np.outer(ket, ket.conj())):
            with pytest.raises(ValueError, match=message):
                detectivity(el, target)
        with pytest.raises(ValueError, match=message):
            estimator_report(el, ket, "fock:1")

    def test_report_refuses_a_nan_residual(self, monkeypatch):
        # NaN compares false both ways, so only a check that NaN fails can refuse it.
        monkeypatch.setattr(retrodiction, "detectivity", lambda *args: float("nan"))
        el = on_off_apd(0.5, 0.0, 8).outcome("on")
        broken = r"'on' breaks the estimator identities \(residuals .*, nan\)"
        with pytest.raises(RuntimeError, match=broken):
            estimator_report(el, fock_state(1, 8), "fock:1")


class TestClassification:
    def test_three_categories(self):
        assert classify_outcome(1.0, 1.0) is OutcomeCategory.PROJECTIVE_IDEAL
        assert classify_outcome(1.0, 0.3) is OutcomeCategory.PROJECTIVE_NON_IDEAL
        assert classify_outcome(0.2, 0.9) is OutcomeCategory.NON_PROJECTIVE

    def test_thresholds_are_inclusive(self):
        assert classify_outcome(0.99, 0.99) is OutcomeCategory.PROJECTIVE_IDEAL

    def test_custom_thresholds(self):
        loose = CategoryThresholds(projectivity_min=0.1, ideality_min=0.5)
        assert classify_outcome(0.15, 0.6, loose) is OutcomeCategory.PROJECTIVE_IDEAL

    def test_report_carries_category_and_target(self):
        el = scaled_projector(fock_state(1, 8), 0.3)
        rep = estimator_report(el, fock_state(1, 8), "fock:1")
        assert rep.category is OutcomeCategory.PROJECTIVE_NON_IDEAL
        assert rep.target == "fock:1"
        np.testing.assert_allclose(rep.fidelity, 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.detectivity, 0.3, atol=1e-12)

    def test_report_without_target_leaves_optionals_empty(self):
        rep = estimator_report(ideal_pnr(4).outcome("2"))
        assert rep.target is None and rep.fidelity is None and rep.detectivity is None


class TestEnsembles:
    def test_priors_must_sum_to_one(self):
        e = ProbeEntry(0.6, fock_state(0, 3), "a")
        with pytest.raises(ValueError, match="priors"):
            ProbeEnsemble((e, ProbeEntry(0.6, fock_state(1, 3), "b")))

    def test_labels_must_be_unique(self):
        entries = (ProbeEntry(0.5, fock_state(0, 3), "0"), ProbeEntry(0.5, fock_state(1, 3), "0"))
        with pytest.raises(ValueError, match="^entry labels must be unique$"):
            ProbeEnsemble(entries)

    @pytest.mark.parametrize("kind", ["complex", "float", "view-of-writable", "ket"])
    def test_an_entry_keeps_no_link_to_the_callers_array(self, kind):
        base = fock_state(1, 3) if kind == "ket" else np.diag([0.0, 1.0, 0.0]).astype(
            float if kind == "float" else complex)
        given = base[:] if kind == "view-of-writable" else base
        given.setflags(write=kind != "view-of-writable")
        entry = ProbeEntry(1.0, given, "1")
        base[1] = 0.0
        assert entry.state[1, 1] == 1.0 and not entry.state.flags.writeable
        assert not np.shares_memory(entry.state, base)

    def test_an_entry_keeps_a_frozen_state_as_it_is(self):
        state = np.diag([0.0, 1.0, 0.0]).astype(complex)
        state.setflags(write=False)
        assert ProbeEntry(1.0, state, "1").state is state

    def test_prior_sum_slack_is_the_given_norm_tolerance(self):
        entries = (
            ProbeEntry(0.5 + 1e-6, fock_state(0, 3), "a"),
            ProbeEntry(0.5, fock_state(1, 3), "b"),
        )
        with pytest.raises(ValueError, match="priors"):
            ProbeEnsemble(entries)
        loose = Tolerances(norm=1e-3)
        assert ProbeEnsemble(entries, loose).tols is loose

    def test_entries_must_be_states_however_built(self):
        entries = (
            ProbeEntry(0.5, np.diag([0.7, 0.7]), "a"),  # trace 1.4
            ProbeEntry(0.5, np.diag([0.2, 0.2]), "b"),  # trace 0.4
        )
        with pytest.raises(ValueError, match=r"^entries\[0\]: trace 1\.4 deviates from 1"):
            ProbeEnsemble(entries)
        with pytest.raises(ValueError, match=r"^entries\[1\]: negative eigenvalue"):
            ProbeEnsemble((entries[0], ProbeEntry(0.5, np.diag([1.5, -0.5]), "c")),
                          Tolerances(norm=0.5))
        loose = Tolerances(norm=0.7)
        assert len(ProbeEnsemble(entries, loose)) == 2

    def test_no_posterior_from_a_probe_state_of_trace_0_9(self):
        entries = (ProbeEntry(0.5, np.diag([0.7, 0.7]), "a"),
                   ProbeEntry(0.5, np.diag([0.2, 0.2]), "b"))
        with pytest.raises(ValueError, match="trace"):
            retrodict_ensemble(ideal_pnr(2), "1", ProbeEnsemble(entries))

    def test_each_entry_is_checked_once(self, monkeypatch, tmp_path):
        checked = []

        def spy(rho, tols, what, least=None):
            checked.append(what)
            return assert_density_matrix(rho, tols, what, least=least)

        monkeypatch.setattr(retrodiction, "assert_density_matrix", spy)
        path = tmp_path / "e.json"
        save_ensemble(uniform_fock_ensemble(4), path)
        checked.clear()
        load_ensemble(path)
        assert checked == [f"entries[{i}]" for i in range(4)]

    def test_uniform_fock_probe_is_maximally_mixed(self):
        ens = uniform_fock_ensemble(6)
        np.testing.assert_allclose(ens.probe_state, np.eye(6) / 6, atol=1e-15)

    def test_ideal_counter_posterior_is_delta(self):
        p = ideal_pnr(10)
        for outcome in ("0", "4", "9"):
            post = retrodict_ensemble(p, outcome, uniform_fock_ensemble(10))
            for label, prob in post:
                expected = 1.0 if label == outcome else 0.0
                assert abs(prob - expected) <= 1e-12

    def test_lossy_counter_posterior_matches_rational_oracle(self):
        post = retrodict_ensemble(lossy_pnr(0.6, 10), "1", uniform_fock_ensemble(10))
        lik = [m * Fraction(3, 5) * Fraction(2, 5) ** (m - 1) for m in range(1, 10)]
        lik = [Fraction(0)] + lik
        total = sum(lik)
        for (_, prob), l in zip(post, lik):
            assert abs(prob - float(l / total)) <= 1e-10
        np.testing.assert_allclose(sum(p for _, p in post), 1.0, atol=1e-9)

    def test_posterior_normalization_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 10))
            el = PovmElement("e", random_element_matrix(rng, d))
            p = PovmElement("r", np.eye(d) - el.matrix)
            post = retrodict_ensemble(Povm((el, p)), "e", uniform_fock_ensemble(d))
            np.testing.assert_allclose(sum(pr for _, pr in post), 1.0, atol=1e-9)

    def test_unreachable_outcome(self):
        # probe only the first three levels; outcome 5 can never fire
        ens = ProbeEnsemble(tuple(ProbeEntry(1 / 3, fock_state(m, 10), str(m)) for m in range(3)))
        with pytest.raises(UnreachableOutcomeError):
            retrodict_ensemble(ideal_pnr(10), "5", ens)

    def test_proposition_route_matches_bayes_for_mixed_probe(self, rng):
        # with a maximally mixed prior-averaged probe, pairing the
        # retrodicted state with dim * prior * rho reproduces the posterior
        d = 8
        el = PovmElement("e", random_element_matrix(rng, d))
        povm = Povm((el, PovmElement("r", np.eye(d) - el.matrix)))
        ens = uniform_fock_ensemble(d)
        posterior = dict(retrodict_ensemble(povm, "e", ens))
        retro = retrodicted_state(el)
        for entry in ens:
            theta = proposition_operator(entry)
            assert abs(np.trace(theta) - d * entry.prior) <= 1e-15
            via_retro = float(np.real(np.trace(retro.state @ theta)))
            assert abs(via_retro - posterior[entry.label]) <= 1e-10
