"""Retrodicted states, estimators, taxonomy and Bayesian inference."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import random_element_matrix, random_pure

from qdetchar import (
    CategoryThresholds,
    NullOutcomeError,
    OutcomeCategory,
    Povm,
    PovmElement,
    ProbeEnsemble,
    ProbeEntry,
    Tolerances,
    UnreachableOutcomeError,
    born_probability,
    classify_outcome,
    coherent_state,
    detectivity,
    estimator_report,
    fidelity,
    fock_state,
    ideal_pnr,
    ideality,
    lossy_pnr,
    on_off_apd,
    projectivity,
    proposition_operator,
    retrodict_ensemble,
    retrodicted_state,
    scaled_projector,
    uniform_fock_ensemble,
)
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
        ens = uniform_fock_ensemble(10, count=3)
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
            theta = proposition_operator(entry, d)
            via_retro = float(np.real(np.trace(retro.state @ theta)))
            assert abs(via_retro - posterior[entry.label]) <= 1e-10
