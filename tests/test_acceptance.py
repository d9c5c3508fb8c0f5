"""Acceptance gate: one test per criterion, one printed line each.

Every expected number below is either analytic, exact rational arithmetic
(fractions.Fraction), or an independent quadrature oracle; nothing is
copied from the code paths under test.  Run with ``pytest -v`` to get the
per-criterion pass/fail lines; add ``-s`` to see the printed details.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from conftest import random_density, random_element_matrix, random_pure

from qdetchar import (
    Gaussianity,
    OutcomeCategory,
    PhaseSpaceGrid,
    PovmElement,
    TmsvParams,
    estimator_report,
    fock_state,
    heralded_closed_form,
    heralded_state,
    ideal_pnr,
    load_povm,
    load_report,
    lossy_pnr,
    negativity_volume,
    nonclassicality_of_measurement,
    on_off_apd,
    retrodict_ensemble,
    retrodicted_state,
    retrodictive_limit_scan,
    save_povm,
    scaled_projector,
    squeezed_vacuum,
    tmsv,
    trace_distance,
    uniform_fock_ensemble,
    wigner,
)
from qdetchar.cli import main
from qdetchar.phasespace import _moments
from qdetchar.retrodiction import detectivity, fidelity, ideality, projectivity


def apd_on_projectivity_oracle(dim):
    """Exact rational projectivity of the click outcome, eta = 1/2, nu = 0.

    The element is diagonal with entries 1 - (1/2)^n, so the purity of the
    normalized element is sum(w^2) / (sum w)^2, evaluated in Fraction
    arithmetic with no floating point anywhere.
    """
    w = [1 - Fraction(1, 2) ** n for n in range(dim)]
    return Fraction(sum(v * v for v in w), sum(w) ** 2)


def test_criterion_1_estimator_identities():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_weight = 0.0
    worst_det = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 17))
        el = PovmElement("r", random_element_matrix(rng, d))
        target = random_pure(rng, d)
        retro = retrodicted_state(el)
        pi = projectivity(retro)
        zeta = ideality(el)
        f = fidelity(retro, target)
        kappa = detectivity(el, target)
        worst_weight = max(worst_weight, abs(zeta - pi * retro.trace_weight))
        worst_det = max(worst_det, abs(kappa * pi - zeta * f))
    elapsed = time.perf_counter() - start
    assert worst_weight <= 1e-9
    assert worst_det <= 1e-10
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS - identity residuals {worst_weight:.2e} / "
        f"{worst_det:.2e} over 200 elements in {elapsed:.2f} s"
    )


def test_criterion_2_canonical_taxonomy():
    for el in ideal_pnr(8):
        rep = estimator_report(el)
        assert abs(rep.projectivity - 1.0) <= 1e-12
        assert abs(rep.ideality - 1.0) <= 1e-12
        assert rep.category is OutcomeCategory.PROJECTIVE_IDEAL

    rep = estimator_report(scaled_projector(fock_state(1, 8), 0.3))
    assert abs(rep.projectivity - 1.0) <= 1e-12
    assert abs(rep.ideality - 0.3) <= 1e-12
    assert rep.category is OutcomeCategory.PROJECTIVE_NON_IDEAL

    dim = 12
    rep = estimator_report(on_off_apd(0.5, 0.0, dim).outcome("on"))
    oracle = float(apd_on_projectivity_oracle(dim))
    assert rep.category is OutcomeCategory.NON_PROJECTIVE
    assert rep.projectivity < 0.99
    assert abs(rep.projectivity - oracle) <= 1e-10
    print(
        f"criterion 2: PASS - taxonomy exact; click projectivity "
        f"{rep.projectivity:.12f} matches rational oracle"
    )


def test_criterion_3_bayes_consistency():
    pnr = ideal_pnr(10)
    ens = uniform_fock_ensemble(10)
    for outcome in pnr.labels:
        post = dict(retrodict_ensemble(pnr, outcome, ens))
        for label, prob in post.items():
            expected = 1.0 if label == outcome else 0.0
            assert abs(prob - expected) <= 1e-12
        assert abs(sum(post.values()) - 1.0) <= 1e-9

    # binomial Bayes oracle in exact rationals: eta = 3/5, outcome "1"
    post = retrodict_ensemble(lossy_pnr(0.6, 10), "1", uniform_fock_ensemble(10))
    lik = [Fraction(0)] + [
        m * Fraction(3, 5) * Fraction(2, 5) ** (m - 1) for m in range(1, 10)
    ]
    total = sum(lik)
    worst = max(
        abs(prob - float(l / total)) for (_, prob), l in zip(post, lik)
    )
    assert worst <= 1e-10
    assert abs(sum(p for _, p in post) - 1.0) <= 1e-9
    print(f"criterion 3: PASS - posteriors exact to {worst:.2e}")


# lam = 0.8 below dim 31 trips the by-design tail warning; the dims and
# lams here are mandated, and route equivalence does not depend on tails
@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
def test_criterion_4_heralding_path_equivalence():
    rng = np.random.default_rng(4004)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(10, 31))
        el = PovmElement("e", random_element_matrix(rng, d))
        for lam in (0.1, 0.5, 0.8):
            params = TmsvParams(lam, d)
            a = heralded_state(tmsv(params), el)
            b = heralded_closed_form(params, el)
            worst = max(
                worst, trace_distance(a.conditional_state, b.conditional_state)
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS - route disagreement {worst:.2e} over 300 runs "
        f"in {elapsed:.2f} s"
    )


def test_criterion_5_retrodictive_limit():
    el = on_off_apd(0.5, 0.0, 80).outcome("on")
    scan = retrodictive_limit_scan(el, [0.3, 0.6, 0.9], 80)
    fids = [pt.fidelity for pt in scan.points]
    assert fids[0] < fids[1] < fids[2]
    assert scan.fidelity_monotonic

    for n in (0, 2, 5):
        proj = scaled_projector(fock_state(n, 80), 1.0, label=str(n))
        flat = retrodictive_limit_scan(proj, [0.3, 0.6, 0.9], 80)
        for pt in flat.points:
            assert abs(pt.fidelity - 1.0) <= 1e-12
    print(
        "criterion 5: PASS - click fidelities "
        + " < ".join(f"{f:.4f}" for f in fids)
        + "; Fock projectors at 1"
    )


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
def test_criterion_6_phase_space():
    origin = PhaseSpaceGrid.symmetric(1.0, 3)
    vac = np.outer(fock_state(0, 40), fock_state(0, 40))
    one = np.outer(fock_state(1, 40), fock_state(1, 40))
    assert abs(wigner(vac, origin).values[1, 1] - 1.0 / np.pi) <= 1e-9
    assert abs(wigner(one, origin).values[1, 1] + 1.0 / np.pi) <= 1e-9

    big = PhaseSpaceGrid.symmetric(6.0, 201)
    assert abs(wigner(vac, big).riemann_sum() - 1.0) <= 1e-3

    # quadrature oracle for the doubled negative mass of |1><1|:
    # W(r) = (1/pi)(2 r^2 - 1) e^(-r^2) is negative only for r < 1/sqrt(2),
    # so integrate -2 W * 2 pi r dr over that lobe (smooth integrand)
    profile = lambda r: (2.0 * r * r - 1.0) * np.exp(-(r * r)) / np.pi
    oracle, err = quad(
        lambda r: -2.0 * profile(r) * 2.0 * np.pi * r, 0.0, 1.0 / np.sqrt(2.0)
    )
    assert err < 1e-12
    # analytic cross-check of the oracle itself
    assert abs(oracle - (4.0 * np.exp(-0.5) - 2.0)) <= 1e-12
    measured = negativity_volume(wigner(one, big))
    assert abs(measured - oracle) <= 1e-2

    rng = np.random.default_rng(6006)
    worst = np.inf
    for _ in range(100):
        d = int(rng.integers(2, 17))
        _, cov, _ = _moments(random_density(rng, d))
        worst = min(worst, float(np.linalg.det(cov)))
    assert worst >= 0.25 - 1e-9
    print(
        f"criterion 6: PASS - negativity {measured:.5f} vs oracle {oracle:.5f}; "
        f"min det(cov) {worst:.6f}"
    )


def test_criterion_7_hudson_corollary():
    grid = PhaseSpaceGrid.symmetric(6.0, 101)
    squeezer = scaled_projector(squeezed_vacuum(0.5, 40), 1.0, label="sq")
    rep = estimator_report(squeezer)
    assert abs(rep.projectivity - 1.0) <= 1e-10
    witness = nonclassicality_of_measurement(squeezer, grid)
    assert witness.min_wigner >= -1e-6
    assert witness.gaussianity is Gaussianity.GAUSSIAN
    assert witness.squeezing_witness and witness.is_nonclassical
    assert not witness.hudson_inconsistent

    counter = scaled_projector(fock_state(1, 40), 1.0, label="1")
    witness2 = nonclassicality_of_measurement(counter, grid)
    assert witness2.negativity_volume > 0.0
    assert witness2.gaussianity is Gaussianity.NON_GAUSSIAN
    assert not witness2.hudson_inconsistent
    print(
        "criterion 7: PASS - squeezed projector Gaussian+squeezed, "
        "photon projector negative+NonGaussian, alarm silent on both"
    )


def test_criterion_8_cli_and_files(tmp_path, capsys):
    # byte-identical round trip through the file layer
    first = tmp_path / "apd.json"
    second = tmp_path / "apd2.json"
    assert main(["model", "apd", "--dim", "12", "--eta", "0.5", "--nu", "0.0", "--out", str(first)]) == 0
    save_povm(load_povm(first), second)
    assert first.read_bytes() == second.read_bytes()

    # overcomplete file: rejected, exit 2, residual reported as 0.5
    over = tmp_path / "over.json"
    half = [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]
    over.write_text(
        json.dumps(
            {
                "format_version": "1",
                "dim": 2,
                "guard_levels": 0,
                "outcomes": [
                    {"label": "a", "matrix": half},
                    {"label": "b", "matrix": half},
                ],
            }
        )
    )
    capsys.readouterr()
    code = main(["characterize", str(over), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "0.5" in err

    # criterion 2's click-outcome numbers, reproduced from files alone
    report_path = tmp_path / "report.json"
    assert main(["characterize", str(first), "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = load_report(report_path)
    by_label = {r.outcome_label: r for r in report.estimators}
    oracle = float(apd_on_projectivity_oracle(12))
    assert by_label["on"].category is OutcomeCategory.NON_PROJECTIVE
    assert abs(by_label["on"].projectivity - oracle) <= 1e-10
    print("criterion 8: PASS - files byte-stable, rejection exact, report matches oracle")
