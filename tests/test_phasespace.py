"""Wigner evaluation, moments, and non-classicality witnesses."""

import collections
import re
import sys
import threading
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import oracles
import pytest
from conftest import random_density
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from qdetchar import (
    DEFAULT_TOLS,
    Gaussianity,
    PhaseSpaceGrid,
    Tolerances,
    TruncationWarning,
    annihilation,
    coherent_state,
    complete_with_rest,
    fock_state,
    gaussian_reference,
    ideal_pnr,
    lossy_pnr,
    negativity_volume,
    nonclassicality_of_measurement,
    on_off_apd,
    purity,
    retrodicted_state,
    scaled_projector,
    squeezed_vacuum,
    wigner,
    witness_report,
)
from qdetchar import phasespace
from qdetchar.fock import hermitize, number_mean

ORIGIN = PhaseSpaceGrid.symmetric(1.0, 3)  # tiny odd grid containing (0, 0)


def thermal(nbar, dim):
    w = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return np.diag(w / w.sum()).astype(complex)


def dm(psi):
    return np.outer(psi, psi.conj())


def termwise_wigner(rho, grid):
    """Reference kernel: one ``eval_genlaguerre`` call per matrix entry.

    The O(dim^3) termwise sum that ``wigner`` used before its Clenshaw
    band sums, kept verbatim as the oracle for the faster kernel.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    x = grid.x_axis[:, None]
    p = grid.p_axis[None, :]
    # beta = 2*alpha with alpha = (x + i p)/sqrt(2)
    beta_sq = 2.0 * (x * x + p * p)
    theta = np.arctan2(p, x)
    with np.errstate(divide="ignore"):
        log_beta = 0.5 * np.log(beta_sq, where=beta_sq > 0.0, out=np.full_like(beta_sq, -np.inf))
    acc = np.zeros_like(beta_sq)
    half_b = 0.5 * beta_sq
    for m in range(d):
        sign = -1.0 if m % 2 else 1.0
        if abs(rho[m, m]) > 1e-18:
            acc += sign * rho[m, m].real * np.exp(-half_b) * eval_genlaguerre(m, 0, beta_sq)
        for n in range(m + 1, d):
            r_mn = rho[m, n]
            if abs(r_mn) <= 1e-18:
                continue
            k = n - m
            log_coef = 0.5 * (gammaln(m + 1) - gammaln(n + 1)) + k * log_beta - half_b
            phase = np.cos(k * theta) * r_mn.real - np.sin(k * theta) * r_mn.imag
            acc += sign * 2.0 * np.exp(log_coef) * eval_genlaguerre(m, k, beta_sq) * phase
    return acc / np.pi


def padded_moments(rho):
    """Reference moments: quadrature operators on a basis padded by two levels.

    The operator route that the moments took before their ladder closed
    form, kept as the oracle for it.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    padded = np.zeros((d + 2, d + 2), dtype=complex)
    padded[:d, :d] = rho
    a = annihilation(d + 2)
    xop = (a + a.conj().T) / np.sqrt(2.0)
    pop = -1j * (a - a.conj().T) / np.sqrt(2.0)

    def ev(op):
        return float(np.real(np.einsum("ij,ji->", padded, op)))

    mx, mp = ev(xop), ev(pop)
    cxp = ev(0.5 * (xop @ pop + pop @ xop)) - mx * mp
    cov = [[ev(xop @ xop) - mx * mx, cxp], [cxp, ev(pop @ pop) - mp * mp]]
    return np.array([mx, mp]), np.array(cov)


def moments(rho):
    """``(mean, cov)`` of ``rho``, as the witnesses read them."""
    return phasespace._moments(np.asarray(rho, dtype=complex))[:2]


def witnesses(rho, tols=DEFAULT_TOLS):
    """``witness_report`` of ``rho``, the one public way to its squeezing and
    Gaussianity verdicts.

    Both verdicts read only the moments, so the Wigner function is sampled
    on the tiny grid ``ORIGIN``, and the warning that ``|W|`` has not
    decayed on its boundary is ignored.
    """
    rho = np.asarray(rho, dtype=complex)
    w = wigner(rho, ORIGIN, tols)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"\|W\| reaches", TruncationWarning)
        return witness_report(rho, w, "rho", purity(rho), tols)


@contextmanager
def oracle_route():
    """Run the phase-space module on scipy's ``expm`` and the padded moments."""
    def padded(rho):
        return (*padded_moments(rho), number_mean(rho) > rho.shape[0] / 4)

    with mock.patch.object(phasespace, "_expm_antihermitian", expm), \
            mock.patch.object(phasespace, "_moments", padded):
        yield


def canonical_states():
    """Retrodicted states of the four canonical detector models at dims 6-60.

    The photon-number models keep about ten outcomes per dimension, spread
    over the whole range.
    """
    for d in (6, 17, 30, 60):
        targets = (fock_state(1, d), coherent_state(0.6 + 0.3j, d), squeezed_vacuum(0.4, d))
        models = [
            ideal_pnr(d).elements[:: max(1, d // 10)],
            lossy_pnr(0.9, d).elements[:: max(1, d // 10)],
            on_off_apd(0.5, 0.02, d).elements,
        ] + [complete_with_rest([scaled_projector(t, 0.8)]).elements for t in targets]
        for elements in models:
            for el in elements:
                if el.trace_weight > 1e-12:
                    yield f"{d}:{el.label}", retrodicted_state(el).state


class TestGrid:
    def test_axes_and_steps(self):
        g = PhaseSpaceGrid(-2.0, 2.0, -1.0, 3.0, 5, 9)
        np.testing.assert_allclose(g.x_axis, np.linspace(-2, 2, 5))
        np.testing.assert_allclose(g.dx, 1.0)
        np.testing.assert_allclose(g.dp, 0.5)
        np.testing.assert_allclose(g.radius_sq, 4.0 + 9.0)

    def test_symmetric(self):
        g = PhaseSpaceGrid.symmetric(6.0, 201)
        assert g.x_min == -6.0 and g.p_max == 6.0 and g.n_x == g.n_p == 201

    def test_rejects_degenerate_extents(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(0.0, 0.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            PhaseSpaceGrid.symmetric(1.0, 1)

    @pytest.mark.parametrize(
        "extents",
        [
            (-np.inf, 3.0, -1.0, 1.0),
            (-1.0, 1.0, -1.0, np.inf),
            (np.nan, 3.0, -1.0, 1.0),
            (-1e200, 3.0, -1.0, 1.0),  # x*x overflows to inf
            (-1.0, 1.0, 1e154, 1.2e154),  # x*x + p*p is finite, twice it is not
        ],
    )
    def test_rejects_extents_that_cannot_be_evaluated(self, extents):
        with pytest.raises(ValueError, match=r"grid x \[.*\], p \[.*\]: extents"):
            PhaseSpaceGrid(*extents, 5, 5)

    @pytest.mark.parametrize("count", [3.0, 3.5, "3", True, np.float64(3.0), None])
    @pytest.mark.parametrize("field", ["n_x", "n_p"])
    def test_rejects_point_counts_that_are_not_integers(self, field, count):
        counts = {"n_x": 3, "n_p": 3, field: count}
        message = re.escape(f"grid {field} must be an integer, got {count!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, **counts)
        with pytest.raises(ValueError, match="^grid n_x must be an integer"):
            PhaseSpaceGrid.symmetric(1.0, count)

    @pytest.mark.parametrize("extent", ["1", None, 1j, True, [1.0]])
    @pytest.mark.parametrize("field", ["x_min", "x_max", "p_min", "p_max"])
    def test_rejects_extents_that_are_not_real(self, field, extent):
        extents = {"x_min": -1.0, "x_max": 2.0, "p_min": -1.0, "p_max": 2.0, field: extent}
        with pytest.raises(ValueError, match=rf"^grid {field} must be a real number, got "):
            PhaseSpaceGrid(**extents, n_x=3, n_p=3)

    def test_stores_floats_and_ints_whatever_built_it(self):
        # numpy scalars and int extents are accepted, and an equal grid has
        # the same axes, bit for bit, as the one built from Python floats
        g = PhaseSpaceGrid(np.float32(-1.5), 2, np.float64(-1.0), np.int64(3), np.int32(7), np.uint8(5))
        want = PhaseSpaceGrid(-1.5, 2.0, -1.0, 3.0, 7, 5)
        assert g == want
        fields = [g.x_min, g.x_max, g.p_min, g.p_max, g.n_x, g.n_p]
        assert [type(v) for v in fields] == [float] * 4 + [int] * 2
        assert g.x_axis.tobytes() == want.x_axis.tobytes()
        assert g.p_axis.tobytes() == want.p_axis.tobytes()
        assert repr(g) == repr(want)

    @pytest.mark.parametrize("n_x, n_p", [(4097, 4096), (2, 2**23 + 1), (10**9, 10**9)])
    def test_refuses_more_points_than_4096_squared(self, n_x, n_p):
        # Building a grid allocates nothing: the refusal comes before any axis exists.
        message = (f"grid x [-1.0, 1.0], p [-1.0, 1.0]: {n_x} x {n_p} = {n_x * n_p} points, "
                   "more than 16777216 (4096^2)")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, n_x, n_p)
        n = max(n_x, n_p)
        with pytest.raises(ValueError, match=re.escape(f"{n} x {n} = {n * n} points")):
            PhaseSpaceGrid.symmetric(1.0, n)

    def test_accepts_grids_of_4096_squared_points(self):
        assert PhaseSpaceGrid.symmetric(1.0, 4096).n_x == 4096
        assert PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 2, 2**23).n_p == 2**23


class TestWignerValues:
    def test_vacuum_peak(self):
        w = wigner(dm(fock_state(0, 10)), ORIGIN)
        np.testing.assert_allclose(w.values[1, 1], 1.0 / np.pi, atol=1e-12)

    def test_single_photon_dip(self):
        w = wigner(dm(fock_state(1, 10)), ORIGIN)
        np.testing.assert_allclose(w.values[1, 1], -1.0 / np.pi, atol=1e-12)

    def test_origin_value_is_mean_parity(self, rng):
        # W(0,0) must equal (1/pi) * sum_n (-1)^n rho_nn for any state;
        # the oracle is a bare diagonal sum, independent of the expansion
        for _ in range(25):
            d = int(rng.integers(2, 13))
            rho = random_density(rng, d)
            parity = sum((-1) ** n * rho[n, n].real for n in range(d))
            w = wigner(rho, ORIGIN)
            np.testing.assert_allclose(w.values[1, 1], parity / np.pi, atol=1e-9)

    def test_coherent_state_matches_analytic_gaussian(self):
        alpha = 0.7 - 0.4j
        g = PhaseSpaceGrid.symmetric(4.0, 41)
        w = wigner(dm(coherent_state(alpha, 40)), g)
        x = g.x_axis[:, None]
        p = g.p_axis[None, :]
        exact = np.exp(
            -((x - np.sqrt(2) * alpha.real) ** 2) - (p - np.sqrt(2) * alpha.imag) ** 2
        ) / np.pi
        np.testing.assert_allclose(w.values, exact, atol=1e-12)

    def test_quantum_lower_bound_holds(self, rng):
        g = PhaseSpaceGrid.symmetric(3.0, 41)
        for _ in range(10):
            w = wigner(random_density(rng, 10), g)
            assert w.min_value() >= -1.0 / np.pi - 1e-9

    def test_vacuum_normalization(self):
        g = PhaseSpaceGrid.symmetric(5.0, 161)
        w = wigner(dm(fock_state(0, 25)), g)
        np.testing.assert_allclose(w.riemann_sum(), 1.0, atol=1e-3)

    def test_warns_when_grid_outruns_truncation(self):
        with pytest.warns(TruncationWarning, match="resolvable"):
            wigner(dm(fock_state(0, 4)), PhaseSpaceGrid.symmetric(6.0, 11))

    def test_rejects_non_state_input(self):
        bogus = np.diag([-1.0, 2.0]).astype(complex)
        with pytest.raises(ValueError, match="quantum bound"):
            wigner(bogus, ORIGIN)

    def test_rejects_values_that_overflow(self):
        # every table is bounded on any valid grid, so only entries far from a
        # state's can overflow the fold
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="dim 4 overflow; input"):
            wigner(np.full((4, 4), 1e308), ORIGIN)

    def test_far_points_read_the_truth_on_both_paths(self):
        # 2*(x^2+p^2) is finite here; the Laguerre table of a diagonal state
        # starts each radius at its own power of two, so the far rows read the
        # truth's zeros and the near one its values
        grid = PhaseSpaceGrid(-1e100, 3.0, -1.0, 1.0, 5, 5)
        rho = thermal(1.0, 6)
        with pytest.warns(TruncationWarning):
            w = wigner(rho, grid).values
        weights = rho.diagonal().real
        truth = [[oracles.fock_wigner(weights, x, p) for p in grid.p_axis] for x in grid.x_axis]
        assert not w[:-1].any() and w[-1].all()
        np.testing.assert_allclose(w, truth, rtol=0, atol=oracles.EPS / np.pi)
        # a state with coherences reads Hermite functions, which reach 0 there
        with pytest.warns(TruncationWarning):
            w = wigner(dm(coherent_state(0.5, 30)), grid).values
        truth = oracles.gaussian_wigner(0.5, 0.0, grid.x_axis, grid.p_axis)
        assert not w[:-1].any() and not truth[:-1].any()
        np.testing.assert_allclose(w, truth, rtol=0, atol=16 * oracles.EPS / np.pi)

    def test_reads_the_upper_triangle_alone(self):
        # garbage below the diagonal changes no bit, on either path
        rng = np.random.default_rng(31)
        grid = PhaseSpaceGrid(-2.0, 3.0, -2.5, 1.5, 23, 17)
        low = np.tril_indices(9, -1)
        for rho in (random_density(rng, 9), thermal(0.7, 9)):
            hermitian = np.triu(rho) + np.triu(rho, 1).conj().T
            garbage = hermitian.copy()
            garbage[low] = rng.normal(size=low[0].size) + 1j * rng.normal(size=low[0].size)
            want = wigner(hermitian, grid).values.tobytes()
            assert wigner(garbage, grid).values.tobytes() == want

    def test_rejects_non_state_input_with_coherences(self):
        # off-diagonal entries send the state down the separable path
        bogus = np.array([[-1.0, 0.5j], [-0.5j, 2.0]])
        with pytest.raises(ValueError, match="quantum bound"):
            wigner(bogus, ORIGIN)


OFF_CENTRE = PhaseSpaceGrid(-1.0, 4.0, -3.0, 2.0, 23, 17)


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
class TestAgainstTermwiseOracle:
    """Both paths of the kernel, separable and radial, against ``termwise_wigner``."""

    def assert_matches(self, rho, grid):
        np.testing.assert_allclose(
            wigner(rho, grid).values, termwise_wigner(rho, grid), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 5, 12, 24, 40])
    def test_dense_states(self, dim):
        rng = np.random.default_rng([2013, dim])
        self.assert_matches(random_density(rng, dim), PhaseSpaceGrid.symmetric(6.0, 41))

    @pytest.mark.parametrize("dim", [2, 12, 40])
    def test_dense_states_off_centre(self, dim):
        rng = np.random.default_rng([1234, dim])
        self.assert_matches(random_density(rng, dim), OFF_CENTRE)

    def test_sparse_bands(self):
        # only bands 0 and 3 of rho are non-zero
        rng = np.random.default_rng(3)
        psi = np.zeros(20, dtype=complex)
        psi[[1, 4, 7, 10]] = rng.normal(size=4) + 1j * rng.normal(size=4)
        self.assert_matches(dm(psi / np.linalg.norm(psi)), OFF_CENTRE)

    @pytest.mark.parametrize("grid", [PhaseSpaceGrid.symmetric(6.0, 41), OFF_CENTRE])
    def test_diagonal_states(self, grid):
        rng = np.random.default_rng(5)
        weights = rng.random(30)
        states = [
            np.diag(weights / weights.sum()).astype(complex),
            dm(fock_state(7, 30)),
            thermal(1.5, 30),
            retrodicted_state(lossy_pnr(0.7, 30).outcome("2")).state,
            retrodicted_state(on_off_apd(0.5, 0.02, 24).outcome("on")).state,
        ]
        # off-diagonal dust at the kernel's cut-off leaves no band but k = 0
        dusty = thermal(0.5, 12)
        dusty[0, 5] = dusty[5, 0] = 1e-18
        states.append(dusty)
        for rho in states:
            self.assert_matches(rho, grid)

    def test_real_bands_only(self):
        psi = np.random.default_rng(11).normal(size=14) + 0j
        self.assert_matches(dm(psi / np.linalg.norm(psi)), OFF_CENTRE)

    def test_imaginary_bands_only(self):
        # i times a real antisymmetric matrix, small enough to stay a state
        g = np.random.default_rng(12).normal(size=(14, 14))
        s = g - g.T
        rho = np.eye(14) / 14.0 + 1j * s * (0.5 / 14.0 / np.linalg.norm(s, 2))
        self.assert_matches(rho, OFF_CENTRE)

    @pytest.mark.parametrize("dim", [2, 9, 25])
    def test_top_band_only(self, dim):
        psi = np.zeros(dim, dtype=complex)
        psi[[0, -1]] = [0.6, 0.8j]
        self.assert_matches(dm(psi), OFF_CENTRE)

    @pytest.mark.parametrize("grid", [ORIGIN, OFF_CENTRE])
    def test_one_level(self, grid):
        # refused as every other entry point refuses a truncation below 2
        with pytest.raises(ValueError, match="^truncation dimension must be at least 2, got 1$"):
            wigner(np.ones((1, 1), dtype=complex), grid)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 16),
        st.integers(0, 2**32 - 1),
        st.one_of(
            # odd point counts put the origin on a node and repeat every radius
            st.builds(
                lambda r, n: PhaseSpaceGrid.symmetric(r, 2 * n + 1),
                st.floats(0.25, 6.0),
                st.integers(1, 12),
            ),
            st.builds(
                lambda x, w, p, h, nx, np_: PhaseSpaceGrid(x, x + w, p, p + h, nx, np_),
                st.floats(-6.0, 3.0),
                st.floats(0.25, 8.0),
                st.floats(-6.0, 3.0),
                st.floats(0.25, 8.0),
                st.integers(2, 24),
                st.integers(2, 24),
            ),
        ),
    )
    def test_random_states_on_random_grids(self, dim, seed, grid):
        self.assert_matches(random_density(np.random.default_rng(seed), dim), grid)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda d: arrays(
                np.complex128,
                (d, d),
                elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_random_psd_states(self, g):
        h = g @ g.conj().T
        tr = np.trace(h).real
        assume(tr > 1e-6)
        self.assert_matches(h / tr, PhaseSpaceGrid(-2.5, 3.0, -1.5, 2.0, 9, 7))


# (min, max) of one axis: anywhere, or ending at a zero of either sign
_AXIS_ENDS = st.one_of(
    st.tuples(st.floats(-6.0, 3.0), st.floats(0.25, 8.0)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.floats(-6.0, -0.25), st.sampled_from([0.0, -0.0])),
    st.tuples(st.sampled_from([0.0, -0.0]), st.floats(0.25, 6.0)),
)
_GRIDS = st.builds(
    lambda x, p, n_x, n_p: PhaseSpaceGrid(*x, *p, n_x, n_p),
    _AXIS_ENDS,
    _AXIS_ENDS,
    st.integers(2, 64),
    st.integers(2, 64),
)


TRUTH_GRID = PhaseSpaceGrid.symmetric(6.0, 121)


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
class TestAgainstTruth:
    """Each path against the truth in ``oracles``, within a budget in eps of 1/pi.

    Every state here lies inside its basis to below eps, so the whole error
    is the kernel's.  The separable path (states with coherences) is held to
    16 eps against the closed-form Gaussians; it reads 3.9 (coherent) and 3.5
    (displaced thermal) eps.  The radial path (states without) is held near
    what its Laguerre table reads against 60-digit sums at the origin, its 8
    nearest points and 55 points anywhere: 0.8 eps for |0>, 2.3 for |20> and
    1.4 for |59> at dim 60, 2.4 for |199> at dim 200 and 0.3 for a lossy PNR
    outcome (on one point per distinct radius of the whole grid: 0.8, 3.3,
    3.4, 4.3 and 0.7).  Clenshaw's sum, which it replaced, read 0.8, 24.0,
    248.2, 624.4 and 0.3 on the same 64 points.
    """

    @pytest.mark.parametrize("dim", [40, 60])
    def test_coherent_states(self, dim):
        alpha = 0.7 - 0.4j
        w = wigner(dm(coherent_state(alpha, dim)), TRUTH_GRID).values
        truth = oracles.gaussian_wigner(alpha, 0.0, TRUTH_GRID.x_axis, TRUTH_GRID.p_axis)
        np.testing.assert_allclose(w, truth, rtol=0, atol=16 * oracles.EPS / np.pi)

    @pytest.mark.parametrize("dim", [40, 60])
    def test_displaced_thermal_states(self, dim):
        alpha, nbar = 0.5 + 0.3j, 0.4
        w = wigner(oracles.displaced_thermal(alpha, nbar, dim), TRUTH_GRID).values
        truth = oracles.gaussian_wigner(alpha, nbar, TRUTH_GRID.x_axis, TRUTH_GRID.p_axis)
        np.testing.assert_allclose(w, truth, rtol=0, atol=16 * oracles.EPS / np.pi)

    @pytest.mark.parametrize(
        ("weights", "budget"),
        [
            (np.eye(60)[0], 1),
            (np.eye(60)[20], 4),
            (np.eye(60)[59], 4),
            (np.eye(200)[199], 4),
            (retrodicted_state(lossy_pnr(0.7, 30).outcome("2")).state.diagonal().real, 2),
        ],
        ids=["fock-0", "fock-20", "fock-59", "fock-199", "lossy-pnr-30"],
    )
    def test_diagonal_states(self, weights, budget):
        w = wigner(np.diag(weights).astype(complex), TRUTH_GRID).values
        rng = np.random.default_rng(64)
        # the origin and its nearest points, where a forward Laguerre sum
        # loses most, then points anywhere
        near = [(60 + i, 60 + j) for i in range(3) for j in range(i, 4)]
        points = [*near, *zip(rng.integers(0, 121, 55), rng.integers(0, 121, 55))]
        x, p = TRUTH_GRID.x_axis, TRUTH_GRID.p_axis
        truth = [oracles.fock_wigner(weights, x[i], p[j]) for i, j in points]
        got = [w[i, j] for i, j in points]
        np.testing.assert_allclose(got, truth, rtol=0, atol=budget * oracles.EPS / np.pi)

    def test_lossy_pnr_outcome_against_its_untruncated_closed_form(self):
        # at eta 0.5 the weight cut at dim 200 is below 2^-190, so the
        # truncated state is the untruncated one to far below eps; reads 0.6 eps
        grid = PhaseSpaceGrid.symmetric(4.0, 41)
        w = wigner(retrodicted_state(lossy_pnr(0.5, 200).outcome("3")).state, grid).values
        truth = [[oracles.lossy_pnr_wigner(0.5, 3, x, p) for p in grid.p_axis] for x in grid.x_axis]
        np.testing.assert_allclose(w, truth, rtol=0, atol=2 * oracles.EPS / np.pi)

    def test_laguerre_functions_reach_past_the_underflow_of_ell_0(self):
        # e^{-z/2} underflows beyond z = 1489, where ell_500(1600) = 0.0248
        # and ell_999(3000) = -0.0135: a start at e^{-z/2} itself reads 0
        # there.  |ell_m| <= 1; the table's error grows with m, to 106 eps
        # at ell_999(3.7)
        z = np.array([0.0, 3.7, 60.0, 1489.0, 1600.0, 3000.0])
        orders = [0, 1, 57, 500, 999]
        table = phasespace._laguerre_functions(z, 1000)[orders]
        truth = [[oracles.laguerre_function(m, v) for v in z] for m in orders]
        np.testing.assert_allclose(table, truth, rtol=0, atol=128 * oracles.EPS)
        assert round(table[3, 4], 4) == 0.0248 and round(table[4, 5], 4) == -0.0135

    @settings(max_examples=50, deadline=None)
    @given(
        _GRIDS,
        st.integers(2, 60).flatmap(lambda d: arrays(float, d, elements=st.floats(0.0, 1.0))),
    )
    def test_radial_and_separable_routes_agree(self, grid, weights):
        # Two routes that share no code: the Laguerre table, and the Hermite
        # rows with the beam-splitter blocks.  Against the oracles at dim 60
        # the radial route reads at most 3.4 eps of 1/pi and the separable
        # 36.1 (both for |59>), so they may differ by 40; held to 48.
        assume(weights.sum() > 0.0)
        rho = np.diag(weights / weights.sum()).astype(complex)
        d = rho.shape[0]
        radial = wigner(rho, grid).values
        hx = phasespace._hermite_rows(grid.x_min, grid.x_max, grid.n_x, 2 * d - 1)
        hp = phasespace._hermite_rows(grid.p_min, grid.p_max, grid.n_p, 2 * d - 1)
        separable = (hx.T @ phasespace._separable_weights(rho)) @ hp / np.sqrt(np.pi)
        np.testing.assert_allclose(radial, separable, rtol=0, atol=48 * oracles.EPS / np.pi)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 6.0), st.integers(2, 121), st.integers(2, 24), st.integers(0, 2**32 - 1))
    def test_a_quarter_turn_of_the_state_turns_its_wigner_function(self, radius, points, dim, seed):
        # R = diag((-i)^n) = exp(-i pi/2 n) turns W by a quarter turn, which on
        # a square grid symmetric about the origin permutes its points: the
        # separable path checked against itself on other data.  The axes are
        # antisymmetric only to about an ulp of the radius, so the two sides
        # may differ; measured worst 13.2 eps of 1/pi over 6,000 random cases
        # (dims 2-24, radius 0.5-6, 2-121 points), held to 32.
        grid = PhaseSpaceGrid.symmetric(radius, points)
        rho = random_density(np.random.default_rng(seed), dim)
        phase = np.array([1, -1j, -1, 1j])[np.arange(dim) % 4]  # (-i)^n, exact
        turned = rho * np.outer(phase, phase.conj())
        fresh = [fresh_wigner(state, grid) for state in (rho, turned)]
        kept = [wigner(state, grid).values for state in (rho, turned)]  # turned reads rho's tables
        for w, w_turned in (fresh, kept):
            np.testing.assert_allclose(
                w_turned, np.rot90(w, 3), rtol=0, atol=32 * oracles.EPS / np.pi
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.5, 3.0),
        st.integers(2, 29),
        st.integers(2, 24),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 28), st.integers(0, 28)), min_size=1, max_size=3),
    )
    def test_the_separable_path_is_the_displaced_parity(self, radius, points, dim, seed, picks):
        # Royer (1977): W(x, p) = (1/pi) Tr[rho D(alpha) Pi D(alpha)^dag], with
        # Pi = (-1)^n and alpha = (x + ip)/sqrt2, D from scipy's expm on dim + 120
        # levels, where a displacement to |alpha|^2 = 9 is exact to rounding in
        # the rows rho reads.  Measured worst 6.3 eps of 1/pi over 720 points
        # (dims 2-24, radius 0.5-3, 2-29 points), held to 32.
        grid = PhaseSpaceGrid.symmetric(radius, points)
        rho = random_density(np.random.default_rng(seed), dim)
        w = wigner(rho, grid).values
        n = dim + 120
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        parity = (-1.0) ** np.arange(n)
        for i, j in picks:
            i, j = i % points, j % points
            alpha = complex(grid.x_axis[i], grid.p_axis[j]) / np.sqrt(2.0)
            rows = expm(alpha * a.T - np.conj(alpha) * a)[:dim]  # the rows of D(alpha) rho reads
            truth = np.einsum("ik,ij,jk,k->", rows.conj(), rho, rows, parity).real / np.pi
            assert abs(w[i, j] - truth) <= 32 * oracles.EPS / np.pi, (i, j)

    def test_hermite_functions_reach_past_the_underflow_of_h0(self):
        # h_0 underflows beyond |s| = 38.6, where h_399 is still 1e-163 at s = 45
        s = np.array([0.0, -3.7, 25.0, 38.5, 45.0, 60.0])
        orders = [0, 1, 57, 200, 399]
        table = phasespace._hermite_functions(s, 400)[orders]
        truth = [[oracles.hermite_function(n, v) for v in s] for n in orders]
        np.testing.assert_allclose(table, truth, rtol=1e-12, atol=1e-310)


def zero_twin(grid):
    """``grid`` with the sign of every zero extent flipped: an equal grid, hashed alike."""
    extents = (grid.x_min, grid.x_max, grid.p_min, grid.p_max)
    return PhaseSpaceGrid(*(-v if v == 0.0 else v for v in extents), grid.n_x, grid.n_p)


def fresh_wigner(rho, grid):
    """``wigner`` on tables built for this call alone."""
    phasespace._TABLES.clear()
    try:
        return wigner(rho, grid).values
    finally:
        phasespace._TABLES.clear()


def kept_arrays():
    """Every array the kernel keeps, with the key of its table."""
    for key, table in list(phasespace._TABLES._kept.items()):
        for array in [table] if isinstance(table, np.ndarray) else table:
            yield key, array


def assert_within_budget(store, newest):
    """``store`` counts the bytes of the arrays it keeps, and all its tables but
    ``newest``, the key stored last, fit its budget."""
    sizes = {key: sum(a.nbytes for a in phasespace._arrays(t)) for key, t in store._kept.items()}
    assert store.nbytes == sum(sizes.values())
    assert store.nbytes - sizes[newest] <= store.budget


def count_builds(monkeypatch):
    """Count each call of the kernel's four table builders, by name and arguments."""
    built = collections.Counter()
    for name in ("_radii", "_laguerre_table", "_hermite_rows", "_beam_splitter_blocks"):

        def counted(*args, _build=getattr(phasespace, name), _name=name):
            built[(_name, *args)] += 1
            return _build(*args)

        monkeypatch.setattr(phasespace, name, counted)
    return built


def _state(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_density(rng, dim)
    if kind == "coherent":
        return dm(coherent_state(complex(*rng.uniform(-1.0, 1.0, 2)), dim))
    weights = rng.random(dim)
    return np.diag(weights / weights.sum()).astype(complex)


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
class TestKernelTables:
    """The kernel's tables, kept across ``wigner`` calls, against fresh builds."""

    @settings(max_examples=40, deadline=None)
    @given(
        _GRIDS,
        _GRIDS,
        st.sampled_from(["dense", "coherent", "diagonal"]),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
        st.permutations(range(3)),
    )
    def test_cached_bits_match_a_fresh_build(self, grid, other, kind, dim, seed, order):
        rho = _state(kind, dim, seed)
        grids = [grid, zero_twin(grid), other]
        want = [fresh_wigner(rho, g) for g in grids]
        phasespace._TABLES.clear()
        for i in [*order, *order]:  # each grid met first, then again from the cache
            assert wigner(rho, grids[i]).values.tobytes() == want[i].tobytes()
        for g, values in zip(grids, want):
            np.testing.assert_allclose(values, termwise_wigner(rho, g), rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        _GRIDS,
        st.sampled_from(["dense", "diagonal"]),
        st.lists(st.integers(2, 40), min_size=2, max_size=4, unique=True),
        st.integers(0, 2**32 - 1),
    )
    def test_dims_in_any_order_give_fresh_bits(self, grid, kind, dims, seed):
        # each dim reads its own table, kept beside the other dims' on the
        # grid's kept radii
        states = [_state(kind, d, seed) for d in dims]
        want = [fresh_wigner(rho, grid).tobytes() for rho in states]
        phasespace._TABLES.clear()
        for _ in range(2):
            for rho, values in zip(states, want):
                assert wigner(rho, grid).values.tobytes() == values
        for d in dims:
            if kind == "diagonal":
                assert phasespace._TABLES.peek(phasespace._laguerre_table, grid, d).shape[0] == d
            else:
                assert len(phasespace._TABLES.peek(phasespace._beam_splitter_blocks, d)) == 2 * d - 1

    def test_each_table_is_built_once(self, monkeypatch):
        # two dims and two grids, alternated over three rounds with a state
        # with coherences and one without: each builder runs once per
        # argument list, and the store's count matches what it keeps
        built = count_builds(monkeypatch)
        grids = [PhaseSpaceGrid.symmetric(4.0, 41), PhaseSpaceGrid(-3.0, 5.0, -4.0, 2.0, 37, 29)]
        dims = [16, 24]
        phasespace._TABLES.clear()
        for _ in range(3):
            for d in dims:
                for grid in grids:
                    for kind in ("diagonal", "dense"):
                        wigner(_state(kind, d, 7), grid)
        # 2 geometries, 4 Laguerre tables, 2 block sets, and Hermite rows for
        # 3 distinct axes (the square grid's two are one) at 2 counts
        assert len(built) == 2 + 4 + 2 + 3 * 2
        assert set(built.values()) == {1}
        assert phasespace._TABLES.nbytes == sum(array.nbytes for _, array in kept_arrays())
        phasespace._TABLES.clear()

    def test_signed_zero_twins_give_identical_bits(self):
        # no path reads an angle, so equal grids that differ only in the sign
        # of a zero extent give the same bits, in any order, cached or fresh
        neg = PhaseSpaceGrid(-3.0, -0.0, -3.0, -0.0, 30, 31)
        pos = zero_twin(neg)
        assert neg == pos and hash(neg) == hash(pos)
        for rho in (dm(coherent_state(0.6 + 0.3j, 12)), thermal(0.5, 12)):
            want = fresh_wigner(rho, neg).tobytes()
            assert fresh_wigner(rho, pos).tobytes() == want
            for first, second in ((neg, pos), (pos, neg)):
                phasespace._TABLES.clear()
                for g in (first, second, first):
                    assert wigner(rho, g).values.tobytes() == want

    def test_cached_arrays_are_read_only(self):
        phasespace._TABLES.clear()
        grid = PhaseSpaceGrid(-1.0, 4.0, -3.0, 2.0, 23, 17)
        wigner(thermal(0.5, 8), grid)
        wigner(random_density(np.random.default_rng(5), 8), grid)
        builders = set()
        for key, array in kept_arrays():
            builders.add(key[0])
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[-1]
        assert builders == {phasespace._radii, phasespace._laguerre_table,
                            phasespace._hermite_rows, phasespace._beam_splitter_blocks}

    def test_tables_stay_within_their_budget(self, monkeypatch):
        assert phasespace._TABLES.budget == phasespace._TABLE_BYTES == 64 * 2**20
        budget = 2**20
        monkeypatch.setattr(phasespace._TABLES, "budget", budget)
        phasespace._TABLES.clear()
        grids = [PhaseSpaceGrid.symmetric(2.0, n) for n in range(40, 80)]
        for grid in grids:
            wigner(thermal(0.5, 6), grid)
            assert_within_budget(phasespace._TABLES, (phasespace._laguerre_table, grid, 6))
        # the least recently used went first
        assert phasespace._kept_geometry(grids[-1]) is not None
        assert phasespace._kept_geometry(grids[0]) is None
        # a table larger than the whole budget is kept as the newest, but the
        # writer is not handed a geometry past the budget
        big = PhaseSpaceGrid.symmetric(2.0, 400)  # its point indices alone take 1.28 MB
        want = fresh_wigner(thermal(0.5, 6), big)
        assert wigner(thermal(0.5, 6), big).values.tobytes() == want.tobytes()
        assert phasespace._kept_geometry(big) is None
        assert_within_budget(phasespace._TABLES, (phasespace._radii, big))
        # a dim-2 Laguerre table on its radii fits (0.64 MB) and is kept; the
        # others must then fit the budget, so the geometry goes
        want = wigner(thermal(0.5, 2), big).values
        assert list(phasespace._TABLES._kept) == [(phasespace._laguerre_table, big, 2)]
        monkeypatch.setattr(phasespace._TABLES, "budget", phasespace._TABLE_BYTES)
        assert fresh_wigner(thermal(0.5, 2), big).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8),
        st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=2), min_size=6, max_size=6),
        st.lists(st.integers(0, 5), max_size=40),
    )
    def test_the_store_keeps_each_table_and_drops_the_least_recent_others(self, budget, shapes, keys):
        # Against a model of the one rule: each table built is kept, and storing
        # one drops the least recently used others until they fit the budget.
        # Key k's table is one array, or a tuple of two, of shapes[k] doubles,
        # some past the whole budget of `budget` doubles.
        store = phasespace._Tables(8 * budget)
        model = collections.OrderedDict()  # key -> bytes, least recently used first
        built = []

        def build(key):
            built.append(key)
            arrays = tuple(np.zeros(n) for n in shapes[key])
            return arrays if len(arrays) == 2 else arrays[0]

        for key in keys:
            calls = len(built)
            table = store.get(build, key)
            if key in model:
                assert len(built) == calls  # a hit builds nothing
                model.move_to_end(key)
            else:
                assert built[calls:] == [key]
                newest = key
                model[key] = 8 * sum(shapes[key])
                while sum(model.values()) - model[key] > store.budget:
                    model.popitem(last=False)
            assert table is store.peek(build, key)
            assert list(store._kept) == [(build, k) for k in model]
            assert_within_budget(store, (build, newest))
            for kept in store._kept.values():
                assert not any(a.flags.writeable for a in phasespace._arrays(kept))

    def test_a_geometry_past_the_budget_is_built_once(self, monkeypatch):
        # The geometry is the newest table, so the second radial call finds it;
        # the Laguerre table, past the budget too, is summed in slices and
        # never built whole.
        built = count_builds(monkeypatch)
        grid = PhaseSpaceGrid(-7.0, 3.1, -2.0, 9.0, 61, 47)
        monkeypatch.setattr(phasespace._TABLES, "budget", 20_000)
        phasespace._TABLES.clear()
        rho = _state("diagonal", 12, 3)
        got = [wigner(rho, grid).values.tobytes() for _ in range(2)]
        assert got[0] == got[1]
        assert built == {("_radii", grid): 1}
        geo = phasespace._TABLES.peek(phasespace._radii, grid)
        assert geo.radii.nbytes + geo.where.nbytes > 20_000
        assert phasespace._kept_geometry(grid) is None
        phasespace._TABLES.clear()

    def test_blocks_past_the_budget_are_built_once(self, monkeypatch):
        # The square grid's one axis of Hermite rows (11 x 59 doubles, 5.2 KB)
        # fits the budget beside the dim-30 blocks, the newest table.
        built = count_builds(monkeypatch)
        grid = PhaseSpaceGrid.symmetric(2.0, 11)
        monkeypatch.setattr(phasespace._TABLES, "budget", 8192)
        phasespace._TABLES.clear()
        rho = _state("dense", 30, 5)
        got = [wigner(rho, grid).values.tobytes() for _ in range(2)]
        assert got[0] == got[1]
        assert built == {("_hermite_rows", -2.0, 2.0, 11, 59): 1, ("_beam_splitter_blocks", 30): 1}
        blocks = phasespace._TABLES.peek(phasespace._beam_splitter_blocks, 30)
        assert sum(block.nbytes for block in blocks) > 8192
        assert_within_budget(phasespace._TABLES, (phasespace._beam_splitter_blocks, 30))
        phasespace._TABLES.clear()

    @pytest.mark.parametrize("dim", [2, 30, 200])
    def test_laguerre_table_past_the_budget_is_summed_in_slices(self, monkeypatch, dim):
        # a table larger than the budget is built a slice of radii at a time,
        # each slice within the budget, and none is kept; the sums differ from
        # the whole table's only in the order BLAS adds them (0.8 eps seen)
        grid = PhaseSpaceGrid(-7.0, 3.1, -2.0, 9.0, 61, 47)
        rho = _state("diagonal", dim, 11)
        want = fresh_wigner(rho, grid)
        radii = phasespace._radii(grid).radii
        budget = 8 * dim * 100
        assert dim * radii.nbytes > budget
        built = []
        build = phasespace._laguerre_functions

        def recorded(z, count):
            built.append(z.size * count * 8)
            return build(z, count)

        monkeypatch.setattr(phasespace, "_laguerre_functions", recorded)
        monkeypatch.setattr(phasespace._TABLES, "budget", budget)
        phasespace._TABLES.clear()
        got = [wigner(rho, grid).values for _ in range(2)]
        assert len(built) == 2 * -(-radii.size // 100) and max(built) <= budget
        assert list(phasespace._TABLES._kept) == [(phasespace._radii, grid)]
        assert got[0].tobytes() == got[1].tobytes() == fresh_wigner(rho, grid).tobytes()
        np.testing.assert_allclose(got[0], want, rtol=0, atol=2 * oracles.EPS / np.pi)

    def test_threads_sharing_the_cache_get_fresh_bits(self):
        # threads race to build the same tables: geometries for the state
        # without coherences, Hermite rows and blocks for the one with
        grids = [PhaseSpaceGrid.symmetric(2.0 + 0.5 * i, 21 + i) for i in range(3)]
        states = [thermal(0.6, 8), random_density(np.random.default_rng(8), 8)]
        cases = [(rho, g) for rho in states for g in grids]
        want = [fresh_wigner(rho, g).tobytes() for rho, g in cases]
        bad = []

        def work(offset):
            for i in range(12):
                c = (i + offset) % len(cases)
                if wigner(*cases[c]).values.tobytes() != want[c]:
                    bad.append(c)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            phasespace._TABLES.clear()
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_interleaved_grids_give_identical_reports(self, tmp_path, capsys):
        # characterize --witnesses on grid A, then B, then A again in one
        # process: the reports for A match each other and a fresh process's
        from qdetchar.cli import main
        from qdetchar.fileio import save_povm

        povms = {
            "lossy": lossy_pnr(0.9, 12),
            "projector": complete_with_rest([scaled_projector(coherent_state(0.6 + 0.3j, 12), 0.8)]),
        }
        grids = {"A": ["--grid-radius", "4", "--grid-points", "31"],
                 "B": ["--grid-radius", "3", "--grid-points", "40"]}
        for name, povm in povms.items():
            path = tmp_path / f"{name}.json"
            save_povm(povm, path)

            def report(grid, run):
                out = tmp_path / f"{name}-{grid}-{run}.json"
                argv = ["characterize", str(path), "--witnesses", *grids[grid], "--out", str(out)]
                assert main(argv) == 0
                return out.read_bytes()

            phasespace._TABLES.clear()
            first, _, again = report("A", 1), report("B", 1), report("A", 2)
            phasespace._TABLES.clear()
            assert first == again == report("A", 3)
            assert b'"negativity_volume"' in first
        capsys.readouterr()


class TestNegativityVolume:
    def test_vacuum_has_none(self):
        g = PhaseSpaceGrid.symmetric(5.0, 101)
        w = wigner(dm(fock_state(0, 25)), g)
        assert negativity_volume(w) == 0.0

    def test_single_photon_matches_radial_integral(self):
        # closed form for the doubled negative mass: 4*exp(-1/2) - 2
        g = PhaseSpaceGrid.symmetric(5.0, 201)
        w = wigner(dm(fock_state(1, 30)), g)
        np.testing.assert_allclose(
            negativity_volume(w), 4.0 * np.exp(-0.5) - 2.0, atol=2e-3
        )

    def test_warns_on_leaky_window(self):
        g = PhaseSpaceGrid.symmetric(1.5, 31)
        w = wigner(dm(fock_state(1, 10)), g)
        with pytest.warns(TruncationWarning, match="boundary"):
            negativity_volume(w)

    @pytest.mark.parametrize(
        "route", ["negativity_volume", "witness_report", "nonclassicality_of_measurement"]
    )
    def test_the_boundary_warning_names_the_caller(self, route):
        # However deep in phase-space code it is raised, the warning points at
        # the line that made the call, here in this file.
        g = PhaseSpaceGrid.symmetric(1.5, 31)
        rho = dm(fock_state(1, 10))
        w = wigner(rho, g)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if route == "negativity_volume":
                negativity_volume(w)
            elif route == "witness_report":
                witness_report(rho, w, "1", 1.0)
            else:
                nonclassicality_of_measurement(ideal_pnr(10).outcome("1"), g)
        boundary = [x for x in caught if "grid boundary" in str(x.message)]
        assert len(boundary) == 1 and boundary[0].category is TruncationWarning
        assert boundary[0].filename == __file__


class TestMoments:
    def test_vacuum_covariance(self):
        mean, cov = moments(dm(fock_state(0, 8)))
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cov, np.eye(2) / 2, atol=1e-14)

    def test_single_photon_covariance(self):
        _, cov = moments(dm(fock_state(1, 8)))
        np.testing.assert_allclose(cov, 1.5 * np.eye(2), atol=1e-14)

    def test_coherent_displaces_the_mean_only(self):
        alpha = 0.6 + 0.3j
        mean, cov = moments(dm(coherent_state(alpha, 30)))
        np.testing.assert_allclose(
            mean, [np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag], atol=1e-9
        )
        np.testing.assert_allclose(cov, np.eye(2) / 2, atol=1e-9)

    def test_squeezed_variances(self):
        _, cov = moments(dm(squeezed_vacuum(0.5, 60)))
        np.testing.assert_allclose(cov[0, 0], np.exp(-1.0) / 2, atol=1e-8)
        np.testing.assert_allclose(cov[1, 1], np.exp(1.0) / 2, atol=1e-8)
        np.testing.assert_allclose(cov[0, 1], 0.0, atol=1e-8)

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_uncertainty_relation(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 14))
            _, cov = moments(random_density(rng, d))
            assert np.linalg.det(cov) >= 0.25 - 1e-9

    def test_warns_on_heavy_states(self):
        with pytest.warns(TruncationWarning, match="mean photon"):
            moments(thermal(5.0, 8))

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_matches_padded_operator_oracle(self, rng):
        states = [rho for _, rho in canonical_states()]
        states += [random_density(rng, int(rng.integers(2, 30))) for _ in range(40)]
        for rho in states:
            for got, want in zip(moments(rho), padded_moments(rho)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSqueezingWitness:
    def test_fires_only_below_vacuum_noise(self):
        assert witnesses(dm(squeezed_vacuum(0.5, 40))).squeezing_witness
        assert not witnesses(dm(fock_state(0, 10))).squeezing_witness
        assert not witnesses(dm(coherent_state(0.7, 20))).squeezing_witness
        assert not witnesses(dm(fock_state(1, 10))).squeezing_witness

    def test_dead_band_is_adjustable(self):
        barely = dm(squeezed_vacuum(0.01, 20))
        assert witnesses(barely).squeezing_witness
        assert not witnesses(barely, Tolerances(squeeze=0.1)).squeezing_witness


class TestGaussianReference:
    def test_round_trips_generic_moments(self):
        ang = 0.4
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        cov = rot @ np.diag([0.3, 0.9]) @ rot.T
        mean = np.array([0.3, -0.2])
        ref, tail = gaussian_reference(mean, cov, 60)
        assert tail < 1e-8
        got_mean, got_cov = moments(ref)
        np.testing.assert_allclose(got_mean, mean, atol=1e-7)
        np.testing.assert_allclose(got_cov, cov, atol=1e-7)

    def test_thermal_moments_round_trip(self):
        ref, tail = gaussian_reference([0, 0], 1.5 * np.eye(2), 50)
        assert tail < 1e-8
        np.testing.assert_allclose(ref, thermal(1.0, 50), atol=1e-7)

    def test_reports_fat_tail_instead_of_lying(self):
        _, tail = gaussian_reference([0, 0], 1.5 * np.eye(2), 10)
        assert tail > 1e-6

    def test_rejects_bad_moments(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_reference([0, 0], np.diag([0.0, 1.0]), 10)
        with pytest.raises(ValueError, match="2x2"):
            gaussian_reference([0, 0, 0], np.eye(3), 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_moments_naming_them(self, bad):
        with pytest.raises(ValueError, match="^mean: non-finite entries$"):
            gaussian_reference([0.0, bad], np.eye(2), 10)
        with pytest.raises(ValueError, match="^cov: non-finite entries$"):
            gaussian_reference([0.0, 0.0], np.array([[1.0, bad], [bad, 1.0]]), 10)

    @staticmethod
    def assert_matches_expm(alpha, xi, nbar, dim):
        """The eigendecomposition exponential against scipy's ``expm``."""
        s, theta = abs(xi), 0.5 * np.angle(xi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        cov = (nbar + 0.5) * rot @ np.diag([np.exp(-2 * s), np.exp(2 * s)]) @ rot.T
        mean = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
        ref, tail = gaussian_reference(mean, cov, dim)
        with oracle_route():
            want, want_tail = gaussian_reference(mean, cov, dim)
        np.testing.assert_allclose(ref, want, rtol=0, atol=1e-12)
        assert abs(tail - want_tail) <= 1e-12

    @staticmethod
    def unitary_route(mean, cov, dim):
        """``(rho bytes, tail)`` through ``D S rho_thermal S^dag D^dag`` for any moments.

        The route ``gaussian_reference`` took for every state before the
        thermal shortcut, kept as the bit-level oracle for it.
        """
        w, rot = np.linalg.eigh(0.5 * (cov + cov.T))
        nbar = max(float(np.sqrt(w[0] * w[1])), 0.5) - 0.5
        xi = 0.25 * float(np.log(w[1] / w[0])) * np.exp(2j * float(np.arctan2(rot[1, 0], rot[0, 0])))
        alpha = (mean[0] + 1j * mean[1]) / np.sqrt(2.0)
        a = annihilation(dim)
        ad = a.conj().T
        squeeze = phasespace._expm_antihermitian(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))
        displace = phasespace._expm_antihermitian(alpha * ad - np.conj(alpha) * a)
        therm = (nbar / (nbar + 1.0)) ** np.arange(dim) / (nbar + 1.0)
        u = displace @ squeeze
        rho = u @ np.diag(therm).astype(complex) @ u.conj().T
        tr = float(np.real(np.trace(rho)))
        return hermitize(rho / tr).tobytes(), abs(1.0 - tr) + float(np.real(rho[-1, -1]))

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize("dim", [2, 12, 30, 60])
    def test_phase_insensitive_outcomes_take_the_thermal_shortcut(self, dim):
        # a diagonal state has zero mean and an isotropic covariance, so its
        # reference is the thermal state: the same bits as the unitary route,
        # whose exponentials of zero matrices no longer run
        for povm in (lossy_pnr(0.9, dim), on_off_apd(0.5, 0.02, dim), ideal_pnr(dim)):
            for el in povm.elements:
                mean, cov, _ = phasespace._moments(retrodicted_state(el).state)
                with mock.patch.object(phasespace, "_expm_antihermitian", side_effect=AssertionError):
                    rho, tail = gaussian_reference(mean, cov, dim)
                assert (rho.tobytes(), tail) == self.unitary_route(mean, cov, dim)

    @pytest.mark.parametrize("mean", [[0.0, 0.0], [0.3, 0.0], [0.0, -1e-300]])
    def test_displaced_or_squeezed_moments_take_the_unitary_route(self, mean):
        for cov in (0.7 * np.eye(2), np.diag([0.6, 0.7])):
            if not any(mean) and cov[0, 0] == cov[1, 1]:
                continue
            rho, tail = gaussian_reference(mean, cov, 12)
            assert (rho.tobytes(), tail) == self.unitary_route(np.array(mean), cov, 12)
            assert np.any(np.triu(rho, 1))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21, 34, 60])
    def test_matches_expm_oracle(self, dim):
        rng = np.random.default_rng([77, dim])
        for _ in range(5):
            alpha = complex(*rng.uniform(-2.0, 2.0, 2))
            xi = rng.uniform(0.0, 0.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            self.assert_matches_expm(alpha, xi, rng.uniform(0.0, 1.0), dim)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 2.0),
    )
    def test_matches_expm_oracle_search(self, dim, alpha, xi, nbar):
        self.assert_matches_expm(alpha, xi, nbar, dim)


class TestGaussianityCheck:
    def test_gaussian_family(self):
        assert witnesses(dm(fock_state(0, 20))).gaussianity is Gaussianity.GAUSSIAN
        assert witnesses(dm(coherent_state(0.8, 25))).gaussianity is Gaussianity.GAUSSIAN
        assert witnesses(dm(squeezed_vacuum(0.4, 40))).gaussianity is Gaussianity.GAUSSIAN
        assert witnesses(thermal(0.5, 40)).gaussianity is Gaussianity.GAUSSIAN

    def test_single_photon_is_non_gaussian(self):
        assert witnesses(dm(fock_state(1, 30))).gaussianity is Gaussianity.NON_GAUSSIAN

    def test_undetermined_when_reference_tail_is_fat(self):
        # same state, basis too small for the matched thermal reference
        assert witnesses(dm(fock_state(1, 10))).gaussianity is Gaussianity.UNDETERMINED

    def test_undetermined_when_state_is_heavy(self):
        # decided from the moments alone: no O(d^3) reference is built
        with mock.patch.object(phasespace, "gaussian_reference") as reference:
            with pytest.warns(TruncationWarning):
                verdict = witnesses(thermal(4.0, 12)).gaussianity
        assert verdict is Gaussianity.UNDETERMINED
        reference.assert_not_called()

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_canonical_verdicts_and_tails_match_the_oracle_route(self):
        verdicts = set()
        for name, rho in canonical_states():
            mean, cov = moments(rho)
            tail = gaussian_reference(mean, cov, rho.shape[0])[1]
            verdict = witnesses(rho).gaussianity
            with oracle_route():
                want_tail = gaussian_reference(*padded_moments(rho), rho.shape[0])[1]
                want = witnesses(rho).gaussianity
            assert verdict is want, name
            assert abs(tail - want_tail) <= 1e-12, name
            verdicts.add(verdict)
        assert verdicts == set(Gaussianity)


class TestWitnessReports:
    def test_no_click_outcome_is_classical(self):
        p = on_off_apd(0.5, 0.0, 40)
        g = PhaseSpaceGrid.symmetric(6.0, 81)
        rep = nonclassicality_of_measurement(p.outcome("off"), g)
        assert rep.outcome_label == "off"
        assert rep.min_wigner >= -1e-9
        assert rep.negativity_volume <= 1e-9
        assert not rep.squeezing_witness
        assert not rep.is_nonclassical
        assert rep.gaussianity is Gaussianity.GAUSSIAN
        assert not rep.hudson_inconsistent

    def test_single_photon_counter_shows_negativity(self):
        el = scaled_projector(fock_state(1, 30), 1.0, label="1")
        g = PhaseSpaceGrid.symmetric(5.0, 101)
        rep = nonclassicality_of_measurement(el, g)
        assert rep.min_wigner < -0.3
        assert rep.negativity_volume > 0.4
        assert rep.is_nonclassical
        assert rep.gaussianity is Gaussianity.NON_GAUSSIAN
        assert not rep.hudson_inconsistent

    def test_squeezing_detector_is_nonclassical_but_gaussian(self):
        el = scaled_projector(squeezed_vacuum(0.5, 40), 0.7)
        g = PhaseSpaceGrid.symmetric(6.0, 81)
        rep = nonclassicality_of_measurement(el, g)
        assert rep.min_wigner >= -1e-6
        assert rep.squeezing_witness
        assert rep.is_nonclassical
        assert rep.gaussianity is Gaussianity.GAUSSIAN
        assert not rep.hudson_inconsistent

    def test_hudson_alarm_silent_on_gaussian_projectors(self):
        g = PhaseSpaceGrid.symmetric(5.0, 61)
        targets = [
            fock_state(0, 40),
            coherent_state(0.5, 40),
            squeezed_vacuum(0.3, 40),
        ]
        for psi in targets:
            rep = nonclassicality_of_measurement(scaled_projector(psi, 1.0), g)
            assert not rep.hudson_inconsistent

    def test_heavy_state_warns_once(self):
        state = thermal(4.0, 12)
        w = wigner(state, PhaseSpaceGrid.symmetric(3.0, 21))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = witness_report(state, w, "heavy", 0.2)
        heavy = [c for c in caught if "mean photon" in str(c.message)]
        assert len(heavy) == 1 and heavy[0].category is TruncationWarning
        assert rep.gaussianity is Gaussianity.UNDETERMINED

    def test_witness_report_reuses_precomputed_grid(self):
        state = dm(fock_state(1, 30))
        g = PhaseSpaceGrid.symmetric(5.0, 101)
        w = wigner(state, g)
        rep = witness_report(state, w, "1", 1.0)
        assert rep.min_wigner == w.min_value()
        assert rep.is_nonclassical
