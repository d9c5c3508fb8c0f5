"""Wigner evaluation, moments, and non-classicality witnesses."""

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

    def test_rejects_values_that_are_not_numbers(self):
        # 2*(x^2+p^2) is finite here, but the radial sum of a diagonal state
        # overflows to nan; the state is valid, so the grid is named, not the input
        grid = PhaseSpaceGrid(-1e100, 3.0, -1.0, 1.0, 5, 5)
        message = r"grid x \[-1e\+100, 3.0\], p \[-1.0, 1.0\] reaches beyond what the Wigner"
        with np.errstate(all="ignore"), pytest.warns(TruncationWarning):
            with pytest.raises(ValueError, match=message + " kernel can evaluate at dim 6"):
                wigner(thermal(1.0, 6), grid)
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


TRUTH_GRID = PhaseSpaceGrid.symmetric(6.0, 121)


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
class TestAgainstTruth:
    """Each path against the truth in ``oracles``, within a budget in eps of 1/pi.

    Every state here lies inside its basis to below eps, so the whole error
    is the kernel's.  The separable path (states with coherences) is held to
    16 eps against the closed-form Gaussians; it reads 3.9 (coherent) and 3.5
    (displaced thermal) eps.  The radial path (states without) is held near
    what it reads against 60-digit sums at the origin and 63 sampled points:
    0.2 eps for |0>, 7.9 for |20>, 248 for |59> (its worst point being the
    origin) and 0.3 for a lossy PNR outcome.
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
            (np.eye(60)[20], 10),
            (np.eye(60)[59], 320),
            (retrodicted_state(lossy_pnr(0.7, 30).outcome("2")).state.diagonal().real, 2),
        ],
        ids=["fock-0", "fock-20", "fock-59", "lossy-pnr-30"],
    )
    def test_diagonal_states(self, weights, budget):
        w = wigner(np.diag(weights).astype(complex), TRUTH_GRID).values
        rng = np.random.default_rng(64)
        points = [(60, 60), *zip(rng.integers(0, 121, 63), rng.integers(0, 121, 63))]
        x, p = TRUTH_GRID.x_axis, TRUTH_GRID.p_axis
        truth = [oracles.fock_wigner(weights, x[i], p[j]) for i, j in points]
        got = [w[i, j] for i, j in points]
        np.testing.assert_allclose(got, truth, rtol=0, atol=budget * oracles.EPS / np.pi)

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
    """``wigner`` on a geometry built for this call alone."""
    phasespace._cached_geometry.cache_clear()
    try:
        return wigner(rho, grid).values
    finally:
        phasespace._cached_geometry.cache_clear()


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


def _state(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_density(rng, dim)
    if kind == "coherent":
        return dm(coherent_state(complex(*rng.uniform(-1.0, 1.0, 2)), dim))
    weights = rng.random(dim)
    return np.diag(weights / weights.sum()).astype(complex)


@pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
class TestGeometryCache:
    """One grid's geometry, kept across ``wigner`` calls, against a fresh build."""

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
        phasespace._cached_geometry.cache_clear()
        for i in [*order, *order]:  # each grid met first, then again from the cache
            assert wigner(rho, grids[i]).values.tobytes() == want[i].tobytes()
        for g, values in zip(grids, want):
            np.testing.assert_allclose(values, termwise_wigner(rho, g), rtol=0, atol=1e-12)

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
                phasespace._cached_geometry.cache_clear()
                for g in (first, second, first):
                    assert wigner(rho, g).values.tobytes() == want

    def test_cached_arrays_are_read_only(self):
        grid = PhaseSpaceGrid(-1.0, 4.0, -3.0, 2.0, 23, 17)
        wigner(thermal(0.5, 8), grid)
        geo = phasespace._cached_geometry(grid)
        for name in ("radii", "where", "decay"):
            array = getattr(geo, name)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[1]

    def test_cache_is_bounded(self):
        maxsize = phasespace._cached_geometry.cache_info().maxsize
        assert maxsize == 8
        phasespace._cached_geometry.cache_clear()
        for n in range(2, 2 + 2 * maxsize):
            wigner(thermal(0.5, 6), PhaseSpaceGrid.symmetric(2.0, n))
        info = phasespace._cached_geometry.cache_info()
        assert info.currsize == maxsize and info.misses == 2 * maxsize

    def test_threads_sharing_the_cache_get_fresh_bits(self):
        # threads race to build the same geometries, which only states
        # without coherences read
        grids = [PhaseSpaceGrid.symmetric(2.0 + 0.5 * i, 21 + i) for i in range(3)]
        rho = thermal(0.6, 8)
        want = [fresh_wigner(rho, g).tobytes() for g in grids]
        bad = []

        def work(offset):
            for i in range(12):
                g = (i + offset) % len(grids)
                if wigner(rho, grids[g]).values.tobytes() != want[g]:
                    bad.append(g)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            phasespace._cached_geometry.cache_clear()
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

            phasespace._cached_geometry.cache_clear()
            first, _, again = report("A", 1), report("B", 1), report("A", 2)
            phasespace._cached_geometry.cache_clear()
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
