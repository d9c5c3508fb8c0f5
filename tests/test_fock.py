"""Foundation layer: state constructors, eigensolver, input refusals."""

import re

import numpy as np
import pytest
from conftest import random_density, random_hermitian, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import (
    PhaseSpaceGrid,
    PovmElement,
    ProbeEntry,
    TruncationWarning,
    born_probability,
    detectivity,
    ideal_pnr,
    wigner,
)
from qdetchar.fock import (
    _spectrum,
    annihilation,
    assert_density_matrix,
    check_dim,
    coherent_state,
    conjugate_in_fock,
    eig_hermitian,
    fock_state,
    hermiticity_defect,
    hermitize,
    number_mean,
    purity,
    squeezed_vacuum,
    trace_distance,
    uhlmann_fidelity,
)


class TestConstructors:
    def test_check_dim_rejects_small_and_non_integer(self):
        with pytest.raises(ValueError):
            check_dim(1)
        with pytest.raises(TypeError):
            check_dim(3.5)
        assert check_dim(2) == 2

    def test_fock_state_is_basis_vector(self):
        v = fock_state(3, 8)
        assert v[3] == 1.0 and np.linalg.norm(v) == 1.0
        with pytest.raises(ValueError):
            fock_state(8, 8)
        with pytest.raises(ValueError):
            fock_state(-1, 8)

    def test_coherent_vacuum_probability(self):
        # |<0|alpha>|^2 = exp(-|alpha|^2) for alpha = 0.5
        v = coherent_state(0.5, 30)
        np.testing.assert_allclose(abs(v[0]) ** 2, np.exp(-0.25), atol=1e-12)

    def test_coherent_mean_photon_number(self):
        v = coherent_state(1.0, 30)
        mean = float(np.sum(np.arange(30) * np.abs(v) ** 2))
        np.testing.assert_allclose(mean, 1.0, atol=1e-6)

    def test_coherent_complex_amplitude_phases(self):
        alpha = 0.4 + 0.3j
        v = coherent_state(alpha, 25)
        # ratio of successive amplitudes is alpha / sqrt(n)
        for n in range(1, 6):
            np.testing.assert_allclose(v[n] / v[n - 1], alpha / np.sqrt(n), atol=1e-12)

    def test_coherent_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            coherent_state(3.0, 12)

    def test_constructors_unit_norm(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 40))
            alpha = rng.normal() + 1j * rng.normal()
            r = rng.normal()
            for v in (coherent_state(alpha / 2, d), squeezed_vacuum(r / 2, d)):
                np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)

    def test_squeezed_vacuum_even_levels_only(self):
        v = squeezed_vacuum(0.7, 21)
        assert np.all(v[1::2] == 0)
        # amplitude signs alternate with (-tanh r)**k
        signs = np.sign(v[0:10:2].real)
        np.testing.assert_array_equal(signs, [1, -1, 1, -1, 1])

    def test_squeezed_vacuum_quadrature_variance(self):
        # Var x = exp(-2r)/2, computed with explicit operators as the oracle
        d = 40
        v = squeezed_vacuum(0.5, d)
        a = annihilation(d)
        x = (a + a.conj().T) / np.sqrt(2)
        var = float(np.real(v.conj() @ (x @ x) @ v))
        np.testing.assert_allclose(var, np.exp(-1.0) / 2, atol=1e-4)

    def test_squeezed_zero_is_vacuum(self):
        np.testing.assert_allclose(squeezed_vacuum(0.0, 10), fock_state(0, 10))

    @pytest.mark.filterwarnings("error")  # no overflow warning escapes either
    @pytest.mark.parametrize(
        "make, value, dim",
        [
            (coherent_state, 1e200, 12),
            (coherent_state, 1e200, 2),
            (coherent_state, complex(0.5, np.nan), 12),
            (coherent_state, np.inf, 12),
            (coherent_state, 1e10, 60),
            (squeezed_vacuum, np.inf, 12),
            (squeezed_vacuum, -np.inf, 12),
            (squeezed_vacuum, np.nan, 12),
        ],
    )
    def test_non_finite_parameters_and_kets_are_refused(self, make, value, dim):
        with pytest.raises(ValueError, match="finite") as err:
            make(value, dim)
        assert repr(complex(value) if make is coherent_state else float(value)) in str(err.value)


class TestConjugation:
    def test_preserves_trace_hermiticity_spectrum(self, rng):
        m = random_hermitian(rng, 9)
        c = conjugate_in_fock(m)
        assert hermiticity_defect(c) <= 1e-15
        np.testing.assert_allclose(np.trace(c), np.trace(m), atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(c), np.linalg.eigvalsh(m), atol=1e-12
        )

    def test_is_entrywise_conjugate(self):
        m = np.array([[1.0, 2j], [-2j, 3.0]])
        np.testing.assert_array_equal(conjugate_in_fock(m), m.conj())


class TestEigHermitian:
    def test_projector_spectrum(self):
        plus = np.full(2, 1 / np.sqrt(2))
        w, _ = eig_hermitian(np.outer(plus, plus))
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-15)

    def test_reconstruction_and_ordering(self, rng):
        for _ in range(120):
            d = int(rng.integers(2, 17))
            m = random_hermitian(rng, d)
            w, v = eig_hermitian(m)
            assert np.all(np.diff(w) >= 0)
            scale = max(np.max(np.abs(m)), 1e-30)
            err = np.max(np.abs((v * w) @ v.conj().T - m))
            assert err <= 1e-10 * scale

    def test_symmetrizes_roundoff_asymmetry(self, rng):
        m = random_hermitian(rng, 6)
        m = m + 1e-13 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        w, _ = eig_hermitian(m)
        assert np.isrealobj(w)


# Diagonal parts: signed zeros, subnormals and negatives forced in.  The bound
# keeps ``x + x`` in hermitize finite.
_REAL = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1.0, -1.0]),
)
_IMAG = st.floats(min_value=-1e300, max_value=1e300)


class TestSpectrum:
    """``_spectrum`` against ``np.linalg.eigvalsh(hermitize(m))``, its definition."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_REAL, _IMAG), min_size=2, max_size=40))
    def test_diagonal_matrices(self, parts):
        re, im = np.array(parts).T
        m = np.diag(re + 1j * im)
        w = _spectrum(m)
        lapack = np.linalg.eigvalsh(hermitize(m))
        top = np.max(np.abs(re))
        if 1e-140 < top < 1e140:
            assert w.tobytes() == lapack.tobytes()
            np.testing.assert_array_equal(w, np.sort(re))
        else:  # LAPACK scales the matrix first, with rounding of the largest entry's order
            np.testing.assert_allclose(w, lapack, rtol=0, atol=4 * np.finfo(float).eps * top)

    def test_diagonal_input_takes_no_solve(self, monkeypatch):
        def refuse(m):
            raise AssertionError("eigvalsh called on a diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        w = _spectrum(np.diag([0.5 + 3j, -0.0, 2.0 - 1j, -1.0]))
        assert w.tobytes() == np.array([-1.0, -0.0, 0.5, 2.0]).tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, 0.5, 0.25]) + np.diag([5e-324, 0.0], k=1),
            np.diag([1.0, 0.5, 0.25]) + 1j * np.diag([5e-324], k=-2),
            np.diag([0.0, -0.0, 1.0]),  # zeros of both signs: LAPACK's order
        ],
        ids=["off-diagonal real", "off-diagonal imaginary", "mixed signed zeros"],
    )
    def test_other_input_takes_eigvalsh(self, monkeypatch, m):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
        w = _spectrum(m)
        assert len(calls) == 1
        assert w.tobytes() == eigvalsh(hermitize(m)).tobytes()


class TestMetrics:
    def test_purity_of_pure_state(self, rng):
        v = random_pure(rng, 7)
        np.testing.assert_allclose(purity(np.outer(v, v.conj())), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_purity_is_refused_unless_finite(self, bad):
        with pytest.raises(ValueError, match="^purity (nan|inf) is not finite$"):
            purity(np.full((2, 2), bad))

    def test_trace_distance_extremes(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(trace_distance(r0, r1), 1.0, atol=1e-14)
        np.testing.assert_allclose(trace_distance(r0, r0), 0.0, atol=1e-14)

    def test_uhlmann_pure_pure_is_overlap(self, rng):
        a = random_pure(rng, 6)
        b = random_pure(rng, 6)
        f = uhlmann_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        np.testing.assert_allclose(f, abs(np.vdot(a, b)) ** 2, atol=1e-10)

    def test_uhlmann_self_is_one(self, rng):
        rho = random_density(rng, 8)
        np.testing.assert_allclose(uhlmann_fidelity(rho, rho), 1.0, atol=1e-10)

    def test_number_mean(self):
        assert number_mean(np.diag([0.5, 0.0, 0.5]).astype(complex)) == 1.0


class TestDensityMatrixGuard:
    def test_accepts_valid(self, rng):
        assert_density_matrix(random_density(rng, 6))

    def test_rejects_bad_trace_and_negativity(self):
        with pytest.raises(ValueError, match="trace"):
            assert_density_matrix(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="Hermiticity"):
            assert_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))


def _with_entry(value):
    m = np.eye(3, dtype=complex) / 3
    m[0, 1] = value
    return m


class TestInputRefusals:
    """Each public entry point that takes a matrix refuses one that is not
    square and finite with the one wording, naming its own subject."""

    TAKERS = {
        "PovmElement": (lambda m: PovmElement("x", m), "element 'x'"),
        "eig_hermitian": (eig_hermitian, "matrix"),
        "assert_density_matrix": (assert_density_matrix, "state"),
        "wigner": (lambda m: wigner(m, PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)), "state"),
        "born_probability": (lambda m: born_probability(m, ideal_pnr(3).outcome("1")), "state"),
        "detectivity": (lambda m: detectivity(ideal_pnr(3).outcome("1"), m), "target"),
        "ProbeEntry": (lambda m: ProbeEntry(1.0, m, "a"), "probe entry 'a'"),
    }
    BAD = {
        "non-square": (np.ones((3, 2)) / 3, "expected a square matrix, got shape (3, 2)"),
        "nan": (_with_entry(np.nan), "non-finite entries"),
        "inf": (_with_entry(np.inf), "non-finite entries"),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    @pytest.mark.parametrize("taker", list(TAKERS))
    def test_not_square_and_finite(self, taker, bad):
        call, subject = self.TAKERS[taker]
        matrix, reason = self.BAD[bad]
        with pytest.raises(ValueError, match="^" + re.escape(f"{subject}: {reason}") + "$"):
            call(matrix)
