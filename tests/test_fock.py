"""Foundation layer: state constructors, eigensolver, input refusals."""

import numbers
import re
import warnings

import numpy as np
import oracles
import pytest
from conftest import random_density, random_hermitian, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from qdetchar import (
    CategoryThresholds,
    PhaseSpaceGrid,
    Povm,
    PovmElement,
    ProbeEntry,
    TmsvParams,
    Tolerances,
    TruncationWarning,
    born_probability,
    classify_outcome,
    detectivity,
    fidelity,
    heralded_state,
    ideal_pnr,
    lossy_pnr,
    on_off_apd,
    retrodicted_state,
    scaled_projector,
    wigner,
    witness_report,
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
)


_SMALL_GRID = PhaseSpaceGrid.symmetric(1.0, 3)


class TestConstructors:
    def test_check_dim_rejects_small_and_non_integer(self):
        with pytest.raises(ValueError):
            check_dim(1)
        with pytest.raises(ValueError, match="must be an integer, got 3.5"):
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
        with pytest.warns(TruncationWarning) as caught:
            coherent_state(3.0, 12)
        assert [w.filename for w in caught] == [__file__]

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
        # A non-finite entry is refused as it is read; finite entries whose
        # products overflow, when the sum is taken.
        message = "^purity inf is not finite$" if bad == 1e200 else "^rho: non-finite entries$"
        with pytest.raises(ValueError, match=message):
            purity(np.full((2, 2), bad))

    def test_trace_distance_extremes(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(trace_distance(r0, r1), 1.0, atol=1e-14)
        np.testing.assert_allclose(trace_distance(r0, r0), 0.0, atol=1e-14)

    def test_uhlmann_pure_pure_is_overlap(self, rng):
        a = random_pure(rng, 6)
        b = random_pure(rng, 6)
        f = oracles.uhlmann_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        np.testing.assert_allclose(f, abs(np.vdot(a, b)) ** 2, atol=1e-10)

    def test_uhlmann_self_is_one(self, rng):
        rho = random_density(rng, 8)
        np.testing.assert_allclose(oracles.uhlmann_fidelity(rho, rho), 1.0, atol=1e-10)

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

    # A NaN spectrum passed the eigenvalue check, so the off-diagonal case was
    # accepted as a state.
    @pytest.mark.parametrize("i, j, value, message",
                             [(1, 1, 9e307, "trace"), (1, 1, 9e307j, "Hermiticity"),
                              (0, 1, 1e308, "negative eigenvalue -1e[+]308 ")],
                             ids=["real", "imaginary", "off-diagonal"])
    def test_an_entry_near_the_float_limit_is_refused_without_a_warning(self, i, j, value,
                                                                          message):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho[i, j] = rho[j, i] = value
        with pytest.raises(ValueError, match=f"^state: {message}"):
            assert_density_matrix(rho)


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

    # Names that read each array argument through the same rule, and every
    # kind of malformed array, each refused with that rule's wording.
    READERS = {
        "witness_report": (
            lambda m: witness_report(
                m, wigner(np.eye(3) / 3, PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)), "x", 1.0
            ),
            "state",
        ),
        "trace_distance rho": (lambda m: trace_distance(m, np.eye(3) / 3), "rho"),
        "trace_distance sigma": (lambda m: trace_distance(np.eye(3) / 3, m), "sigma"),
    }
    MALFORMED = {
        "0-d": (np.array(0.5), "expected a square matrix, got shape ()"),
        "None": (None, "expected a square matrix, got shape ()"),
        "2x3": (np.ones((2, 3)) / 2, "expected a square matrix, got shape (2, 3)"),
        "2x2x2": (np.ones((2, 2, 2)) / 2, "expected a square matrix, got shape (2, 2, 2)"),
        "ragged": ([[0.5, 0.0], [0.5]], "expected a square matrix of numbers"),
        "nan": (_with_entry(np.nan), "non-finite entries"),
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    @pytest.mark.parametrize("reader", list(READERS))
    def test_malformed_arrays(self, reader, bad):
        call, subject = self.READERS[reader]
        matrix, reason = self.MALFORMED[bad]
        with pytest.raises(ValueError, match="^" + re.escape(f"{subject}: {reason}") + "$"):
            call(matrix)

    # Names that read an array argument, called with something that is no
    # array of numbers in that argument's place.
    NOT_ARRAYS = {
        "PovmElement": lambda bad: PovmElement("x", bad),
        "ProbeEntry": lambda bad: ProbeEntry(1.0, bad, "a"),
        "born_probability state": lambda bad: born_probability(bad, ideal_pnr(2).outcome("1")),
        "born_probability element": lambda bad: born_probability(fock_state(0, 2), bad),
        "detectivity element": lambda bad: detectivity(bad, fock_state(0, 2)),
        "detectivity target": lambda bad: detectivity(ideal_pnr(2).outcome("1"), bad),
        "conjugate_in_fock": conjugate_in_fock,
        "fidelity": lambda bad: fidelity(retrodicted_state(ideal_pnr(2).outcome("1")), bad),
        "heralded_state ket": lambda bad: heralded_state(bad, ideal_pnr(2).outcome("1")),
        "heralded_state element": lambda bad: heralded_state(np.ones(4) / 2, bad),
        "scaled_projector": lambda bad: scaled_projector(bad, 0.5),
        "purity": purity,
    }

    @pytest.mark.parametrize("bad", [[[0.5, 0.0], [0.5]], "ab", None], ids=["ragged", "text", "None"])
    @pytest.mark.parametrize("name", list(NOT_ARRAYS))
    def test_what_is_no_array_of_numbers_is_refused_in_one_wording(self, name, bad):
        # numpy's own wordings ("setting an array element with a sequence",
        # "complex() arg is a malformed string", einsum's) never reach a caller.
        wording = (r"^[\w' ]+(: expected a (square matrix|state vector|ket or a square matrix)"
                   r"( of numbers|, got shape \(\))| must be a state vector)$")
        with pytest.raises(ValueError, match=wording):
            self.NOT_ARRAYS[name](bad)

    def test_trace_distance_refuses_mixed_dims(self):
        with pytest.raises(ValueError, match=r"^rho dim 2 != sigma dim 3$"):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    # Each entry point that takes a scalar: a call with the scalar in one
    # place, returning the value it stores where it stores one, the subject
    # it names, and whether it takes a count (int) or a real (float).
    SCALARS = {
        "Tolerances": (lambda v: Tolerances(herm=v).herm, "Tolerances.herm", float),
        "CategoryThresholds": (
            lambda v: CategoryThresholds(projectivity_min=v).projectivity_min,
            "CategoryThresholds.projectivity_min", float,
        ),
        "PhaseSpaceGrid extent": (
            lambda v: PhaseSpaceGrid(-1.0, 1.0, -1.0, v, 3, 3).p_max, "grid p_max", float
        ),
        "PhaseSpaceGrid count": (
            lambda v: PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, v, 3).n_x, "grid n_x", int
        ),
        "PhaseSpaceGrid.symmetric radius": (
            lambda v: PhaseSpaceGrid.symmetric(v, 3).x_max, "grid radius", float
        ),
        "PhaseSpaceGrid.symmetric points": (
            lambda v: PhaseSpaceGrid.symmetric(1.0, v).n_p, "grid n_x", int
        ),
        "check_dim": (check_dim, "truncation dimension", int),
        "fock_state level": (lambda v: fock_state(v, 4), "level", int),
        "fock_state dim": (lambda v: fock_state(1, v), "truncation dimension", int),
        "Povm.guard_levels": (
            lambda v: Povm(ideal_pnr(4).elements, guard_levels=v).guard_levels,
            "guard_levels", int,
        ),
        "lossy_pnr eta": (lambda v: lossy_pnr(v, 3), "efficiency", float),
        "on_off_apd eta": (lambda v: on_off_apd(v, 0.0, 3), "efficiency", float),
        "on_off_apd nu": (lambda v: on_off_apd(0.5, v, 3), "dark-count rate", float),
        "scaled_projector": (lambda v: scaled_projector(fock_state(0, 3), v), "weight", float),
        "squeezed_vacuum": (lambda v: squeezed_vacuum(v, 5), "squeezing parameter r", float),
        "ProbeEntry.prior": (lambda v: ProbeEntry(v, np.eye(2) / 2, "a").prior, "prior", float),
        "TmsvParams.lam": (lambda v: TmsvParams(v, 30).lam, "squeezing parameter", float),
        "TmsvParams.dim": (lambda v: TmsvParams(0.1, v).dim, "truncation dimension", int),
        "coherent_state alpha": (lambda v: coherent_state(v, 5), "amplitude alpha", complex),
        "classify_outcome projectivity": (lambda v: classify_outcome(v, 0.5), "projectivity", float),
        "classify_outcome ideality": (lambda v: classify_outcome(1.0, v), "ideality", float),
        "witness_report projectivity": (
            lambda v: witness_report(np.eye(2) / 2, wigner(np.eye(2) / 2, _SMALL_GRID), "x", v),
            "projectivity", float,
        ),
    }
    NOT_REAL = [True, "0.5", None]
    NOUNS = {int: "an integer", float: "a real number", complex: "a complex number"}

    @pytest.mark.parametrize("taker", list(SCALARS))
    def test_one_type_rule_for_every_scalar(self, taker):
        call, subject, kind = self.SCALARS[taker]
        for bad in self.NOT_REAL + ([3.5, np.float64(3.0)] if kind is int else []):
            message = f"{subject} must be {self.NOUNS[kind]}, got {bad!r}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call(bad)
        # numpy scalars are numbers, stored as the builtin type
        good = {int: np.int64(3), float: np.float32(0.5), complex: np.complex64(0.5j)}[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            stored = call(good)
        if isinstance(stored, numbers.Number):
            assert type(stored) is kind and stored == good

    def test_a_complex_amplitude_is_any_complex_number_but_a_bool_or_a_string(self):
        for bad in ("0.5+0.5j", True, np.bool_(True), [0.5]):
            with pytest.raises(ValueError, match="^amplitude alpha must be a complex number"):
                coherent_state(bad, 5)
        want = coherent_state(0.5 + 0.25j, 5)
        for good in (np.complex128(0.5 + 0.25j), np.complex64(0.5 + 0.25j)):
            assert np.array_equal(coherent_state(good, 5), want)
        assert np.array_equal(coherent_state(np.float32(0.5), 5), coherent_state(0.5, 5))
        assert np.array_equal(coherent_state(1, 5), coherent_state(1.0 + 0.0j, 5))

    def test_a_real_beyond_the_float_range_meets_the_range_check(self):
        with pytest.raises(ValueError, match=r"^efficiency must lie in \[0, 1\], got inf$"):
            lossy_pnr(10**400, 3)
        with pytest.raises(ValueError, match=r"^prior must lie in \[0, 1\], got -inf$"):
            ProbeEntry(-(10**400), np.eye(2) / 2, "a")
        with pytest.raises(ValueError, match="^Tolerances.herm must be a finite, non-negative"):
            Tolerances(herm=10**400)
