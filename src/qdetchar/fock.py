"""Dense linear algebra on a truncated Fock space.

States are complex 1-D ``numpy`` arrays over the number basis ``|0..dim-1>``,
operators are complex 2-D arrays.  Composite two-mode objects use the
row-major index convention ``(i_a, i_b) -> i_a * dim_b + i_b``, which is what
``numpy.kron`` produces.

All constructors renormalize after truncation and warn through
:class:`~qdetchar.errors.TruncationWarning` when the cutoff looks too tight
for the requested state.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .errors import _warn_truncation

__all__ = [
    "fock_state",
    "coherent_state",
    "squeezed_vacuum",
    "annihilation",
    "conjugate_in_fock",
    "eig_hermitian",
    "purity",
    "trace_distance",
]


def check_dim(dim) -> int:
    """Validate a Fock-space truncation dimension (number levels 0..dim-1)."""
    d = _number(dim, "truncation dimension", int)
    if d < 2:
        raise ValueError(f"truncation dimension must be at least 2, got {d}")
    return d


def _complex(a, what: str, expected: str) -> np.ndarray:
    """``a`` as a complex array; a ``ValueError`` naming ``what`` if it is ragged or not numbers."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: expected {expected} of numbers") from None


def _square(m, what: str) -> np.ndarray:
    """``m`` as a complex array; a ``ValueError`` naming ``what`` unless it is square and finite."""
    m = _complex(m, what, "a square matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what}: non-finite entries")
    return m


def _same_dim(a: str, x: int, b: str, y: int) -> None:
    """A ``ValueError`` naming both dims unless ``a``'s dim ``x`` is ``b``'s dim ``y``."""
    if x != y:
        raise ValueError(f"{a} dim {x} != {b} dim {y}")


def _one_dim(parts, what: str) -> int:
    """The dim all ``parts`` share; a ``ValueError`` if their dims differ or a label repeats."""
    dims = {part.dim for part in parts}
    if len(dims) != 1:
        raise ValueError(f"mixed {what} dimensions: {sorted(dims)}")
    if len({part.label for part in parts}) != len(parts):
        raise ValueError(f"{what} labels must be unique")
    return dims.pop()


def _frozen(m) -> np.ndarray:
    """``m`` if it is C-contiguous complex128, read-only down its ``.base`` chain to
    ``None``; else a read-only complex copy.  No caller can write to what it returns."""
    if type(m) is np.ndarray and m.dtype == complex and m.flags.c_contiguous:
        base = m
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return m
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


def _unit_trace(rho: np.ndarray, tols: Tolerances, what: str) -> None:
    """A ``ValueError`` naming ``what`` unless ``Tr rho`` is within ``tols.norm`` of 1."""
    tr = float(np.real(np.trace(rho)))
    if not abs(tr - 1.0) <= tols.norm:
        raise ValueError(f"{what}: trace {tr!r} deviates from 1 beyond {tols.norm:.3g}")


def fock_state(n: int, dim: int) -> np.ndarray:
    """Number state ``|n>`` as a unit vector."""
    d = check_dim(dim)
    n = _number(n, "level", int)
    if not 0 <= n < d:
        raise ValueError(f"level {n} outside truncation 0..{d - 1}")
    vec = np.zeros(d, dtype=complex)
    vec[n] = 1.0
    return vec


def _unit_ket(vec, what: str) -> np.ndarray:
    """``vec`` at unit norm; a ``ValueError`` naming ``what`` unless it is finite and non-zero."""
    vec = _complex(vec, what, "a state vector")
    if vec.ndim != 1:
        raise ValueError(f"{what} must be a state vector")
    norm = np.linalg.norm(vec)
    if not (np.isfinite(vec).all() and 0.0 < norm < np.inf):
        raise ValueError(f"{what} has norm {norm:.3g}, not a finite, non-zero one")
    return vec / norm


def _as_density(state, what: str, tols: Tolerances | None = None) -> np.ndarray:
    """A ket, normalized, or a square, finite matrix (of unit trace under ``tols``) as a state."""
    state = _complex(state, what, "a ket or a square matrix")
    if state.ndim == 1:
        ket = _unit_ket(state, what)
        return np.outer(ket, ket.conj())
    rho = _square(state, what)
    if tols is not None:
        _unit_trace(rho, tols, what)
    return rho


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Coherent state with amplitude ``alpha``, renormalized after truncation.

    Amplitudes follow ``alpha**n / sqrt(n!)``.  Warns when the expected
    photon number ``|alpha|**2`` exceeds ``dim / 4``, the point beyond which
    the discarded tail stops being negligible at double precision.  Refuses
    an ``alpha`` whose truncated ket is not finite.
    """
    d = check_dim(dim)
    alpha = _number(alpha, "amplitude alpha", complex)
    vec = np.empty(d, dtype=complex)
    vec[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, d):
            vec[n] = vec[n - 1] * alpha / np.sqrt(n)
        vec = _unit_ket(vec, f"coherent state with alpha = {alpha!r} at dim {d}")
    if abs(alpha) ** 2 > d / 4:
        _warn_truncation(
            f"coherent state with |alpha|^2 = {abs(alpha) ** 2:.3g} is poorly "
            f"represented at truncation {d}"
        )
    return vec


def squeezed_vacuum(r: float, dim: int) -> np.ndarray:
    """Squeezed vacuum with real squeezing parameter ``r``.

    Populates even levels with amplitudes proportional to
    ``(-tanh r)**k * sqrt((2k)!) / (2**k k!)``; the ``x`` quadrature variance
    of the untruncated state is ``exp(-2 r) / 2``.  A non-finite ``r`` is refused.
    """
    d = check_dim(dim)
    r = _number(r, "squeezing parameter r")
    if not np.isfinite(r):
        raise ValueError(f"squeezing parameter r = {r!r} is not finite")
    t = np.tanh(r)
    vec = np.zeros(d, dtype=complex)
    vec[0] = 1.0
    amp = 1.0
    for k in range(1, (d + 1) // 2):
        # ratio of successive even-level amplitudes
        amp *= -t * np.sqrt((2 * k - 1) / (2 * k))
        vec[2 * k] = amp
    return _unit_ket(vec, f"squeezed vacuum with r = {r!r} at dim {d}")


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator, ``a |n> = sqrt(n) |n-1>``."""
    d = check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def number_mean(rho: np.ndarray) -> float:
    """Mean photon number ``sum_n n rho_nn`` of a density matrix."""
    rho = np.asarray(rho)
    return float(np.real(np.sum(np.arange(rho.shape[0]) * np.diag(rho))))


def conjugate_in_fock(m: np.ndarray) -> np.ndarray:
    """Entrywise complex conjugate in the number basis (transpose for Hermitian input)."""
    return np.conj(_square(m, "matrix"))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize to the nearest Hermitian matrix, ``(m + m^dag) / 2``."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of ``|m - m^dag|``."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def _is_diagonal(m: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square array ``m`` is exactly zero."""
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``hermitize(m)``, as ``np.linalg.eigvalsh`` gives them.

    When every off-diagonal entry of ``m`` is exactly zero, as for
    phase-insensitive detectors and their retrodicted states, the eigenvalues
    are the real diagonal, sorted, and no O(d^3) solve runs.  ``eigvalsh``
    gives the same bits for such a matrix unless LAPACK rescales it (largest
    entry below about 1e-146 or above about 1e146), which rounds on the scale
    of the largest entry.  A diagonal with zeros of both signs, which LAPACK's
    sort may order either way, still goes to ``eigvalsh``.
    """
    m = np.asarray(m, dtype=complex)
    diag = np.diagonal(m)
    w = 0.5 * (diag.real + diag.real)  # the diagonal of hermitize(m), overflow included
    signs = np.signbit(w[w == 0.0])
    mixed_zeros = signs.any() and not signs.all()
    if _is_diagonal(m) and not mixed_zeros:
        return np.sort(w)
    h = hermitize(m)
    if np.isfinite(h).all():
        return np.linalg.eigvalsh(h)
    # m + m^dag overflowed, which LAPACK cannot take: solve a quarter of m,
    # which cannot overflow, and scale back, overflow included.
    return 4.0 * np.linalg.eigvalsh(hermitize(0.25 * m))


def eig_hermitian(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    The input is symmetrized first so that roundoff-level asymmetry cannot
    leak imaginary parts into the spectrum.  Returns ``(w, v)`` with
    eigenvectors in the columns of ``v``.
    """
    return np.linalg.eigh(hermitize(_square(m, "matrix")))


def purity(rho: np.ndarray) -> float:
    """``Tr(rho @ rho)`` for a Hermitian matrix, as a real number; a ``ValueError`` unless finite."""
    rho = _square(rho, "rho")
    val = float(np.real(np.einsum("ij,ji->", rho, rho)))
    if not math.isfinite(val):
        raise ValueError(f"purity {val!r} is not finite")
    return val


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of ``rho - sigma``."""
    rho, sigma = _square(rho, "rho"), _square(sigma, "sigma")
    _same_dim("rho", len(rho), "sigma", len(sigma))
    w, _ = eig_hermitian(rho - sigma)
    return 0.5 * float(np.sum(np.abs(w)))


@np.errstate(over="ignore", invalid="ignore")
def assert_density_matrix(
    rho: np.ndarray, tols: Tolerances = DEFAULT_TOLS, what: str = "state", least=None
) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; raise ``ValueError`` if violated.

    ``least`` is a lower bound on the least eigenvalue of ``hermitize(rho)``
    that the caller has proven, such as an element's least eigenvalue over
    its trace.  When it is at least ``-tols.psd`` no spectrum is solved;
    otherwise, or when it is ``None`` or NaN, the spectrum is solved, so a
    refusal always prints the solved eigenvalue.  An entry near the float
    limit overflows, without a warning, to an infinite or NaN defect, trace
    or eigenvalue, and so fails its check.
    """
    rho = _square(rho, what)
    defect = hermiticity_defect(rho)
    if defect > tols.herm:
        raise ValueError(f"{what}: Hermiticity defect {defect:.3g} exceeds {tols.herm:.3g}")
    _unit_trace(rho, tols, what)
    if least is not None and least >= -tols.psd:
        return rho
    w = _spectrum(rho)
    if w[0] < -tols.psd:
        raise ValueError(f"{what}: negative eigenvalue {w[0]:.3g} beyond {tols.psd:.3g}")
    return rho
