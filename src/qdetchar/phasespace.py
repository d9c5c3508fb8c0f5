"""Phase-space analysis: Wigner function, moments, non-classicality witnesses.

Convention, fixed for the whole package and recorded in exported files:
``hbar = 1``, quadratures ``x = (a + a^dag)/sqrt(2)`` and
``p = -i (a - a^dag)/sqrt(2)``, Wigner function normalized so that
``int W dx dp = 1``.  The vacuum then has ``W(0,0) = 1/pi`` and covariance
``diag(1/2, 1/2)``, and every state obeys ``W >= -1/pi``.

The Wigner function is evaluated through the displaced parity operator:
``W(x, p) = (1/pi) Tr{rho D(alpha) P D(-alpha)}`` with
``alpha = (x + i p)/sqrt(2)``.  Since ``P D(-alpha) = D(alpha) P``, the
kernel collapses to ``D(2 alpha) P``, whose number-basis matrix elements
are associated Laguerre polynomials (Cahill and Glauber 1969).  Band k of
that expansion contributes ``Re(T_k(|beta|^2) e^{ik theta})``, so the grid
evaluation sums each band once per distinct radius, in one Clenshaw pass
over the Laguerre three-term recurrence with its exponential prefactor in
log space so large cutoffs cannot overflow, then the angle at each point by
Horner's rule in ``e^{i theta}``: O(dim^2) per radius, O(dim) per point.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_THRESHOLDS, DEFAULT_TOLS, CategoryThresholds, Tolerances
from .errors import TruncationWarning
from .fock import _square, annihilation, check_dim, hermitize, number_mean, purity
from .retrodiction import projectivity, retrodicted_state

__all__ = [
    "CONVENTION",
    "PhaseSpaceGrid",
    "WignerGrid",
    "Gaussianity",
    "NonClassicalityReport",
    "wigner",
    "negativity_volume",
    "gaussian_reference",
    "witness_report",
    "nonclassicality_of_measurement",
]

CONVENTION = "hbar=1, x=(a+adag)/sqrt(2), int W dx dp = 1"


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular evaluation grid in the ``(x, p)`` plane."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int
    n_p: int

    def __post_init__(self):
        # Extents are stored as floats and counts as ints, so that equal grids
        # have equal axes whatever number types built them.
        for name in ("x_min", "x_max", "p_min", "p_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"grid {name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("n_x", "n_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"grid {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError(f"grid {self._box}: extents must satisfy max > min")
        if not math.isfinite(2.0 * self.radius_sq):
            raise ValueError(f"grid {self._box}: extents must be finite, with 2*(x^2+p^2) finite")
        if self.n_x < 2 or self.n_p < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @classmethod
    def symmetric(cls, radius: float, points: int) -> "PhaseSpaceGrid":
        """Square grid ``[-radius, radius]^2`` with ``points`` per axis."""
        r = float(radius)
        return cls(-r, r, -r, r, points, points)

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def _box(self) -> str:
        return f"x [{self.x_min}, {self.x_max}], p [{self.p_min}, {self.p_max}]"

    @property
    def radius_sq(self) -> float:
        """Largest ``x**2 + p**2`` reached by a grid corner."""
        x = max(abs(self.x_min), abs(self.x_max))
        p = max(abs(self.p_min), abs(self.p_max))
        return x * x + p * p


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Wigner values on a grid; ``values[i, j] = W(x_i, p_j)``."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def riemann_sum(self) -> float:
        """Plain Riemann approximation of ``int W dx dp`` over the grid."""
        return float(np.sum(self.values)) * self.grid.dx * self.grid.dp

    def min_value(self) -> float:
        return float(np.min(self.values))

    def boundary_max_abs(self) -> float:
        v = self.values
        edges = np.concatenate([v[0, :], v[-1, :], v[:, 0], v[:, -1]])
        return float(np.max(np.abs(edges)))


# Matrix entries at or below this magnitude contribute nothing to the kernel.
_NEGLIGIBLE = 1e-18


def _laguerre_band(coeffs: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """Clenshaw sum ``sum_m coeffs[m] * sqrt(m! k! / (m+k)!) * L_m^k(z)``.

    The normalized Laguerre functions ``psi_m = sqrt(m! k! / (m+k)!) L_m^k``
    obey ``psi_{m+1} = a_m psi_m + b_m psi_{m-1}`` with
    ``a_m = (2m + 1 + k - z) / sqrt((m+1)(m+1+k))``,
    ``b_m = -sqrt(m (m+k) / ((m+1)(m+1+k)))`` and ``psi_0 = 1``; the
    normalization keeps the work arrays near unit scale for any ``k``.
    ``coeffs`` is real, and the three work arrays are updated in place.
    """
    b1 = np.zeros_like(z)
    b2 = np.zeros_like(z)
    step = np.empty_like(z)
    for m in range(len(coeffs) - 1, -1, -1):
        norm = np.sqrt((m + 1.0) * (m + 1.0 + k))
        np.subtract(2.0 * m + 1.0 + k, z, out=step)
        step *= b1
        step /= norm
        b2 *= -norm / np.sqrt((m + 2.0) * (m + 2.0 + k))
        b2 += step
        b2 += coeffs[m]
        b1, b2 = b2, b1
    return b1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Geometry:
    """The state-independent part of the Wigner kernel on one grid.

    ``radii`` are the grid's distinct ``|beta|^2 = 2 (x^2 + p^2)`` in
    ascending order and ``where[i, j]`` the index of point ``(x_i, p_j)``
    among them.  ``log_beta`` and the phase ``e^{i theta}`` serve only the
    off-diagonal bands, so they are built when a state with such a band
    first meets the grid.  Every array is read-only.
    """

    def __init__(self, grid: PhaseSpaceGrid):
        self.grid = grid
        x, p = grid.x_axis[:, None], grid.p_axis[None, :]
        # radii are |beta|^2, with beta = 2*alpha and alpha = (x + i p)/sqrt(2)
        radii, where = np.unique((2.0 * (x * x + p * p)).ravel(), return_inverse=True)
        self.radii = _read_only(radii)
        self.where = _read_only(where.reshape(grid.n_x, grid.n_p))
        self.half_r = _read_only(0.5 * radii)
        self.decay = _read_only(np.exp(-self.half_r))

    @functools.cached_property
    def log_beta(self) -> np.ndarray:
        radii = self.radii
        return _read_only(0.5 * np.log(radii, where=radii > 0.0, out=np.full_like(radii, -np.inf)))

    @functools.cached_property
    def phase(self) -> np.ndarray:
        x, p = self.grid.x_axis[:, None], self.grid.p_axis[None, :]
        return _read_only(np.exp(1j * np.arctan2(p, x)))


# Grids kept by _cached_geometry: about 1.3 MB each at 201^2 once ``phase`` is built.
_GEOMETRIES = 8


@functools.lru_cache(maxsize=_GEOMETRIES)
def _cached_geometry(grid: PhaseSpaceGrid, zero_signs: tuple) -> _Geometry:
    return _Geometry(grid)


def _geometry(grid: PhaseSpaceGrid) -> _Geometry:
    """``grid``'s :class:`_Geometry`, built once while it stays among the last few used.

    An extent of -0.0 equals 0.0, so two grids that differ only there
    compare equal and hash alike, yet ``arctan2`` tells their axes apart;
    the extents' signs join the cache key.
    """
    extents = (grid.x_min, grid.x_max, grid.p_min, grid.p_max)
    return _cached_geometry(grid, tuple(math.copysign(1.0, v) for v in extents))


def wigner(
    rho: np.ndarray, grid: PhaseSpaceGrid, tols: Tolerances = DEFAULT_TOLS
) -> WignerGrid:
    """Evaluate the Wigner function of a density matrix on a grid.

    Reads the diagonal and the upper triangle of ``rho``; entries of
    magnitude at most 1e-18 are dropped.  Each band ``rho[m, m+k]`` left is
    summed by Clenshaw's recurrence once per distinct radius (O(dim^2) work
    each), and the bands by Horner's rule in ``e^{i theta}`` at each point.

    The grid's geometry (its distinct radii, each point's index among them,
    and the phase ``e^{i theta}`` once a state with coherences needs it) is
    computed once per grid and kept for the last 8 grids used: about 1.3 MB
    each at 201^2, so at most about 10 MB.  Later states on a kept grid
    reuse it, and give the same bits as a first call.

    Warns when the grid reaches further than the truncated basis can
    represent (``radius**2 > 2 * dim``).  Raises if ``rho`` has an entry
    that is not finite, or fewer than two levels (as :func:`check_dim`); if
    the grid reaches so far that the kernel overflows, naming the grid; and
    if a value breaks the quantum bound ``W >= -1/pi`` beyond ``tols.neg``,
    which indicates the input was not a valid state.
    """
    rho = _square(rho, "state")
    d = check_dim(rho.shape[0])
    if grid.radius_sq > 2.0 * d:
        warnings.warn(
            f"grid reaches x^2+p^2 = {grid.radius_sq:.3g}, beyond the "
            f"resolvable region ~2*dim = {2 * d} of this truncation",
            TruncationWarning,
            stacklevel=2,
        )
    rho = np.where(np.abs(rho) > _NEGLIGIBLE, rho, 0.0)
    signs = np.where(np.arange(d) % 2, -1.0, 1.0)
    geo = _geometry(grid)
    radii, where, half_r = geo.radii, geo.where, geo.half_r
    acc = (geo.decay * _laguerre_band(signs * rho.diagonal().real, 0, radii))[where]
    if np.any(np.triu(rho, 1)):
        log_beta = geo.log_beta
        table = {}  # band k's weight times its Clenshaw sum, on the radii
        for k in range(1, d):
            band = signs[: d - k] * np.diagonal(rho, k)
            if band.any():
                parts = ((band.real, 1.0), (band.imag, 1j))
                sums = sum(_laguerre_band(v, k, radii) * u for v, u in parts if v.any())
                table[k] = 2.0 * np.exp(k * log_beta - half_r - 0.5 * math.lgamma(k + 1)) * sums
        # Re sum_k table[k] z^k with z = e^{i theta}, from the top band down
        z = geo.phase
        horner = np.zeros(where.shape, dtype=complex)
        for k in range(max(table), 0, -1):
            if k in table:
                horner += table[k][where]
            horner *= z
        acc += horner.real
    values = acc / np.pi
    if not np.isfinite(values).all():
        raise ValueError(
            f"grid {grid._box} reaches beyond what the Wigner kernel can evaluate "
            f"at dim {d}; shrink the grid"
        )
    vmin = float(np.min(values))
    if not vmin >= -1.0 / np.pi - tols.neg:
        raise ValueError(
            f"Wigner value {vmin:.6g} below the quantum bound -1/pi; "
            "input is not a valid state"
        )
    return WignerGrid(grid=grid, values=values)


def negativity_volume(wgrid: WignerGrid, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Doubled negative mass ``int |W| dx dp - int W dx dp``, Riemann-summed.

    Zero for non-negative Wigner functions.  Warns when ``|W|`` has not
    decayed below 1e-6 on the grid boundary, since the integral then misses
    weight outside the window.
    """
    edge = wgrid.boundary_max_abs()
    if edge > 1e-6:
        warnings.warn(
            f"|W| reaches {edge:.3g} on the grid boundary; negativity volume "
            "may be truncated",
            TruncationWarning,
            stacklevel=2,
        )
    v = wgrid.values
    vol = float(np.sum(np.abs(v) - v)) * wgrid.grid.dx * wgrid.grid.dp
    return max(vol, 0.0)


def _moments(rho: np.ndarray):
    """Quadrature mean vector, symmetrized 2x2 covariance matrix, and ``heavy``.

    Returns ``(mean, cov, heavy)`` with ``mean = (<x>, <p>)``,
    ``cov[0, 1] = <xp + px>/2 - <x><p>`` and ``heavy`` true when the mean
    photon number exceeds ``dim / 4``.  The moments are built from ``<a>``,
    ``<a^2>`` and ``<a^dag a>``, which the truncated basis holds exactly, so
    they are exact for any state inside the basis; quadrature operators cut
    at the top level would lose the ``a a^dag`` ladder term there and could
    falsely break ``det cov >= 1/4``.  A heavy state still warns, since a
    truncated stand-in for a heavier intended state has lost its tail
    either way.
    """
    d = rho.shape[0]
    nbar = number_mean(rho)
    heavy = nbar > d / 4
    if heavy:
        warnings.warn(
            f"mean photon number {nbar:.3g} is large for "
            f"truncation {d}; moments may be unreliable",
            TruncationWarning,
            stacklevel=3,
        )
    root = np.sqrt(np.arange(d))
    a1 = np.sum(root[1:] * np.diagonal(rho, -1))  # <a>
    a2 = np.sum(root[2:] * root[1:-1] * np.diagonal(rho, -2))  # <a^2>
    mx, mp = np.sqrt(2.0) * a1.real, np.sqrt(2.0) * a1.imag
    cxx = nbar + 0.5 + a2.real - mx * mx
    cpp = nbar + 0.5 - a2.real - mp * mp
    cxp = a2.imag - mx * mp
    return np.array([mx, mp]), np.array([[cxx, cxp], [cxp, cpp]]), heavy


def _expm_antihermitian(a: np.ndarray) -> np.ndarray:
    """``exp(a) = V diag(exp(-i w)) V^dagger`` from ``i a = V diag(w) V^dagger``."""
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def gaussian_reference(mean: np.ndarray, cov: np.ndarray, dim: int):
    """Truncated displaced squeezed thermal state with the given moments.

    Decomposes the covariance into a rotation, a squeezing ratio and a
    symplectic (thermal) eigenvalue, then builds
    ``D(alpha) S(xi) rho_thermal S^dag D^dag`` in the number basis and
    renormalizes.  Returns ``(rho, tail)`` where ``tail`` bounds the weight
    lost to truncation; verdicts based on a reference with a fat tail are
    not trustworthy.
    """
    d = check_dim(dim)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ValueError("mean must be length 2 and cov 2x2")
    w, rot = np.linalg.eigh(0.5 * (cov + cov.T))
    if w[0] <= 0.0:
        raise ValueError(f"covariance not positive definite: eigenvalues {w}")
    # symplectic eigenvalue; clamp to the vacuum floor against roundoff
    nu = max(float(np.sqrt(w[0] * w[1])), 0.5)
    nbar = nu - 0.5
    s = 0.25 * float(np.log(w[1] / w[0]))
    theta = float(np.arctan2(rot[1, 0], rot[0, 0]))
    xi = s * np.exp(2j * theta)
    alpha = (mean[0] + 1j * mean[1]) / np.sqrt(2.0)
    therm = (nbar / (nbar + 1.0)) ** np.arange(d) / (nbar + 1.0)
    rho = np.diag(therm).astype(complex)
    # unsqueezed and undisplaced, as every phase-insensitive state's reference
    # is, the thermal state is the reference itself
    if xi != 0 or alpha != 0:
        a = annihilation(d)
        ad = a.conj().T
        squeeze = _expm_antihermitian(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))
        displace = _expm_antihermitian(alpha * ad - np.conj(alpha) * a)
        u = displace @ squeeze
        rho = u @ rho @ u.conj().T
    tr = float(np.real(np.trace(rho)))
    tail = abs(1.0 - tr) + float(np.real(rho[-1, -1]))
    return hermitize(rho / tr), tail


class Gaussianity(str, Enum):
    GAUSSIAN = "Gaussian"
    NON_GAUSSIAN = "NonGaussian"
    UNDETERMINED = "Undetermined"


def _gaussianity(rho, mean, cov, heavy, tols: Tolerances) -> Gaussianity:
    """Compare a state against the Gaussian state with its first two moments.

    The verdict is Gaussian when the overlap ratio
    ``Tr(rho ref) / max(Tr(rho^2), Tr(ref^2))`` reaches ``1 - tols.gauss``.
    Undetermined is returned instead of a guess whenever truncation makes
    either the moments or the reconstructed reference unreliable.
    """
    if heavy:
        return Gaussianity.UNDETERMINED
    ref, tail = gaussian_reference(mean, cov, rho.shape[0])
    if tail > tols.gauss_tail:
        return Gaussianity.UNDETERMINED
    overlap = float(np.real(np.einsum("ij,ji->", rho, ref)))
    ratio = overlap / max(purity(rho), purity(ref))
    if ratio >= 1.0 - tols.gauss:
        return Gaussianity.GAUSSIAN
    return Gaussianity.NON_GAUSSIAN


@dataclass(frozen=True)
class NonClassicalityReport:
    """Phase-space witnesses for one retrodicted outcome.

    ``is_nonclassical`` is true when either witness fires: a negativity
    volume above the dead band, or sub-vacuum quadrature noise.
    ``hudson_inconsistent`` flags a breakdown of the expected implication
    "projective outcome with non-negative Wigner function implies Gaussian";
    it should never fire on trustworthy inputs and exists as a numerical
    alarm.
    """

    outcome_label: str
    min_wigner: float
    negativity_volume: float
    squeezing_witness: bool
    is_nonclassical: bool
    gaussianity: Gaussianity
    hudson_inconsistent: bool


def _witness_verdicts(minw, negv, squeezed, gauss, proj, tols, thresholds):
    """``(is_nonclassical, hudson_inconsistent)`` from one outcome's witnesses."""
    return bool(negv > tols.neg or squeezed), bool(
        proj >= thresholds.projectivity_min
        and minw >= -tols.neg
        and gauss is Gaussianity.NON_GAUSSIAN
    )


def witness_report(
    state: np.ndarray,
    wgrid: WignerGrid,
    outcome_label: str,
    projectivity_value: float,
    tols: Tolerances = DEFAULT_TOLS,
    thresholds: CategoryThresholds = DEFAULT_THRESHOLDS,
) -> NonClassicalityReport:
    """Assemble every witness for a state whose Wigner grid is already known.

    ``squeezing_witness`` is true when some quadrature variance dips below
    the vacuum's 1/2 by more than ``tols.squeeze``; ``gaussianity`` compares
    the state against the Gaussian state with its first two moments.
    """
    state = np.asarray(state, dtype=complex)
    mean, cov, heavy = _moments(state)
    minw = wgrid.min_value()
    negv = negativity_volume(wgrid, tols)
    squeezed = bool(np.linalg.eigvalsh(cov)[0] < 0.5 - tols.squeeze)
    gauss = _gaussianity(state, mean, cov, heavy, tols)
    nonclassical, hudson_bad = _witness_verdicts(
        minw, negv, squeezed, gauss, projectivity_value, tols, thresholds
    )
    return NonClassicalityReport(
        outcome_label=outcome_label,
        min_wigner=minw,
        negativity_volume=negv,
        squeezing_witness=squeezed,
        is_nonclassical=nonclassical,
        gaussianity=gauss,
        hudson_inconsistent=hudson_bad,
    )


def nonclassicality_of_measurement(
    element,
    grid: PhaseSpaceGrid,
    tols: Tolerances = DEFAULT_TOLS,
    thresholds: CategoryThresholds = DEFAULT_THRESHOLDS,
) -> NonClassicalityReport:
    """Run every phase-space witness on the state retrodicted by an element."""
    retro = retrodicted_state(element, tols)
    wg = wigner(retro.state, grid, tols)
    return witness_report(
        retro.state, wg, retro.element.label, projectivity(retro), tols, thresholds
    )
