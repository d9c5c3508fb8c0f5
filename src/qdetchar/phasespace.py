"""Phase-space analysis: Wigner function, moments, non-classicality witnesses.

Convention, fixed for the whole package and recorded in exported files:
``hbar = 1``, quadratures ``x = (a + a^dag)/sqrt(2)`` and
``p = -i (a - a^dag)/sqrt(2)``, Wigner function normalized so that
``int W dx dp = 1``.  The vacuum then has ``W(0,0) = 1/pi`` and covariance
``diag(1/2, 1/2)``, and every state obeys ``W >= -1/pi``.

The Wigner function ``W(x, p) = (1/pi) int <x+y|rho|x-y> e^{-2ipy} dy`` is
evaluated on a grid along one of two exact paths.  A state with coherences
takes the separable one: the 50:50 beam splitter turns each
``<x+y|m><n|x-y>`` into products of Hermite functions of ``sqrt2 x`` and
``sqrt2 y``, the Fourier transform in ``y`` maps each ``h_k`` onto itself,
so ``W = pi^{-1/2} h(sqrt2 x)^T M h(sqrt2 p)``, two matrix products:
O(dim^3 + dim (n_x + n_p) + n_x dim n_p).  A state without coherences is
radial, ``W = (1/pi) sum_m (-1)^m rho[m, m] e^{-r^2} L_m(2 r^2)`` (Cahill and
Glauber 1969), summed by Clenshaw's recurrence once per distinct radius of
the grid: O(dim) per radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .config import DEFAULT_THRESHOLDS, DEFAULT_TOLS, CategoryThresholds, Tolerances, _number
from .errors import _warn_truncation
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
_MAX_POINTS = 2**24  # 4096^2 points, whose grid file alone holds about 1 GB


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular evaluation grid in the ``(x, p)`` plane, of at most ``2**24`` points."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int
    n_p: int

    def __post_init__(self):
        # Extents are stored as floats and counts as ints, so that equal grids
        # have equal axes whatever number types built them.
        for f in fields(self):
            kind = int if f.name.startswith("n_") else float
            object.__setattr__(self, f.name, _number(getattr(self, f.name), f"grid {f.name}", kind))
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError(f"grid {self._box}: extents must satisfy max > min")
        if not math.isfinite(2.0 * self.radius_sq):
            raise ValueError(f"grid {self._box}: extents must be finite, with 2*(x^2+p^2) finite")
        if self.n_x < 2 or self.n_p < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.n_x * self.n_p > _MAX_POINTS:
            raise ValueError(f"grid {self._box}: {self.n_x} x {self.n_p} = {self.n_x * self.n_p} "
                             f"points, more than {_MAX_POINTS} (4096^2)")

    @classmethod
    def symmetric(cls, radius: float, points: int) -> "PhaseSpaceGrid":
        """Square grid ``[-radius, radius]^2`` with ``points`` per axis."""
        r = _number(radius, "grid radius")
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
    """Wigner values on a grid; ``values[i, j] = W(x_i, p_j)``.

    ``values`` must be a real numeric array of shape ``(n_x, n_p)``; anything
    else (complex, flat, of objects or of another size) is a ``ValueError``
    naming that shape.  The record holds these two and nothing else.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_x, self.grid.n_p)
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf" or values.shape != shape:
            raise ValueError(
                f"Wigner values must be a real array of shape {shape}, "
                f"got {values.dtype} values of shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

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


def _laguerre_sum(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Clenshaw sum ``sum_m coeffs[m] * L_m(z)``.

    The Laguerre polynomials obey
    ``L_{m+1} = ((2m + 1 - z) L_m - m L_{m-1}) / (m + 1)`` with ``L_0 = 1``.
    ``coeffs`` is real, and the three work arrays are updated in place.
    """
    b1 = np.zeros_like(z)
    b2 = np.zeros_like(z)
    step = np.empty_like(z)
    for m in range(len(coeffs) - 1, -1, -1):
        norm = m + 1.0
        np.subtract(2.0 * m + 1.0, z, out=step)
        step *= b1
        step /= norm
        b2 *= -norm / (m + 2.0)
        b2 += step
        b2 += coeffs[m]
        b1, b2 = b2, b1
    return b1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Geometry:
    """The state-independent part of the diagonal Wigner kernel on one grid.

    ``radii`` are the grid's distinct ``|beta|^2 = 2 (x^2 + p^2)`` in
    ascending order, ``where[i, j]`` the index of point ``(x_i, p_j)``
    among them and ``decay`` is ``e^{-radii/2}``.  Every array is read-only.
    """

    def __init__(self, grid: PhaseSpaceGrid):
        x, p = grid.x_axis[:, None], grid.p_axis[None, :]
        # radii are |beta|^2, with beta = 2*alpha and alpha = (x + i p)/sqrt(2)
        radii, where = np.unique((2.0 * (x * x + p * p)).ravel(), return_inverse=True)
        self.radii = _read_only(radii)
        self.where = _read_only(where.reshape(grid.n_x, grid.n_p))
        self.decay = _read_only(np.exp(-0.5 * radii))


# Grids kept by _cached_geometry, for the radial kernel and the grid writer:
# at most about 1 MB each at 201^2 (0.5 MB when the grid is centred on the
# origin, so that its radii repeat).
_GEOMETRIES = 8


@functools.lru_cache(maxsize=_GEOMETRIES)
def _cached_geometry(grid: PhaseSpaceGrid) -> _Geometry:
    return _Geometry(grid)


# Once a bound on the Hermite recurrence's mantissas passes this, they are scaled back to at most 1.
_RESCALE = 2.0**500


def _hermite_functions(s: np.ndarray, count: int) -> np.ndarray:
    """Rows ``h_0 .. h_{count-1}`` of the normalized Hermite functions at ``s``.

    ``h_{n+1} = sqrt(2/(n+1)) s h_n - sqrt(n/(n+1)) h_{n-1}`` runs on
    mantissas, with each point's power of two kept apart and started from
    ``log2 h_0 = -s^2 / (2 ln 2) - log2(pi) / 4``.  So a far point whose
    ``h_0`` underflows still reaches the higher functions that do not.  A
    bound on the mantissas grows by ``sqrt(2/(n+1)) max|s| + 1`` a step, and
    they are rescaled when it passes ``_RESCALE``; since ``|s| < 2^512`` on
    any valid grid, none overflows.
    """
    log2_h0 = s * s * (-0.5 / math.log(2.0)) - 0.25 * math.log2(math.pi)
    exps = np.maximum(np.floor(log2_h0), -(2.0**40)).astype(np.int64)
    cur = np.exp2(log2_h0 - exps)
    prev = np.zeros_like(s)
    out = np.empty((count, s.size))
    np.ldexp(cur, exps, out=out[0])
    reach, bound = float(np.max(np.abs(s))), 2.0
    for n in range(1, count):
        step = math.sqrt(2.0 / n)
        prev, cur = cur, step * s * cur - math.sqrt((n - 1.0) / n) * prev
        bound *= step * reach + 1.0
        if bound > _RESCALE:
            shift = np.maximum(np.frexp(cur)[1], 0)
            cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
            exps += shift
            bound = max(float(np.max(np.abs(cur))), float(np.max(np.abs(prev))), 1.0)
        np.ldexp(cur, exps, out=out[n])
    return out


def _separable_weights(rho: np.ndarray) -> np.ndarray:
    """The real ``(2d-1)^2`` matrix ``M`` of ``W = pi^{-1/2} h(sqrt2 x)^T M h(sqrt2 p)``.

    ``<x+y|m><n|x-y>`` is the two-mode Fock function ``h_m(x+y) h_n(x-y)``.
    The 50:50 beam splitter, a 45 degree turn of ``(x+y, x-y)``, takes it to
    ``sum_k B_N[m, k] h_{N-k}(sqrt2 x) h_k(sqrt2 y)`` with ``N = m + n``, and
    the Fourier transform in ``y`` turns ``h_k(sqrt2 y)`` into
    ``sqrt(pi) (-i)^k h_k(sqrt2 p)``.  So
    ``M[N-k, k] = Re((-i)^k sum_m rho[m, N-m] B_N[m, k])``.

    ``B_N`` is built level by level from both parents,
    ``B_{N+1}[m, k] = (sqrt(m) (sqrt(N+1-k) B_N[m-1, k] + sqrt(k) B_N[m-1, k-1])
    + sqrt(n) (sqrt(N+1-k) B_N[m, k] - sqrt(k) B_N[m, k-1])) / (sqrt2 (N+1))``
    with ``n = N+1-m``, which keeps the blocks orthogonal where either
    parent alone loses it.  Each level keeps only the rows ``m`` that ``rho``
    has at that ``N`` and is folded into ``M`` as it is made: O(d^3) work,
    O(d^2) memory.  ``rho[m, N-m]`` below the diagonal is read as the
    conjugate of its mirror, so only the upper triangle is read.
    """
    d = rho.shape[0]
    size = 2 * d - 1
    levels = np.zeros((size, d), dtype=complex)  # levels[N, m] = rho[m, N-m]
    rows = np.arange(d)[:, None]
    levels[rows + rows.T, rows] = np.triu(rho) + np.triu(rho, 1).conj().T
    parts = np.stack([levels.real, levels.imag], axis=1)
    folded = np.empty((size, 2, size))  # folded[N, :, k]: sum_m rho[m, N-m] B_N[m, k]
    root = np.sqrt(np.arange(size + 1.0))
    rev = root[::-1]  # rev[size - j] = sqrt(j)
    block = np.ones((1, 1))
    for n in range(size):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        np.matmul(parts[n, :, lo : hi + 1], block, out=folded[n, :, : n + 1])
        if n + 1 == size:
            break
        # B_N / (sqrt2 (N+1)) on rows lo-1 .. hi+1 and columns k = -1 .. N+1, zero-padded
        pad = np.zeros((hi - lo + 3, n + 3))
        np.multiply(block, 1.0 / (math.sqrt(2.0) * (n + 1)), out=pad[1:-1, 1:-1])
        # stay[., k] = sqrt(N+1-k) B_N[., k] and move[., k] = sqrt(k) B_N[., k-1], k = 0 .. N+1
        stay, move = rev[size - n - 1 :] * pad[:, 1:], root[: n + 2] * pad[:, :-1]
        new_lo, new_hi = max(0, n + 2 - d), min(n + 1, d - 1)
        # new row m reads padded row m-1 (its a parent) times sqrt(m), and row m
        # (its b parent) times sqrt(N+1-m)
        a, b = slice(new_lo - lo, new_hi - lo + 1), slice(new_lo - lo + 1, new_hi - lo + 2)
        block = root[new_lo : new_hi + 1, None] * (stay[a] + move[a])
        block += rev[size - n - 1 + new_lo : size - n + new_hi, None] * (stay[b] - move[b])
    # Re((-i)^k (re + i im)) is re, im, -re, -im as k = 0, 1, 2, 3 mod 4
    n, k = np.tril_indices(size)
    weights = np.zeros((size, size))
    weights[n - k, k] = np.where(k % 4 < 2, 1.0, -1.0) * folded[n, k % 2, k]
    return weights


def wigner(
    rho: np.ndarray, grid: PhaseSpaceGrid, tols: Tolerances = DEFAULT_TOLS
) -> WignerGrid:
    """Evaluate the Wigner function of a density matrix on a grid.

    Reads the diagonal and the upper triangle of ``rho``; entries of
    magnitude at most 1e-18 are dropped.

    A state with coherences is evaluated as
    ``W = pi^{-1/2} h(sqrt2 x)^T M h(sqrt2 p)``, with the Hermite functions
    ``h_0 .. h_{2d-2}`` on each axis and the ``(2d-1)^2`` matrix ``M`` from
    the 50:50 beam-splitter blocks: O(d^3 + d (n_x + n_p) + n_x d n_p),
    two matrix products.  A state without coherences needs only the radial
    sum ``sum_m (-1)^m rho[m, m] e^{-z/2} L_m(z)`` with ``z = 2 (x^2 + p^2)``,
    taken by Clenshaw's recurrence once per distinct radius: O(d) each.
    Its grid's geometry (the distinct radii and each point's index among
    them) is computed once per grid and kept for the last 8 grids used: at
    most about 1 MB each at 201^2, so at most about 8 MB.  Later states on a
    kept grid reuse it, and give the same bits as a first call;
    :func:`~qdetchar.fileio.write_wigner_grid` reads the same cache.

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
        _warn_truncation(
            f"grid reaches x^2+p^2 = {grid.radius_sq:.3g}, beyond the "
            f"resolvable region ~2*dim = {2 * d} of this truncation"
        )
    rho = np.where(np.abs(rho) > _NEGLIGIBLE, rho, 0.0)
    if np.any(np.triu(rho, 1)):
        hx = _hermite_functions(math.sqrt(2.0) * grid.x_axis, 2 * d - 1)
        square = (grid.x_min, grid.x_max, grid.n_x) == (grid.p_min, grid.p_max, grid.n_p)
        hp = hx if square else _hermite_functions(math.sqrt(2.0) * grid.p_axis, 2 * d - 1)
        values = (hx.T @ _separable_weights(rho)) @ hp / math.sqrt(np.pi)
    else:
        geo = _cached_geometry(grid)
        signs = np.where(np.arange(d) % 2, -1.0, 1.0)
        per_radius = geo.decay * _laguerre_sum(signs * rho.diagonal().real, geo.radii) / np.pi
        values = per_radius[geo.where]
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


def negativity_volume(wgrid: WignerGrid) -> float:
    """Doubled negative mass ``int |W| dx dp - int W dx dp``, Riemann-summed.

    Zero for non-negative Wigner functions.  Warns when ``|W|`` has not
    decayed below 1e-6 on the grid boundary, since the integral then misses
    weight outside the window.
    """
    edge = wgrid.boundary_max_abs()
    if edge > 1e-6:
        _warn_truncation(
            f"|W| reaches {edge:.3g} on the grid boundary; negativity volume "
            "may be truncated"
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
        _warn_truncation(
            f"mean photon number {nbar:.3g} is large for "
            f"truncation {d}; moments may be unreliable"
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
    for name, arr in (("mean", mean), ("cov", cov)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name}: non-finite entries")
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
    state = _square(state, "state")
    projectivity_value = _number(projectivity_value, "projectivity")
    mean, cov, heavy = _moments(state)
    minw = wgrid.min_value()
    negv = negativity_volume(wgrid)
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
