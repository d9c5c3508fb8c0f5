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
O(dim^3 + n_x dim n_p).  A state without coherences is radial,
``W = (1/pi) sum_m rho[m, m] ell_m(2 r^2)`` with the Laguerre functions
``ell_m(z) = (-1)^m e^{-z/2} L_m(z)`` (Cahill and Glauber 1969): one product
of the diagonal with a table of ``ell_m`` on the grid's distinct radii.

Neither path's tables depend on the state, and one process evaluates every
outcome of a measurement on one grid, so each table is built once and kept
in ``_TABLES`` under its builder and the arguments it was built from: the
grid's geometry and its Laguerre table for each dim, the beam-splitter
blocks ``B_N`` for each dim, and the Hermite rows for each axis and count.
Together they hold at most ``_TABLE_BYTES`` (64 MiB), least recently used
first out; every kept array is read-only.  A table past the budget is built
for its call and not kept, and a Laguerre table is then built and summed a
slice of radii at a time, so that no call holds more of it than the budget.
The Hermite and Laguerre tables run on mantissas with each point's power of
two kept apart, so they reach every point of a valid grid without overflow
or early underflow.
"""

from __future__ import annotations

import collections
import math
import threading
import typing
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


def _arrays(table) -> tuple:
    """The arrays of a kept table: the table itself, or the tuple it is."""
    return table if isinstance(table, tuple) else (table,)


class _Tables:
    """The kernel's tables, each kept under ``(build, *args)`` within ``budget`` bytes.

    ``get(build, *args)`` returns ``build(*args)``, built on the first call
    and kept for later ones, every array of it read-only.  The least recently
    used go first once the total passes the budget; a table larger than the
    whole budget is built for its call and not kept.  A lock covers each
    lookup and store but no build, so a call waits only on another's
    bookkeeping; two threads that miss the same key both build it, and the
    one stored first is kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._kept = collections.OrderedDict()
        self._lock = threading.Lock()

    def peek(self, build, *args):
        """The table kept under ``(build, *args)``, or ``None``; builds nothing."""
        with self._lock:
            return self._kept.get((build, *args))

    def get(self, build, *args):
        key = (build, *args)
        with self._lock:
            kept = self._kept.get(key)
            if kept is not None:
                self._kept.move_to_end(key)
                return kept
        table = build(*args)
        size = 0
        for a in _arrays(table):
            a.flags.writeable = False
            size += a.nbytes
        with self._lock:
            if size <= self.budget and key not in self._kept:
                self._kept[key] = table
                self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= sum(a.nbytes for a in _arrays(self._kept.popitem(last=False)[1]))
        return table

    def clear(self) -> None:
        with self._lock:
            self._kept.clear()
            self.nbytes = 0


# Bytes the kernel's tables may hold together.  At 201^2 a grid's geometry
# takes 0.38 MiB and its Laguerre table 0.07 MiB per level of dim, centred on
# the origin (0.62 and 0.31 MiB off centre); a 201-point axis's Hermite rows
# take 1.6 KiB per row.  The beam-splitter blocks take 1.65 MiB at dim 60 and
# 13.2 MiB at dim 120, so from dim 204 they are built for each call.
_TABLE_BYTES = 64 * 2**20
_TABLES = _Tables(_TABLE_BYTES)


# Once a bound on a recurrence's mantissas passes this, they are scaled back to at most 1.
_RESCALE = 2.0**500


def _scaled_rows(log2_first: np.ndarray, count: int, step, tied: bool) -> np.ndarray:
    """Rows ``f_0 .. f_{count-1}`` of a linear recurrence at each point.

    The recurrence carries ``f_n`` and a second variable ``g_n``, which
    starts at ``f_0`` if ``tied`` and at 0 otherwise; ``step(n, f_{n-1},
    g_{n-1})`` gives ``(growth, f_n, g_n)``, with ``growth`` a bound on how
    much a step can raise ``max(|f|, |g|)``.  It runs on mantissas, each
    point's power of two kept apart and started from ``log2 f_0``, so a far
    point whose ``f_0`` underflows still reaches the higher rows that do
    not; one whose ``log2 f_0`` is below ``-2^30`` starts, and stays, at
    zero.  A bound on the mantissas grows by ``growth`` a step, and once it
    passes ``_RESCALE`` they are scaled by each point's power of two of
    ``f_n``; none overflows while a step grows the nonzero ones by less
    than ``2^170``.
    """
    # C ints, for which ldexp has a loop about six times faster than for int64
    exps = np.maximum(np.floor(log2_first), -(2.0**30)).astype(np.intc)
    cur = np.exp2(log2_first - exps)
    other = cur.copy() if tied else np.zeros_like(cur)
    out = np.empty((count, cur.size))
    bound = 2.0
    for n in range(count):
        if n:
            growth, cur, other = step(n, cur, other)
            bound *= growth
            if bound > _RESCALE:
                shift = np.maximum(np.frexp(cur)[1], 0)
                cur, other = np.ldexp(cur, -shift), np.ldexp(other, -shift)
                exps += shift
                bound = max(float(np.max(np.abs(cur))), float(np.max(np.abs(other))), 1.0)
        np.ldexp(cur, exps, out=out[n])
    return out


def _hermite_functions(s: np.ndarray, count: int) -> np.ndarray:
    """Rows ``h_0 .. h_{count-1}`` of the normalized Hermite functions at ``s``.

    ``h_{n+1} = sqrt(2/(n+1)) s h_n - sqrt(n/(n+1)) h_{n-1}``, with
    ``h_{n-1}`` the second variable, started from
    ``log2 h_0 = -s^2 / (2 ln 2) - log2(pi) / 4``; it grows by at most
    ``sqrt(2/(n+1)) |s| + 1`` a step, below ``2^22`` wherever ``h_0`` does
    not start at zero.
    """
    reach = float(np.max(np.abs(s)))

    def step(n, cur, prev):
        a = math.sqrt(2.0 / n)
        return a * reach + 1.0, a * s * cur - math.sqrt((n - 1.0) / n) * prev, cur

    log2_h0 = s * s * (-0.5 / math.log(2.0)) - 0.25 * math.log2(math.pi)
    return _scaled_rows(log2_h0, count, step, tied=False)


def _laguerre_functions(z: np.ndarray, count: int) -> np.ndarray:
    """Rows ``ell_0 .. ell_{count-1}``, ``ell_m(z) = (-1)^m e^{-z/2} L_m(z)``, at ``z >= 0``.

    The Laguerre recurrence with the sign and decay folded in,
    ``ell_{m+1} = ((z - 2m - 1) ell_m - m ell_{m-1}) / (m + 1)``, has a
    double root near ``z = 0``, where its rounding errors add up as they run
    forward (97 eps of 1/pi for Fock |59> near the origin of a 121^2 grid).
    So it runs on ``ell_m`` and the difference ``g_m = ell_m + ell_{m-1}``
    (Reinsch's form, 3.4 eps there):
    ``g_{m+1} = (z ell_m - m g_m) / (m + 1)`` and ``ell_{m+1} = g_{m+1} - ell_m``,
    started from ``g_0 = ell_0`` and ``log2 ell_0 = -z / (2 ln 2)``; it grows
    by at most ``(z + 2m + 1) / (m + 1)`` a step, below ``2^42`` wherever
    ``ell_0`` does not start at zero.  A point past ``z`` of about
    ``1.5e12`` does, as its truth does in doubles at any dim a table can
    hold.
    """
    reach = float(np.max(z))

    def step(n, ell, diff):  # in place: both arrays are the recurrence's own
        diff *= 1.0 - n
        diff += z * ell
        diff /= n
        return (reach + 2.0 * n - 1.0) / n, np.subtract(diff, ell, out=ell), diff

    return _scaled_rows(z * (-0.5 / math.log(2.0)), count, step, tied=True)


class _Geometry(typing.NamedTuple):
    """The radii of one grid, which the diagonal Wigner kernel reads.

    ``radii`` are the grid's distinct ``z = |beta|^2 = 2 (x^2 + p^2)`` in
    ascending order and ``where[i, j]`` the index of point ``(x_i, p_j)``
    among them.
    """

    radii: np.ndarray
    where: np.ndarray


def _radii(grid: PhaseSpaceGrid) -> _Geometry:
    """The grid's :class:`_Geometry`, built afresh."""
    x, p = grid.x_axis[:, None], grid.p_axis[None, :]
    # radii are |beta|^2, with beta = 2*alpha and alpha = (x + i p)/sqrt(2)
    radii, where = np.unique((2.0 * (x * x + p * p)).ravel(), return_inverse=True)
    return _Geometry(radii, where.reshape(grid.n_x, grid.n_p))


def _kept_geometry(grid: PhaseSpaceGrid):
    """The grid's geometry if the kernel keeps one, else ``None``; builds nothing."""
    return _TABLES.peek(_radii, grid)


def _laguerre_table(grid: PhaseSpaceGrid, d: int) -> np.ndarray:
    """Rows ``ell_0 .. ell_{d-1}`` on the grid's distinct radii."""
    return _laguerre_functions(_TABLES.get(_radii, grid).radii, d)


def _radial_wigner(diag: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """``W = (1/pi) sum_m diag[m] ell_m(z)`` at every point of the grid.

    The grid's Laguerre table for the dim (:func:`_laguerre_table`) is kept
    while it fits the tables' budget and the grid's geometry is kept, which
    it is built from.  Otherwise the table is built and summed a slice of
    radii at a time, each slice's rows within the budget, and kept nowhere;
    its sums differ from the whole table's only in the order BLAS adds them
    (by under 1 eps of 1/pi), and not at all when one slice holds it.
    """
    d = diag.size
    geo = _TABLES.get(_radii, grid)
    radii = geo.radii
    if d * radii.nbytes <= _TABLES.budget and _kept_geometry(grid) is not None:
        per_radius = diag @ _TABLES.get(_laguerre_table, grid, d)
    else:
        per_radius = np.empty(radii.size)
        step = max(1, _TABLES.budget // (d * radii.itemsize))
        for lo in range(0, radii.size, step):
            per_radius[lo : lo + step] = diag @ _laguerre_functions(radii[lo : lo + step], d)
    per_radius /= np.pi
    return per_radius[geo.where]


def _hermite_rows(lo: float, hi: float, points: int, count: int) -> np.ndarray:
    """``h_0 .. h_{count-1}`` at ``sqrt2 * linspace(lo, hi, points)``."""
    return _hermite_functions(math.sqrt(2.0) * np.linspace(lo, hi, points), count)


def _beam_splitter_blocks(d: int) -> tuple:
    """Rows ``lo .. hi`` of every block ``B_N``, ``N < 2d - 1``, that a dim-``d`` state reads.

    ``B_N`` is built level by level from both parents,
    ``B_{N+1}[m, k] = (sqrt(m) (sqrt(N+1-k) B_N[m-1, k] + sqrt(k) B_N[m-1, k-1])
    + sqrt(n) (sqrt(N+1-k) B_N[m, k] - sqrt(k) B_N[m, k-1])) / (sqrt2 (N+1))``
    with ``n = N+1-m``, which keeps the blocks orthogonal where either
    parent alone loses it.  Each level keeps only the rows
    ``lo = max(0, N-d+1) .. hi = min(N, d-1)`` that a state has at that
    ``N``: O(d^3) work and memory.
    """
    size = 2 * d - 1
    root = np.sqrt(np.arange(size + 1.0))
    rev = root[::-1]  # rev[size - j] = sqrt(j)
    blocks = [np.ones((1, 1))]
    for n in range(size - 1):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        # B_N / (sqrt2 (N+1)) on rows lo-1 .. hi+1 and columns k = -1 .. N+1, zero-padded
        pad = np.zeros((hi - lo + 3, n + 3))
        np.multiply(blocks[-1], 1.0 / (math.sqrt(2.0) * (n + 1)), out=pad[1:-1, 1:-1])
        # stay[., k] = sqrt(N+1-k) B_N[., k] and move[., k] = sqrt(k) B_N[., k-1], k = 0 .. N+1
        stay, move = rev[size - n - 1 :] * pad[:, 1:], root[: n + 2] * pad[:, :-1]
        new_lo, new_hi = max(0, n + 2 - d), min(n + 1, d - 1)
        # new row m reads padded row m-1 (its a parent) times sqrt(m), and row m
        # (its b parent) times sqrt(N+1-m)
        a, b = slice(new_lo - lo, new_hi - lo + 1), slice(new_lo - lo + 1, new_hi - lo + 2)
        block = root[new_lo : new_hi + 1, None] * (stay[a] + move[a])
        block += rev[size - n - 1 + new_lo : size - n + new_hi, None] * (stay[b] - move[b])
        blocks.append(block)
    return tuple(blocks)


def _separable_weights(rho: np.ndarray) -> np.ndarray:
    """The real ``(2d-1)^2`` matrix ``M`` of ``W = pi^{-1/2} h(sqrt2 x)^T M h(sqrt2 p)``.

    ``<x+y|m><n|x-y>`` is the two-mode Fock function ``h_m(x+y) h_n(x-y)``.
    The 50:50 beam splitter, a 45 degree turn of ``(x+y, x-y)``, takes it to
    ``sum_k B_N[m, k] h_{N-k}(sqrt2 x) h_k(sqrt2 y)`` with ``N = m + n``, and
    the Fourier transform in ``y`` turns ``h_k(sqrt2 y)`` into
    ``sqrt(pi) (-i)^k h_k(sqrt2 p)``.  So
    ``M[N-k, k] = Re((-i)^k sum_m rho[m, N-m] B_N[m, k])``, one product per
    level with the dim's kept blocks (:func:`_beam_splitter_blocks`): O(d^3)
    work.  ``rho[m, N-m]`` below the diagonal is read as the conjugate of
    its mirror, so only the upper triangle is read.
    """
    d = rho.shape[0]
    size = 2 * d - 1
    levels = np.zeros((size, d), dtype=complex)  # levels[N, m] = rho[m, N-m]
    rows = np.arange(d)[:, None]
    levels[rows + rows.T, rows] = np.triu(rho) + np.triu(rho, 1).conj().T
    parts = np.stack([levels.real, levels.imag], axis=1)
    folded = np.empty((size, 2, size))  # folded[N, :, k]: sum_m rho[m, N-m] B_N[m, k]
    for n, block in enumerate(_TABLES.get(_beam_splitter_blocks, d)):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        np.matmul(parts[n, :, lo : hi + 1], block, out=folded[n, :, : n + 1])
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
    ``h_0 .. h_{2d-2}`` on each axis and the ``(2d-1)^2`` matrix ``M`` folded
    from the 50:50 beam-splitter blocks ``B_N``: O(d^3 + n_x d n_p), two
    matrix products.  A state without coherences is radial,
    ``W = (1/pi) sum_m rho[m, m] ell_m(z)`` with ``z = 2 (x^2 + p^2)`` and
    ``ell_m(z) = (-1)^m e^{-z/2} L_m(z)``: one product of the diagonal with
    the grid's Laguerre table, O(d) per distinct radius.

    None of these tables depends on the state, so each is built once and
    kept under the arguments it was built from: the grid's geometry (its
    distinct radii and each point's index among them) per grid, its
    Laguerre table per grid and dim, the blocks ``B_N`` per dim and the
    Hermite rows per axis and count.  Together they hold at most 64 MiB, the
    least recently used going first; one larger than that is built for its
    call alone, and a Laguerre table a slice of radii at a time, each slice
    within 64 MiB.  Every table is read-only, and a state gives the same bits
    on a kept table as on a fresh one.
    :func:`~qdetchar.fileio.write_wigner_grid` reads the kept geometry and
    builds none.

    Warns when the grid reaches further than the truncated basis can
    represent (``radius**2 > 2 * dim``).  Every valid grid is evaluated:
    each table runs on mantissas with a power of two per point kept apart,
    so far points read the zeros, or the small values, of the truth.
    Raises if ``rho`` has an entry that is not finite, or fewer than two
    levels (as :func:`check_dim`); if a value is not finite or breaks the
    quantum bound ``W >= -1/pi`` beyond ``tols.neg``, which indicates the
    input was not a valid state.
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
        hx = _TABLES.get(_hermite_rows, grid.x_min, grid.x_max, grid.n_x, 2 * d - 1)
        hp = _TABLES.get(_hermite_rows, grid.p_min, grid.p_max, grid.n_p, 2 * d - 1)
        values = (hx.T @ _separable_weights(rho)) @ hp / math.sqrt(np.pi)
    else:
        values = _radial_wigner(rho.diagonal().real, grid)
    if not np.isfinite(values).all():
        raise ValueError(f"Wigner values at dim {d} overflow; input is not a valid state")
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
