"""POVM containers, canonical detector models and physical validation.

A measurement is a :class:`Povm`: a tuple of labelled Hermitian,
positive-semidefinite elements that sum to the identity on the trusted part
of the truncated space.  ``guard_levels`` marks how many top Fock levels are
excluded from the completeness check; truncated models of real devices are
usually complete everywhere (guard 0), while measurements loaded from
outside default to guarding the top fifth of the space, where truncation
artifacts accumulate.

The constructors in this module cover the three canonical kinds of device:

* photon-number resolving counters, ideal (:func:`ideal_pnr`) and with
  binomial loss (:func:`lossy_pnr`);
* binary click detectors with efficiency and dark counts
  (:func:`on_off_apd`);
* single-outcome projective elements with sub-unit weight
  (:func:`scaled_projector`), completed by :func:`complete_with_rest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .errors import PovmValidationError
from .fock import (
    _frozen, _is_diagonal, _one_dim, _spectrum, _square, _unit_ket, check_dim, eig_hermitian,
    hermiticity_defect,
)

__all__ = [
    "PovmElement",
    "Povm",
    "PovmValidationReport",
    "default_guard_levels",
    "ideal_pnr",
    "lossy_pnr",
    "on_off_apd",
    "scaled_projector",
    "complete_with_rest",
    "validate_povm",
    "require_valid",
]


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One labelled outcome of a measurement.

    The matrix is stored read-only.  It is kept without a copy when it is a
    C-contiguous complex128 array read-only down its whole ``.base`` chain,
    and copied otherwise, so that no write through the caller's array reaches
    the element.  A canonical model's element is a view of the model's one
    block and keeps it alive: ``lossy_pnr(0.5, 200).outcome("3")`` holds
    128 MB, not 640 KB.  Shape and finiteness are enforced here, for every
    caller but one: a canonical model's elements are made by
    :meth:`_of_block_row` from a weight matrix :func:`_diagonal_povm` has
    already checked.  The physics (Hermiticity, positivity, boundedness) is
    checked by :func:`validate_povm` so that defective elements can still be
    loaded, reported on, and rejected with context.
    """

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen(_square(self.matrix, f"element {self.label!r}"))
        check_dim(arr.shape[0])
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def _of_block_row(cls, label: str, row: np.ndarray) -> PovmElement:
        """An element holding ``row``, a read-only view of a frozen block whose
        entries are known finite, as it is: no second scan of its matrix."""
        el = object.__new__(cls)
        object.__setattr__(el, "label", label)
        object.__setattr__(el, "matrix", row)
        return el

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part, solved once and read-only."""
        w = _spectrum(self.matrix)
        w.setflags(write=False)
        return w

    @property
    def trace_weight(self) -> float:
        """``Tr(element)``, the outcome's total detection weight."""
        return float(np.real(np.trace(self.matrix)))

    def is_null(self, tols: Tolerances = DEFAULT_TOLS) -> bool:
        """The one null rule: trace at or below ``tols.trace_floor``."""
        return self.trace_weight <= tols.trace_floor


@dataclass(frozen=True, eq=False)
class Povm:
    """A labelled measurement on one truncated mode."""

    elements: tuple
    guard_levels: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("a measurement needs at least one outcome")
        dim = _one_dim(elements, "outcome")
        guard = _number(self.guard_levels, "guard_levels", int)
        if not 0 <= guard < dim:
            raise ValueError(f"guard_levels {guard} outside 0..{dim - 1}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "guard_levels", guard)
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def labels(self) -> tuple:
        return tuple(e.label for e in self.elements)

    @cached_property
    def weights(self):
        """``P[k, m] = <m|E_k|m>``, outcomes by levels, read-only; ``None`` unless every
        element is real and diagonal.

        An element counts as diagonal when no off-diagonal entry is non-zero, the
        test :func:`~qdetchar.fock._spectrum` reads its eigenvalues by, and as real
        when no diagonal entry has an imaginary part.  Built on first read from
        each element's diagonal.
        """
        p = np.empty((len(self.elements), self.dim))
        for row, e in zip(p, self.elements):
            diag = np.diagonal(e.matrix)
            if not _is_diagonal(e.matrix) or diag.imag.any():
                return None
            row[:] = diag.real
        p.setflags(write=False)
        return p

    def outcome(self, label: str) -> PovmElement:
        for e in self.elements:
            if e.label == label:
                return e
        raise KeyError(f"no outcome labelled {label!r}; have {list(self.labels)}")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def default_guard_levels(dim: int) -> int:
    """Guard the top fifth of the space (rounded up) for loaded measurements."""
    return -(-check_dim(dim) // 5)


def _diagonal_povm(labels, weights: np.ndarray) -> Povm:
    """Diagonal elements from the rows of ``weights``, each a view of one frozen block.

    ``weights`` is checked once, in O(k d): a ``(k, d)`` matrix, ``d`` a
    valid dim and every weight finite (a ``ValueError`` otherwise).  Each
    element then holds its row of the block as it is, without the dense
    square-and-finite scan of ``PovmElement``.
    """
    if weights.ndim != 2:
        raise ValueError(f"weights: expected a matrix, got shape {weights.shape}")
    k, d = weights.shape
    check_dim(d)
    if not np.isfinite(weights).all():
        raise ValueError("weights: non-finite entries")
    block = np.zeros((k, d, d), dtype=complex)
    block.reshape(k, d * d)[:, :: d + 1] = weights
    block.setflags(write=False)
    return Povm(tuple(map(PovmElement._of_block_row, labels, block)), guard_levels=0)


def _loss_powers(eta: float, d: int) -> np.ndarray:
    """``(1 - eta)**k`` for ``k = 0 .. d-1``, each within about one ulp whatever ``k``.

    ``1.0 - eta`` is exact for ``eta >= 0.5`` (Sterbenz's lemma) but rounded
    below, and the k-th power of a base with relative error ``r`` has error
    ``k r``.  So the base is two terms: ``hi = fl(1 - eta)`` and ``lo``, its
    exact rounding error (Fast2Sum, as ``1 >= eta``), and each power becomes
    ``hi**k (1 + k lo / hi)``, whose dropped terms are of order ``(k lo / hi)**2``,
    below ``k**2 * 1e-32``.  Each ``hi**k`` is Python's ``**`` (libm's ``pow``, not
    numpy's SIMD one), and is the power itself, bit for bit, where ``lo`` is 0.
    """
    hi = 1.0 - eta
    lo = (1.0 - hi) - eta
    powers = np.array([hi**k for k in range(d)])
    if lo:
        powers += powers * (np.arange(d) * (lo / hi))
    return powers


def ideal_pnr(dim: int) -> Povm:
    """Perfect photon-number resolving detector: projectors ``|n><n|``."""
    d = check_dim(dim)
    return _diagonal_povm([str(n) for n in range(d)], np.eye(d))


def lossy_pnr(eta: float, dim: int) -> Povm:
    """Number-resolving detector preceded by transmission ``eta``.

    Each count outcome ``n`` collects binomial thinning from every input
    level ``m >= n``::

        <m| element_n |m> = C(m, n) eta**n (1 - eta)**(m - n)

    The outcomes stay diagonal and sum to the identity on every level by the
    binomial theorem.  ``eta = 0`` degenerates to a single all-pass outcome
    0 with the rest null (they are kept, flagged, and never deleted).
    """
    d = check_dim(dim)
    eta = _number(eta, "efficiency")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    # Exact binomials C(m, n), m = n..d-1: by the hockey-stick identity each
    # row is the running sum of the one before.  Every weight precedes the block.
    loss = _loss_powers(eta, d)
    weights = np.zeros((d, d))
    row = np.ones(d, dtype=object)
    for n in range(d):
        try:
            weights[n, n:] = row.astype(float) * eta**n * loss[: d - n]
        except OverflowError:
            raise ValueError(
                f"dim {d}: binomial weight C({d - 1}, {n}) overflows a float"
            ) from None
        row = np.cumsum(row[:-1])
    return _diagonal_povm([str(n) for n in range(d)], weights)


def on_off_apd(eta: float, nu: float, dim: int) -> Povm:
    """Binary click detector with efficiency ``eta`` and dark-count rate ``nu``.

    The no-click element is ``(1 - nu) sum_n (1 - eta)**n |n><n|`` and the
    click element is its complement to the identity.
    """
    d = check_dim(dim)
    eta = _number(eta, "efficiency")
    nu = _number(nu, "dark-count rate")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"dark-count rate must lie in [0, 1], got {nu}")
    off = (1.0 - nu) * _loss_powers(eta, d)
    return _diagonal_povm(["off", "on"], np.array([off, 1.0 - off]))


def scaled_projector(psi: np.ndarray, zeta: float, label: str = "hit") -> PovmElement:
    """Rank-one element ``zeta |psi><psi|`` with weight ``zeta`` in (0, 1].

    This is the canonical projective-but-non-ideal outcome: fully pure in
    retrodiction yet detecting its target only a fraction ``zeta`` of the
    time.
    """
    zeta = _number(zeta, "weight")
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"weight must lie in (0, 1], got {zeta}")
    psi = _unit_ket(psi, "target")
    return PovmElement(label, zeta * np.outer(psi, psi.conj()))


def complete_with_rest(elements, tols: Tolerances = DEFAULT_TOLS) -> Povm:
    """Append the complement-to-identity outcome ``rest`` to a partial element list.

    The partial sum must not exceed the identity: if the complement has an
    eigenvalue below ``-tols.psd`` the request is rejected.  Roundoff-level
    negative eigenvalues are clipped to zero so the completed measurement
    validates cleanly.
    """
    partial = Povm(elements)
    w, v = eig_hermitian(np.eye(partial.dim) - sum(e.matrix for e in partial))
    if w[0] < -tols.psd:
        raise ValueError(
            f"elements exceed the identity: complement eigenvalue {w[0]:.3g}"
        )
    rest = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return Povm(partial.elements + (PovmElement("rest", rest),), guard_levels=0)


@dataclass(frozen=True)
class ElementValidation:
    """Per-element physical checks, as measured (not merely pass/fail)."""

    label: str
    hermiticity_defect: float
    min_eigenvalue: float
    max_eigenvalue: float
    is_null: bool
    passed: bool


@dataclass(frozen=True)
class PovmValidationReport:
    """Outcome of :func:`validate_povm`.

    ``completeness_residual`` is the largest entry of
    ``|sum(elements) - identity|`` over the first ``checked_levels`` levels.
    """

    elements: tuple
    completeness_residual: float
    checked_levels: int
    passed: bool

    def summary(self) -> str:
        lines = []
        for ev in self.elements:
            status = "ok" if ev.passed else "FAIL"
            null = ", null" if ev.is_null else ""
            lines.append(
                f"  [{status}] {ev.label!r}: herm defect {ev.hermiticity_defect:.2e}, "
                f"eigenvalues in [{ev.min_eigenvalue:.3g}, {ev.max_eigenvalue:.3g}]{null}"
            )
        lines.append(
            f"  completeness residual {self.completeness_residual:.3g} "
            f"on levels 0..{self.checked_levels - 1}"
        )
        return "\n".join(lines)


@np.errstate(over="ignore", invalid="ignore")
def validate_povm(povm: Povm, tols: Tolerances = DEFAULT_TOLS) -> PovmValidationReport:
    """Check Hermiticity, positivity, boundedness and completeness.

    Completeness is enforced only on the unguarded levels
    ``0 .. dim - guard_levels - 1``; the guarded top of the space is where a
    truncated description of a real device is allowed to leak.  An entry
    near the float limit overflows, without a warning, to an infinite or NaN
    defect, eigenvalue or residual, and so fails its check.

    A POVM with :attr:`Povm.weights` is checked from them in one pass
    (:func:`_checks_from_weights`), and gets the report the element-by-element
    loop gives, bit for bit; other POVMs, and any whose weights hold a row
    with zeros of both signs, take that loop (:func:`_checks_by_element`).
    """
    checked = povm.dim - povm.guard_levels
    reports, ok, residual = (
        _checks_from_weights(povm, checked, tols) or _checks_by_element(povm, checked, tols)
    )
    return PovmValidationReport(
        elements=tuple(reports),
        completeness_residual=residual,
        checked_levels=checked,
        passed=ok and residual <= tols.completeness,
    )


def _checks_by_element(povm: Povm, checked: int, tols: Tolerances):
    """``(reports, ok, residual)``: each element's defect and spectrum, and the
    completeness residual of their running sum."""
    d = povm.dim
    total = np.zeros((d, d), dtype=complex)
    reports = []
    ok = True
    for e in povm:
        defect = hermiticity_defect(e.matrix)
        w = e.spectrum
        passed = (
            defect <= tols.herm
            and w[0] >= -tols.psd
            and w[-1] <= 1.0 + tols.psd
        )
        ok = ok and passed
        reports.append(
            ElementValidation(
                label=e.label,
                hermiticity_defect=defect,
                min_eigenvalue=float(w[0]),
                max_eigenvalue=float(w[-1]),
                is_null=e.is_null(tols),
                passed=passed,
            )
        )
        total = total + e.matrix
    block = total[:checked, :checked] - np.eye(checked)
    return reports, ok, float(np.max(np.abs(block)))


def _checks_from_weights(povm: Povm, checked: int, tols: Tolerances):
    """:func:`_checks_by_element`'s ``(reports, ok, residual)``, read off ``povm.weights``.

    Each element is real and diagonal, so its Hermiticity defect is 0.0 (every
    entry is finite) and its spectrum is its row of ``0.5 * (P + P)``, as
    :func:`~qdetchar.fock._spectrum` reads a diagonal: the least and largest
    entries are the ends of the sorted row.  The diagonal of the running sum
    is the sum of the rows in order, from zeros, and its other entries are
    zeros.  ``None`` when the POVM has no weights or a row holds zeros of both
    signs, whose spectrum ``_spectrum`` leaves to ``eigvalsh``.  No element's
    spectrum is solved.
    """
    p = povm.weights
    if p is None:
        return None
    w = 0.5 * (p + p)
    zero = w == 0.0
    negative = zero & np.signbit(w)
    if (negative.any(axis=1) & (zero & ~negative).any(axis=1)).any():
        return None
    least, largest = w.min(axis=1), w.max(axis=1)
    fits = (least >= -tols.psd) & (largest <= 1.0 + tols.psd)
    reports = []
    ok = True
    for e, lo, hi, within in zip(povm, least.tolist(), largest.tolist(), fits):
        passed = 0.0 <= tols.herm and within  # a numpy bool, as the loop's is
        ok = ok and passed
        reports.append(ElementValidation(e.label, 0.0, lo, hi, e.is_null(tols), passed))
    total = np.zeros(povm.dim)
    for row in p:
        total += row
    return reports, ok, float(np.max(np.abs(total[:checked] - 1.0)))


def require_valid(povm: Povm, tols: Tolerances = DEFAULT_TOLS) -> PovmValidationReport:
    """Validate and raise :class:`PovmValidationError` on failure."""
    report = validate_povm(povm, tols)
    if not report.passed:
        raise PovmValidationError(
            "measurement failed validation:\n" + report.summary(), report=report
        )
    return report
