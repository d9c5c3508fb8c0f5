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
    _frozen, _one_dim, _spectrum, _square, _unit_ket, check_dim, eig_hermitian,
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
    128 MB, not 640 KB.  Shape and finiteness are enforced here; the physics
    (Hermiticity, positivity, boundedness) is checked by :func:`validate_povm`
    so that defective elements can still be loaded, reported on, and rejected
    with context.
    """

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen(_square(self.matrix, f"element {self.label!r}"))
        check_dim(arr.shape[0])
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "matrix", arr)

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


def _diagonal_povm(labels, diagonals) -> Povm:
    """Diagonal elements from the rows of ``diagonals``, each a view of one frozen block."""
    k, d = diagonals.shape
    block = np.zeros((k, d, d), dtype=complex)
    block.reshape(k, d * d)[:, :: d + 1] = diagonals
    block.setflags(write=False)
    return Povm(tuple(map(PovmElement, labels, block)), guard_levels=0)


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
    loss = np.array([(1.0 - eta) ** k for k in range(d)])
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
    off = (1.0 - nu) * (1.0 - eta) ** np.arange(d)
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
    """
    d = povm.dim
    checked = d - povm.guard_levels
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
    residual = float(np.max(np.abs(block)))
    ok = ok and residual <= tols.completeness
    return PovmValidationReport(
        elements=tuple(reports),
        completeness_residual=residual,
        checked_levels=checked,
        passed=ok,
    )


def require_valid(povm: Povm, tols: Tolerances = DEFAULT_TOLS) -> PovmValidationReport:
    """Validate and raise :class:`PovmValidationError` on failure."""
    report = validate_povm(povm, tols)
    if not report.passed:
        raise PovmValidationError(
            "measurement failed validation:\n" + report.summary(), report=report
        )
    return report
