"""Retrodicted states, estimator metrics and Bayesian outcome inference.

Reading a measurement backwards: once outcome ``n`` has fired, the state
that best summarizes what must have entered the apparatus is the element
itself, normalized::

    retro_n = element_n / Tr(element_n)

Every figure of merit here is a functional of that state and the element's
trace weight:

projectivity
    Purity of the retrodicted state.  1 exactly when the element is
    proportional to a rank-one projector.
ideality
    ``Tr(element**2) / Tr(element)``, equal to projectivity times trace
    weight.  1 exactly when the element *is* a projector, i.e. the outcome
    fires with unit probability on its target.
fidelity
    Overlap of the retrodicted state with a pure target.
detectivity
    Probability that the outcome fires on a target state, computed here
    through the retrodicted state as ``Tr(element) * <target|retro|target>``
    so that it stays an independent route from the Born rule.

The identities ``ideality = projectivity * trace_weight`` and
``detectivity * projectivity = ideality * fidelity`` tie the four together
and are enforced as postconditions.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .config import DEFAULT_THRESHOLDS, DEFAULT_TOLS, CategoryThresholds, Tolerances, _number
from .detectors import Povm, PovmElement
from .errors import NullOutcomeError, UnreachableOutcomeError
from .fock import (
    _as_density, _frozen, _one_dim, _same_dim, _unit_ket, assert_density_matrix, check_dim, purity
)

__all__ = [
    "RetrodictedState",
    "OutcomeCategory",
    "EstimatorReport",
    "ProbeEntry",
    "ProbeEnsemble",
    "uniform_fock_ensemble",
    "born_probability",
    "retrodicted_state",
    "projectivity",
    "ideality",
    "fidelity",
    "detectivity",
    "proposition_operator",
    "retrodict_ensemble",
    "classify_outcome",
    "estimator_report",
    "estimator_identity_residuals",
]

# Largest residual of the two estimator identities that still counts as holding.
IDENTITY_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class RetrodictedState:
    """Normalized element of a measurement, read as a preparation.

    Built from the element alone: a :class:`PovmElement`, a matrix, or the
    element of another state.  ``trace_weight`` is ``Tr(element)`` and
    ``state`` is ``element / trace_weight``, derived here and never given,
    so neither can disagree with the element.  The state is read-only and
    checked as a density matrix under ``tols``; its least eigenvalue is the
    element's over the weight, which the check reads as a proven bound.  Raises
    :class:`NullOutcomeError` for a null element (see
    :meth:`~qdetchar.detectors.PovmElement.is_null`): a null outcome carries
    no retrodictive content.
    """

    element: PovmElement
    tols: InitVar[Tolerances] = DEFAULT_TOLS
    state: np.ndarray = field(init=False)
    trace_weight: float = field(init=False)

    def __post_init__(self, tols):
        el = _as_element(self.element)
        weight = el.trace_weight
        if el.is_null(tols):
            raise NullOutcomeError(
                f"outcome {el.label!r} has trace {weight:.3g}; nothing to retrodict"
            )
        rho = el.matrix / weight
        rho.setflags(write=False)
        assert_density_matrix(
            rho, tols, what=f"retrodicted state of {el.label!r}", least=el.spectrum[0] / weight
        )
        object.__setattr__(self, "element", el)
        object.__setattr__(self, "state", rho)
        object.__setattr__(self, "trace_weight", weight)


class OutcomeCategory(str, Enum):
    """Three-way taxonomy of measurement outcomes."""

    PROJECTIVE_IDEAL = "ProjectiveIdeal"
    PROJECTIVE_NON_IDEAL = "ProjectiveNonIdeal"
    NON_PROJECTIVE = "NonProjective"


@dataclass(frozen=True)
class EstimatorReport:
    """All scalar estimates for one outcome, plus its category.

    ``fidelity`` and ``detectivity`` are present only when a target state
    was supplied; ``target`` carries its label.
    """

    outcome_label: str
    projectivity: float
    ideality: float
    trace_weight: float
    category: OutcomeCategory
    target: Optional[str] = None
    fidelity: Optional[float] = None
    detectivity: Optional[float] = None


def _as_element(element) -> PovmElement:
    if isinstance(element, RetrodictedState):
        return element.element
    if isinstance(element, PovmElement):
        return element
    return PovmElement("element", element)


def born_probability(rho: np.ndarray, element, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Probability ``Tr(rho element)`` of the outcome firing on ``rho``.

    Accepts a ket or a density matrix of unit trace, to ``tols.norm``.
    Values are clamped into [0, 1]; anything outside
    ``[-tols.norm, 1 + tols.norm]`` signals invalid inputs and raises.
    """
    el = _as_element(element)
    rho = _as_density(rho, "state", tols)
    _same_dim("state", rho.shape[0], "element", el.dim)
    return _probability(float(np.real(np.einsum("ij,ji->", rho, el.matrix))), tols)


def _probability(val: float, tols: Tolerances) -> float:
    """``val`` clamped into [0, 1]; a ``ValueError`` beyond ``[-tols.norm, 1 + tols.norm]``."""
    if not -tols.norm <= val <= 1.0 + tols.norm:
        raise ValueError(f"probability {val!r} outside [0, 1]; inputs are not physical")
    return min(max(val, 0.0), 1.0)


def retrodicted_state(
    element, tols: Tolerances = DEFAULT_TOLS
) -> RetrodictedState:
    """The :class:`RetrodictedState` of an element; a state is returned as it is."""
    if isinstance(element, RetrodictedState):
        return element
    return RetrodictedState(element, tols)


def projectivity(retro: RetrodictedState) -> float:
    """Purity of the retrodicted state, in ``(1/dim, 1]``."""
    return purity(retro.state)


def ideality(element, tols: Tolerances = DEFAULT_TOLS) -> float:
    """``Tr(element**2) / Tr(element)``, in ``(0, 1]`` for physical elements."""
    el = _as_element(element)
    if el.is_null(tols):
        raise NullOutcomeError(f"outcome {el.label!r} has trace {el.trace_weight:.3g}")
    return purity(el.matrix) / el.trace_weight


def fidelity(retro: RetrodictedState, target: np.ndarray) -> float:
    """Overlap ``<target| retro |target>`` with a pure target, in [0, 1]."""
    target = _unit_ket(target, "target")
    _same_dim("target", target.size, "element", retro.element.dim)
    val = float(np.real(target.conj() @ retro.state @ target))
    return min(max(val, 0.0), 1.0)


def detectivity(element, target, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Probability that the outcome fires on the target state.

    Computed through the retrodicted state,
    ``Tr(element) * Tr(target retro)``, deliberately not through
    :func:`born_probability`; the two routes agreeing is a consistency
    check, not a tautology.  A density-matrix target must have unit trace,
    to ``tols.norm``, and the value is clamped or refused as
    :func:`born_probability`'s is.
    """
    retro = retrodicted_state(element, tols)
    rho_t = _as_density(target, "target", tols)
    _same_dim("target", rho_t.shape[0], "element", retro.element.dim)
    val = retro.trace_weight * float(np.real(np.einsum("ij,ji->", rho_t, retro.state)))
    return _probability(val, tols)


@dataclass(frozen=True, eq=False)
class ProbeEntry:
    """One hypothesis in a probe ensemble: a prior and a preparation."""

    prior: float
    state: np.ndarray
    label: str

    def __post_init__(self):
        p = _number(self.prior, "prior")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {p}")
        rho = _frozen(_as_density(self.state, f"probe entry {self.label!r}"))
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "state", rho)
        object.__setattr__(self, "label", str(self.label))

    @property
    def dim(self) -> int:
        return self.state.shape[0]


@dataclass(frozen=True, eq=False)
class ProbeEnsemble:
    """Prior-weighted family of candidate input states.

    Each entry must be a density matrix and the priors must sum to 1, both
    under ``tols``.
    """

    entries: tuple
    tols: Tolerances = DEFAULT_TOLS

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("ensemble needs at least one entry")
        _one_dim(entries, "entry")
        for i, e in enumerate(entries):
            assert_density_matrix(e.state, self.tols, what=f"entries[{i}]")
        total = sum(e.prior for e in entries)
        if abs(total - 1.0) > self.tols.norm:
            raise ValueError(f"priors sum to {total!r}, not 1")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries[0].dim

    @property
    def probe_state(self) -> np.ndarray:
        """Prior-averaged state ``sum_m prior_m rho_m``."""
        return sum(e.prior * e.state for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def uniform_fock_ensemble(dim: int) -> ProbeEnsemble:
    """Uniform priors over the number states ``|0..dim-1>``."""
    d = check_dim(dim)
    entries = []
    for m in range(d):
        rho = np.zeros((d, d), dtype=complex)
        rho[m, m] = 1.0
        entries.append(ProbeEntry(prior=1.0 / d, state=rho, label=str(m)))
    return ProbeEnsemble(tuple(entries))


def proposition_operator(entry: ProbeEntry) -> np.ndarray:
    """Operator ``dim * prior * rho`` answering "was the input this state?".

    Pairing it with a retrodicted state under the trace reproduces the
    Bayesian posterior exactly when the prior-averaged probe is maximally
    mixed; exposing both routes keeps that equivalence checkable instead of
    assumed.
    """
    return float(entry.dim) * entry.prior * entry.state


def retrodict_ensemble(
    povm: Povm,
    outcome_label: str,
    ensemble: ProbeEnsemble,
    tols: Tolerances = DEFAULT_TOLS,
):
    """Bayesian posterior over ensemble entries, given that one outcome fired.

    Returns ``[(label, posterior), ...]`` in ensemble order.  Raises
    :class:`UnreachableOutcomeError` when the outcome has (near-)zero
    probability under the prior-averaged probe state.
    """
    el = povm.outcome(outcome_label)
    _same_dim("ensemble", ensemble.dim, "measurement", povm.dim)
    likelihoods = [born_probability(e.state, el, tols) for e in ensemble]
    evidence = sum(l * e.prior for l, e in zip(likelihoods, ensemble))
    if evidence <= tols.trace_floor:
        raise UnreachableOutcomeError(
            f"outcome {outcome_label!r} has probability {evidence:.3g} "
            "under this ensemble"
        )
    return [
        (e.label, l * e.prior / evidence) for l, e in zip(likelihoods, ensemble)
    ]


def classify_outcome(
    projectivity_value: float,
    ideality_value: float,
    thresholds: CategoryThresholds = DEFAULT_THRESHOLDS,
) -> OutcomeCategory:
    """Sort an outcome into the three-category taxonomy.

    Projective and ideal when both estimates clear their thresholds;
    projective but non-ideal when only projectivity does; otherwise
    non-projective.
    """
    projectivity_value = _number(projectivity_value, "projectivity")
    ideality_value = _number(ideality_value, "ideality")
    if projectivity_value >= thresholds.projectivity_min:
        if ideality_value >= thresholds.ideality_min:
            return OutcomeCategory.PROJECTIVE_IDEAL
        return OutcomeCategory.PROJECTIVE_NON_IDEAL
    return OutcomeCategory.NON_PROJECTIVE


def estimator_identity_residuals(row: EstimatorReport):
    """The two estimator-identity residuals of a row; the second is ``None`` without a target."""
    weight_res = abs(row.ideality - row.projectivity * row.trace_weight)
    det_res = None
    if row.fidelity is not None and row.detectivity is not None:
        det_res = abs(row.detectivity * row.projectivity - row.ideality * row.fidelity)
    return weight_res, det_res


def _identity_problems(row: EstimatorReport) -> list:
    """``[]`` if each residual is at most ``IDENTITY_SLACK`` (NaN never is), else why not."""
    weight_res, det_res = estimator_identity_residuals(row)
    if weight_res <= IDENTITY_SLACK and (det_res is None or det_res <= IDENTITY_SLACK):
        return []
    shown = ", ".join(f"{r:.3g}" for r in (weight_res, det_res) if r is not None)
    return [f"breaks the estimator identities (residuals {shown})"]


def estimator_report(
    element,
    target: Optional[np.ndarray] = None,
    target_label: Optional[str] = None,
    thresholds: CategoryThresholds = DEFAULT_THRESHOLDS,
    tols: Tolerances = DEFAULT_TOLS,
) -> EstimatorReport:
    """Compute every estimator for one outcome and classify it.

    The two internal identities (ideality = projectivity * trace weight,
    and detectivity * projectivity = ideality * fidelity when a target is
    given) are verified to ``IDENTITY_SLACK`` before the report is returned.
    A target needs a ``target_label``, which the row stores to name it.
    """
    retro = retrodicted_state(element, tols)
    if target is not None and target_label is None:
        raise ValueError(f"outcome {retro.element.label!r}: a target needs a target_label")
    proj = projectivity(retro)
    ideal = ideality(retro.element, tols)
    fid = det = None
    if target is not None:
        fid = fidelity(retro, target)
        det = detectivity(retro, target, tols)
    row = EstimatorReport(
        outcome_label=retro.element.label,
        projectivity=proj,
        ideality=ideal,
        trace_weight=retro.trace_weight,
        category=classify_outcome(proj, ideal, thresholds),
        target=target_label if target is not None else None,
        fidelity=fid,
        detectivity=det,
    )
    broken = _identity_problems(row)
    if broken:
        raise RuntimeError(f"outcome {retro.element.label!r} {broken[0]}")
    return row
