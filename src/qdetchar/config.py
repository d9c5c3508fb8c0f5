"""Numeric tolerances and classification thresholds.

Every guard in the library reads its slack from a :class:`Tolerances` value so
that a single object controls the numerics end to end.  The CLI builds its
defaults through :meth:`Tolerances.from_env`, which honours ``QDETCHAR_*``
environment variables (one variable per field, see ``_ENV_SUFFIX``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "QDETCHAR_"

# Environment variable suffix per field, e.g. QDETCHAR_HERM_TOL -> herm.
_ENV_SUFFIX = {
    "herm": "HERM_TOL",
    "psd": "PSD_TOL",
    "norm": "NORM_TOL",
    "trace_floor": "TRACE_FLOOR",
    "null_trace": "NULL_TRACE_TOL",
    "completeness": "COMPLETENESS_TOL",
    "neg": "NEG_TOL",
    "squeeze": "SQUEEZE_TOL",
    "gauss": "GAUSS_TOL",
    "gauss_tail": "GAUSS_TAIL_TOL",
    "tail": "TAIL_TOL",
}


def _env_overrides(cls, suffixes, environ):
    if environ is None:
        environ = os.environ
    updates = {}
    for f in fields(cls):
        name = ENV_PREFIX + suffixes[f.name]
        raw = environ.get(name)
        if raw is not None:
            try:
                updates[f.name] = float(raw)
            except ValueError:
                raise ValueError(f"{name}={raw!r} is not a number") from None
    return updates


def _require_finite(obj) -> None:
    """Reject NaN and infinite fields: every comparison against them is false."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(
                f"{type(obj).__name__}.{f.name} must be a finite number, got {value!r}"
            )


@dataclass(frozen=True)
class Tolerances:
    """Numeric slacks used by validators and witnesses.

    Attributes
    ----------
    herm : float
        Largest tolerated entry of ``m - m.conj().T`` before an operator is
        rejected as non-Hermitian.
    psd : float
        Slack on eigenvalues: each must sit in ``[-psd, 1 + psd]`` for a
        measurement element to count as physical.
    norm : float
        Slack on unit traces and unit vector norms.
    trace_floor : float
        Outcomes with trace weight at or below this cannot be retrodicted.
    null_trace : float
        Elements with trace below this are flagged as null outcomes.  They
        are kept in place, never deleted, so outcome indices stay stable.
    completeness : float
        Largest tolerated entry of ``sum(elements) - identity`` on the
        guarded subspace.
    neg : float
        Dead band for the Wigner-negativity witness.
    squeeze : float
        Dead band for the quadrature-squeezing witness.
    gauss : float
        Slack on the moment-matched overlap ratio of the Gaussianity check.
    gauss_tail : float
        Truncation-tail budget for the reconstructed Gaussian reference
        state; beyond it the Gaussianity verdict is Undetermined.
    tail : float
        Budget for ``lam ** (2 * dim)`` in two-mode squeezed-vacuum work;
        limit scans refuse squeezing parameters whose truncation tail
        exceeds it.
    """

    herm: float = 1e-10
    psd: float = 1e-10
    norm: float = 1e-9
    trace_floor: float = 1e-12
    null_trace: float = 1e-14
    completeness: float = 1e-9
    neg: float = 1e-6
    squeeze: float = 1e-6
    gauss: float = 1e-3
    gauss_tail: float = 1e-6
    tail: float = 1e-6

    def __post_init__(self):
        _require_finite(self)

    @classmethod
    def from_env(cls, environ=None) -> "Tolerances":
        """Build defaults, then apply any ``QDETCHAR_*`` overrides."""
        return replace(cls(), **_env_overrides(cls, _ENV_SUFFIX, environ))


_THRESHOLD_SUFFIX = {
    "projectivity_min": "PROJECTIVITY_MIN",
    "ideality_min": "IDEALITY_MIN",
}


@dataclass(frozen=True)
class CategoryThresholds:
    """Cutoffs for sorting outcomes into the three-category taxonomy.

    An outcome is projective when its projectivity reaches
    ``projectivity_min``, and ideal when additionally its ideality reaches
    ``ideality_min``.  Both default to 0.99 and are meant to be adjusted per
    experiment.
    """

    projectivity_min: float = 0.99
    ideality_min: float = 0.99

    def __post_init__(self):
        _require_finite(self)

    @classmethod
    def from_env(cls, environ=None) -> "CategoryThresholds":
        return replace(cls(), **_env_overrides(cls, _THRESHOLD_SUFFIX, environ))


DEFAULT_TOLS = Tolerances()
DEFAULT_THRESHOLDS = CategoryThresholds()
