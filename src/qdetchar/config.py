"""Numeric tolerances and classification thresholds.

Every guard in the library reads its slack from a :class:`Tolerances` value so
that a single object controls the numerics end to end.  The CLI builds its
defaults through :meth:`Tolerances.from_env`, which honours ``QDETCHAR_*``
environment variables: one variable per field, named in the field's
``metadata["env"]``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

__all__ = ["Tolerances", "CategoryThresholds", "DEFAULT_TOLS", "DEFAULT_THRESHOLDS"]

ENV_PREFIX = "QDETCHAR_"


# The number each builtin kind accepts, and its name in a refusal.
_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    complex: (numbers.Complex, "a complex number"),
}


def _number(value, what: str, kind=float):
    """``value`` as a builtin ``kind``; a ``ValueError`` naming ``what`` unless it is a number.

    A ``numbers.Real`` (a ``numbers.Integral`` for ``int``, a ``numbers.Complex`` for
    ``complex``) is one, a bool never, and ``kind`` itself skips those slow ABC checks.  A
    real beyond the float range is an infinity.
    """
    rule, noun = _KINDS[kind]
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, rule)):
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        return kind(math.inf if value > 0 else -math.inf)


class _Settings:
    """The check and the environment reader shared by the settings dataclasses."""

    def __post_init__(self):
        # Every field is a slack or a cutoff: NaN, infinities and negatives are refused.
        for f in fields(self):
            what = f"{type(self).__name__}.{f.name}"
            value = _number(getattr(self, f.name), what)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{what} must be a finite, non-negative number, got {value!r}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_env(cls, environ=None):
        """Build defaults, then apply and check any ``QDETCHAR_*`` overrides."""
        environ = os.environ if environ is None else environ
        settings = cls()
        for f in fields(cls):
            name = ENV_PREFIX + f.metadata["env"]
            raw = environ.get(name)
            if raw is not None:
                try:
                    settings = replace(settings, **{f.name: float(raw)})
                except ValueError as exc:
                    raise ValueError(f"{name}={raw!r}: {exc}") from None
        return settings


@dataclass(frozen=True)
class Tolerances(_Settings):
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
        Outcomes with trace weight at or below this are null: they cannot be
        retrodicted and ``characterize`` skips them.  They are kept in place,
        never deleted, so outcome indices stay stable.
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

    herm: float = field(default=1e-10, metadata={"env": "HERM_TOL"})
    psd: float = field(default=1e-10, metadata={"env": "PSD_TOL"})
    norm: float = field(default=1e-9, metadata={"env": "NORM_TOL"})
    trace_floor: float = field(default=1e-12, metadata={"env": "TRACE_FLOOR"})
    completeness: float = field(default=1e-9, metadata={"env": "COMPLETENESS_TOL"})
    neg: float = field(default=1e-6, metadata={"env": "NEG_TOL"})
    squeeze: float = field(default=1e-6, metadata={"env": "SQUEEZE_TOL"})
    gauss: float = field(default=1e-3, metadata={"env": "GAUSS_TOL"})
    gauss_tail: float = field(default=1e-6, metadata={"env": "GAUSS_TAIL_TOL"})
    tail: float = field(default=1e-6, metadata={"env": "TAIL_TOL"})


@dataclass(frozen=True)
class CategoryThresholds(_Settings):
    """Cutoffs for sorting outcomes into the three-category taxonomy.

    An outcome is projective when its projectivity reaches
    ``projectivity_min``, and ideal when additionally its ideality reaches
    ``ideality_min``.  Both default to 0.99 and are meant to be adjusted per
    experiment.
    """

    projectivity_min: float = field(default=0.99, metadata={"env": "PROJECTIVITY_MIN"})
    ideality_min: float = field(default=0.99, metadata={"env": "IDEALITY_MIN"})


DEFAULT_TOLS = Tolerances()
DEFAULT_THRESHOLDS = CategoryThresholds()
