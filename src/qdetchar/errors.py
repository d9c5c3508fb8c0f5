"""Exception and warning types shared across the package."""

from __future__ import annotations

import sys
import warnings

__all__ = [
    "QdetcharError",
    "NullOutcomeError",
    "UnreachableOutcomeError",
    "HeraldImpossibleError",
    "TailToleranceError",
    "PovmFormatError",
    "PovmValidationError",
    "ReportValidationError",
    "TruncationWarning",
]


class QdetcharError(Exception):
    """Base class for all package-specific errors."""


class NullOutcomeError(QdetcharError):
    """A measurement element has (near-)zero trace and cannot be retrodicted."""


class UnreachableOutcomeError(QdetcharError):
    """An outcome has (near-)zero probability under the given probe ensemble."""


class HeraldImpossibleError(QdetcharError):
    """Heralding probability vanished: the outcome cannot fire on this state."""


class TailToleranceError(QdetcharError):
    """Truncation tail exceeds budget; results at this squeezing are unreliable."""


class PovmFormatError(QdetcharError):
    """A measurement/ensemble/report file could not be parsed."""


class PovmValidationError(QdetcharError):
    """A parsed measurement failed physical validation.

    Carries the offending :class:`~qdetchar.detectors.PovmValidationReport`
    in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ReportValidationError(QdetcharError):
    """A characterization report failed its internal consistency identities."""


class TruncationWarning(UserWarning):
    """The Fock-space cutoff is likely too small for the requested object."""


def _warn_truncation(message: str) -> None:
    """A :class:`TruncationWarning` naming the first caller outside the calling module.

    The walk skips every frame that runs under the calling module's globals,
    a dataclass-generated ``__init__`` among them, so a warning raised however
    deep in a module points at the line that called into it.
    """
    frame, level = sys._getframe(1), 2
    module = frame.f_globals.get("__name__")
    while frame is not None and frame.f_globals.get("__name__") == module:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, TruncationWarning, stacklevel=level)
