"""Characterize quantum measurement devices from their POVM description.

The central move is retrodictive: each measurement element, normalized by
its trace, is the state the apparatus prepares "backwards in time" when
that outcome fires.  Everything in the package builds on that state:
scalar estimators and a three-way outcome taxonomy, phase-space
non-classicality and Gaussianity witnesses, Bayesian inference of the
input, and the simulation of heralded state preparation through two-mode
squeezed vacuum, whose strong-squeezing limit reproduces the conjugated
retrodicted state.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import config, detectors, errors, fileio, fock, herald, phasespace, retrodiction
from ._version import __version__
from .config import *
from .detectors import *
from .errors import *
from .fileio import *
from .fock import *
from .herald import *
from .phasespace import *
from .retrodiction import *

__all__ = ["__version__"]
__all__ += config.__all__
__all__ += errors.__all__
__all__ += fock.__all__
__all__ += detectors.__all__
__all__ += retrodiction.__all__
__all__ += phasespace.__all__
__all__ += herald.__all__
__all__ += fileio.__all__
