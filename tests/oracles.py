"""Truth for the Wigner kernel, computed apart from qdetchar.

One reference per path of ``phasespace.wigner``:

- ``gaussian_wigner`` is the closed-form Wigner function of a displaced
  thermal state, a normal density from scipy; ``displaced_thermal`` is that
  state's number-basis matrix.  A coherent state is the case ``nbar = 0``.
  They are the truth for the path of states with coherences.
- ``fock_wigner`` is ``sum_n w_n ((-1)^n / pi) e^{-r^2} L_n(2 r^2)`` at 60
  digits in mpmath, rounded once: the truth for the radial path of states
  without coherences.
- ``hermite_function`` is ``h_n(s)`` at 60 digits, the truth for the
  Hermite table the separable path is built on.

Errors against them are stated in units of ``EPS``.
"""

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.stats import multivariate_normal

EPS = float(np.finfo(float).eps)


def gaussian_wigner(alpha: complex, nbar: float, x, p) -> np.ndarray:
    """``W(x_i, p_j)`` of the thermal state of mean photon number ``nbar`` displaced by ``alpha``.

    A normal density centred on ``sqrt(2) (Re alpha, Im alpha)`` with
    variance ``nbar + 1/2`` in each quadrature, in the package's convention.
    """
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    points = np.stack(np.broadcast_arrays(x[:, None], p[None, :]), axis=-1)
    centre = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return multivariate_normal(centre, (nbar + 0.5) * np.eye(2)).pdf(points)


def displaced_thermal(alpha: complex, nbar: float, dim: int, pad: int = 60) -> np.ndarray:
    """``D(alpha) rho_thermal D(alpha)^dag`` cut to ``dim`` levels.

    Built on ``dim + pad`` levels with scipy's ``expm``, so the kept block is
    exact to rounding; the caller picks ``dim`` where the cut tail is below
    ``EPS``.
    """
    n = dim + pad
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    shift = expm(alpha * a.conj().T - np.conj(alpha) * a)
    weights = (nbar / (nbar + 1.0)) ** np.arange(n) / (nbar + 1.0)
    rho = (shift * weights) @ shift.conj().T
    return rho[:dim, :dim]


def fock_wigner(weights, x: float, p: float, digits: int = 60) -> float:
    """``W(x, p)`` of ``sum_n weights[n] |n><n|``, summed at ``digits`` digits and rounded once."""
    with mpmath.workdps(digits):
        r2 = mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2
        total = mpmath.fsum(
            (-1) ** n * mpmath.mpf(w) * mpmath.laguerre(n, 0, 2 * r2)
            for n, w in enumerate(weights)
            if w
        )
        return float(total * mpmath.exp(-r2) / mpmath.pi)


def hermite_function(n: int, s: float, digits: int = 60) -> float:
    """``h_n(s) = H_n(s) e^{-s^2/2} / sqrt(2^n n! sqrt(pi))`` at ``digits`` digits, rounded once."""
    with mpmath.workdps(digits):
        s = mpmath.mpf(s)
        norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(n, s) * mpmath.exp(-s * s / 2) / norm)
