"""Truth for the Wigner kernel, computed apart from qdetchar.

One reference per path of ``phasespace.wigner``:

- ``gaussian_wigner`` is the closed-form Wigner function of a displaced
  thermal state, a normal density from scipy; ``displaced_thermal`` is that
  state's number-basis matrix.  A coherent state is the case ``nbar = 0``.
  They are the truth for the path of states with coherences.
- ``fock_wigner`` is ``sum_n w_n ((-1)^n / pi) e^{-r^2} L_n(2 r^2)`` at 60
  digits in mpmath, rounded once: the truth for the radial path of states
  without coherences.
- ``lossy_pnr_wigner`` is the Wigner function of lossy PNR outcome ``n``'s
  retrodicted state in the untruncated basis, a closed form at 60 digits.
- ``laguerre_function`` is ``ell_m(z) = (-1)^m e^{-z/2} L_m(z)`` at 60
  digits, the truth for the Laguerre table the radial path is built on.
- ``hermite_function`` is ``h_n(s)`` at 60 digits, the truth for the
  Hermite table the separable path is built on.

And one for ``herald.retrodictive_limit_scan``, whose fidelity is a closed
form in the element's diagonal:

- ``uhlmann_fidelity`` is ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2`` by two
  Hermitian eigendecompositions in numpy; on nearly singular states its
  matrix root loses about half the digits.
- ``scan_fidelity`` is the same eigen route at 50 digits in mpmath, on the
  heralded state and its limit built there from the element, rounded once.

And one for ``herald.heralded_closed_form``:

- ``heralded_state`` is ``Tr_B{|psi><psi| (1_A (x) E)}`` of the truncated
  two-mode squeezed ket at 50 digits in mpmath, contracted entry by entry
  over the ket's amplitudes, apart from the ``Lam Ebar Lam`` form.

And one for ``detectors.lossy_pnr``:

- ``lossy_pnr_weight`` is the binomial weight ``C(m, n) eta^n (1 -
  eta)^(m - n)`` in exact rationals from the given double ``eta``, rounded
  once.

And two for the estimators of a diagonal POVM (``retrodiction``):

- ``diagonal_estimators`` is the trace weight, projectivity ``sum p^2 /
  (sum p)^2``, ideality ``sum p^2 / sum p`` and, for a ket, fidelity and
  detectivity of an element with diagonal ``p``, in exact rationals and
  rounded once; ``lossy_pnr_estimators`` takes ``p`` from the exact
  weights of ``lossy_pnr_weight``, unrounded.
- ``untruncated_lossy_pnr_projectivity`` is outcome ``n``'s projectivity
  over every level, ``eta^(2n+2) 2F1(n+1, n+1; 1; (1-eta)^2)``, at 50
  digits; its ideality is that over ``eta``, since ``Tr E_n = 1 / eta``.

Errors against them are stated in units of ``EPS``, or of the ulp of the
truth where it spans many decades.
"""

import math
from fractions import Fraction

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


def lossy_pnr_wigner(eta: float, n: int, x: float, p: float, digits: int = 60) -> float:
    """``W(x, p)`` of outcome ``n`` of lossy PNR at efficiency ``eta``, untruncated.

    The retrodicted state is ``E_n / Tr E_n`` with ``<m|E_n|m> = C(m, n)
    eta^n (1 - eta)^(m - n)`` and ``Tr E_n = 1 / eta``, whose Wigner function
    is ``((-1)^n / pi) (eta / (2 - eta))^(n+1) e^{-eta r^2 / (2 - eta)}
    L_n(2 r^2 / (2 - eta))`` with ``r^2 = x^2 + p^2``; rounded once.
    """
    with mpmath.workdps(digits):
        eta = mpmath.mpf(eta)
        r2 = mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2
        scale = 2 - eta
        total = (eta / scale) ** (n + 1) * mpmath.exp(-eta * r2 / scale) * mpmath.laguerre(n, 0, 2 * r2 / scale)
        return float((-1) ** n * total / mpmath.pi)


def laguerre_function(m: int, z: float, digits: int = 60) -> float:
    """``ell_m(z) = (-1)^m e^{-z/2} L_m(z)`` at ``digits`` digits, rounded once."""
    with mpmath.workdps(digits):
        z = mpmath.mpf(z)
        return float((-1) ** m * mpmath.laguerre(m, 0, z) * mpmath.exp(-z / 2))


def hermite_function(n: int, s: float, digits: int = 60) -> float:
    """``h_n(s) = H_n(s) e^{-s^2/2} / sqrt(2^n n! sqrt(pi))`` at ``digits`` digits, rounded once."""
    with mpmath.workdps(digits):
        s = mpmath.mpf(s)
        norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(n, s) * mpmath.exp(-s * s / 2) / norm)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian positive semidefinite matrix, negative eigenvalues clipped."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` between two states.

    The squared convention: for a pure ``sigma = |psi><psi|`` it is
    ``<psi| rho |psi>``.  Clamped into [0, 1].
    """
    root = _psd_sqrt(rho)
    w = np.linalg.eigvalsh(root @ np.asarray(sigma, dtype=complex) @ root)
    val = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(val, 0.0), 1.0)


def scan_fidelity(element, lam: float, digits: int = 50) -> float:
    """The fidelity of the state heralded by ``element`` at ``lam`` to its limit, in mpmath.

    ``rho = Lam Ebar Lam / Tr(...)`` and ``sigma = Ebar / Tr Ebar``, with
    ``Ebar`` the Hermitian part of ``conj(element)`` and ``Lam = diag(lam^n)``,
    are built from the given floats at ``digits`` digits, and
    ``uhlmann_fidelity`` is taken there by two eigendecompositions, then
    rounded once.  The Hermitian part is taken first because a root is not
    Lipschitz at 0: an asymmetry of 1e-17 in a float element moves the root
    of a nearly singular ``rho`` by about 3e-9.
    """
    with mpmath.workdps(digits):
        ebar = mpmath.matrix(np.conj(np.asarray(element, dtype=complex)).tolist())
        ebar = (ebar + ebar.H) / 2
        d = ebar.rows
        lam_n = mpmath.diag([mpmath.mpf(lam) ** n for n in range(d)])
        rho = lam_n * ebar * lam_n
        rho /= sum(rho[n, n] for n in range(d))
        sigma = ebar / sum(ebar[n, n] for n in range(d))

        def root(m):
            w, v = mpmath.eighe(m)
            return v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H

        r = root(rho)
        w, _ = mpmath.eighe(r * sigma * r)
        return float(mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in w) ** 2)


def heralded_state(element, lam: float, digits: int = 50):
    """The state heralded by ``element`` on mode B of a TMSV, and its probability, in mpmath.

    The joint ket ``psi = sqrt(1 - lam^2) sum_{n < d} lam^n |n, n>`` keeps the
    untruncated normalization, as the closed form's success probability does.
    Mode A's unnormalized state is the partial trace ``sum_kl psi[i, k]
    E[l, k] conj(psi[j, l])`` over the ket's non-zero amplitudes; its trace is
    the success probability.  Returns the Hermitian part of the normalized
    state, as a complex array, and the probability, each rounded once.
    """
    e = np.asarray(element, dtype=complex)
    d = e.shape[0]
    with mpmath.workdps(digits):
        lam = mpmath.mpf(lam)
        norm = mpmath.sqrt(1 - lam**2)
        amps = [((n, n), norm * lam**n) for n in range(d)]  # psi[i, k], A index first
        emp = [[mpmath.mpc(complex(x)) for x in row] for row in e]
        unnorm = mpmath.zeros(d, d)
        for (i, k), a in amps:
            for (j, l), b in amps:
                unnorm[i, j] += a * emp[l][k] * mpmath.conj(b)
        prob = mpmath.re(sum(unnorm[n, n] for n in range(d)))
        rho = (unnorm + unnorm.H) / (2 * prob)
        state = np.array([[complex(rho[i, j]) for j in range(d)] for i in range(d)])
        return state, float(prob)


def _exact_lossy_pnr_weight(eta: float, m: int, n: int) -> Fraction:
    if m < n:
        return Fraction(0)
    e = Fraction(eta)
    return math.comb(m, n) * e**n * (1 - e) ** (m - n)


def lossy_pnr_weight(eta: float, m: int, n: int) -> float:
    """``<m| E_n |m>`` of ``lossy_pnr(eta, dim)``, exact in rationals and rounded once."""
    return float(_exact_lossy_pnr_weight(eta, m, n))


def diagonal_estimators(weights, ket=None) -> dict:
    """The estimators of the element ``diag(weights)``, exact in rationals and rounded once.

    Each weight and each entry of ``ket`` is read exactly, and the ket is
    normalized exactly.  Keys: ``trace_weight``, ``projectivity``,
    ``ideality`` and, with a ket, ``fidelity`` and ``detectivity``.
    """
    p = [Fraction(x) for x in weights]
    s1, s2 = sum(p), sum(x * x for x in p)
    out = {"trace_weight": float(s1), "projectivity": float(s2 / s1**2), "ideality": float(s2 / s1)}
    if ket is not None:
        t2 = [Fraction(complex(z).real) ** 2 + Fraction(complex(z).imag) ** 2 for z in ket]
        overlap = sum(a * b for a, b in zip(t2, p)) / sum(t2)
        out["fidelity"] = float(overlap / s1)
        out["detectivity"] = float(overlap)
    return out


def lossy_pnr_estimators(eta: float, dim: int, n: int, ket=None) -> dict:
    """``diagonal_estimators`` of outcome ``n`` of ``lossy_pnr(eta, dim)`` on its exact weights."""
    return diagonal_estimators([_exact_lossy_pnr_weight(eta, m, n) for m in range(dim)], ket)


def untruncated_lossy_pnr_projectivity(eta: float, n: int, digits: int = 50) -> float:
    """Outcome ``n``'s projectivity over every level, ``eta^(2n+2) 2F1(n+1, n+1; 1; (1-eta)^2)``."""
    with mpmath.workdps(digits):
        e = mpmath.mpf(eta)
        return float(e ** (2 * n + 2) * mpmath.hyp2f1(n + 1, n + 1, 1, (1 - e) ** 2))
