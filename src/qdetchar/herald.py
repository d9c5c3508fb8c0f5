"""Heralded state preparation from two-mode squeezed vacuum.

Send one arm of a two-mode squeezed vacuum (TMSV) into the apparatus; when
outcome ``n`` fires on mode B, mode A collapses to::

    rho_A = Tr_B{ rho_AB (1_A  (x)  element_n) } / Pr(n)

For the TMSV ``sqrt(1 - lam^2) sum_n lam^n |n, n>`` this has the exact
closed form ``rho_A  ~  Lam conj(element) Lam`` with ``Lam = diag(lam^n)``
and success probability ``(1 - lam^2) Tr{Lam conj(element) Lam}``.  Both
routes are implemented independently and must agree; as ``lam -> 1`` the
conditional state converges to the complex conjugate of the retrodicted
state, which is what makes heralding a practical projector onto "what the
detector saw".

How close it comes needs no matrix root.  With ``Ebar = conj(element)``,
``t = Tr Ebar`` and ``w = Tr(Lam Ebar Lam)``, the heralded state is ``rho =
Lam Ebar Lam / w`` and the limit ``sigma = Ebar / t``, so ``sqrt(sigma) rho
sqrt(sigma) = (Ebar^1/2 Lam Ebar^1/2)^2 / (t w)``: a positive matrix squared,
whose root has the trace ``Tr(Lam Ebar) / sqrt(t w)``.  The squared Uhlmann
(Jozsa) fidelity is ``F = (sum_n lam^n E_nn)^2 / (sum_n E_nn  sum_n lam^(2n)
E_nn)`` for any element, as only the diagonal survives ``Tr(Lam Ebar)``.  It
never falls as ``lam`` grows: ``ln F = 2 K(s) - K(2 s)``, with ``s = ln lam
<= 0`` and ``K`` the convex cumulant function of ``p_n ~ E_nn``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .errors import HeraldImpossibleError, TailToleranceError, TruncationWarning, _warn_truncation
from .fock import (
    _same_dim,
    _square,
    _unit_ket,
    assert_density_matrix,
    check_dim,
    conjugate_in_fock,
    hermitize,
)
from .retrodiction import _as_element, _probability, retrodicted_state

__all__ = [
    "TmsvParams",
    "HeraldResult",
    "LimitScan",
    "tmsv",
    "heralded_state",
    "heralded_state_from_joint",
    "heralded_closed_form",
    "retrodictive_limit_scan",
]


@dataclass(frozen=True)
class TmsvParams:
    """Two-mode squeezed vacuum: squeezing parameter ``lam`` in [0, 1) per mode dim.

    Warns when the truncation tail ``lam ** (2 * dim)`` exceeds the tail
    budget; scans treat that as a hard error.
    """

    lam: float
    dim: int

    def __post_init__(self):
        lam = _number(self.lam, "squeezing parameter")
        d = check_dim(self.dim)
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "dim", d)
        if self.tail > DEFAULT_TOLS.tail:
            _warn_truncation(
                f"lam**(2*dim) = {self.tail:.3g} exceeds the truncation budget; "
                f"raise dim above {d} or lower lam below {lam}"
            )

    @property
    def tail(self) -> float:
        """Weight ratio of the first discarded Schmidt term, ``lam**(2*dim)``."""
        return self.lam ** (2 * self.dim)


def tmsv(params: TmsvParams) -> np.ndarray:
    """TMSV ket on the composite space, renormalized after truncation.

    Amplitude ``lam**n`` on ``|n, n>`` (mode A major ordering).
    """
    d = params.dim
    vec = np.zeros(d * d, dtype=complex)
    amps = params.lam ** np.arange(d)
    vec[np.arange(d) * d + np.arange(d)] = amps
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True, eq=False)
class HeraldResult:
    """Conditional state of mode A after an outcome fired on mode B."""

    conditional_state: np.ndarray
    success_probability: float
    outcome_label: str


def _split_dims(n: int, db: int, what: str) -> int:
    """Dimension of mode A when a composite of size ``n`` factors as A x ``db``."""
    da, rem = divmod(n, db)
    if rem or da < 2:
        raise ValueError(f"{what} does not factor as A x {db}")
    return da


def _herald_result(
    unnorm: np.ndarray, el, tols: Tolerances, scale: float = 1.0, where: str = "on this state",
    least=None,
) -> HeraldResult:
    """Normalize an unnormalized conditional state of mode A.

    The success probability is ``scale * Tr(unnorm)``; every route ends here,
    so the probability floor, the probability rule of :func:`born_probability`
    and the density-matrix check live in one place.  ``least``, when given, is
    a proven lower bound on the least eigenvalue of ``hermitize(unnorm)``.
    The state is checked as computed, then hermitized.
    """
    weight = float(np.real(np.trace(unnorm)))
    prob = scale * weight
    if prob <= tols.trace_floor:
        raise HeraldImpossibleError(
            f"outcome {el.label!r} fires with probability {prob:.3g} {where}"
        )
    bound = None if least is None else least / weight
    what = f"state heralded by {el.label!r}"
    rho_a = hermitize(assert_density_matrix(unnorm / weight, tols, what=what, least=bound))
    return HeraldResult(
        conditional_state=rho_a,
        success_probability=_probability(prob, tols),
        outcome_label=el.label,
    )


def heralded_state_from_joint(
    rho_ab: np.ndarray, element, tols: Tolerances = DEFAULT_TOLS
) -> HeraldResult:
    """Condition a joint density operator on an outcome measured on mode B.

    ``Tr_B{rho_AB (1_A (x) E)}`` is contracted directly on the reshaped
    operator, ``sum_kl rho[i,k,j,l] E[l,k]``: O(dA^2 dB^2) work, with no
    ``dA dB x dA dB`` kernel built.
    """
    el = _as_element(element)
    db = el.dim
    rho_ab = _square(rho_ab, "joint state")
    da = _split_dims(rho_ab.shape[0], db, f"joint state of shape {rho_ab.shape}")
    unnorm = np.einsum("ikjl,lk->ij", rho_ab.reshape(da, db, da, db), el.matrix)
    return _herald_result(unnorm, el, tols)


def heralded_state(
    psi_ab: np.ndarray, element, tols: Tolerances = DEFAULT_TOLS
) -> HeraldResult:
    """Condition a pure joint ket on an outcome measured on mode B.

    With the ket reshaped to ``Psi[i, k]`` (mode A major), the conditional
    state is ``Psi E^T Psi^dagger``: O(dA dB^2 + dA^2 dB) work, without the
    joint density operator.
    """
    el = _as_element(element)
    psi = _unit_ket(psi_ab, "joint ket")
    da = _split_dims(psi.size, el.dim, f"joint ket of size {psi.size}")
    psi = psi.reshape(da, el.dim)
    return _herald_result(psi @ el.matrix.T @ psi.conj().T, el, tols)


def heralded_closed_form(
    params: TmsvParams, element, tols: Tolerances = DEFAULT_TOLS
) -> HeraldResult:
    """Conditional state for a TMSV resource, without building the joint space.

    ``rho_A = Lam conj(element) Lam / Tr{...}`` with ``Lam = diag(lam^n)``.
    The success probability uses the untruncated TMSV normalization
    ``(1 - lam^2) Tr{Lam conj(element) Lam}``, so it can differ from the
    tensor-product route by a relative ``lam**(2*dim)``; the states agree to
    machine precision since both share the same truncation.

    No spectrum of the state is solved when the element's least eigenvalue
    ``e_min`` shows it positive: ``A = hermitize(conj E)`` has the spectrum
    of ``hermitize(E)``, and ``x^dag Lam A Lam x >= min(e_min, 0) |x|^2``
    since ``Lam^2 <= 1``, so ``min(e_min, 0) / Tr{...}`` bounds the state's.
    """
    el = _as_element(element)
    _same_dim("element", el.dim, "TMSV", params.dim)
    lam_diag = params.lam ** np.arange(params.dim)
    filtered = lam_diag[:, None] * conjugate_in_fock(el.matrix) * lam_diag[None, :]
    return _herald_result(
        filtered, el, tols, scale=1.0 - params.lam**2, where=f"at lam={params.lam}",
        least=min(el.spectrum[0], 0.0),
    )


@dataclass(frozen=True)
class LimitScanPoint:
    lam: float
    fidelity: float
    success_probability: float


@dataclass(frozen=True)
class LimitScan:
    """Convergence of heralded states toward the conjugated retrodicted state.

    ``points`` follow the squeezing values in the order given;
    ``fidelity_monotonic`` records whether fidelity was non-decreasing as
    ``lam`` grows, whatever that order.
    """

    points: tuple
    fidelity_monotonic: bool


def retrodictive_limit_scan(element, lambdas, tols: Tolerances = DEFAULT_TOLS) -> LimitScan:
    """Scan squeezing values and measure convergence to the retrodictive limit.

    For each ``lam`` the heralded state, at the element's dim, is compared via
    Uhlmann fidelity with the complex conjugate of the element's retrodicted
    state (the exact ``lam -> 1`` limit), in O(dim): ``sqrt(sigma) rho
    sqrt(sigma)`` is the square of ``Ebar^1/2 Lam Ebar^1/2 / sqrt(t w)``, so
    ``F = Tr(Lam Ebar)^2 / (t w)`` (module docstring).  Each ``lam`` still
    heralds through :func:`heralded_closed_form`, for its success probability
    and its refusals.  Values whose truncation tail ``lam**(2*dim)`` exceeds
    ``tols.tail`` are refused with :class:`TailToleranceError` rather than
    silently scanned on an inadequate basis.
    """
    el = _as_element(element)
    params = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for lam in lambdas:
            p = TmsvParams(lam, el.dim)
            if p.tail > tols.tail:
                raise TailToleranceError(
                    f"lam={p.lam} leaves tail {p.tail:.3g} > {tols.tail:.3g} "
                    f"at dim {p.dim}; increase dim"
                )
            params.append(p)
    if not params:
        raise ValueError("the scan is empty; give at least one lam")
    trace = retrodicted_state(el, tols).trace_weight
    diag = np.real(np.diagonal(el.matrix))
    points = []
    for p in params:
        result = heralded_closed_form(p, el, tols)
        lam_n = p.lam ** np.arange(el.dim)
        fid = float((lam_n @ diag) ** 2 / (trace * (lam_n * lam_n @ diag)))
        points.append(
            LimitScanPoint(
                lam=p.lam,
                fidelity=min(max(fid, 0.0), 1.0),
                success_probability=result.success_probability,
            )
        )
    fids = [pt.fidelity for pt in sorted(points, key=lambda pt: pt.lam)]
    monotonic = all(b - a >= -1e-12 for a, b in zip(fids, fids[1:]))
    return LimitScan(points=tuple(points), fidelity_monotonic=monotonic)
