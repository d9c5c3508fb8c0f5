"""Correctness checks on the program's outputs, computed apart from it.

Nothing here imports ``qdetchar``.  Each oracle is either a closed form
(binomial and geometric weights, the parity value of the Wigner function at
the origin) or a direct ``numpy`` computation from the generator's own
matrices.  Every check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

NEG_TOL = 1e-6  # qdetchar's default Wigner-negativity dead band
NULL_TRACE = 1e-14  # outcomes below this trace are skipped by characterize
ID_TOL = 1e-9  # slack on estimator values against their closed forms


class CheckFailed(AssertionError):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a, b, tol, what: str) -> None:
    require(abs(a - b) <= tol, f"{what}: {a!r} vs expected {b!r} (tol {tol:g})")


# ---------------------------------------------------------------- oracles

def fock_ket(n: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def coherent_ket(alpha: float, dim: int) -> np.ndarray:
    """``alpha**n / sqrt(n!)``, renormalised on the truncation."""
    v = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)], dtype=complex)
    return v / np.linalg.norm(v)


def target_ket(spec: str, dim: int) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "fock":
        return fock_ket(int(arg), dim)
    re, im = (float(x) for x in arg.split(","))
    require(im == 0.0, f"oracle handles real coherent amplitudes only, got {spec}")
    return coherent_ket(re, dim)


def diagonal_weights(kind: str, params: dict, dim: int, label: str) -> list:
    """Closed-form diagonal of one outcome of a diagonal detector model."""
    if kind == "ideal-pnr":
        return [1.0 if m == int(label) else 0.0 for m in range(dim)]
    if kind == "lossy-pnr":
        n, eta = int(label), params["eta"]
        return [
            math.comb(m, n) * eta**n * (1.0 - eta) ** (m - n) if m >= n else 0.0
            for m in range(dim)
        ]
    if kind == "apd":
        off = [(1.0 - params["nu"]) * (1.0 - params["eta"]) ** m for m in range(dim)]
        return off if label == "off" else [1.0 - x for x in off]
    raise ValueError(f"{kind} is not a diagonal model")


def expected_element(kind: str, params: dict, dim: int, label: str, matrices=None):
    """Closed-form matrix of one outcome; dense POVMs take the generator's."""
    if kind == "dense":
        return np.asarray(matrices[int(label)])
    if kind == "scaled-projector":
        psi = coherent_ket(params["alpha"], dim)
        hit = params["zeta"] * np.outer(psi, psi.conj())
        return hit if label == "hit" else np.eye(dim) - hit
    return np.diag(diagonal_weights(kind, params, dim, label)).astype(complex)


def estimator_oracle(kind: str, params: dict, dim: int, label: str, element) -> dict:
    """Trace weight, projectivity and ideality of one outcome.

    Canonical models use closed forms: binomial weights for lossy PNR,
    geometric weights for the APD, and ``1`` and ``zeta`` for the scaled
    projector.  Dense POVMs use ``Tr(E)`` and ``Tr(E^2)`` of the matrix.
    """
    if kind == "scaled-projector":
        z = params["zeta"]
        if label == "hit":
            weight, sq = z, z * z
        else:  # identity minus the projector: eigenvalues 1 (dim-1 times), 1 - zeta
            weight, sq = dim - z, (dim - 1) + (1.0 - z) ** 2
    elif kind == "dense":
        e = np.asarray(element)
        weight = float(np.trace(e).real)
        sq = float(np.vdot(e, e).real)  # Tr(E^2) = sum |E_ij|^2 for Hermitian E
    else:
        w = diagonal_weights(kind, params, dim, label)
        weight, sq = math.fsum(w), math.fsum(x * x for x in w)
    return {
        "trace_weight": weight,
        "projectivity": sq / weight**2,
        "ideality": sq / weight,
    }


def classify(projectivity: float, ideality: float, thresholds: dict) -> str:
    if projectivity >= thresholds["projectivity_min"]:
        if ideality >= thresholds["ideality_min"]:
            return "ProjectiveIdeal"
        return "ProjectiveNonIdeal"
    return "NonProjective"


def trace_distance(a, b) -> float:
    d = np.asarray(a) - np.asarray(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def parity_origin(rho) -> float:
    """``W(0, 0) = (1/pi) sum_n (-1)^n rho_nn``."""
    diag = np.real(np.diagonal(np.asarray(rho)))
    signs = np.where(np.arange(diag.size) % 2, -1.0, 1.0)
    return float(np.sum(signs * diag)) / math.pi


def sha256_file(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- reports

def check_report(doc: dict, source: bytes, outcomes: list, targets=()) -> int:
    """Check a characterization report against the oracles.

    ``outcomes`` lists ``(label, oracle, element)`` per outcome, with
    ``oracle`` from :func:`estimator_oracle`.  Returns the row count.
    """
    require(doc.get("input_digest") == sha256_file(source), "input_digest is not the file's sha256")
    thr = doc["thresholds"]
    rows = doc["estimators"]
    expected = [
        (label, oracle, element, t)
        for label, oracle, element in outcomes
        if oracle["trace_weight"] >= NULL_TRACE
        for t in (targets or (None,))
    ]
    require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    for row, (label, oracle, element, target) in zip(rows, expected):
        where = f"outcome {label} target {target}"
        require(row["outcome"] == label, f"{where}: row labelled {row['outcome']!r}")
        for key in ("trace_weight", "projectivity", "ideality"):
            close(row[key], oracle[key], ID_TOL * max(1.0, abs(oracle[key])), f"{where} {key}")
        require(
            row["category"] == classify(row["projectivity"], row["ideality"], thr),
            f"{where}: category {row['category']} does not follow from the stored thresholds",
        )
        if target is None:
            require(row["detectivity"] is None, f"{where}: unexpected detectivity")
            continue
        ket = target_ket(target, len(element))
        born = float(np.real(ket.conj() @ np.asarray(element) @ ket))
        close(row["detectivity"], born, ID_TOL, f"{where} detectivity vs Born <t|E|t>")
        close(row["fidelity"], born / oracle["trace_weight"], ID_TOL, f"{where} fidelity")
    return len(rows)


def check_posterior(text: str, element) -> None:
    """Uniform-Fock ensemble: the posterior of level m is ``E_mm / Tr E``."""
    diag = np.real(np.diagonal(np.asarray(element)))
    expected = diag / np.sum(diag)
    rows = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(len(rows) == diag.size, f"{len(rows)} posterior rows, expected {diag.size}")
    for m, (label, value) in enumerate(rows):
        require(label == str(m), f"posterior row {m} labelled {label!r}")
        close(float(value), expected[m], 1e-12, f"posterior of level {m}")


# ---------------------------------------------------------------- phase space

def check_witness_row(row: dict, rho) -> None:
    """Witness row of a state whose grid contains the origin."""
    w00 = parity_origin(rho)
    where = f"witnesses of outcome {row['outcome']}"
    require(row["min_wigner"] >= -1.0 / math.pi - NEG_TOL, f"{where}: min W below -1/pi")
    require(row["min_wigner"] <= w00 + 1e-12, f"{where}: min W {row['min_wigner']!r} above W(0,0) {w00!r}")
    require(row["negativity_volume"] >= 0.0, f"{where}: negative negativity volume")
    if w00 < -NEG_TOL:
        require(row["is_nonclassical"], f"{where}: W(0,0) = {w00:.3g} but not flagged non-classical")


def check_wigner_grid(data, rho, sidecar: dict, diagonal: bool) -> None:
    """Grid read back with ``numpy.loadtxt``, against oracles and its sidecar."""
    data = np.asarray(data)
    require(data.ndim == 2 and data.shape[1] == 3, f"grid has shape {data.shape}")
    xs, ps = np.unique(data[:, 0]), np.unique(data[:, 1])
    nx, np_ = xs.size, ps.size
    require(data.shape[0] == nx * np_, "grid rows do not form a rectangle")
    w = data[:, 2].reshape(nx, np_)
    ix, ip = int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ps)))
    require(abs(xs[ix]) < 1e-9 and abs(ps[ip]) < 1e-9, "grid does not contain the origin")
    close(w[ix, ip], parity_origin(rho), 1e-12, "W(0,0) vs parity oracle")
    require(float(np.min(w)) >= -1.0 / math.pi - NEG_TOL, "grid breaks W >= -1/pi")
    if diagonal:
        require(np.allclose(w, w.T, rtol=0, atol=1e-12), "diagonal state: W(x,p) != W(p,x)")
        require(np.allclose(w, w[::-1, :], rtol=0, atol=1e-12), "diagonal state: W(x,p) != W(-x,p)")
    wit = sidecar["witnesses"]
    require(wit["min_wigner"] == float(np.min(w)), "sidecar min_wigner differs from the grid")
    dx = (xs[-1] - xs[0]) / (nx - 1)
    dp = (ps[-1] - ps[0]) / (np_ - 1)
    negv = max(float(np.sum(np.abs(w) - w)) * dx * dp, 0.0)
    close(wit["negativity_volume"], negv, 1e-9 * max(1.0, negv), "sidecar negativity volume")
    require(
        wit["is_nonclassical"] == (negv > NEG_TOL or wit["squeezing_witness"]),
        "sidecar is_nonclassical does not follow from its witnesses",
    )


# ---------------------------------------------------------------- heralding

def heralded_oracle(element, lam: float):
    """Closed form ``Lam conj(E) Lam / Tr`` and ``(1 - lam^2) Tr(...)``."""
    e = np.asarray(element)
    lam_n = lam ** np.arange(e.shape[0])
    filtered = lam_n[:, None] * np.conj(e) * lam_n[None, :]
    weight = float(np.trace(filtered).real)
    return filtered / weight, (1.0 - lam * lam) * weight


def check_closed_form(state, prob: float, element, lam: float, diagonal: bool) -> None:
    rho, p = heralded_oracle(element, lam)
    if diagonal:
        e_nn = np.real(np.diagonal(np.asarray(element)))
        lam2n = lam ** (2 * np.arange(e_nn.size))
        rho = np.diag(lam2n * e_nn / np.sum(lam2n * e_nn))
    require(float(np.max(np.abs(np.asarray(state) - rho))) <= 1e-12, "closed-form state differs from oracle")
    close(prob, p, 1e-12, "closed-form success probability")


def check_joint(joint_state, closed_state) -> None:
    td = trace_distance(joint_state, closed_state)
    require(td <= 1e-10, f"joint and closed-form states differ: trace distance {td:.3g}")


def check_probability_sum(probs, expected: float, what: str) -> None:
    close(math.fsum(probs), expected, 1e-12, f"{what} success probabilities summed over outcomes")


def uhlmann(rho, sigma) -> float:
    def psd_sqrt(m):
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    r = psd_sqrt(np.asarray(rho))
    w = np.linalg.eigvalsh(r @ np.asarray(sigma) @ r)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def check_scan(text: str, element, lambdas, diagonal: bool) -> None:
    """Herald scan file: fidelity to the conjugated retrodicted state."""
    e = np.asarray(element)
    rows = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(len(rows) == len(lambdas), f"{len(rows)} scan rows, expected {len(lambdas)}")
    for (lam_s, fid_s, prob_s), lam in zip(rows, lambdas):
        close(float(lam_s), lam, 0.0, "scan lambda")
        rho, p = heralded_oracle(e, lam)
        if diagonal:
            q = np.real(np.diagonal(e)) / np.trace(e).real
            pn = np.real(np.diagonal(rho))
            fid, tol = float(np.sum(np.sqrt(pn * q)) ** 2), 1e-9
        else:
            # Matrix square roots of the nearly singular heralded states at
            # small lam lose about half the digits, on either side.
            fid, tol = uhlmann(rho, np.conj(e) / np.trace(e).real), 1e-6
        close(float(fid_s), fid, tol, f"scan fidelity at lam={lam}")
        close(float(prob_s), p, 1e-12, f"scan success probability at lam={lam}")


# ---------------------------------------------------------------- files

def check_saved_matrices(text: str, labels, matrices, exact: bool) -> None:
    """``json.loads`` of a measurement file gives back the expected ``[re, im]`` pairs."""
    doc = json.loads(text)
    outcomes = doc["outcomes"]
    require([o["label"] for o in outcomes] == list(labels), "outcome labels differ")
    for o, m in zip(outcomes, matrices):
        got = np.array(o["matrix"], dtype=float)
        want = np.stack([np.real(m), np.imag(m)], axis=-1)
        require(got.shape == want.shape, f"outcome {o['label']}: matrix shape {got.shape}")
        if exact:
            require(np.array_equal(got, want), f"outcome {o['label']}: stored floats differ")
        else:
            err = float(np.max(np.abs(got - want)))
            require(err <= 1e-12, f"outcome {o['label']}: stored floats off by {err:.3g}")


def check_large_lossy(elements, eta: float, samples) -> None:
    """Completeness to 1e-12 and binomial entries at sampled ``(n, m)``."""
    dim = elements[0].shape[0]
    err = float(np.max(np.abs(sum(elements) - np.eye(dim))))
    require(err <= 1e-12, f"large lossy PNR sums to identity only within {err:.3g}")
    for n, m in samples:
        want = math.comb(m, n) * eta**n * (1.0 - eta) ** (m - n) if m >= n else 0.0
        got = complex(elements[n][m, m])
        require(abs(got - want) <= 1e-12 * max(abs(want), 1e-300) + 1e-300, f"entry n={n} m={m}: {got} vs {want}")
