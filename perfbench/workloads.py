"""The operation list of each workload, with the check of each output.

An operation is one call a user makes: a CLI subcommand through
``qdetchar.cli.main(argv)`` with its output captured, or one library call.
Functions are looked up on their modules at call time, so the tracer in
``spans.py`` sees them.  ``check`` compares an output with the oracles in
``checks.py``; ``fingerprint``, where given, identifies the output cheaply
so later passes can be compared with the checked output of the warm-up pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks
import gen
from checks import require
from qdetchar import cli, detectors, fileio, herald

TAIL = 1e-6  # qdetchar's default truncation-tail budget for heralding
RETRODICT_LABEL = {"ideal-pnr": "1", "lossy-pnr": "1", "apd": "on", "scaled-projector": "hit", "dense": "0"}
MODEL_ARGS = {
    "ideal-pnr": [],
    "lossy-pnr": ["--eta", repr(gen.LOSSY_ETA)],
    "apd": ["--eta", repr(gen.APD_ETA), "--nu", repr(gen.APD_NU)],
    "scaled-projector": ["--target", f"coherent:{gen.PROJ_ALPHA!r},0", "--zeta", repr(gen.PROJ_ZETA)],
}
LARGE_LOSSY = (0.5, 200)  # eta, levels of the in-memory model build
TAMPER_FAULT = "cli.cmd_verify passes a report whose row category contradicts its scalars"


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Optional[Callable[[Any], bytes]] = None
    known_fault: Optional[str] = None  # a fault of the program that fails this op on every pass
    fault_symptom: Optional[Callable[[Any], bool]] = None  # the one failure the known fault excuses
    work: str = "text"  # the reference its time is scaled by: "text" or "product"


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def call_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return CliResult(rc, out.getvalue(), err.getvalue())


def files_fingerprint(*paths):
    def fp(res: CliResult) -> bytes:
        h = hashlib.blake2b(f"{res.rc}\n{res.stdout}".encode())
        for p in paths:
            h.update(Path(p).read_bytes())
        return h.digest()

    return fp


def require_rc(res: CliResult, rc: int = 0) -> None:
    require(res.rc == rc, f"exit code {res.rc}, expected {rc}; stderr: {res.stderr.strip()[-300:]}")


def outcome_oracles(model: gen.Model) -> list:
    """``(label, oracle, element)`` per outcome, from closed forms."""
    dense = gen.dense_matrices(model.seed, model.dim) if model.kind == "dense" else None
    out = []
    for e in model.povm:
        el = checks.expected_element(model.kind, model.params, model.dim, e.label, dense)
        oracle = checks.estimator_oracle(model.kind, model.params, model.dim, e.label, el)
        out.append((e.label, oracle, el))
    return out


# ---------------------------------------------------------------- characterize

def _check_characterize(model, report, targets, res, witnesses=False):
    require_rc(res)
    doc = json.loads(Path(report).read_text())
    outcomes = outcome_oracles(model)
    checks.check_report(doc, model.path.read_bytes(), outcomes, targets)
    if witnesses:
        rows = doc.get("nonclassicality", [])
        live = [(lbl, el) for lbl, o, el in outcomes if o["trace_weight"] >= checks.NULL_TRACE]
        require(len(rows) == len(live), f"{len(rows)} witness rows, expected {len(live)}")
        for row, (label, el) in zip(rows, live):
            require(row["outcome"] == label, f"witness row labelled {row['outcome']!r}")
            checks.check_witness_row(row, el / np.trace(el).real)


def _check_verify(rows, res):
    require_rc(res)
    require(f"verified {rows} rows" in res.stdout, f"verify did not report {rows} rows")


def _check_retrodict(model, label, post, res):
    require_rc(res)
    el = dict((lbl, e) for lbl, _, e in outcome_oracles(model))[label]
    checks.check_posterior(Path(post).read_text(), el)


def characterize_ops(inp: gen.Inputs, out: Path) -> list:
    ops = []
    flags = [f for t in gen.TARGETS for f in ("--target", t)]
    for name, model in inp.models.items():
        rep = out / f"{name}.report.json"
        rows = sum(1 for _, o, _ in outcome_oracles(model) if o["trace_weight"] >= checks.NULL_TRACE) * len(gen.TARGETS)
        ops.append(Op(
            "characterize", f"characterize {name}",
            partial(call_cli, ["characterize", model.path, *flags, "--out", rep]),
            partial(_check_characterize, model, rep, gen.TARGETS),
            files_fingerprint(rep),
        ))
        ops.append(Op(
            "verify", f"verify {name}", partial(call_cli, ["verify", rep]),
            partial(_check_verify, rows), files_fingerprint(),
        ))
        if model.dim in inp.ensembles:
            label = RETRODICT_LABEL[model.kind]
            post = out / f"{name}.posterior.txt"
            argv = ["retrodict", model.path, "--outcome", label,
                    "--ensemble", inp.ensembles[model.dim], "--out", post]
            ops.append(Op(
                "retrodict", f"retrodict {name} outcome {label}", partial(call_cli, argv),
                partial(_check_retrodict, model, label, post), files_fingerprint(post),
            ))
    ops.append(Op(
        "verify-tampered", "verify apd-12 report with a flipped category",
        partial(call_cli, ["verify", inp.tampered_report]),
        lambda res: require_rc(res, 2), known_fault=TAMPER_FAULT,
        fault_symptom=lambda res: res.rc == 0,
    ))
    return ops


# ---------------------------------------------------------------- witnesses

# Three heavy dense-kernel operations per pass (with characterize of dense-16)
# keep the tail inside one kind of operation, and four diagonal grids keep the
# median inside another.
WIGNER_OUTCOMES = [("dense-16", "0"), ("dense-16", "1"), ("lossy-pnr-16", "1"),
                   ("lossy-pnr-16", "2"), ("apd-24", "on"), ("apd-24", "off")]


def _check_wigner(model, label, grid, res):
    require_rc(res)
    el = dict((lbl, e) for lbl, _, e in outcome_oracles(model))[label]
    sidecar = json.loads(Path(str(grid) + ".report.json").read_text())
    require(sidecar["input_digest"] == checks.sha256_file(model.path.read_bytes()), "sidecar digest")
    checks.check_wigner_grid(np.loadtxt(grid), el / np.trace(el).real, sidecar, model.kind != "dense")


def witnesses_ops(inp: gen.Inputs, out: Path) -> list:
    ops = []
    for name, model in inp.models.items():
        rep = out / f"{name}.witnesses.json"
        ops.append(Op(
            "characterize-witnesses", f"characterize --witnesses {name}",
            partial(call_cli, ["characterize", model.path, "--witnesses", "--out", rep]),
            partial(_check_characterize, model, rep, (), witnesses=True),
            files_fingerprint(rep),
        ))
    for name, label in WIGNER_OUTCOMES:
        model = inp.models[name]
        grid = out / f"{name}-{label}.wigner.dat"
        kind = "wigner-dense" if model.kind == "dense" else "wigner-diag"
        ops.append(Op(
            kind, f"wigner {name} outcome {label}",
            partial(call_cli, ["wigner", model.path, "--outcome", label, "--out", grid]),
            partial(_check_wigner, model, label, grid),
            files_fingerprint(grid, str(grid) + ".report.json"),
        ))
    return ops


# ---------------------------------------------------------------- herald

SCANS = [("dense-20", "0"), ("dense-30", "1"), ("apd-20", "on"), ("apd-30", "off")]
JOINT = [("dense-24", 0.5), ("dense-32", 0.6), ("apd-40", 0.7)]
# Closed forms also run at these lambdas, so they are two thirds of a pass and
# the median falls among them.  A scan at the median moved with host episodes
# that slowed scans up to 1.7x while neither reference moved; closed forms did not.
CLOSED_ONLY = (0.2, 0.4)


def scan_lambdas(dim: int) -> list:
    """Ten values up to 0.99 of the largest ``lam`` whose tail fits the budget."""
    top = 0.99 * TAIL ** (1.0 / (2 * dim))
    return [round(top * (k + 1) / 10, 6) for k in range(10)]


def _check_scan(el, lambdas, diagonal, path, res):
    require_rc(res)
    checks.check_scan(Path(path).read_text(), el, lambdas, diagonal)


def _closed(el, lam):
    r = herald.heralded_closed_form(herald.TmsvParams(lam, el.dim), el)
    return r.conditional_state, r.success_probability


def _joint(el, lam):
    r = herald.heralded_state(herald.tmsv(herald.TmsvParams(lam, el.dim)), el)
    return r.conditional_state, r.success_probability


def _route_ops(name, model, lam, joint=True) -> list:
    """Closed form then joint route (if ``joint``), for every outcome of one measurement.

    The last outcome's checks also sum the success probabilities over all
    outcomes: ``1 - lam^(2d)`` on the closed form, 1 on the renormalised joint route.
    """
    seen = {"closed": {}, "joint": {}}
    last = model.povm.labels[-1]
    diagonal = model.kind != "dense"
    expected = {lbl: e for lbl, _, e in outcome_oracles(model)}

    def check_closed(label, res):
        checks.check_closed_form(res[0], res[1], expected[label], lam, diagonal)
        seen["closed"][label] = res
        if label == last:
            probs = [p for _, p in seen["closed"].values()]
            checks.check_probability_sum(probs, 1.0 - lam ** (2 * model.dim), "closed-form")

    def check_joint(label, res):
        checks.check_joint(res[0], seen["closed"][label][0])
        seen["joint"][label] = res
        if label == last:
            checks.check_probability_sum([p for _, p in seen["joint"].values()], 1.0, "joint")

    ops = []
    for el in model.povm:
        ops.append(Op("herald-closed", f"closed form {name} outcome {el.label} lam {lam}",
                      partial(_closed, el, lam), partial(check_closed, el.label)))
        if joint:
            ops.append(Op("herald-joint", f"joint route {name} outcome {el.label} lam {lam}",
                          partial(_joint, el, lam), partial(check_joint, el.label), work="product"))
    return ops


def herald_ops(inp: gen.Inputs, out: Path) -> list:
    ops = []
    for name, label in SCANS:
        model = inp.models[name]
        lambdas = scan_lambdas(model.dim)
        path = out / f"{name}-{label}.scan.txt"
        argv = ["herald", model.path, "--outcome", label, "--out", path]
        argv += [f for lam in lambdas for f in ("--lam", repr(lam))]
        ops.append(Op(
            "herald-scan", f"herald scan {name} outcome {label}", partial(call_cli, argv),
            partial(_check_scan, model.povm.outcome(label).matrix, lambdas, model.kind != "dense", path),
            files_fingerprint(path),
        ))
    for name, lam in JOINT:
        ops += _route_ops(name, inp.models[name], lam)
        for other in CLOSED_ONLY:
            ops += _route_ops(name, inp.models[name], other, joint=False)
    return ops


# ---------------------------------------------------------------- export

def _round_trip(path: Path) -> None:
    """save -> load -> save gives the same bytes, and load gives the stored floats."""
    text = path.read_text()
    povm = fileio.load_povm(path)
    again = path.with_name(path.name + ".again")
    fileio.save_povm(povm, again)
    require(again.read_bytes() == path.read_bytes(), f"{path.name}: save -> load -> save is not byte-identical")
    checks.check_saved_matrices(text, povm.labels, [e.matrix for e in povm], exact=True)


def _check_model(kind, dim, path, res):
    require_rc(res)
    labels = {"apd": ["off", "on"], "scaled-projector": ["hit", "rest"]}.get(kind, [str(n) for n in range(dim)])
    want = [checks.expected_element(kind, gen.PARAMS[kind], dim, lbl) for lbl in labels]
    checks.check_saved_matrices(path.read_text(), labels, want, exact=False)
    _round_trip(path)


def _check_save(model, path, res):
    matrices = gen.dense_matrices(model.seed, model.dim)
    checks.check_saved_matrices(path.read_text(), model.povm.labels, matrices, exact=True)
    _round_trip(path)
    loaded = fileio.load_povm(path)
    require(all(np.array_equal(e.matrix, m) for e, m in zip(loaded, matrices)), "loaded matrices differ from the generated ones")


def _save(povm, path):
    fileio.save_povm(povm, path)


def _large_lossy():
    return [e.matrix for e in detectors.lossy_pnr(*LARGE_LOSSY)]


# Nineteen operations per pass: seven dense save_povm calls whose times step
# from about 6 to 130 ms, the model files, and the in-memory build.  The median
# falls among the graded dense saves, not on one operation's few samples.  The
# saves run first, ahead of the 12.6 MB model files.
EXPORT_MODELS = [
    ("ideal-pnr", 12), ("lossy-pnr", 12), ("apd", 12),
    ("apd", 30), ("scaled-projector", 30), ("apd", 60), ("scaled-projector", 60),
    ("ideal-pnr", 30), ("lossy-pnr", 30), ("ideal-pnr", 60), ("lossy-pnr", 60),
]


def export_ops(inp: gen.Inputs, out: Path) -> list:
    ops = []
    for name, model in inp.models.items():
        path = out / f"{name}.saved.json"
        ops.append(Op(
            "save_povm", f"save_povm {name}", partial(_save, model.povm, path),
            partial(_check_save, model, path), lambda _, p=path: Path(p).read_bytes(),
        ))
    for kind, dim in EXPORT_MODELS:
        path = out / f"{kind}-{dim}.model.json"
        argv = ["model", kind, "--dim", dim, *MODEL_ARGS[kind], "--out", path]
        ops.append(Op(
            "model", f"model {kind} dim {dim}", partial(call_cli, argv),
            partial(_check_model, kind, dim, path), files_fingerprint(path),
        ))
    rng = np.random.default_rng([inp.seed, 1])
    levels = LARGE_LOSSY[1]
    samples = [tuple(sorted(rng.integers(0, levels, size=2))) for _ in range(64)]
    ops.append(Op(
        "model-build", f"lossy_pnr{LARGE_LOSSY} in memory", _large_lossy,
        lambda els: checks.check_large_lossy(els, LARGE_LOSSY[0], samples),
    ))
    return ops


BUILDERS = {
    "characterize": characterize_ops,
    "witnesses": witnesses_ops,
    "herald": herald_ops,
    "export": export_ops,
}


def build(inp: gen.Inputs) -> list:
    out = inp.workdir / "outputs"
    out.mkdir(parents=True, exist_ok=True)
    return BUILDERS[inp.workload](inp, out)
