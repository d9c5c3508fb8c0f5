"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, workdir)`` writes the files one workload reads and
returns them, with the in-memory measurements the library operations use, as
an :class:`Inputs` record.  The program under test sees nothing else.  The
benchmark writes the files in a child process (``python3 gen.py``), so their
memory does not count in the workload's peak RSS, and then calls
``generate(..., write=False)``, which rebuilds the same measurements in memory
and names the files without writing them.

Canonical models have fixed parameters, so their files do not depend on the
seed.  The seed drives the dense POVMs only: seeded Ginibre factors
``A_k = G_k G_k^H`` are made into a partition of the identity by
``E_k = S^{-1/2} A_k S^{-1/2}`` with ``S = sum_k A_k``.

Every generated measurement must pass ``validate_povm`` here, so a bad input
stops the benchmark during set-up instead of showing up as a failure of the
program.  Run ``PYTHONPATH=src python3 perfbench/gen.py --workload herald --seed 7``
to write one workload's inputs into ``perfbench/_work/gen``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qdetchar import cli, detectors, fileio, fock, retrodiction

LOSSY_ETA = 0.7
APD_ETA = 0.5
APD_NU = 0.02
PROJ_ALPHA = 1.0
PROJ_ZETA = 0.6
DENSE_OUTCOMES = 4
TARGETS = ("fock:1", "coherent:1,0")
CANONICAL = ("ideal-pnr", "lossy-pnr", "apd", "scaled-projector")

# Files per workload: (kind, dim).  In-memory measurements are listed apart.
FILES = {
    "characterize": [(k, d) for d in (12, 30, 60) for k in CANONICAL]
    + [("dense", 12), ("dense", 30)],
    "witnesses": [("lossy-pnr", 16), ("apd", 24), ("dense", 12), ("dense", 16)],
    "herald": [("dense", 20), ("dense", 30), ("apd", 20), ("apd", 30)],
    "export": [],
}
IN_MEMORY = {
    "characterize": [],
    "witnesses": [],
    "herald": [("dense", 24), ("dense", 32), ("apd", 40)],
    "export": [("dense", d) for d in (12, 24, 27, 30, 33, 36, 60)],
}
ENSEMBLE_DIMS = {"characterize": (12, 30)}


# Closed-form parameters per kind, read by the benchmark's own oracles.
PARAMS = {
    "ideal-pnr": {},
    "lossy-pnr": {"eta": LOSSY_ETA},
    "apd": {"eta": APD_ETA, "nu": APD_NU},
    "scaled-projector": {"alpha": PROJ_ALPHA, "zeta": PROJ_ZETA},
    "dense": {},
}


@dataclass
class Model:
    """One generated measurement: its recipe, its measurement and its file."""

    kind: str
    dim: int
    seed: int
    povm: detectors.Povm
    path: Path | None = None

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.dim}"

    @property
    def params(self) -> dict:
        return PARAMS[self.kind]


@dataclass
class Inputs:
    workload: str
    seed: int
    workdir: Path
    models: dict = field(default_factory=dict)  # name -> Model
    ensembles: dict = field(default_factory=dict)  # dim -> Path
    tampered_report: Path | None = None


def dense_matrices(seed: int, dim: int, count: int = DENSE_OUTCOMES) -> list:
    """Seeded dense POVM: ``E_k = S^{-1/2} G_k G_k^H S^{-1/2}``."""
    rng = np.random.default_rng([seed, dim, count])
    factors = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        factors.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(factors))
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    out = []
    for a in factors:
        e = s_inv_half @ a @ s_inv_half
        out.append(0.5 * (e + e.conj().T))
    return out


def build_povm(kind: str, dim: int, seed: int) -> detectors.Povm:
    meta = {"model": kind, "dim": str(dim)}
    if kind == "ideal-pnr":
        povm = detectors.ideal_pnr(dim)
    elif kind == "lossy-pnr":
        povm = detectors.lossy_pnr(LOSSY_ETA, dim)
    elif kind == "apd":
        povm = detectors.on_off_apd(APD_ETA, APD_NU, dim)
    elif kind == "scaled-projector":
        ket = fock.coherent_state(PROJ_ALPHA, dim)
        povm = detectors.complete_with_rest([detectors.scaled_projector(ket, PROJ_ZETA)])
    elif kind == "dense":
        elements = [
            detectors.PovmElement(str(k), m)
            for k, m in enumerate(dense_matrices(seed, dim))
        ]
        povm = detectors.Povm(tuple(elements))
        meta["seed"] = str(seed)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    povm = detectors.Povm(povm.elements, guard_levels=0, metadata=meta)
    report = detectors.validate_povm(povm)
    if not report.passed:
        raise RuntimeError(f"generated {kind} at dim {dim} is invalid:\n{report.summary()}")
    return povm


def _tamper(report_path: Path, out: Path) -> None:
    """Flip one row's category; the row's scalars stay as computed."""
    doc = json.loads(report_path.read_text())
    row = doc["estimators"][0]
    row["category"] = (
        "ProjectiveIdeal" if row["category"] != "ProjectiveIdeal" else "NonProjective"
    )
    out.write_text(json.dumps(doc, indent=2) + "\n")


def _existing(path: Path) -> Path:
    if not path.is_file():
        raise RuntimeError(f"input {path} was not generated")
    return path


def generate(workload: str, seed: int, workdir: Path, write: bool = True) -> Inputs:
    """Write the workload's input files into ``workdir/inputs``.

    With ``write=False`` the files must exist already, from a call with the
    same arguments; only the in-memory part is built.
    """
    indir = Path(workdir) / "inputs"
    if write:
        if indir.exists():
            shutil.rmtree(indir)
        indir.mkdir(parents=True)
    inputs = Inputs(workload=workload, seed=seed, workdir=Path(workdir))
    for kind, dim in FILES[workload]:
        model = Model(kind, dim, seed, build_povm(kind, dim, seed))
        model.path = indir / f"{model.name}.json"
        if write:
            fileio.save_povm(model.povm, model.path)
        _existing(model.path)
        inputs.models[model.name] = model
    for kind, dim in IN_MEMORY[workload]:
        model = Model(kind, dim, seed, build_povm(kind, dim, seed))
        inputs.models[model.name] = model
    for dim in ENSEMBLE_DIMS.get(workload, ()):
        path = indir / f"uniform-fock-{dim}.json"
        if write:
            fileio.save_ensemble(retrodiction.uniform_fock_ensemble(dim), path)
        inputs.ensembles[dim] = _existing(path)
    if workload == "characterize" and write:
        # A report the program wrote, with one category flipped afterwards.
        source = inputs.models["apd-12"].path
        honest = indir / "apd-12.report.json"
        argv = ["characterize", str(source), "--out", str(honest)]
        for t in TARGETS:
            argv += ["--target", t]
        with open(indir / "setup.log", "w") as log:
            saved = sys.stdout
            sys.stdout = log
            try:
                rc = cli.main(argv)
            finally:
                sys.stdout = saved
        if rc != 0:
            raise RuntimeError(f"set-up characterize exited {rc}")
        _tamper(honest, indir / "apd-12.tampered.json")
    if workload == "characterize":
        inputs.tampered_report = _existing(indir / "apd-12.tampered.json")
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FILES))
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--out", default=str(Path(__file__).parent / "_work" / "gen"))
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, Path(args.out))
    for name, model in inputs.models.items():
        where = model.path if model.path else "(in memory)"
        print(f"{name}: {len(model.povm)} outcomes, {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
