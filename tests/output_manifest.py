"""SHA-256 of a fixed set of program outputs, against a checked-in manifest.

    python tests/output_manifest.py            # print the set's digests as JSON
    python tests/output_manifest.py --write    # regenerate tests/output_manifest.json

The set, run in one process in a temporary directory (so every path it prints
is relative), command by command as ``qdetchar.cli.main``:

- ``qdetchar model`` files of the four kinds at dims 2, 12 and 60;
- two seeded dense POVMs, at dims 12 and 24, written by ``save_povm``;
- ``characterize --target fock:1 --target coherent:1,0`` of each file.

Each command's exit code, stdout, stderr and output file are recorded, the
texts by their SHA-256.  Warnings print as in a fresh process: each command
runs under its own ``warnings.catch_warnings()``, which restarts the
once-per-line rule, and the package's own directory in a warning's source
line reads ``<qdetchar>``.  BLAS and OpenMP are pinned to one thread before
numpy loads, and ``QDETCHAR_*`` settings are dropped, so the bits do not
depend on the host's thread count or environment.  The manifest records the
numpy version and BLAS it was made with; ``tests/test_output_manifest.py``
compares against it only under the same two.  A change that moves an output
on purpose regenerates the manifest with ``--write`` and names each moved
entry in CHANGES.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("QDETCHAR_")]:
    del os.environ[_var]

import argparse
import hashlib
import io
import json
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np
from conftest import random_dense_povm

import qdetchar
from qdetchar import Povm, PovmElement, save_povm
from qdetchar import cli

MANIFEST = HERE / "output_manifest.json"
MODELS = {
    "ideal-pnr": [],
    "lossy-pnr": ["--eta", "0.7"],
    "apd": ["--eta", "0.5", "--nu", "0.02"],
    "scaled-projector": ["--target", "coherent:1,0", "--zeta", "0.6"],
}
MODEL_DIMS = (2, 12, 60)
DENSE = {12: 1201, 24: 2401}  # dim: seed
DENSE_OUTCOMES = 4
TARGETS = ["--target", "fock:1", "--target", "coherent:1,0"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blas() -> str:
    """The BLAS numpy was built with, as ``numpy.show_config`` names it."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"


def _run(argv: list, files: list) -> dict:
    """One command's exit code, stdout and stderr digests, and its files' digests."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue().replace(str(Path(qdetchar.__file__).parent), "<qdetchar>")
    return {
        "argv": " ".join(argv),
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(stderr.encode()),
        "files": {name: _sha256(Path(name).read_bytes()) for name in files},
    }


def entries() -> dict:
    """Every output of the set, by the name of the command or file that made it."""
    out = {}
    inputs = []
    for kind, flags in MODELS.items():
        for dim in MODEL_DIMS:
            name = f"{kind}-{dim}.json"
            out[f"model {name}"] = _run(["model", kind, "--dim", str(dim), *flags, "--out", name],
                                        [name])
            inputs.append(name)
    for dim, seed in DENSE.items():
        name = f"dense-{dim}.json"
        matrices = random_dense_povm(np.random.default_rng(seed), dim, DENSE_OUTCOMES)
        save_povm(Povm(tuple(PovmElement(str(k), m) for k, m in enumerate(matrices)),
                       metadata={"model": "dense", "dim": str(dim), "seed": str(seed)}), name)
        out[f"save_povm {name}"] = {"files": {name: _sha256(Path(name).read_bytes())}}
        inputs.append(name)
    for name in inputs:
        report = name.replace(".json", ".report.json")
        out[f"characterize {name}"] = _run(["characterize", name, *TARGETS, "--out", report],
                                           [report])
    return out


def generate() -> dict:
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            found = entries()
        finally:
            os.chdir(here)
    return {"numpy": np.__version__, "blas": blas(), "entries": found}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"write {MANIFEST.name}")
    args = parser.parse_args(argv)
    text = json.dumps(generate(), indent=1) + "\n"
    if args.write:
        MANIFEST.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
