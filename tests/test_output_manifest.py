"""The output set of ``tests/output_manifest.py`` reproduces its checked-in digests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def test_the_output_set_reproduces_its_manifest():
    # Under another numpy or BLAS the set is still run, and must run through,
    # but not compared: the manifest pins the bits of the build that made it.
    want = json.loads((HERE / "output_manifest.json").read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, str(HERE / "output_manifest.py")], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    if (got["numpy"], got["blas"]) != (want["numpy"], want["blas"]):
        pytest.skip(f"the manifest pins numpy {want['numpy']} ({want['blas']}); this is numpy "
                    f"{got['numpy']} ({got['blas']}), whose last bits may differ: not compared")
    moved = sorted(name for name in want["entries"].keys() | got["entries"].keys()
                   if want["entries"].get(name) != got["entries"].get(name))
    assert moved == [], f"outputs differ from tests/output_manifest.json: {moved}"
