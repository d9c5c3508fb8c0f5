"""Smoke tests: each demo script runs to completion from the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
SLOW = {
    "04_heralded_preparation.py": "takes about 21 s on the O(dim^6) joint heralding route",
}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(path, marks=pytest.mark.skip(reason=SLOW[path.name]))
        if path.name in SLOW
        else path
        for path in DEMOS
    ],
    ids=[path.stem for path in DEMOS],
)
def test_demo_runs(script, tmp_path):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
