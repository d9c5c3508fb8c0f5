"""Smoke tests: each demo script and each README example runs to completion."""

import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qdetchar import TruncationWarning, cli, save_ensemble, uniform_fock_ensemble
from qdetchar.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(scratch))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a demo cleans up every temporary file it makes
    assert sorted(p.name for p in scratch.iterdir()) == []


def _readme_block(section, lang):
    """The first fenced ``lang`` block under README's ``## section`` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


# The README's two witness commands run at dim 12 on the default radius-6
# grid, which reaches past what that truncation resolves.  Each warns once of
# the grid, of the heavy "on" state's moments and of |W| on the grid boundary,
# and each warning names the CLI line that made the call.
_WITNESS_WARNINGS = ["grid reaches", "mean photon number", "|W| reaches"]


def test_readme_examples_run_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("Quick start", "python"), {})
    save_ensemble(uniform_fock_ensemble(12), tmp_path / "probes.json")
    lines = _readme_block("Command line", "").splitlines()
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qdetchar"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
        expected = _WITNESS_WARNINGS if "--witnesses" in argv or argv[1] == "wigner" else []
        assert len(caught) == len(expected), (line, [str(w.message) for w in caught])
        for w, start in zip(caught, expected):
            assert w.category is TruncationWarning and str(w.message).startswith(start), line
            assert w.filename == cli.__file__, (line, w.filename, w.lineno)
