"""Smoke tests: each demo script and each README example runs to completion."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qdetchar import save_ensemble, uniform_fock_ensemble
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


def test_readme_examples_run_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("Quick start", "python"), {})
    save_ensemble(uniform_fock_ensemble(12), tmp_path / "probes.json")
    lines = _readme_block("Command line", "").splitlines()
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qdetchar"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
