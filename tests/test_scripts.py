"""Smoke tests for the scripts/ programs: each runs as a subprocess on a
small input, exits 0 and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_census():
    assert "24 valid presentations, 9 classes" in _run("census.py", "2,2")


def test_symmetry_survey():
    out = _run("symmetry_survey.py", "2")
    assert "== m=(2,2) classes (bound 2) ==" in out
    assert "flip + two 3-cycles: rank 1" in out


def test_build_27dim(tmp_path):
    dot = tmp_path / "atomic.dot"
    out = _run("build_27dim.py", str(dot))
    assert "dimension 27, symmetry order 9" in out
    assert "9 irreducible summands of dimensions [3]" in out
    assert dot.read_text().startswith("digraph atomic {")
