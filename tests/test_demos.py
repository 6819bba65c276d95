"""Smoke tests for the scripts in demos/: each runs to completion in a
fresh working directory, and the MNIST pipeline demo fails cleanly
when it has no data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(script, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script",
    ["01_the_mask.py", "02_the_engine.py", "03_the_cost.py", "04_the_search.py", "05_the_pruner.py"],
)
def test_demo_runs(script, tmp_path):
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_demo_needs_mnist(tmp_path):
    empty = tmp_path / "no-data"
    empty.mkdir()
    proc = run_demo("06_the_pipeline.py", tmp_path, "--data-dir", str(empty))
    assert proc.returncode != 0
    assert "need the MNIST IDX files" in proc.stderr
