"""What `import autoprune` does to the process environment."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pins_after_import(**env_pins):
    """The three BLAS thread variables as a fresh interpreter sees them after `import autoprune`."""
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    env.update(env_pins)
    env["PYTHONPATH"] = str(SRC)
    code = ("import json, os, autoprune; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {PINS!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_pins_blas_to_one_thread():
    assert _pins_after_import() == dict.fromkeys(PINS, "1")


def test_import_keeps_a_thread_count_the_user_set():
    assert _pins_after_import(OPENBLAS_NUM_THREADS="3") == {
        "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
