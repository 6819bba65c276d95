"""A smoke run of the real benchmark: every workload of `BENCHMARK.json`,
traced (`--trace 1`) for a single pass (`--seconds 0`), checked as
`tools/ab.py` checks a run.  A run must exit 0, write nothing to stderr
and end on a strict-JSON result that is `correct` and names exactly the
per-layer metrics `BENCHMARK.json` declares.

The workloads run at once, each in its own process, which takes about
10 s on 2 vCPUs.  They use seed 9, so the span files that seed-1 A/B runs
leave in `.perfbench/` stay as they are.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_runs_traced_to_a_correct_result(tmp_path):
    ab = load_ab()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    procs = {}
    try:
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "9", "--seconds", "0",
                   "--trace", "1"]
            with open(tmp_path / f"{w}.out", "w") as out, open(tmp_path / f"{w}.err", "w") as err:
                procs[w] = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        codes = {w: proc.wait(timeout=600) for w, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    for w, code in codes.items():
        stdout, stderr = ((tmp_path / f"{w}.{ext}").read_text() for ext in ("out", "err"))
        assert code == 0, f"{w} exited {code}: {stderr[-2000:]}"
        result = ab.result_line(stdout, stderr, ab.metric_names(1))
        assert result["correct"] is True, f"{w}: {json.dumps(result)[:2000]}"
