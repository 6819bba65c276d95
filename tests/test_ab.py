"""The A/B runner (`tools/ab.py`) on a throwaway repository whose
`perfbench/run.py` is a stand-in that prints fixed report lines, so no
benchmark runs: the pairing, the sibling trees, the win count, the
digest comparison, the check of each run's output, the report figures
and the BENCH file."""

import contextlib
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

FAKE_RUN = '''
import argparse, json, os, sys, time
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
tree = Path(__file__).resolve().parents[1]
state = json.loads((tree / "state.json").read_text())
seed = int(a.seed)
# every call appends "<digest> <workload> <trace>" to the log; the n-th
# traced run of a tree and workload adds (3, 0, 1)[n % 3] to its figure
log = Path(os.environ["AB_LOG"])
call = f"{state['digest']} {a.workload} {a.trace}"
n = log.read_text().splitlines().count(call) if log.exists() else 0
if "sleep" in state:  # hang after the log line, with this process's id beside the log
    (log.parent / "sleeper.pid").write_text(str(os.getpid()))
with log.open("a") as f:
    f.write(call + "\\n")
with (log.parent / "trees.log").open("a") as f:
    f.write(f"{tree}\\n")
if "sleep" in state:
    time.sleep(state["sleep"])
if a.trace == "1":
    metrics = {"tensor.conv2d.bwd_ms": {"value": state["p50"] / 2 + (3, 0, 1)[n % 3], "unit": "ms/step"}}
else:
    metrics = {
        "setup_s": {"value": 0.03, "unit": "s"},
        "step_ms_p50": {"value": state["p50"] + seed, "unit": "ms"},
        "step_ms_p90": {"value": state["p50"] * 2 + seed, "unit": "ms"},
        "peak_rss_mb": {"value": 100.0, "unit": "MB"},
    }
print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}")
print("environment " + json.dumps({"python": "3.x", "numpy": "2.x", "blas": "fake 0", "nproc": 2,
                                  "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}}))
print(f"digest sha256:{state['digest']}-{seed}")
if a.workload in state.get("report", [a.workload]):  # the workloads that print a report line
    print("report " + json.dumps({"workload": a.workload, "metrics": {
        "raw_step_ms_p50": {"value": state["p50"] + 10 + seed, "unit": "ms"},
        "raw_step_ms_p90": {"value": state["p50"] * 2 + 10 + seed, "unit": "ms"},
        "calibration_block_ms": {"value": state["p50"] / 3, "unit": "ms"},
    }}))
print(json.dumps({"correct": state["correct"], "attempted": 3, "failed": 0, "metrics": metrics}))
# a traced run may end on a line that is not its result, or write to stderr
if a.trace == "1" and "traced_tail" in state:
    print(state["traced_tail"])
if a.trace == "1" and "traced_stderr" in state:
    print(state["traced_stderr"], file=sys.stderr)
'''

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "workloads": [{"name": "w-one"}, {"name": "w-two"}],
    "end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "step_ms_p50", "better": "lower", "bound": 0.24},
        {"name": "step_ms_p90", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "tensor.conv2d.bwd_ms"}],
}


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()


def fake_repo(tmp_path, parent_state, change_state, src_lines=(0, 0)):
    """A repository with two commits that differ only in the stand-in's state
    and in the lines of `src/pkg/mod.py`, `src_lines` per commit; both hold
    the one line of `src/pkg/same.py`."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    shutil.copy(AB_PATH, repo / "tools" / "ab.py")
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(repo, "init", "-q")
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "notes.txt").write_text("not counted\n")
    (repo / "src" / "pkg" / "same.py").write_text("y = 2\n")
    for state, lines in zip((parent_state, change_state), src_lines):
        (repo / "state.json").write_text(json.dumps(state))
        (repo / "src" / "pkg" / "mod.py").write_text("x = 1\n" * lines)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "state")
    return repo


def start_ab(repo, *args):
    """ab.py started in `repo`, with its temporary directory under `repo/../tmp`."""
    tmp = repo.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    return subprocess.Popen(
        [sys.executable, "tools/ab.py", "--parent", "HEAD~1", "--seconds", "0", *args],
        cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "TMPDIR": str(tmp), "AB_LOG": str(repo.parent / "runs.log")},
    )


def run_ab(repo, *args):
    """ab.py run to its end in `repo`, as `start_ab` starts it."""
    with start_ab(repo, *args) as proc:
        stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def traced_calls(repo):
    """The stand-in's `--trace 1` calls, in order, as (digest, workload)."""
    calls = [ln.split() for ln in (repo.parent / "runs.log").read_text().splitlines()]
    return [(digest, w) for digest, w, trace in calls if trace == "1"]


def left_behind(repo):
    """What the run left in its temporary directory or in the repository's git state."""
    return sorted((repo.parent / "tmp").iterdir()), git(repo, "worktree", "list").count("\n")


def test_pairs_count_wins_and_write_the_bench_file(tmp_path):
    repo = fake_repo(
        tmp_path,
        {"p50": 60.0, "digest": "aaa", "correct": True},
        {"p50": 50.0, "digest": "bbb", "correct": True},
        src_lines=(7, 4),
    )
    proc = run_ab(repo, "--pairs", "4", "--seeds", "1", "2", "--out", "BENCH_9.json")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.count("floats move") == 4  # two seeds of two workloads
    # seeds 1, 2, 1, 2: parent 61, 62, 61, 62 against 51, 52, 51, 52
    assert ("step_ms_p50  parent       61.5 (IQR 1)  change       51.5 (IQR 1)   -16.3%  "
            "within bound (24%)  wins 4/4  gain") in out
    assert "setup_s" in out and "wins 0/4" in out
    # both trees ran once per pair and workload, in alternating order
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("pair ")]
    assert len(lines) == 16
    assert lines[0].endswith("w-one parent: step_ms_p50 61.0")
    assert lines[4].endswith("w-one change: step_ms_p50 52.0")

    bench = json.loads((repo / "BENCH_9.json").read_text())
    assert list(bench)[:4] == ["command", "host", "parent", "change"]
    assert bench["host"] == ("2 vCPU, Python 3.x, numpy 2.x, fake 0, "
                             "thread pins: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1")
    assert bench["parent"]["commit"] == git(repo, "rev-parse", "HEAD~1")
    assert bench["change"]["commit"] == git(repo, "rev-parse", "HEAD")
    assert (bench["parent"]["src_lines"], bench["change"]["src_lines"]) == (8, 5)
    assert bench["parent"]["src_files"] == {"src/pkg/mod.py": 7, "src/pkg/same.py": 1}
    assert bench["change"]["src_files"] == {"src/pkg/mod.py": 4, "src/pkg/same.py": 1}
    # the total, then each file whose count changed
    assert "src/ lines: parent 8, change 5 (-3)\n  src/pkg/mod.py 7 -> 4 (-3)\nwrote BENCH_9.json" in out
    for side, p50, digest in (("parent", 60.0, "aaa"), ("change", 50.0, "bbb")):
        for w in ("w-one", "w-two"):
            entry = bench[side][w]
            assert entry["digest"] == f"sha256:{digest}-1"
            assert entry["trace0"]["metrics"]["step_ms_p50"]["value"] == p50 + 1
            # the median of three traced runs, which read +3, +0 and +1
            traced = entry["trace1"]["metrics"]["tensor.conv2d.bwd_ms"]
            assert traced == {"value": p50 / 2 + 1, "unit": "ms/step",
                              "runs": [p50 / 2 + 3, p50 / 2, p50 / 2 + 1]}
            assert entry["trace1"]["correct"] is True
    # three traced pairs per workload, alternating which tree runs first
    # across pairs and on from one workload to the next
    order = ["aaa", "bbb", "bbb", "aaa", "aaa", "bbb"]
    assert traced_calls(repo) == ([(d, "w-one") for d in order] + [(d, "w-two") for d in order[::-1]])
    assert bench["ab"]["w-one"]["step_ms_p50"]["change"] == [51.0, 52.0, 51.0, 52.0]
    assert bench["ab"]["w-one"]["step_ms_p50"]["verdict"] == "within bound"
    # the parent's tree is gone again and git kept no trace of it
    assert left_behind(repo) == ([], 0)


def test_both_sides_run_from_sibling_copies_the_change_with_its_uncommitted_files(tmp_path):
    state = {"p50": 60.0, "digest": "aaa", "correct": True}
    repo = fake_repo(tmp_path, state, {**state, "p50": 61.0})
    # not committed: an edit, a new file and a deleted one
    (repo / "state.json").write_text(json.dumps({**state, "p50": 61.0, "digest": "ccc"}))
    (repo / "src" / "pkg" / "new.py").write_text("z = 3\n")
    (repo / "src" / "notes.txt").unlink()
    proc = run_ab(repo, "--pairs", "2", "--workloads", "w-one", "--out", "BENCH_9.json")
    assert proc.returncode == 0, proc.stderr
    assert "seed 1: floats move (parent sha256:aaa-1, change sha256:ccc-1)" in proc.stdout
    bench = json.loads((repo / "BENCH_9.json").read_text())
    assert bench["change"]["commit"] == git(repo, "rev-parse", "HEAD") + "-dirty"
    assert bench["change"]["src_files"] == {"src/pkg/mod.py": 0, "src/pkg/new.py": 1, "src/pkg/same.py": 1}
    # every run took one of two trees, side by side in one temporary directory
    trees = {Path(t) for t in (tmp_path / "trees.log").read_text().splitlines()}
    assert sorted(t.name for t in trees) == ["change", "parent"]
    assert {t.parent.parent for t in trees} == {tmp_path / "tmp"} and len({t.parent for t in trees}) == 1
    assert left_behind(repo) == ([], 0)


def test_report_figures_are_printed_beside_the_gated_ones(tmp_path):
    # the parent prints a report line on both workloads, the change on w-one only
    repo = fake_repo(
        tmp_path,
        {"p50": 60.0, "digest": "aaa", "correct": True},
        {"p50": 55.0, "digest": "aaa", "correct": True, "report": ["w-one"]},
    )
    proc = run_ab(repo, "--pairs", "2", "--seeds", "1", "2", "--out", "BENCH_9.json")
    assert proc.returncode == 0, proc.stderr
    one, two = proc.stdout.split("== w-two")
    # seeds 1 and 2: raw p50 71, 72 against 66, 67; calibration 20 against 18.33
    assert "  raw_step_ms_p50      parent       71.5  change       66.5    -7.0%" in one
    assert "  raw_step_ms_p90      parent      131.5  change      121.5    -7.6%" in one
    assert "  calibration_block_ms parent         20  change      18.33    -8.3%" in one
    assert "  raw_step_ms_p50      parent       71.5  change not recorded\n" in two
    raw = json.loads((repo / "BENCH_9.json").read_text())["ab"]
    assert raw["w-one"]["raw"]["raw_step_ms_p50"] == {
        "parent_median": 71.5, "change_median": 66.5, "change_pct": pytest.approx(-100 * 5 / 71.5)}
    assert raw["w-two"]["raw"]["calibration_block_ms"] == {
        "parent_median": 20.0, "change_median": None, "change_pct": None}


def test_sigterm_removes_the_parent_tree_and_ends_the_running_benchmark(tmp_path):
    state = {"p50": 60.0, "digest": "aaa", "correct": True, "sleep": 60}
    repo = fake_repo(tmp_path, state, {**state, "p50": 61.0})
    log, pid = tmp_path / "runs.log", None
    proc = start_ab(repo, "--pairs", "1", "--workloads", "w-one")
    try:
        deadline = time.monotonic() + 30
        while not log.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert log.exists(), "the stand-in never ran"
        pid = int((tmp_path / "sleeper.pid").read_text())
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert left_behind(repo) == ([], 0)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # the stand-in was ended, not left sleeping
        pid = None
    finally:
        proc.kill()
        proc.communicate()
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_bit_identical_change_is_named(tmp_path):
    state = {"p50": 60.0, "digest": "aaa", "correct": True}
    repo = fake_repo(tmp_path, state, {**state, "p50": 61.0})
    proc = run_ab(repo, "--pairs", "1", "--workloads", "w-two")
    assert proc.returncode == 0, proc.stderr
    assert "seed 1: bit-identical" in proc.stdout and "w-one" not in proc.stdout
    assert "wins 0/1" in proc.stdout


@pytest.mark.parametrize("p50, verdict, status", [(130.0, "bound broken", 1), (101.0, "within bound", 0)])
def test_each_metric_is_judged_against_its_bound(tmp_path, p50, verdict, status):
    # seed 1: parent p50 101, p90 201; the change 30% or 1% slower on both
    repo = fake_repo(
        tmp_path,
        {"p50": 100.0, "digest": "aaa", "correct": True},
        {"p50": p50, "digest": "aaa", "correct": True},
    )
    proc = run_ab(repo, "--pairs", "2", "--workloads", "w-one", "--out", "BENCH_9.json")
    assert proc.returncode == status, proc.stderr
    bench = json.loads((repo / "BENCH_9.json").read_text())
    for name in ("step_ms_p50", "step_ms_p90"):
        assert f"{verdict} (24%)" in next(ln for ln in proc.stdout.splitlines() if ln.startswith(f"  {name} "))
        assert bench["ab"]["w-one"][name]["verdict"] == verdict
    for name in ("setup_s", "peak_rss_mb"):
        assert bench["ab"]["w-one"][name]["verdict"] == "within bound"
    broken = "error: bound broken on w-one step_ms_p50, w-one step_ms_p90"
    assert (broken in proc.stderr) == (status == 1)
    assert left_behind(repo) == ([], 0)


def test_a_run_that_is_not_correct_fails_and_writes_nothing(tmp_path):
    repo = fake_repo(
        tmp_path,
        {"p50": 60.0, "digest": "aaa", "correct": True},
        {"p50": 50.0, "digest": "bbb", "correct": False},
    )
    proc = run_ab(repo, "--pairs", "2", "--out", "BENCH_9.json")
    assert proc.returncode == 1
    assert "is not correct" in proc.stderr
    assert not (repo / "BENCH_9.json").exists()
    assert left_behind(repo) == ([], 0)


@pytest.mark.parametrize("extra, message", [
    ({"traced_tail": "  tensor.conv2d.fwd@cnn-small.L0  1.2 ms"}, "last line is not strict JSON"),
    ({"traced_stderr": "RuntimeWarning: overflow"}, "wrote to stderr: 'RuntimeWarning: overflow'"),
])
def test_a_traced_run_that_breaks_the_output_contract_fails_naming_it(tmp_path, extra, message):
    state = {"p50": 60.0, "digest": "aaa", "correct": True}
    repo = fake_repo(tmp_path, state, {**state, **extra})
    proc = run_ab(repo, "--pairs", "1", "--workloads", "w-one", "--out", "BENCH_9.json")
    assert proc.returncode == 1
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error: ")]
    assert len(error) == 1 and error[0].startswith(f"error: change: w-one seed 1 trace 1: {message}")
    assert not (repo / "BENCH_9.json").exists()
    assert left_behind(repo) == ([], 0)


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_gain_needs_nine_wins_in_ten_and_a_median_beyond_the_iqr(ab):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    assert ab.summarize(parent, [v - 3 for v in parent], "lower", 0.24)["gain"]
    # wins every pair, but by less than the parent's IQR of 2
    s = ab.summarize(parent, [v - 1 for v in parent], "lower", 0.24)
    assert s["wins"] == 10 and s["parent_iqr"] == 2.0 and not s["gain"]
    # a large median gain from 8 wins in 10
    assert not ab.summarize(parent, [v - 5 for v in parent[:8]] + parent[8:], "lower", 0.24)["gain"]
    # higher is better: the same figures mirrored
    assert ab.summarize(parent, [v + 3 for v in parent], "higher", 0.24)["gain"]


def test_the_bound_is_a_fraction_of_the_parent_median(ab):
    parent = [98.0, 102.0, 99.0, 101.0]  # median 100, IQR 2.5

    def verdict(change, better="lower", bound=0.1):
        return ab.summarize(parent, change, better, bound)["verdict"]

    assert verdict([109.0] * 4) == "within bound"
    assert verdict([111.0] * 4) == "bound broken"
    assert verdict([50.0] * 4) == "within bound"  # better is never broken
    assert verdict([89.0] * 4, "higher") == "bound broken"
    assert verdict([150.0] * 4, "higher") == "within bound"
    # the parent's IQR of 2.5 is wider than 2% of its median: too noisy to tell
    assert verdict([111.0] * 4, bound=0.02) == "unresolved"
    assert verdict([102.0] * 4, bound=0.03) == "within bound"
    # ... unless every run of the change reads better than every run of the parent
    assert verdict([97.0] * 4, bound=0.02) == "within bound"
    assert verdict([97.0] * 3 + [98.0], bound=0.02) == "unresolved"


GOOD = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"step_ms_p50": {"value": 1.5, "unit": "ms"}}}


def test_a_strict_result_line_is_the_run_result(ab):
    assert ab.result_line("digest sha256:x\n" + json.dumps(GOOD) + "\n", "", ["step_ms_p50"]) == GOOD


@pytest.mark.parametrize("names, message", [
    (["step_ms_p50", "setup_s"], "missing ['setup_s'], extra []"),
    ([], "missing [], extra ['step_ms_p50']"),
    (["step_ms_p90"], "missing ['step_ms_p90'], extra ['step_ms_p50']"),
])
def test_a_result_with_other_metrics_than_declared_is_refused(ab, names, message):
    with pytest.raises(ValueError, match=re.escape(f"metrics differ from BENCHMARK.json: {message}")):
        ab.result_line(json.dumps(GOOD), "", names)


def test_declared_metric_names_follow_the_trace_mode(ab):
    declared = json.loads((AB_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert ab.metric_names(0) == ["setup_s", "step_ms_p50", "step_ms_p90", "peak_rss_mb"]
    assert ab.metric_names(1) == [m["name"] for m in declared["per_layer"]]


@pytest.mark.parametrize("stdout, stderr, message", [
    (json.dumps(GOOD), "warning: x\n", "wrote to stderr: 'warning: x'"),
    (json.dumps(GOOD) + "\nlayer L0 1.2 ms\n", "", "last line is not strict JSON"),
    ("", "", "last line is not strict JSON"),
    (json.dumps({**GOOD, "metrics": {"m": {"value": float("nan")}}}), "", "(NaN is not JSON)"),
    (json.dumps({**GOOD, "metrics": {"m": {"value": -float("inf")}}}), "", "(-Infinity is not JSON)"),
    ('{"correct": true, "attempted": 3, "failed": 0, "metrics": {"m": {"value": 1e999}}}', "",
     "metric m has value inf, not a finite number"),
    (json.dumps({**GOOD, "metrics": {"m": {"value": "1.5"}}}), "", "metric m has value '1.5'"),
    (json.dumps({**GOOD, "metrics": {"m": {"value": True}}}), "", "metric m has value True"),
    (json.dumps({**GOOD, "metrics": {"m": 1.5}}), "", "metric m has value None"),
    (json.dumps({k: v for k, v in GOOD.items() if k != "failed"}), "",
     "not a result with correct, attempted, failed, metrics"),
    (json.dumps([GOOD]), "", "not a result with"),
    (json.dumps({**GOOD, "metrics": [1.5]}), "", "not a result with"),
])
def test_a_result_line_the_benchmark_would_refuse_is_refused(ab, stdout, stderr, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ab.result_line(stdout, stderr, ["step_ms_p50"])
