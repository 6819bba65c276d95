"""Paired A/B runs of the benchmark: a parent ref against this checkout.

Run from the repository root:

    python3 tools/ab.py --parent HEAD~1 --pairs 10 --seeds 1 2 3 --out BENCH_<n>.json

The host's speed drifts by up to 2x over minutes, so a claim rests on
pairs: each pair runs `perfbench/run.py --trace 0` once in the parent tree
and once in this one, back to back, parent first in even pairs and second
in odd ones, with pair i on seed `seeds[i % len(seeds)]`.  The parent tree
is `git archive` of the commit `--parent` names, unpacked into a temporary
directory (under $TMPDIR) that is removed afterwards, also when the
script is ended by SIGTERM (exit status 143); nothing is written
into the repository's `.git`.  Each tree's `run.py` imports that tree's
own `src/`.

For every gated metric of `BENCHMARK.json` the script prints each side's
median and interquartile range and the pairs the change won, and whether
the change won at least 9 pairs in 10 by more than the parent's IQR in
the median.  It then checks the change's median against the metric's
`bound`, a fraction of the parent's median: `within bound`, `bound
broken` when it is worse by more, or `unresolved` when the parent's own
IQR is wider than the bound, so its runs spread too widely to tell,
unless every run of the change reads better than every run of the
parent.  Every run is checked as the benchmark checks it
(`result_line`): it exits 0, writes nothing to stderr, and its last line
is a strict-JSON result with `correct: true` and finite metrics, named
exactly as `BENCHMARK.json` lists them for the run's trace mode.  Each
workload's digests at one seed must agree within a tree, and between the
trees they say whether the change is bit-identical or moves floats.

With `--out`, it also runs `--trace 1` at `--bench-seed` in three pairs
per workload, alternating which tree runs first as the timed pairs do,
since one traced pair drifts by up to 30% on ops that did not change.
It writes the file in the layout of `BENCH_14.json`: per side the commit
that ran, its `src_lines` (the lines of every `*.py` under `src/`,
printed with their net change), `src_files` (those lines per file, each
file whose count changed printed as `path parent -> change (+n)`) and,
per workload, the digest and the last stdout line of the `--trace 0`
run at that seed, and under `trace1` the last line of the first traced
run with each metric's value replaced by the median of the three and
its three values, in pair order, under `runs`; plus the paired figures
and verdicts under `ab`.  Exit status: 0, or 1 if a run failed or was
not correct, if digests of one tree disagree, or (after writing `--out`)
if a bound is broken.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class RunFailed(Exception):
    pass


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True, text=True).stdout.strip()


RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def metric_names(trace: int) -> list[str]:
    """The metrics `BENCHMARK.json` declares for a `--trace <trace>` run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(stdout: str, stderr: str, names: list[str]) -> dict:
    """The result a run printed last, checked as the benchmark checks it.

    ValueError if the run wrote to stderr, if its last stdout line is not
    a strict-JSON object (NaN and Infinity are not JSON) holding every key
    of `RESULT_KEYS`, if a metric's value is not a finite number, or if
    the metrics are not exactly `names`.
    """
    if stderr:
        raise ValueError(f"wrote to stderr: {stderr.strip()[-500:]!r}")
    last = (stdout.splitlines() or [""])[-1]
    try:
        result = json.loads(last, parse_constant=_not_json)
    except ValueError as exc:
        raise ValueError(f"last line is not strict JSON ({exc}): {last[:500]!r}") from None
    if not isinstance(result, dict) or not all(k in result for k in RESULT_KEYS) \
            or not isinstance(result["metrics"], dict):
        raise ValueError(f"last line is not a result with {', '.join(RESULT_KEYS)}: {last[:500]!r}")
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} has value {value!r}, not a finite number")
    missing = [n for n in names if n not in result["metrics"]]
    extra = [n for n in result["metrics"] if n not in names]
    if missing or extra:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return result


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `run.py` call in `tree`: its last line, digest and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    where = f"{tree}: {workload} seed {seed} trace {trace}"
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        last = result_line(proc.stdout, proc.stderr, metric_names(trace))
    except ValueError as exc:
        raise RunFailed(f"{where}: {exc}") from None
    if last["correct"] is not True:
        raise RunFailed(f"{where} is not correct: {json.dumps(last)[:500]}")
    lines = proc.stdout.splitlines()
    digest = next((ln.split(" ", 1)[1] for ln in lines if ln.startswith("digest ")), None)
    env = next((json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")), {})
    return {"last": last, "digest": digest, "environment": env}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, IQRs, the change's wins, whether the gain clears the bar and
    the verdict on `bound`, a fraction of the parent's median."""
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if p3 - p1 > bound * abs(pmed) and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "bound broken" if sign * (cmed - pmed) > bound * abs(pmed) else "within bound"
    return {
        "parent_median": pmed, "parent_iqr": p3 - p1,
        "change_median": cmed, "change_iqr": c3 - c1,
        "wins": wins, "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and sign * (pmed - cmed) > p3 - p1,
        "bound": bound, "verdict": verdict,
    }


def host_line(env: dict) -> str:
    return (f"{env.get('nproc', '?')} vCPU, Python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
            f"{env.get('blas', '?')}, one BLAS thread")


def unpack(commit: str, dest: Path) -> None:
    """The files of `commit` in the new directory `dest`."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def commit_of(tree: Path) -> str:
    """HEAD of `tree`, marked when tracked files differ from it."""
    head = git(tree, "rev-parse", "HEAD")
    return head + ("-dirty" if git(tree, "status", "--porcelain", "--untracked-files=no") else "")


def src_files(tree: Path) -> dict[str, int]:
    """The lines of each `*.py` file under `tree`'s `src/`, by path from `tree`."""
    return {f.relative_to(tree).as_posix(): len(f.read_bytes().splitlines())
            for f in sorted((tree / "src").rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--bench-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write BENCH json here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    args.parent_commit = git(ROOT, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # SIGTERM would skip the `finally`; as `SystemExit` it first makes
    # `subprocess.run` kill the running benchmark, then removes the tree
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    try:
        unpack(args.parent_commit, scratch / "tree")
        return compare(args, {"parent": scratch / "tree", "change": ROOT}, workloads, gated)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def compare(args, trees: dict, workloads: list[str], gated: dict) -> int:
    runs = {side: {w: [] for w in workloads} for side in trees}  # (seed, result) per pair
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                res = run_bench(trees[side], w, seed, args.seconds, 0)
                runs[side][w].append((seed, res))
                p50 = res["last"]["metrics"].get("step_ms_p50", {}).get("value")
                print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: step_ms_p50 {p50}", file=sys.stderr,
                      flush=True)

    status, ab, broken = 0, {}, []
    for w in workloads:
        print(f"== {w}")
        digests = {side: {} for side in trees}
        for side in trees:
            for seed, res in runs[side][w]:
                if digests[side].setdefault(seed, res["digest"]) != res["digest"]:
                    print(f"  error: {side} digests differ between runs at seed {seed}")
                    status = 1
        for seed in sorted(digests["parent"]):
            same = digests["parent"][seed] == digests["change"][seed]
            print(f"  seed {seed}: {'bit-identical' if same else 'floats move'} "
                  f"(parent {digests['parent'][seed]}, change {digests['change'][seed]})")
        ab[w] = {"seeds": [seed for seed, _ in runs["parent"][w]]}
        for name, (better, bound) in gated.items():
            values = {side: [res["last"]["metrics"][name]["value"] for _, res in runs[side][w]] for side in trees}
            s = summarize(values["parent"], values["change"], better, bound)
            ab[w][name] = {**values, **s}
            if s["verdict"] == "bound broken":
                broken.append(f"{w} {name}")
            print(f"  {name:12s} parent {s['parent_median']:10.4g} (IQR {s['parent_iqr']:.3g})  "
                  f"change {s['change_median']:10.4g} (IQR {s['change_iqr']:.3g})  "
                  f"{(s['change_median'] / s['parent_median'] - 1) * 100 if s['parent_median'] else 0:+6.1f}%  "
                  f"{s['verdict']} ({bound:.0%})  wins {s['wins']}/{s['pairs']}{'  gain' if s['gain'] else ''}")
    if args.out is not None:
        write_bench(args, trees, workloads, runs, ab)
    if broken:
        print(f"error: bound broken on {', '.join(broken)}", file=sys.stderr)
        status = 1
    return status


TRACED_PAIRS = 3


def median_trace(lasts: list[dict]) -> dict:
    """The first traced run's last line, each metric's value the median of
    `lasts` and its values, in run order, under `runs`."""
    metrics = {}
    for name, m in lasts[0]["metrics"].items():
        values = [last["metrics"][name]["value"] for last in lasts]
        metrics[name] = {**m, "value": statistics.median(values), "runs": values}
    return {**lasts[0], "metrics": metrics}


def write_bench(args, trees: dict, workloads: list[str], runs: dict, ab: dict) -> None:
    """The BENCH file: trace 0 at the bench seed and the median of three
    trace 1 runs there, per side."""
    env = {}
    files = {side: src_files(tree) for side, tree in trees.items()}
    lines = {side: sum(counts.values()) for side, counts in files.items()}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    for path in sorted(files["parent"].keys() | files["change"].keys()):
        old, new = files["parent"].get(path, 0), files["change"].get(path, 0)
        if old != new:
            print(f"  {path} {old} -> {new} ({new - old:+d})")
    sides = {"parent": {"commit": args.parent_commit, "src_lines": lines["parent"], "src_files": files["parent"]},
             "change": {"commit": commit_of(ROOT), "src_lines": lines["change"], "src_files": files["change"]}}
    for k, w in enumerate(workloads):
        traced = {side: [] for side in trees}
        for j in range(TRACED_PAIRS):
            for side in ("parent", "change") if (k * TRACED_PAIRS + j) % 2 == 0 else ("change", "parent"):
                res = run_bench(trees[side], w, args.bench_seed, args.seconds, 1)
                env = res["environment"] or env
                traced[side].append(res["last"])
                print(f"traced pair {j + 1}/{TRACED_PAIRS} {w} {side}", file=sys.stderr, flush=True)
        for side in trees:
            seeded = [res for seed, res in runs[side][w] if seed == args.bench_seed]
            trace0 = seeded[0] if seeded else run_bench(trees[side], w, args.bench_seed, args.seconds, 0)
            sides[side][w] = {"digest": trace0["digest"], "trace0": trace0["last"],
                              "trace1": median_trace(traced[side])}
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.bench_seed} "
                   f"--seconds {args.seconds:g} --trace T",
        "host": host_line(env),
        **sides,
        "ab_command": "python3 tools/ab.py " + " ".join(sys.argv[1:]),
        "ab": ab,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(main())
