"""Benchmark of the autoprune pipeline on generated MNIST- and CIFAR-shaped data.

Run from the repository root:

    python3 perfbench/run.py --workload search-cnn-mnist --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

`--trace 0` times the workload with no spans and prints the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and prints the
per-layer metrics plus the trace overhead.  Either way the report lines
above the last line give every named figure with its unit, the output
digest, the checks and the environment; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `--workload all`
runs each workload in a fresh process, one after the other.

The program is imported from `src/` of the same checkout, never from an
installed copy; without it the benchmark exits with an error and no
result.  BLAS, OpenMP and MKL are pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"  # scratch inputs, checkpoints and trace files

sys.dont_write_bytecode = True


def load_program() -> types.SimpleNamespace:
    init = SRC / "autoprune" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: program source not found: expected {init}")
    sys.path.insert(0, str(SRC))
    import autoprune
    from autoprune import data, masking, model, objective, pruner, search, tensor

    if Path(autoprune.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported autoprune from {autoprune.__file__}, expected {init}")
    return types.SimpleNamespace(data=data, masking=masking, model=model, objective=objective,
                                 pruner=pruner, search=search, tensor=tensor)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS and state are per workload."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import E2E_UNITS, SPECS, Runner, per_layer_units

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, sorted(SPECS))

    ap = load_program()
    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        runner = Runner(ap, args.workload, args.seed, rundir)
        runner.setup()
        runner.prepare()
        runner.run(args.seconds, bool(args.trace))
        report = runner.report()
        if args.trace:
            units = per_layer_units(ap)
            values = runner.per_layer()
            runner.tracer.write(WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            units, values = E2E_UNITS, runner.end_to_end()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    checks, env = runner.checks, environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in report.items():
        print(f"  {name:28s} {m['value']!r:>24} {m['unit']}")
    if args.trace:
        for name in units:
            print(f"  {name:44s} {values[name]:>16.6g} {units[name]}")
    print(f"digest sha256:{runner.digest}")
    print(f"checks attempted {checks.attempted}  failed {checks.failed}"
          + (f"  failures {checks.failures}" if checks.failures else ""))
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed, "digest": runner.digest,
                                  "metrics": report, "environment": env}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
