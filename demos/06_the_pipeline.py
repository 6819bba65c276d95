"""
The full pipeline on MNIST
==========================

Pretrain, search, prune, report: the four phases the command line
exposes, driven here from Python.  Point AUTOPRUNE_DATA_DIR (or
--data-dir below) at a directory holding the four MNIST IDX files and
run this script; artifacts land in ./runs/demo.

By default this uses deliberately small budgets so the whole thing
finishes in a couple of minutes on one core.  Pass --full to run the
shipped defaults, the same recipe the acceptance experiment uses
(about 13 minutes, FPR around 0.5 with the fine-tuned model a hair
above the dense baseline).
"""

import argparse
import json
import os
import sys
from pathlib import Path

from autoprune.cli import main as autoprune
from autoprune.data import DATA_DIR_ENV, MNIST_FILES

parser = argparse.ArgumentParser()
parser.add_argument("--data-dir", default=os.environ.get(DATA_DIR_ENV))
parser.add_argument("--out", default="runs/demo")
parser.add_argument("--full", action="store_true",
                    help="run the shipped desk-scale recipe instead of the quick one")
args = parser.parse_args()

if not args.data_dir or not all(
        (Path(args.data_dir) / f).is_file() for f in MNIST_FILES.values()):
    sys.exit(f"need the MNIST IDX files; set {DATA_DIR_ENV} or pass --data-dir")

common = ["--data-dir", args.data_dir, "--out", args.out, "--seed", "0"]
quick = [] if args.full else ["--epochs", "1"]

# ---------------------------------------------------------------------------
# Phase 1: supervised pretraining of the dense model.  The search needs
# weights good enough that its validation gradients mean something.

print("== pretrain ==")
assert autoprune(["pretrain", *common, *quick]) == 0

# Phase 2: the alternating search.  Weights move on training batches,
# ratios move on validation batches against the FLOPs-regularized loss.

print("\n== search ==")
assert autoprune(["search", *common, *quick]) == 0

# Phase 3: round the ratios into a plan, slice the model, fine-tune the
# small network, and evaluate it on the test set.

print("\n== prune ==")
assert autoprune(["prune", *common, *(
    [] if args.full else ["--epochs", "2"])]) == 0

# Phase 4: one table and a couple of SVG plots over the run directory.

print("\n== report ==")
assert autoprune(["report", *common]) == 0

result = json.loads((Path(args.out) / "search" / "result.json").read_text())
manifest = json.loads((Path(args.out) / "pruned" / "manifest.json").read_text())
print("\nsearch kept:", {e["layer_id"]: len(e["kept_channel_ids"]) for e in result["plan"]["entries"]})
print(f"exact FPR {manifest['fpr']:.3f}, "
      f"top-1 {manifest['top1']:.4f} vs baseline {manifest['baseline_top1']:.4f}")
print(f"artifacts in {args.out}/: baseline/ search/ pruned/ report/")
