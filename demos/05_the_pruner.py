"""
From soft masks to a smaller network
====================================

A finished search leaves continuous ratios.  Shipping a model means
rounding them into whole channel counts, slicing the kept channels out
of every tensor, and checking that the small network computes exactly
what the masked big one did.  This demo walks that roundtrip and ends
with a checkpoint that reloads bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np

from autoprune import build_model, forward
from autoprune.pruner import (
    PruningPlan,
    export_pruned,
    finalize_plan,
    load_checkpoint,
    save_checkpoint,
)
from autoprune.tensor import no_grad

rng = np.random.default_rng(0)
model = build_model("cnn-small", num_classes=10, input_shape=(1, 28, 28),
                    rng=np.random.default_rng(7))

# ---------------------------------------------------------------------------
# Ratios in, plan out.  Rounding is to the nearest whole channel with at
# least one channel kept; the plan records which channel ids survive,
# ranked by absolute-weight importance at the moment of pruning.

ratios = {0: 0.55, 4: 0.5, 8: 0.75, 11: 0.4}
plan = finalize_plan(model, ratios)
for lid, entry in sorted(plan.entries.items()):
    total = model.layer(lid).out_channels
    print(f"layer {lid:2d}: keep {len(entry.kept_channel_ids):2d}/{total}"
          f"  ids {entry.kept_channel_ids[:6]}...")
# The plan stores only those ids; its FPR is computed from the model.
print(f"plan FPR: {plan.fpr:.3f}")

# ---------------------------------------------------------------------------
# Export copies the kept slices into a genuinely smaller model: fewer
# conv filters, narrower bn vectors, a thinner classifier.

pruned = export_pruned(model, plan)
before = sum(t.data.size for d in model.params.values() for t in d.values())
after = sum(t.data.size for d in pruned.params.values() for t in d.values())
print(f"\nparameters: {before} -> {after}  ({100 * after / before:.1f}% kept)")

# The acid test: on the same inputs, masking channels to zero in the big
# model and physically removing them must agree to float precision.

x = rng.standard_normal((64, 1, 28, 28)).astype(np.float32)
masks = {}
for lid, entry in plan.entries.items():
    v = np.zeros(model.layer(lid).out_channels, dtype=np.float32)
    v[entry.kept_channel_ids] = 1.0
    masks[lid] = v
with no_grad():
    dense = forward(model, x, masks=masks, mode="eval").data
    small = forward(pruned, x, mode="eval").data
print(f"masked dense vs sliced forward, max |diff|: {np.abs(dense - small).max():.2e}")

# ---------------------------------------------------------------------------
# Checkpoints are flat float32 arrays plus a json manifest, so a
# roundtrip is exact, plan included.

with tempfile.TemporaryDirectory() as d:
    save_checkpoint(pruned, Path(d), extra={"plan": plan.to_dict()})
    reloaded, manifest = load_checkpoint(Path(d))
    with no_grad():
        again = forward(reloaded, x, mode="eval").data
    print(f"reloaded checkpoint, max |diff| vs exported: {np.abs(small - again).max():.2e}")
    revived = PruningPlan.from_dict(manifest["plan"], model)  # checked against the dense model
    print("plan survived in the manifest:", revived == plan)
