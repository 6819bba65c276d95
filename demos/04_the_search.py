"""
Watching the ratios move
========================

The search alternates two gradient steps: weights on a training batch
with the masks frozen, then ratios on a validation batch with the masks
live in the graph.  This demo runs it on a small synthetic problem so
the whole dynamic fits in a few seconds, and contrasts a search with no
FLOPs pressure against one with far too much.
"""

import numpy as np

from autoprune import SearchConfig, build_model, finalize_plan, run_search, train_supervised
from autoprune.data import Dataset
from autoprune.report import format_table

rng = np.random.default_rng(0)


def synthetic(n):
    """Four classes drawn as bright quadrants on an 8x8 canvas."""
    images = 0.1 * rng.standard_normal((n, 1, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 4, n)
    for i, y in enumerate(labels):
        r, c = divmod(int(y), 2)
        images[i, 0, 4 * r : 4 * r + 4, 4 * c : 4 * c + 4] += 1.5
    return Dataset(images=images, labels=labels, checksums={})


train, val = synthetic(512), synthetic(128)

# The search fine-tunes, it does not train from scratch: give it a model
# that already solves the task.

model = build_model("cnn-small", num_classes=4, input_shape=(1, 8, 8),
                    rng=np.random.default_rng(1))
pre = train_supervised(model, train, val, epochs=2, lr_max=0.1, lr_min=0.01,
                       batch_size=32)
print(f"pretrained: val top-1 {pre.best_val_accuracy:.3f}\n")


def searched(alpha, epochs=2):
    m = build_model("cnn-small", num_classes=4, input_shape=(1, 8, 8),
                    rng=np.random.default_rng(1))
    for lid, d in model.params.items():
        for role, t in d.items():
            m.params[lid][role].data[...] = t.data
    for lid, s in model.bn_stats.items():
        m.bn_stats[lid].mean[...] = s.mean
        m.bn_stats[lid].var[...] = s.var
    cfg = SearchConfig(alpha=alpha, epochs=epochs, batch_size=32,
                       ranking_interval=50, log_interval=8, probe_size=128)
    return run_search(m, train, val, cfg)


# ---------------------------------------------------------------------------
# No pressure: alpha = 0.  All ratios start at 1, the mask gradient is
# identically zero there, and nothing ever moves.

calm = searched(alpha=0.0)
print("alpha = 0:    ratios", {k: round(v, 3) for k, v in calm.ratios.items()},
      f" FPR {calm.fpr_exact:.3f}")

# Heavy pressure: alpha = 5.  The cost term shoves every layer toward
# its floor and accuracy is sacrificed.

hungry = searched(alpha=5.0)
print("alpha = 5:    ratios", {k: round(v, 3) for k, v in hungry.ratios.items()},
      f" FPR {hungry.fpr_exact:.3f}")

# ---------------------------------------------------------------------------
# The interesting regime sits between: pruning happens where the
# validation loss tolerates it.  On this toy problem a moderate alpha
# and a couple more epochs shave a fifth of the FLOPs away while the
# probe accuracy never budges.

mid = searched(alpha=2.0, epochs=4)
rows = []
for m in mid.metrics[:: max(1, len(mid.metrics) // 6)]:
    ratios = [v for k, v in m.items() if k.startswith("ratio_")]
    rows.append({
        "iteration": m["iteration"],
        "mean_ratio": round(sum(ratios) / len(ratios), 3),
        "val_accuracy": round(m["val_accuracy"], 3),
        "fpr_exact": round(m["fpr_exact"], 3),
    })
print("\nalpha = 2 trajectory:")
print(format_table(rows))
# The plan rounds each ratio into a kept count; it reads only the layer
# widths and the rankings the search's final masks used.
plan = finalize_plan(model, mid.ratios, mid.rankings)
print("final kept channels per layer:", {i: len(e.kept_channel_ids) for i, e in plan.entries.items()})
print(f"plan FPR {plan.fpr:.3f}, the search's own figure {mid.fpr_exact:.3f}")
