"""
Pricing a network in FLOPs
==========================

The search needs a scalar that says how expensive the current ratios
are.  The cost is the FLOPs-weighted mean of the per-layer ratios,
raised to a power beta that controls how hard small ratios are
rewarded.  It is 1 when nothing is pruned, falls monotonically as any
ratio falls, and only the relative sizes of the layers matter.
"""

import numpy as np

from autoprune import build_model, exact_flops_by_layer, flops_cost, flops_cost_grad
from autoprune.model import prunable_flops

# ---------------------------------------------------------------------------
# Where the FLOPs actually are.  On the stock small CNN the middle
# convolutions dominate; the classifier head is noise.

model = build_model("cnn-small", num_classes=10, input_shape=(1, 28, 28))
per_layer = exact_flops_by_layer(model)
total = sum(per_layer.values())
print(f"cnn-small total FLOPs: {total}")
for lid, f in sorted(prunable_flops(model).items()):
    print(f"  conv {lid:2d}  {f:9d}  ({100 * f / total:4.1f}% of the model)")

# ---------------------------------------------------------------------------
# The cost of a ratio vector.  All-ones is exactly 1 by construction;
# pruning the big layers buys much more than pruning the small ones.

flops = [float(f) for f in prunable_flops(model).values()]
ones = [1.0] * len(flops)
print("\ncost(all ones)      =", flops_cost(ones, flops, beta=0.3))

half_first = [0.5] + ones[1:]
half_biggest = ones[:1] + [0.5] + ones[2:]
print("cost(halve layer 0) =", round(flops_cost(half_first, flops, 0.3), 4))
print("cost(halve layer 1) =", round(flops_cost(half_biggest, flops, 0.3), 4))

# Scaling every layer's count by the same factor changes nothing: only
# proportions enter.

print("cost invariant under 7x FLOPs:",
      flops_cost(half_biggest, [7 * f for f in flops], 0.3)
      == flops_cost(half_biggest, flops, 0.3))

# ---------------------------------------------------------------------------
# Beta shapes the pressure.  Small beta makes the first channels cheap
# to remove and the last ones expensive, which is what keeps the search
# from collapsing a layer outright.

print("\ncost of uniform ratio r, by beta:")
print("      r:  " + "  ".join(f"{r:5.2f}" for r in (1.0, 0.8, 0.6, 0.4, 0.2)))
for beta in (1.0, 0.5, 0.3):
    row = [flops_cost([r] * len(flops), flops, beta) for r in (1.0, 0.8, 0.6, 0.4, 0.2)]
    print(f"  b={beta:3.1f}:  " + "  ".join(f"{c:5.3f}" for c in row))

# The gradient is analytic and cheap: each layer feels pressure
# proportional to its share of the FLOPs.

grad = flops_cost_grad([0.9, 0.9, 0.9, 0.9], flops, 0.3)
print("\ncost gradient at uniform 0.9:", np.round(grad, 5))
print("largest layer feels the most pressure:",
      int(np.argmax(grad)) == int(np.argmax(flops)))
