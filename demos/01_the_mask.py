"""
A channel mask you can differentiate
====================================

The whole search rests on one small function: turn a continuous
"remaining ratio" R into per-channel scale factors over a layer's C
output channels, ranked by importance.  Kept channels get 1, dropped
channels get 0, and the single boundary channel gets the fractional
remainder, which is what lets a gradient reach R at all.
"""

import numpy as np

from autoprune import build_mask, mask_grad_wrt_ratio, rank_channels
from autoprune.masking import mask_by_rank

# ---------------------------------------------------------------------------
# The rule itself, over ranks.  With 16 channels and R = 0.55 we keep
# 8.8 channels: eight whole ones and 0.8 of the ninth.

print("mask over ranks, C=16, R=0.55:")
print(" ", mask_by_rank(0.55, 16))

# Sweeping R from empty to full shows the mask filling up one rank at a
# time, left to right.  The mass always equals R*C, capped at C.

print("\nmask mass tracks R*C:")
for r in (0.1, 0.25, 0.5, 0.9, 1.0):
    m = mask_by_rank(r, 16)
    print(f"  R={r:4.2f}  mass={m.sum():5.2f}  expected={min(r * 16, 16):5.2f}")

# ---------------------------------------------------------------------------
# Channels are not masked in storage order.  A ranking (descending sum of
# absolute weights) decides which channels count as "first"; the mask is
# built over ranks and then scattered back to channel ids.

rng = np.random.default_rng(0)
weight = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
# make channel 5 unmistakably the most important
weight[5] *= 10.0

ranking = rank_channels(weight)
print("\nchannel order, most important first:", ranking.order)

mask = build_mask(0.5, ranking)
print("mask by channel id:", mask.by_channel)
print("channel 5 is kept: ", mask.by_channel[5] == 1.0)

# ---------------------------------------------------------------------------
# The gradient with respect to R lives entirely on the boundary channel:
# nudging R only moves the fractional entry, with slope C.  Everywhere
# else the mask is locally constant.

grad = mask_grad_wrt_ratio(0.55, 16)
print("\nd(mask)/dR at R=0.55, C=16:", grad)
print("nonzero only at rank", int(np.flatnonzero(grad)[0]) + 1, "with slope C=16")

# At R = 1 the boundary rank falls off the end of the layer, so the
# gradient vanishes identically.  With no pressure from the cost term the
# all-keep point is therefore a true fixed point of the search.

print("\nd(mask)/dR at R=1.0:", mask_grad_wrt_ratio(1.0, 16))
