"""Differentiable channel masks driven by continuous remaining ratios.

Channels of a conv layer are ranked by the summed absolute value of
their outgoing weights (rank 1 = most important; ties break toward the
lower channel id).  Given a remaining ratio r in [1/C, 1], the mask over
ranks is

    m(k) = 1 - relu(1 - relu(1 + r*C - k)),   k = 1..C  (1-based rank)

which keeps the top floor(r*C) channels fully on, gives the single
boundary rank the fractional value r*C - floor(r*C), and zeroes the
rest.  The mask is linear in r except where r*C is an integer; at those
kinks, where the boundary value is 0, the right-sided derivative is used.

Masked-out channels keep their stored weights, so a later re-ranking can
bring them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, _accum, _make


@dataclass
class ChannelRanking:
    """Importance order of one layer's output channels."""

    order: np.ndarray  # [C] channel ids, most important first
    ranks: np.ndarray  # [C] 1-based rank of each channel id

    @property
    def channels(self) -> int:
        return len(self.order)


@dataclass
class ChannelMask:
    """A ratio realized as per-channel scale factors."""

    by_channel: np.ndarray  # [C] float64, indexed by channel id
    boundary_value: float  # fractional entry (0 when r*C is an integer)


@dataclass
class MaskDiagnostics:
    """Counters for non-smooth events hit during the search."""

    kinks_by_layer: dict[int, int] = field(default_factory=dict)

    @property
    def kink_count(self) -> int:
        """Kinks hit so far, over every layer."""
        return sum(self.kinks_by_layer.values())

    def record_kink(self, layer_id: int) -> None:
        self.kinks_by_layer[layer_id] = self.kinks_by_layer.get(layer_id, 0) + 1


def rank_channels(weight) -> ChannelRanking:
    """Rank output channels of a conv weight [Cout, Cin, Kh, Kw] by mass."""
    w = weight.data if isinstance(weight, Tensor) else np.asarray(weight)
    if w.ndim != 4:
        raise ValueError(f"expected a 4-d conv weight, got shape {w.shape}")
    scores = np.abs(w, dtype=np.float64).sum(axis=(1, 2, 3))
    # a stable sort on -scores, so equal scores keep ascending channel id
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ChannelRanking(order=order, ranks=ranks)


def _check_ratio(ratio: float, channels: int) -> float:
    if channels < 1:
        raise ValueError(f"channel count must be positive, got {channels}")
    lo = 1.0 / channels
    if not (lo - 1e-12 <= ratio <= 1.0 + 1e-12):
        raise ValueError(f"ratio {ratio} outside [{lo}, 1] for {channels} channels")
    return float(min(max(ratio, lo), 1.0))


def mask_by_rank(ratio: float, channels: int) -> np.ndarray:
    """Evaluate the mask over ranks 1..C in float64.

    The closed form is total: ratios at or below zero give the all-zero
    mask and ratios at or above one give all ones.  The search keeps its
    ratios inside [1/C, 1]; that constraint lives in `build_mask` and
    friends, not here.
    """
    if channels < 1:
        raise ValueError(f"channel count must be positive, got {channels}")
    k = np.arange(1, channels + 1, dtype=np.float64)
    inner = np.maximum(1.0 + float(ratio) * channels - k, 0.0)
    return 1.0 - np.maximum(1.0 - inner, 0.0)


def build_mask(ratio: float, ranking: ChannelRanking) -> ChannelMask:
    """Materialize the mask for one layer, of `ranking.channels` channels,
    under its current ranking."""
    channels = ranking.channels
    ratio = _check_ratio(ratio, channels)
    rc = ratio * channels
    return ChannelMask(
        by_channel=mask_by_rank(ratio, channels)[ranking.ranks - 1],
        boundary_value=rc - math.floor(rc),
    )


def mask_grad_wrt_ratio(ratio: float, channels: int) -> np.ndarray:
    """Derivative of the rank-indexed mask with respect to the ratio.

    Only the boundary rank floor(r*C)+1 moves with r, with slope C.  When
    r*C lands exactly on an integer the mask has a kink; the right-sided
    derivative is used.  At r = 1 the boundary rank falls outside the
    layer, so the gradient is all zero.
    """
    ratio = _check_ratio(ratio, channels)
    grad = np.zeros(channels, dtype=np.float64)
    boundary = math.floor(ratio * channels)  # 0-based index of rank floor+1
    if boundary < channels:
        grad[boundary] = float(channels)
    return grad


def ratio_mask_tensor(
    ratio: Tensor,
    ranking: ChannelRanking,
    dtype=None,
    ids: np.ndarray | None = None,
) -> Tensor:
    """Build the channel-indexed mask as a graph node over a scalar ratio.

    Backward routes the upstream per-channel gradient through the mask
    derivative, so one backward pass delivers d(loss)/d(ratio).  `ids`
    restricts the mask to those channels, for a layer sliced down to
    them; the derivative is nonzero only at the boundary channel, so the
    gradient is the full mask's as long as `ids` holds that channel.
    """
    if ratio.data.size != 1:
        raise ValueError(f"ratio must be scalar, got shape {ratio.data.shape}")
    entry = build_mask(float(ratio.data), ranking)
    out_dtype = dtype if dtype is not None else ratio.data.dtype
    data = entry.by_channel.astype(out_dtype)
    c = ranking.channels
    grad_by_channel = mask_grad_wrt_ratio(float(ratio.data), c)[ranking.ranks - 1]
    if ids is not None:
        data, grad_by_channel = data[ids], grad_by_channel[ids]

    def back(g):
        if ratio.requires_grad:
            contrib = float(np.dot(np.asarray(g, dtype=np.float64), grad_by_channel))
            _accum(ratio, np.full_like(ratio.data, contrib))

    return _make(data, (ratio,), back)


def kept_count(ratio: float, channels: int) -> int:
    """Discrete kept-channel count for a ratio: round half up, floor of one.

    The boundary channel survives exactly when its fractional mask value
    reaches one half.
    """
    ratio = _check_ratio(ratio, channels)
    return max(1, int(math.floor(ratio * channels + 0.5)))


def active_channels(mask: ChannelMask) -> np.ndarray:
    """Channel ids with a nonzero mask entry, ascending."""
    return np.flatnonzero(mask.by_channel > 0.0)


def ratio_step_channels(ratio: float, ranking: ChannelRanking) -> np.ndarray:
    """Channel ids the ratio gradient needs, ascending.

    These are the channels with a nonzero mask entry plus the boundary
    channel of rank floor(r*C)+1, whose entry is 0 at a kink but whose
    derivative still carries the gradient.
    """
    rc = _check_ratio(ratio, ranking.channels) * ranking.channels
    return np.sort(ranking.order[: math.floor(rc) + 1])


def refresh_ranking(model) -> dict[int, ChannelRanking]:
    """Fresh rankings of every prunable conv, from its current weights.

    The caller picks when to re-rank; the search does so on its
    `ranking_interval` cadence.
    """
    return {i: rank_channels(model.params[i]["weight"]) for i in model.prunable_ids()}
