"""Search objective: cross entropy plus a differentiable FLOPs penalty.

The penalty is the FLOPs-weighted mean of the per-layer remaining
ratios, raised to a sub-linear exponent:

    cost(r) = (sum_i P_i * r_i / sum_i P_i) ** exponent

where P_i is the full FLOPs of prunable layer i.  With ratios in
(0, 1] the cost lies in (0, 1], so a single weight trades it off
against cross entropy on a comparable scale.  The search's ratio step
minimizes `combined_loss`, built as `add(ce, mul(cost, alpha))` from the
engine's ops with alpha a constant of the cost's dtype (float64 for the
search's ratios, so no rounding of alpha to float32), which makes each
ratio's gradient exactly alpha times the cost's; its weight step, the
cross entropy alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, _accum, _make, add, mul, softmax_cross_entropy


def _validate(ratios, flops, beta):
    r = np.asarray(ratios, dtype=np.float64)
    p = np.asarray(flops, dtype=np.float64)
    if r.shape != p.shape or r.ndim != 1:
        raise ValueError(f"ratios {r.shape} and layer FLOPs {p.shape} must be matching vectors")
    if r.size == 0:
        raise ValueError("no prunable layers: cost is undefined")
    if np.any(p < 0):
        raise ValueError("layer FLOPs must be nonnegative")
    total = p.sum()
    if total <= 0:
        raise ValueError("total FLOPs must be positive")
    if beta <= 0:
        raise ValueError(f"cost exponent must be positive, got {beta}")
    return r, p, total


def flops_cost(ratios: Sequence[float], flops: Sequence[float], beta: float) -> float:
    """Normalized FLOPs cost of a ratio vector, in (0, 1] for ratios in (0, 1]."""
    r, p, total = _validate(ratios, flops, beta)
    base = float(np.dot(p, r) / total)
    return float(base**beta)


def flops_cost_grad(ratios: Sequence[float], flops: Sequence[float], beta: float) -> np.ndarray:
    """Analytic gradient of `flops_cost` with respect to each ratio.

    d cost / d r_i = beta * base**(beta - 1) * P_i / sum(P).  For beta < 1
    the gradient is singular at base == 0; that is an error here, never a
    silent clamp (ratios are kept off zero by their lower bound anyway).
    """
    r, p, total = _validate(ratios, flops, beta)
    base = float(np.dot(p, r) / total)
    if base == 0.0 and beta < 1.0:
        raise FloatingPointError("cost gradient singular: weighted ratio mass is zero")
    return beta * base ** (beta - 1.0) * p / total


def flops_cost_tensor(ratios: Sequence[Tensor], flops: Sequence[float], beta: float) -> Tensor:
    """Graph-linked scalar cost over scalar ratio tensors.

    Backward distributes the analytic gradient to each ratio, so one
    backward pass through a combined loss reaches the ratios through both
    this term and any mask nodes.
    """
    values = np.array([float(t.data) for t in ratios], dtype=np.float64)
    grad = flops_cost_grad(values, flops, beta)
    value = flops_cost(values, flops, beta)
    out_data = np.asarray(value, dtype=ratios[0].data.dtype)

    def back(g):
        up = float(np.asarray(g))
        for t, dv in zip(ratios, grad):
            if t.requires_grad:
                _accum(t, np.full_like(t.data, up * dv))

    return _make(out_data, tuple(ratios), back)


def combined_loss(
    logits: Tensor,
    labels: np.ndarray,
    ratios: Sequence[Tensor],
    flops: Sequence[float],
    alpha: float,
    beta: float,
) -> tuple[Tensor, float]:
    """Cross entropy plus alpha times the FLOPs cost of the scalar ratio
    tensors `ratios`, as one scalar node, and the cross entropy alone.

    At alpha == 0 the node is the cross entropy itself.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    ce_t = softmax_cross_entropy(logits, labels)
    if alpha == 0.0:
        return ce_t, float(ce_t.data)
    cost_t = flops_cost_tensor(ratios, flops, beta)
    return add(ce_t, mul(cost_t, Tensor(alpha, dtype=cost_t.data.dtype))), float(ce_t.data)
