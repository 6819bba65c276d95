"""Alternating search over network weights and remaining ratios.

Each iteration takes one plain SGD step on the weights using a training
batch and the current masks held fixed, then one SGD step on the ratios
using a validation batch, with gradients flowing to each ratio through
both its mask and the FLOPs cost term.  Weights are frozen
for the ratio step, so it records no graph before the first mask and
computes no weight gradients the next weight step would discard.
Both steps, and the probe evaluation, run on a copy of the model sliced
down to the channels they need: the weight step to those its masks keep,
then writes the updates back; the ratio step to those plus each layer's
boundary channel.  Masked channels would get zero gradient anyway, so
they keep their weights; their bn running statistics, which masking
would still update, stay as they were too.  Rankings refresh on a fixed
iteration interval, so channels masked to zero can re-enter when their
importance recovers.

Both learning rates follow cosine schedules with warm restarts; the
default restart period is a fifth of the search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches, derive_seed
from .masking import (
    ChannelMask,
    ChannelRanking,
    MaskDiagnostics,
    active_channels,
    build_mask,
    kept_count,
    ratio_mask_tensor,
    ratio_step_channels,
    refresh_ranking,
)
from .model import (
    ModelGraph,
    evaluate,
    exact_model_flops,
    forward,
    prunable_flops,
    slice_channels,
    write_back,
)
from .objective import LossBreakdown, combined_loss, flops_cost
from .tensor import Tensor, backward, zero_grad

# The search has converged once no ratio moves more than this over an epoch.
_CONVERGENCE_TOL = 1e-4


@dataclass
class SearchConfig:
    """Knobs for one search run; the defaults are the desk-scale recipe.

    Every field but `seed` is also a `[search]` key of the CLI config.
    """

    alpha: float = 0.5
    beta: float = 0.3
    epochs: int = 6
    batch_size: int = 32
    lr_w_max: float = 0.1
    lr_w_min: float = 0.001
    lr_r_max: float = 0.1
    lr_r_min: float = 0.0001
    cosine_period_epochs: float = 0.0  # 0 means epochs / 5
    ranking_interval: int = 800
    log_interval: int = 50
    probe_size: int = 1024
    seed: int = 0

    def validate(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        for name in ("epochs", "batch_size", "ranking_interval", "log_interval", "probe_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for lo, hi, tag in (
            (self.lr_w_min, self.lr_w_max, "weight"),
            (self.lr_r_min, self.lr_r_max, "ratio"),
        ):
            if lo < 0 or hi <= 0 or lo > hi:
                raise ValueError(f"bad {tag} learning rate range [{lo}, {hi}]")
        if self.cosine_period_epochs < 0:
            raise ValueError("cosine period must be nonnegative")

    def period_epochs(self) -> float:
        return self.cosine_period_epochs if self.cosine_period_epochs > 0 else self.epochs / 5.0


@dataclass
class SearchResult:
    """What the search hands to the pruner and the report."""

    ratios: dict[int, float]
    rankings: dict[int, ChannelRanking]  # the ones the final masks use
    metrics: list[dict]
    refresh_events: list[dict]
    diagnostics: MaskDiagnostics
    iterations: int
    epochs_run: float
    converged: bool
    fpr_exact: float


class SearchDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state


def cosine_lr(step: int, period: int, lr_max: float, lr_min: float) -> float:
    """Cosine annealing with warm restarts every `period` steps.

    lr(0) = lr_max, the midpoint of a cycle sits at (lr_max + lr_min) / 2,
    and lr(period) wraps back to lr_max.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    if lr_min > lr_max:
        raise ValueError(f"lr_min {lr_min} exceeds lr_max {lr_max}")
    phase = (step % period) / period
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * phase))


def sgd_step(params, lr: float) -> None:
    """Plain SGD without momentum: p <- p - lr * grad."""
    for p in params:
        if p.grad is not None:
            p.data -= p.data.dtype.type(lr) * p.grad


def nonfinite_grads(model: ModelGraph) -> list[str]:
    """`<layer id>.<role>` of each parameter whose gradient holds a NaN or inf.

    The loss alone cannot show these: relu maps NaN to zero, so NaN
    weights or pixels before the last relu still give a finite loss.
    """
    return [
        f"{lid}.{role}"
        for lid in sorted(model.params)
        for role, t in sorted(model.params[lid].items())
        if t.grad is not None and not np.isfinite(t.grad).all()
    ]


def _narrow(model: ModelGraph, keep: dict[int, np.ndarray]):
    """`model` sliced to the channel ids `keep` names per layer, or `model`
    itself when every layer keeps all of them; and `keep` without its
    full-width layers."""
    keep = {i: ids for i, ids in keep.items() if len(ids) < model.layer(i).out_channels}
    return (slice_channels(model, keep) if keep else model), keep


def _active_view(model: ModelGraph, masks: dict[int, ChannelMask]):
    """`_narrow` to the channels `masks` leaves nonzero, plus the mask
    vectors cut down to match."""
    net, keep = _narrow(model, {i: active_channels(m) for i, m in masks.items()})
    vecs = {i: m.by_channel[keep[i]] if i in keep else m.by_channel for i, m in masks.items()}
    return net, keep, vecs


def inner_step(
    model: ModelGraph,
    xb: np.ndarray,
    yb: np.ndarray,
    masks: dict[int, ChannelMask],
    ratios: dict[int, float],
    flops: dict[int, int],
    config: SearchConfig,
    lr_w: float,
) -> LossBreakdown:
    """One weight update under fixed masks.  Returns the loss breakdown.

    It computes only the channels the masks keep, on a slice of the
    model, and writes the updated entries back.
    Raises `SearchDiverged`, with the weights left as they were, when the
    loss or any weight gradient is not finite.
    """
    ids = sorted(flops)
    net, keep, mask_vecs = _active_view(model, masks)
    logits = forward(net, xb, masks=mask_vecs, mode="train")
    loss_t, bd = combined_loss(
        logits,
        yb,
        [ratios[i] for i in ids],
        [flops[i] for i in ids],
        config.alpha,
        config.beta,
    )
    if not math.isfinite(bd.ce):
        raise SearchDiverged(
            "training loss is not finite",
            {"loss": bd.ce, "ratios": dict(ratios), "lr_w": lr_w},
        )
    # a slice starts without gradients; the model drops those of its last step
    zero_grad(model.parameters())
    backward(loss_t)
    bad = nonfinite_grads(net)
    if bad:
        raise SearchDiverged(
            "weight gradient is not finite",
            {"loss": bd.ce, "params": bad, "ratios": dict(ratios), "lr_w": lr_w},
        )
    sgd_step(net.parameters(), lr_w)
    if net is not model:
        write_back(model, net, keep)
    return bd


def outer_step(
    model: ModelGraph,
    xb: np.ndarray,
    yb: np.ndarray,
    ratios: dict[int, float],
    rankings: dict,
    flops: dict[int, int],
    config: SearchConfig,
    lr_r: float,
    diag: MaskDiagnostics | None = None,
) -> tuple[dict[int, float], LossBreakdown]:
    """One ratio update from a validation batch.

    The step runs on each layer's `ratio_step_channels`.  The forward
    pass normalizes by batch statistics (a validation batch is still a
    batch) but leaves the running statistics untouched.  The weights are
    frozen for the step and made trainable again on the way out, also
    when it raises; their `.grad` is left as it was.  A ratio's
    gradient depends only on the upstream gradient at its mask, so it is
    the same as with the weights live.  Updated ratios are clamped to
    [1/C, 1]; a ratio gradient that is not finite raises `SearchDiverged`
    instead, since the clamp would turn it into the floor 1/C.
    """
    ids = sorted(flops)
    dtype = model.params[ids[0]]["weight"].data.dtype
    net, keep = _narrow(model, {i: ratio_step_channels(ratios[i], rankings[i]) for i in ids})
    rts = {i: Tensor(np.float64(ratios[i]), requires_grad=True, dtype=np.float64) for i in ids}
    mask_ts = {
        i: ratio_mask_tensor(rts[i], rankings[i], diag=diag, layer_id=i, dtype=dtype, ids=keep.get(i))
        for i in ids
    }
    net.set_requires_grad(False)
    try:
        logits = forward(net, xb, masks=mask_ts, mode="train", update_running=False)
        loss_t, bd = combined_loss(
            logits, yb, [rts[i] for i in ids], [flops[i] for i in ids], config.alpha, config.beta
        )
        if not math.isfinite(bd.ce):
            raise SearchDiverged(
                "validation loss is not finite",
                {"loss": bd.ce, "ratios": dict(ratios), "lr_r": lr_r},
            )
        backward(loss_t)
    finally:
        net.set_requires_grad(True)
    grads = {i: float(rts[i].grad) if rts[i].grad is not None else 0.0 for i in ids}
    bad = [i for i in ids if not math.isfinite(grads[i])]
    if bad:
        raise SearchDiverged(
            "ratio gradient is not finite",
            {"loss": bd.ce, "layers": bad, "ratios": dict(ratios), "lr_r": lr_r},
        )
    out = {}
    for i in ids:
        c = rankings[i].channels
        out[i] = float(min(1.0, max(1.0 / c, ratios[i] - lr_r * grads[i])))
    return out, bd


def _rebuild_masks(ratios, rankings) -> dict[int, ChannelMask]:
    return {i: build_mask(ratios[i], rankings[i].channels, rankings[i]) for i in ratios}


def _exact_fpr(model: ModelGraph, kept: dict[int, int]) -> float:
    """The FLOPs pruning ratio of keeping `kept[i]` output channels of each
    conv `i`: the one FPR formula, shared by the search's log and the plan."""
    return 1.0 - exact_model_flops(model, kept) / exact_model_flops(model)


def _batch_stream(ds: Dataset, batch_size: int, seed: int):
    epoch = 0
    while True:
        for xb, yb in batches(ds, batch_size, seed=seed, epoch=epoch):
            yield xb, yb
        epoch += 1


def run_search(
    model: ModelGraph,
    train: Dataset,
    val: Dataset,
    config: SearchConfig,
    stop_when: dict | None = None,
) -> SearchResult:
    """Alternate weight and ratio updates until the epoch budget or until
    the ratios stop moving (max change below tolerance over an epoch).

    The model must carry usable starting weights; the search fine-tunes
    them under the evolving masks rather than training from scratch.
    `stop_when` optionally names early-exit thresholds (used by control
    experiments): {"mean_ratio_below": x} stops once the unweighted mean
    ratio crosses x.
    """
    config.validate()
    flops = prunable_flops(model)
    if not flops:
        raise ValueError(f"model {model.name!r} has no prunable layers")
    ids = sorted(flops)
    ratios = {i: 1.0 for i in ids}

    iters_per_epoch = math.ceil(len(train) / config.batch_size)
    max_iters = config.epochs * iters_per_epoch
    period = max(1, round(config.period_epochs() * iters_per_epoch))

    diag = MaskDiagnostics()
    rankings = refresh_ranking(model, None, 0, config.ranking_interval)
    masks = _rebuild_masks(ratios, rankings)

    train_stream = _batch_stream(train, config.batch_size, config.seed)
    val_stream = _batch_stream(val, config.batch_size, derive_seed(config.seed, "val-batches"))
    probe_n = min(config.probe_size, len(val))
    probe_x, probe_y = val.images[:probe_n], val.labels[:probe_n]

    metrics: list[dict] = []
    refresh_events: list[dict] = []
    epoch_start = dict(ratios)
    converged = False
    stop_when = stop_when or {}
    it = 0
    bd = None

    def exact_fpr() -> float:
        return _exact_fpr(model, {i: kept_count(ratios[i], rankings[i].channels) for i in ids})

    def log_row(iteration: int, lr_w: float, lr_r: float, breakdown: LossBreakdown) -> None:
        net, _, mask_vecs = _active_view(model, masks)
        acc = evaluate(net, probe_x, probe_y, batch_size=256, masks=mask_vecs)
        row = {
            "iteration": iteration,
            "epoch": iteration // iters_per_epoch,
            "lr_w": lr_w,
            "lr_r": lr_r,
            "loss_ce": breakdown.ce,
            "cost": breakdown.cost,
            "total": breakdown.total,
            "val_accuracy": acc,
            # the FLOPs-weighted mean ratio is the cost at exponent 1
            "fpr_surrogate": 1.0 - flops_cost([ratios[i] for i in ids], [flops[i] for i in ids], 1.0),
            "fpr_exact": exact_fpr(),
        }
        for i in ids:
            row[f"ratio_{i}"] = ratios[i]
        metrics.append(row)

    while it < max_iters:
        lr_w = cosine_lr(it, period, config.lr_w_max, config.lr_w_min)
        lr_r = cosine_lr(it, period, config.lr_r_max, config.lr_r_min)

        xb, yb = next(train_stream)
        bd = inner_step(model, xb, yb, masks, ratios, flops, config, lr_w)

        xb, yb = next(val_stream)
        ratios, _ = outer_step(model, xb, yb, ratios, rankings, flops, config, lr_r, diag)
        masks = _rebuild_masks(ratios, rankings)

        it += 1

        if it % config.ranking_interval == 0:
            before = {i: set(active_channels(masks[i]).tolist()) for i in ids}
            rankings = refresh_ranking(model, rankings, it, config.ranking_interval)
            masks = _rebuild_masks(ratios, rankings)
            for i in ids:
                after = set(active_channels(masks[i]).tolist())
                refresh_events.append(
                    {
                        "iteration": it,
                        "layer": i,
                        "ratio": ratios[i],
                        "floor": math.floor(ratios[i] * rankings[i].channels),
                        "boundary_value": masks[i].boundary_value,
                        "kink_count": diag.kinks_by_layer.get(i, 0),
                        "entered": sorted(after - before[i]),
                        "left": sorted(before[i] - after),
                    }
                )

        if it % config.log_interval == 0 or it == max_iters or it % iters_per_epoch == 0:
            log_row(it, lr_w, lr_r, bd)

        if "mean_ratio_below" in stop_when:
            mean_ratio = sum(ratios.values()) / len(ratios)
            if mean_ratio < stop_when["mean_ratio_below"]:
                break

        if it % iters_per_epoch == 0:
            delta = max(abs(ratios[i] - epoch_start[i]) for i in ids)
            if delta < _CONVERGENCE_TOL:
                converged = True
                break
            epoch_start = dict(ratios)

    if not metrics or metrics[-1]["iteration"] != it:
        lr_w = cosine_lr(max(it - 1, 0), period, config.lr_w_max, config.lr_w_min)
        lr_r = cosine_lr(max(it - 1, 0), period, config.lr_r_max, config.lr_r_min)
        log_row(it, lr_w, lr_r, bd)

    return SearchResult(
        ratios=dict(ratios),
        rankings=rankings,
        metrics=metrics,
        refresh_events=refresh_events,
        diagnostics=diag,
        iterations=it,
        epochs_run=it / iters_per_epoch,
        converged=converged,
        fpr_exact=exact_fpr(),
    )
