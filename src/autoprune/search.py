"""Alternating search over network weights and remaining ratios.

Each iteration takes one (or more) plain SGD steps on the weights using
a training batch and the current masks held fixed, then one SGD step on
the ratios using a validation batch, with gradients flowing to each
ratio through both its mask and the FLOPs cost term.  Weights are frozen
for the ratio step, so it records no graph before the first mask and
computes no weight gradients the next weight step would discard.
Rankings refresh on a fixed iteration interval, so channels masked to
zero keep their stored weights and can re-enter when their importance
recovers.

Both learning rates follow cosine schedules with warm restarts; the
default restart period is a fifth of the search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, batches, derive_seed
from .masking import (
    ChannelMask,
    MaskDiagnostics,
    active_channels,
    build_mask,
    kept_count,
    ratio_mask_tensor,
    refresh_ranking,
)
from .model import ModelGraph, evaluate, exact_model_flops, forward, prunable_flops
from .objective import LossBreakdown, combined_loss
from .tensor import Tensor, backward, zero_grad


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
    inner_steps_per_outer: int = 1
    log_interval: int = 50
    convergence_tol: float = 1e-4
    probe_size: int = 1024
    seed: int = 0

    def validate(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.ranking_interval < 1:
            raise ValueError(f"ranking interval must be >= 1, got {self.ranking_interval}")
        if self.inner_steps_per_outer < 1:
            raise ValueError(f"inner steps per outer must be >= 1, got {self.inner_steps_per_outer}")
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
    kept_counts: dict[int, int]
    active: dict[int, list[int]]
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

    Raises `SearchDiverged`, with the weights left as they were, when the
    loss or any weight gradient is not finite.
    """
    ids = sorted(flops)
    mask_vecs = {i: masks[i].by_channel for i in masks}
    logits = forward(model, xb, masks=mask_vecs, mode="train")
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
    params = model.parameters()
    zero_grad(params)
    backward(loss_t)
    bad = nonfinite_grads(model)
    if bad:
        raise SearchDiverged(
            "weight gradient is not finite",
            {"loss": bd.ce, "params": bad, "ratios": dict(ratios), "lr_w": lr_w},
        )
    sgd_step(params, lr_w)
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

    The forward pass normalizes by batch statistics (a validation batch
    is still a batch) but leaves the running statistics untouched.  The
    weights are frozen for the step and made trainable again on the way
    out, also when it raises; their `.grad` is left as it was.  A ratio's
    gradient depends only on the upstream gradient at its mask, so it is
    the same as with the weights live.  Updated ratios are clamped to
    [1/C, 1]; a ratio gradient that is not finite raises `SearchDiverged`
    instead, since the clamp would turn it into the floor 1/C.
    """
    ids = sorted(flops)
    dtype = model.params[ids[0]]["weight"].data.dtype
    rts = {i: Tensor(np.float64(ratios[i]), requires_grad=True, dtype=np.float64) for i in ids}
    mask_ts = {
        i: ratio_mask_tensor(rts[i], rankings[i], diag=diag, layer_id=i, dtype=dtype)
        for i in ids
    }
    model.set_requires_grad(False)
    try:
        logits = forward(model, xb, masks=mask_ts, mode="train", update_running=False)
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
        model.set_requires_grad(True)
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


def _exact_fpr(model: ModelGraph, ratios: dict[int, float]) -> float:
    full = exact_model_flops(model)
    kept = {i: kept_count(ratios[i], model.layer(i).out_channels) for i in ratios}
    return 1.0 - exact_model_flops(model, kept) / full


def _surrogate_fpr(ratios, flops) -> float:
    ids = sorted(flops)
    p = np.array([flops[i] for i in ids], dtype=np.float64)
    r = np.array([ratios[i] for i in ids], dtype=np.float64)
    return float(1.0 - np.dot(p, r) / p.sum())


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
    channels = {i: model.layer(i).out_channels for i in ids}
    ratios = {i: 1.0 for i in ids}

    steps_per_epoch = math.ceil(len(train) / config.batch_size)
    iters_per_epoch = math.ceil(steps_per_epoch / config.inner_steps_per_outer)
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

    def log_row(iteration: int, lr_w: float, lr_r: float, breakdown: LossBreakdown) -> None:
        mask_vecs = {i: masks[i].by_channel for i in ids}
        acc = evaluate(model, probe_x, probe_y, batch_size=256, masks=mask_vecs)
        row = {
            "iteration": iteration,
            "epoch": iteration // iters_per_epoch,
            "lr_w": lr_w,
            "lr_r": lr_r,
            "loss_ce": breakdown.ce,
            "cost": breakdown.cost,
            "total": breakdown.total,
            "val_accuracy": acc,
            "fpr_surrogate": _surrogate_fpr(ratios, flops),
            "fpr_exact": _exact_fpr(model, ratios),
        }
        for i in ids:
            row[f"ratio_{i}"] = ratios[i]
        metrics.append(row)

    while it < max_iters:
        lr_w = cosine_lr(it, period, config.lr_w_max, config.lr_w_min)
        lr_r = cosine_lr(it, period, config.lr_r_max, config.lr_r_min)

        for _ in range(config.inner_steps_per_outer):
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
                rc = ratios[i] * channels[i]
                refresh_events.append(
                    {
                        "iteration": it,
                        "layer": i,
                        "ratio": ratios[i],
                        "floor": math.floor(rc),
                        "boundary_value": rc - math.floor(rc),
                        "kink_count": diag.kink_count,
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
            if delta < config.convergence_tol:
                converged = True
                break
            epoch_start = dict(ratios)

    if not metrics or metrics[-1]["iteration"] != it:
        lr_w = cosine_lr(max(it - 1, 0), period, config.lr_w_max, config.lr_w_min)
        lr_r = cosine_lr(max(it - 1, 0), period, config.lr_r_max, config.lr_r_min)
        log_row(it, lr_w, lr_r, bd)

    kept = {i: kept_count(ratios[i], channels[i]) for i in ids}
    return SearchResult(
        ratios=dict(ratios),
        kept_counts=kept,
        active={i: active_channels(masks[i]).tolist() for i in ids},
        metrics=metrics,
        refresh_events=refresh_events,
        diagnostics=diag,
        iterations=it,
        epochs_run=it / iters_per_epoch,
        converged=converged,
        fpr_exact=_exact_fpr(model, ratios),
    )
