"""Turning searched ratios into a physically smaller network.

The plan rounds each ratio half-up into a kept-channel count (never
below one), selects the top-ranked channels, and freezes those index
sets.  Export then slices conv output channels, the matching bn
parameters and running statistics, downstream conv input channels, and
the linear head's input features.  A sliced forward pass is numerically
identical to masking the same channels to zero in the dense model.

Also here: the plain SGD trainer shared by pretraining and fine-tuning,
and raw-file checkpoints (a JSON manifest plus one little-endian float32
blob per parameter).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, batches
from .masking import ChannelRanking, kept_count, rank_channels
from .model import (
    INPUT,
    ModelGraph,
    _spatial_map,
    evaluate,
    exact_flops_by_layer,
    exact_model_flops,
    forward,
    model_from_table,
    model_to_table,
)
from .search import cosine_lr, nonfinite_grads, sgd_step
from .tensor import RunningStats, Tensor, backward, softmax_cross_entropy, zero_grad


@dataclass
class PlanEntry:
    layer_id: int
    ratio: float
    kept_count: int
    kept_channel_ids: list[int]
    flops_before: int
    flops_after: int


@dataclass
class PruningPlan:
    """Frozen channel selections plus the FLOPs ledger."""

    entries: dict[int, PlanEntry]
    flops_full: int
    flops_pruned: int

    @property
    def fpr(self) -> float:
        return 1.0 - self.flops_pruned / self.flops_full

    def kept(self) -> dict[int, int]:
        return {i: e.kept_count for i, e in self.entries.items()}

    def to_dict(self) -> dict:
        return {
            "flops_full": self.flops_full,
            "flops_pruned": self.flops_pruned,
            "fpr": self.fpr,
            "entries": [
                {
                    "layer_id": e.layer_id,
                    "ratio": e.ratio,
                    "kept_count": e.kept_count,
                    "kept_channel_ids": e.kept_channel_ids,
                    "flops_before": e.flops_before,
                    "flops_after": e.flops_after,
                }
                for e in self.entries.values()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PruningPlan":
        entries = {
            e["layer_id"]: PlanEntry(
                layer_id=e["layer_id"],
                ratio=e["ratio"],
                kept_count=e["kept_count"],
                kept_channel_ids=list(e["kept_channel_ids"]),
                flops_before=e["flops_before"],
                flops_after=e["flops_after"],
            )
            for e in d["entries"]
        }
        return cls(entries=entries, flops_full=d["flops_full"], flops_pruned=d["flops_pruned"])


def finalize_plan(
    model: ModelGraph,
    ratios: dict[int, float],
    rankings: dict[int, ChannelRanking] | None = None,
) -> PruningPlan:
    """Round ratios into kept counts and freeze the surviving channel ids.

    Rankings default to fresh ones from the model's current weights.  The
    kept ids are the top `kept_count` ranks, reported in ascending
    channel order.
    """
    prunable = {l.id for l in model.layers if l.prunable}
    if set(ratios) != prunable:
        raise ValueError(f"ratios cover layers {sorted(ratios)}, expected {sorted(prunable)}")
    if rankings is None:
        rankings = {i: rank_channels(model.params[i]["weight"]) for i in prunable}

    kept_counts = {}
    for i in sorted(ratios):
        c = model.layer(i).out_channels
        kept_counts[i] = kept_count(ratios[i], c)

    before = exact_flops_by_layer(model)
    after = exact_flops_by_layer(model, kept_counts)
    entries = {}
    for i in sorted(ratios):
        k = kept_counts[i]
        ids = np.sort(rankings[i].order[:k])
        entries[i] = PlanEntry(
            layer_id=i,
            ratio=float(ratios[i]),
            kept_count=k,
            kept_channel_ids=[int(v) for v in ids],
            flops_before=before[i],
            flops_after=after[i],
        )
    return PruningPlan(
        entries=entries,
        flops_full=sum(before.values()),
        flops_pruned=sum(after.values()),
    )


def export_pruned(model: ModelGraph, plan: PruningPlan) -> ModelGraph:
    """Build a physically smaller model by slicing out pruned channels.

    Output channels of each prunable conv shrink to the plan's kept set;
    everything that consumes them (bn parameters and running statistics,
    the next conv's input channels, the linear head's input features)
    shrinks to match.  A plan that keeps every channel reproduces the
    original logits bit for bit.
    """
    for i, e in plan.entries.items():
        c = model.layer(i).out_channels
        if not (1 <= e.kept_count <= c):
            raise ValueError(f"plan keeps {e.kept_count} of {c} channels at layer {i}")
        if sorted(e.kept_channel_ids) != e.kept_channel_ids or len(set(e.kept_channel_ids)) != len(
            e.kept_channel_ids
        ):
            raise ValueError(f"plan channel ids for layer {i} must be ascending and unique")
        if len(e.kept_channel_ids) != e.kept_count:
            raise ValueError(f"plan layer {i}: {len(e.kept_channel_ids)} ids for count {e.kept_count}")
        if e.kept_channel_ids and (e.kept_channel_ids[0] < 0 or e.kept_channel_ids[-1] >= c):
            raise ValueError(f"plan layer {i}: channel id out of range [0, {c})")

    spatial = _spatial_map(model)
    # kept output channel ids flowing out of every layer (None = all)
    kept_out: dict[int, np.ndarray | None] = {INPUT: None}
    dtype = model.params[sorted(plan.entries)[0]]["weight"].data.dtype
    new_model = model_from_table(model_to_table(model), dtype=dtype)

    for layer in model.layers:
        pred = model.preds[layer.id][0]
        if layer.kind == "conv":
            w = model.params[layer.id]["weight"].data
            in_keep = kept_out[pred]
            if in_keep is not None:
                w = w[:, in_keep]
            if layer.id in plan.entries:
                out_keep = np.asarray(plan.entries[layer.id].kept_channel_ids, dtype=np.int64)
                w = w[out_keep]
                kept_out[layer.id] = out_keep
            else:
                kept_out[layer.id] = None
            spec = new_model.layer(layer.id)
            spec.in_channels = w.shape[1]
            spec.out_channels = w.shape[0]
            new_model.params[layer.id] = {"weight": Tensor(w.copy(), requires_grad=True)}
        elif layer.kind == "bn":
            keep = kept_out[pred]
            gamma = model.params[layer.id]["gamma"].data
            beta = model.params[layer.id]["beta"].data
            stats = model.bn_stats[layer.id]
            if keep is not None:
                gamma, beta = gamma[keep], beta[keep]
                stats = RunningStats(stats.mean[keep].copy(), stats.var[keep].copy())
            else:
                stats = stats.copy()
            spec = new_model.layer(layer.id)
            spec.in_channels = spec.out_channels = len(gamma)
            new_model.params[layer.id] = {
                "gamma": Tensor(gamma.copy(), requires_grad=True),
                "beta": Tensor(beta.copy(), requires_grad=True),
            }
            new_model.bn_stats[layer.id] = stats
            kept_out[layer.id] = keep
        elif layer.kind in ("relu", "pool"):
            keep = kept_out[pred]
            spec = new_model.layer(layer.id)
            full = model.layer(layer.id).out_channels
            spec.in_channels = spec.out_channels = len(keep) if keep is not None else full
            kept_out[layer.id] = keep
        elif layer.kind == "add":
            a, b = model.preds[layer.id]
            if kept_out[a] is not None or kept_out[b] is not None:
                raise ValueError(f"add layer {layer.id} would see pruned operands")
            kept_out[layer.id] = None
        elif layer.kind == "linear":
            w = model.params[layer.id]["weight"].data
            b = model.params[layer.id]["bias"].data
            keep = kept_out[pred]
            if keep is not None:
                oh, ow = spatial[pred]
                hw = oh * ow
                rows = (keep[:, None] * hw + np.arange(hw)[None, :]).ravel()
                w = w[rows]
            spec = new_model.layer(layer.id)
            spec.in_channels = w.shape[0]
            new_model.params[layer.id] = {
                "weight": Tensor(w.copy(), requires_grad=True),
                "bias": Tensor(b.copy(), requires_grad=True),
            }
            kept_out[layer.id] = None

    new_model.meta["plan"] = plan.to_dict()
    return new_model


# ---------------------------------------------------------------------------
# shared SGD trainer


@dataclass
class TrainResult:
    metrics: list[dict]
    best_val_accuracy: float
    best_epoch: int
    epochs_run: int
    diverged: bool
    test_top1: float | None = None
    seconds: float = 0.0


def _snapshot(model: ModelGraph):
    params = {
        (lid, role): t.data.copy() for lid, d in model.params.items() for role, t in d.items()
    }
    stats = {lid: s.copy() for lid, s in model.bn_stats.items()}
    return params, stats


def _restore(model: ModelGraph, snap) -> None:
    params, stats = snap
    for (lid, role), arr in params.items():
        model.params[lid][role].data = arr.copy()
    for lid, s in stats.items():
        model.bn_stats[lid] = s.copy()


def train_supervised(
    model: ModelGraph,
    train: Dataset,
    val: Dataset,
    epochs: int,
    lr_max: float,
    lr_min: float,
    batch_size: int = 64,
    seed: int = 0,
    augment: bool = False,
    log_interval: int = 100,
) -> TrainResult:
    """Plain-SGD cross-entropy training with one cosine decay cycle.

    Tracks validation accuracy per epoch and restores the best snapshot
    at the end.  A non-finite loss or weight gradient aborts immediately,
    before the update, with the last good (best so far) weights in place.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    t0 = time.perf_counter()
    params = model.parameters()
    steps_per_epoch = math.ceil(len(train) / batch_size)
    total_steps = max(1, epochs * steps_per_epoch)
    metrics: list[dict] = []
    best = _snapshot(model)
    best_acc = evaluate(model, val.images, val.labels) if epochs == 0 else -1.0
    best_epoch = -1
    diverged = False
    step = 0

    for epoch in range(epochs):
        for xb, yb in batches(train, batch_size, seed=seed, epoch=epoch, augment=augment):
            lr = cosine_lr(step, total_steps, lr_max, lr_min)
            logits = forward(model, xb, mode="train")
            loss = softmax_cross_entropy(logits, yb)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                diverged = True
                break
            zero_grad(params)
            backward(loss)
            if nonfinite_grads(model):
                diverged = True
                break
            sgd_step(params, lr)
            if step % log_interval == 0:
                metrics.append(
                    {"iteration": step, "epoch": epoch, "lr": lr, "loss_ce": loss_val}
                )
            step += 1
        if diverged:
            break
        acc = evaluate(model, val.images, val.labels)
        metrics.append(
            {"iteration": step, "epoch": epoch, "lr": cosine_lr(max(step - 1, 0), total_steps, lr_max, lr_min),
             "loss_ce": loss_val, "val_accuracy": acc}
        )
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best = _snapshot(model)

    _restore(model, best)
    if best_acc < 0:
        best_acc = evaluate(model, val.images, val.labels)
    return TrainResult(
        metrics=metrics,
        best_val_accuracy=best_acc,
        best_epoch=best_epoch,
        epochs_run=epochs,
        diverged=diverged,
        seconds=time.perf_counter() - t0,
    )


def finetune(
    model: ModelGraph,
    train: Dataset,
    val: Dataset,
    epochs: int = 10,
    lr_max: float = 0.01,
    lr_min: float = 0.0001,
    batch_size: int = 64,
    seed: int = 0,
    test: Dataset | None = None,
) -> TrainResult:
    """Recover accuracy of an exported model; plan and widths stay frozen.

    Runs the shared SGD trainer (cosine decay from lr_max to lr_min over
    the whole budget), restores the best-validation snapshot, and
    optionally reports Top-1 on a test split.  Zero epochs means
    evaluate-only.
    """
    result = train_supervised(
        model, train, val, epochs, lr_max, lr_min, batch_size=batch_size, seed=seed
    )
    if test is not None:
        result.test_top1 = evaluate(model, test.images, test.labels)
    return result


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + one raw little-endian float32 file per array


def _param_files(model: ModelGraph):
    for lid in sorted(model.params):
        for role in sorted(model.params[lid]):
            yield lid, role, model.params[lid][role].data
    for lid in sorted(model.bn_stats):
        yield lid, "running_mean", model.bn_stats[lid].mean
        yield lid, "running_var", model.bn_stats[lid].var


def save_checkpoint(model: ModelGraph, directory, extra: dict | None = None) -> Path:
    """Write the model into `directory`; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for lid, role, arr in _param_files(model):
        name = f"layer{lid:03d}.{role}.f32"
        arr.astype("<f4").tofile(directory / name)
        files.append({"file": name, "layer": lid, "role": role, "shape": list(arr.shape)})
    manifest = {
        "format_version": 1,
        "package_version": __version__,
        "model": model_to_table(model),
        "arrays": files,
        "flops_total": exact_model_flops(model),
    }
    if extra:
        manifest.update(extra)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_checkpoint(directory) -> tuple[ModelGraph, dict]:
    """Rebuild a model and its weights from `save_checkpoint` output.

    The manifest must list every array the model table implies exactly
    once, each with the shape the table gives it.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing checkpoint manifest: expected {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    model = model_from_table(manifest["model"])
    expected = {(lid, role): arr.shape for lid, role, arr in _param_files(model)}
    seen = set()
    for entry in manifest["arrays"]:
        path = directory / entry["file"]
        lid, role = entry["layer"], entry["role"]
        key = (lid, role)
        shape = tuple(entry["shape"])
        where = f"{path}: layer {lid} {role}"
        if key not in expected:
            raise ValueError(f"{where} is not an array of model {model.name!r}")
        if key in seen:
            raise ValueError(f"{where} is listed more than once")
        if shape != expected[key]:
            raise ValueError(f"{where} has shape {shape}, expected shape {expected[key]}")
        seen.add(key)
        if not path.is_file():
            raise FileNotFoundError(f"missing checkpoint array: expected {path}")
        arr = np.fromfile(path, dtype="<f4").astype(np.float32)
        if arr.size != int(np.prod(shape)):
            raise ValueError(f"{path}: holds {arr.size} floats, expected shape {shape}")
        arr = arr.reshape(shape)
        if role == "running_mean":
            model.bn_stats[lid].mean = arr
        elif role == "running_var":
            model.bn_stats[lid].var = arr
        else:
            model.params[lid][role].data = arr
    missing = sorted(expected.keys() - seen)
    if missing:
        lid, role = missing[0]
        raise ValueError(
            f"{manifest_path}: no array for layer {lid} {role}, expected shape {expected[lid, role]}"
        )
    return model, manifest
