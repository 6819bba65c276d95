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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, batches
from .masking import ChannelRanking, kept_count, rank_channels
from .model import (
    ModelGraph,
    evaluate,
    exact_flops_by_layer,
    exact_model_flops,
    forward,
    model_from_table,
    model_to_table,
    slice_channels,
)
from .search import cosine_lr, nonfinite_grads, sgd_step
from .tensor import backward, softmax_cross_entropy, zero_grad


class CheckpointError(ValueError):
    """A checkpoint's manifest or arrays do not describe a loadable model."""


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
            "entries": [asdict(e) for e in self.entries.values()],
        }

    @classmethod
    def from_dict(cls, d: dict, path="<plan>") -> "PruningPlan":
        """Read back `to_dict` output; a missing or mistyped field raises
        `CheckpointError` naming `path`, the file `d` came from."""
        kinds = {"layer_id": int, "ratio": float, "kept_count": int, "kept_channel_ids": list,
                 "flops_before": int, "flops_after": int}
        entries = {}
        for n, e in enumerate(_field(path, "plan: ", d, "entries", list)):
            entry = PlanEntry(**{k: _field(path, f"plan entry {n}: ", e, k, t) for k, t in kinds.items()})
            entries[entry.layer_id] = entry
        full, pruned = (_field(path, "plan: ", d, k, int) for k in ("flops_full", "flops_pruned"))
        return cls(entries, full, pruned)


def finalize_plan(
    model: ModelGraph,
    ratios: dict[int, float],
    rankings: dict[int, ChannelRanking] | None = None,
) -> PruningPlan:
    """Round ratios into kept counts and freeze the surviving channel ids.

    Rankings default to fresh ones from the model's current weights; after
    a search, pass the ones its final masks used (`SearchResult.rankings`),
    so the plan keeps the channels the search trained.  The kept ids are
    the top `kept_count` ranks, reported in ascending channel order.
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
    """Build a physically smaller model holding only the plan's kept channels.

    The plan must name, for each of its layers, `kept_count` ascending
    unique channel ids in range; the model is then cut down by
    `slice_channels`.
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

    keep = {i: np.asarray(e.kept_channel_ids, dtype=np.int64) for i, e in plan.entries.items()}
    return slice_channels(model, keep)


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


def _snapshot(model: ModelGraph) -> list:
    return [(lid, role, arr.copy()) for lid, role, arr in model.arrays()]


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
) -> TrainResult:
    """Plain-SGD cross-entropy training with one cosine decay cycle.

    Logs the loss every 100 steps and validation accuracy per epoch, and
    restores the best snapshot at the end.  A non-finite loss or weight
    gradient aborts immediately, before the update, with the last good
    (best so far) weights in place.
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
            if step % 100 == 0:
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

    for lid, role, arr in best:
        model.set_array(lid, role, arr)
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


def save_checkpoint(model: ModelGraph, directory, extra: dict | None = None) -> Path:
    """Write the model into `directory`; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for lid, role, arr in model.arrays():
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


_FIELD_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number"}
_INT_LISTS = ("shape", "kept_channel_ids")


def _field(path, where: str, record, key: str, kind: type):
    """`record[key]`, which must be a `kind` (a shape or an id list a list
    of integers); otherwise `CheckpointError` names the file `path`."""
    value = record.get(key) if isinstance(record, dict) else None
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and key in _INT_LISTS:
        ok = all(isinstance(d, int) and not isinstance(d, bool) for d in value)
    if not ok:
        need = "a list of integers" if key in _INT_LISTS else _FIELD_TYPES[kind]
        raise CheckpointError(f"{path}: {where}field {key!r} is missing or not {need}")
    return value


def load_checkpoint(directory) -> tuple[ModelGraph, dict]:
    """Rebuild a model and its weights from `save_checkpoint` output.

    The manifest must hold a model table and list every array the table
    implies exactly once, each with the shape the table gives it; a
    checkpoint that does not, or whose fields are missing or of the
    wrong type, raises `CheckpointError`.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing checkpoint manifest: expected {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as e:
        raise CheckpointError(f"{manifest_path}: {e}") from e
    table = _field(manifest_path, "", manifest, "model", dict)
    try:
        model = model_from_table(table, np.float32)  # the array files are float32
    except KeyError as e:
        raise CheckpointError(f"{manifest_path}: model table has no field {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{manifest_path}: {e}") from e
    expected = {(lid, role): arr.shape for lid, role, arr in model.arrays()}
    seen = set()
    for n, entry in enumerate(_field(manifest_path, "", manifest, "arrays", list)):
        where = f"array entry {n}: "
        path = directory / _field(manifest_path, where, entry, "file", str)
        lid = _field(manifest_path, where, entry, "layer", int)
        role = _field(manifest_path, where, entry, "role", str)
        shape = tuple(_field(manifest_path, where, entry, "shape", list))
        key = (lid, role)
        where = f"{path}: layer {lid} {role}"
        if key not in expected:
            raise CheckpointError(f"{where} is not an array of model {model.name!r}")
        if key in seen:
            raise CheckpointError(f"{where} is listed more than once")
        if shape != expected[key]:
            raise CheckpointError(f"{where} has shape {shape}, expected shape {expected[key]}")
        seen.add(key)
        if not path.is_file():
            raise FileNotFoundError(f"missing checkpoint array: expected {path}")
        arr = np.fromfile(path, dtype="<f4").astype(np.float32)
        if arr.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: holds {arr.size} floats, expected shape {shape}")
        model.set_array(lid, role, arr.reshape(shape))
    missing = sorted(expected.keys() - seen)
    if missing:
        lid, role = missing[0]
        raise CheckpointError(
            f"{manifest_path}: no array for layer {lid} {role}, expected shape {expected[lid, role]}"
        )
    return model, manifest
