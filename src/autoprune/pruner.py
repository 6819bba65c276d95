"""Turning searched ratios into a physically smaller network.

A plan is the kept channel ids of each prunable conv and nothing else:
each ratio rounds half-up into a kept count (never below one), and the
top-ranked channels survive.  Its FLOPs pruning ratio comes from the
model the plan is checked against, never from a file.  Export then
slices conv output channels, the matching bn
parameters and running statistics, downstream conv input channels, and
the linear head's input features.  A sliced forward pass is numerically
identical to masking the same channels to zero in the dense model.

Also here: the plain SGD trainer shared by pretraining and fine-tuning,
and raw-file checkpoints: a JSON manifest holding the model's
architecture and each prunable conv's width, plus one little-endian
float32 file per array (each parameter and bn running statistic), named
by layer and role.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, batches
from .masking import ChannelRanking, kept_count, refresh_ranking
from .model import (
    CheckpointError,
    ModelGraph,
    _field,
    _init_params,
    evaluate,
    exact_flops_by_layer,  # unused here; perfbench's tracer times it on this module too
    forward,
    model_from_table,
    model_to_table,
    slice_channels,
)
from .search import _check_lr_range, _exact_fpr, cosine_lr, nonfinite_grads, sgd_step
from .tensor import backward, softmax_cross_entropy, zero_grad


@dataclass
class PlanEntry:
    layer_id: int
    kept_channel_ids: list[int]


@dataclass
class PruningPlan:
    """The channel ids each prunable conv keeps, and the FPR they give on
    the model the plan was built against (see `_checked_plan`)."""

    entries: dict[int, PlanEntry]
    fpr: float

    def to_dict(self) -> dict:
        return {"entries": [asdict(e) for e in self.entries.values()]}

    @classmethod
    def from_dict(cls, d: dict, model: ModelGraph, path="<plan>") -> "PruningPlan":
        """Read back `to_dict` output as a plan for `model`; a missing or
        mistyped field, or a plan `_checked_plan` refuses, raises
        `CheckpointError` naming `path`, the file `d` came from."""
        entries = [PlanEntry(**{f.name: _field(f"{path}: plan entry {n}: ", e, f.name, f.type)
                                for f in fields(PlanEntry)})
                   for n, e in enumerate(_field(f"{path}: plan: ", d, "entries", "list"))]
        try:
            return _checked_plan(model, entries)
        except ValueError as e:
            raise CheckpointError(f"{path}: {e}") from e


def _checked_plan(model: ModelGraph, entries: list[PlanEntry]) -> PruningPlan:
    """The plan `entries` make for `model`, with its FPR.  `ValueError`
    unless they name every prunable conv exactly once, each with
    nonempty, ascending, unique channel ids in range."""
    prunable = model.prunable_ids()
    plan: dict[int, PlanEntry] = {}
    for n, e in enumerate(entries):
        i, ids = e.layer_id, e.kept_channel_ids
        if i not in prunable:
            raise ValueError(f"plan entry {n}: layer {i} is not a prunable conv of model {model.name!r}")
        if i in plan:
            raise ValueError(f"plan entry {n}: layer {i} is named more than once")
        c = model.layer(i).out_channels
        if not ids or any(a >= b for a, b in zip(ids, ids[1:])) or ids[0] < 0 or ids[-1] >= c:
            raise ValueError(f"plan entry {n}: layer {i} channel ids must be nonempty, ascending, "
                             f"unique and in [0, {c})")
        plan[i] = e
    missing = sorted(set(prunable) - plan.keys())
    if missing:
        raise ValueError(f"plan names no entry for prunable conv {missing[0]}")
    return PruningPlan(plan, _exact_fpr(model, {i: len(e.kept_channel_ids) for i, e in plan.items()}))


def finalize_plan(
    model: ModelGraph,
    ratios: dict[int, float],
    rankings: dict[int, ChannelRanking] | None = None,
) -> PruningPlan:
    """Round ratios into kept counts and freeze the surviving channel ids.

    Rankings default to fresh ones from the model's current weights
    (`refresh_ranking`); after a search, pass the ones its final masks
    used (`SearchResult.rankings`), so the plan keeps the channels the
    search trained.  The kept ids are the top `kept_count` ranks,
    reported in ascending channel order.
    """
    prunable = set(model.prunable_ids())
    if set(ratios) != prunable:
        raise ValueError(f"ratios cover layers {sorted(ratios)}, expected {sorted(prunable)}")
    if rankings is None:
        rankings = refresh_ranking(model)
    entries = []
    for i in sorted(ratios):
        k = kept_count(ratios[i], model.layer(i).out_channels)
        entries.append(PlanEntry(i, sorted(int(v) for v in rankings[i].order[:k])))
    return _checked_plan(model, entries)


def export_pruned(model: ModelGraph, plan: PruningPlan) -> ModelGraph:
    """Build a physically smaller model holding only the plan's kept
    channels, by `slice_channels`."""
    return slice_channels(
        model, {i: np.asarray(e.kept_channel_ids, dtype=np.int64) for i, e in plan.entries.items()}
    )


# ---------------------------------------------------------------------------
# shared SGD trainer


@dataclass
class TrainResult:
    metrics: list[dict]
    best_val_accuracy: float
    diverged: bool


def _snapshot(model: ModelGraph) -> list:
    return [(lid, role, arr.copy()) for lid, role, arr in model.arrays()]


def _check_training(epochs: int, batch_size: int, lr_max: float, lr_min: float) -> None:
    """`ValueError` naming the first of `train_supervised`'s settings that
    is wrong on its face."""
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    _check_lr_range(lr_min, lr_max)


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
    _check_training(epochs, batch_size, lr_max, lr_min)
    params = model.parameters()
    steps_per_epoch = math.ceil(len(train) / batch_size)
    total_steps = max(1, epochs * steps_per_epoch)
    metrics: list[dict] = []
    best = _snapshot(model)
    best_acc = -1.0
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
            best = _snapshot(model)

    for lid, role, arr in best:
        model.set_array(lid, role, arr)
    if best_acc < 0:  # no epoch finished: zero epochs, or a first-epoch divergence
        best_acc = evaluate(model, val.images, val.labels)
    return TrainResult(metrics, best_acc, diverged)


# recovering an exported model's accuracy is the same training; widths stay frozen
finetune = train_supervised


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + one raw little-endian float32 file per array

# the manifest layout `load_checkpoint` reads; 1 stored the whole layer table
_FORMAT_VERSION = 2


def _array_file(layer_id: int, role: str) -> str:
    """The name of the file holding one array of a checkpoint."""
    return f"layer{layer_id:03d}.{role}.f32"


def save_checkpoint(model: ModelGraph, directory, extra: dict | None = None) -> Path:
    """Write the model into `directory`; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for lid, role, arr in model.arrays():
        arr.astype("<f4").tofile(directory / _array_file(lid, role))
    manifest = {
        "format_version": _FORMAT_VERSION,
        "package_version": __version__,
        "model": model_to_table(model),
    }
    if extra:
        manifest.update(extra)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_manifest(path):
    """The JSON record at `path`, which a phase wrote.  A missing file
    raises `FileNotFoundError`; one that does not parse, `CheckpointError`."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing run artifact: expected {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e


def load_checkpoint(directory) -> tuple[ModelGraph, dict]:
    """Rebuild a model and its weights from `save_checkpoint` output.

    The manifest's model record names the checkpoint's whole structure
    (`model_from_table`): each array it implies must sit in its own file,
    holding exactly that array's number of floats, which is checked
    before the file is read.  No file's size depends on the input's
    height and width, so a record made for another input loads; a caller
    that knows the (C, H, W) of its data compares it with the returned
    model's `input_shape`, as the CLI's run check does.  A missing file
    raises `FileNotFoundError`; a manifest of another `format_version`, a
    malformed one, or a file of the wrong size, `CheckpointError`.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_manifest(manifest_path)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"{manifest_path}: format_version is {version!r}, not {_FORMAT_VERSION}; "
                              "rerun the phase that wrote it")
    table = _field(f"{manifest_path}: ", manifest, "model", "dict")
    try:
        model = model_from_table(table)
    except ValueError as e:
        raise CheckpointError(f"{manifest_path}: {e}") from e

    def read(layer, role, shape):
        path = directory / _array_file(layer.id, role)
        if not path.is_file():
            raise FileNotFoundError(f"missing checkpoint array: expected {path}")
        size = path.stat().st_size
        if size != 4 * math.prod(shape):
            raise CheckpointError(f"{path}: holds {size // 4} floats, expected shape {shape}")
        return np.fromfile(path, dtype="<f4").reshape(shape)

    model.params, model.bn_stats = _init_params(model.layers, np.float32, read)  # the files are float32
    return model, manifest
