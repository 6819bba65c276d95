"""Small CNN graphs: layer tables, forward passes, and FLOPs accounting.

A model is a flat list of layers plus a predecessor map, so plain chains
and residual blocks share one representation.  The builder emits each
conv with its bn, and `forward` runs the pair as one step; evaluating
without a graph folds every bn into its conv.  Only conv layers are
prunable; each prunable conv has a mask point right after its bn+relu.
A per-channel mask m >= 0 scales that bn's gamma and beta, which equals
scaling the feature map after the relu: m*relu(y) = relu(m*y).  Masking
there is numerically equivalent to slicing the channels out
(`slice_channels`), which the exporter and the search's steps rely on.

FLOPs use the multiply-add-counts-two convention: a conv costs
2*Kh*Kw*Cin*Cout*Hout*Wout, a linear layer 2*D*K, and bn/relu/pool/add
are counted as zero.  FLOPs and the FLOPs pruning ratio (FPR) are both
computed here: `exact_flops_by_layer` takes each layer's widths and
output size in one walk over the layer table `_kept_index` narrows, and
`_exact_fpr` is the one FPR formula the search's log and the plan share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as engine
from .tensor import (
    RunningStats,
    Tensor,
    add,
    batch_norm2d,
    channel_scale,
    conv2d,
    linear,
    mul,
    no_grad,
    pool2d,
    relu,
    reshape,
)

INPUT = -1  # predecessor id meaning "the network input"


@dataclass
class LayerSpec:
    """Static description of one layer."""

    id: int
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    padding: int = 0
    prunable: bool = False
    pool_kind: str = ""


@dataclass
class ModelGraph:
    """A small CNN as a layer table plus predecessor map.  Each conv's only
    reader is a bn that reads only it (`_Builder.conv_bn`); `forward` runs
    the two as one step."""

    name: str
    layers: list[LayerSpec]
    preds: dict[int, tuple[int, ...]]
    params: dict[int, dict[str, Tensor]]
    bn_stats: dict[int, RunningStats]
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        # the layer list is fixed once built
        self._by_id = {l.id: l for l in self.layers}
        # each prunable conv is masked after the relu that consumes the bn
        # that consumes it (`_Builder.conv_bn_relu`); None where there is none
        consumer = {(self.preds[l.id], l.kind): l.id for l in self.layers}
        self.mask_points = {c: consumer.get(((consumer.get(((c,), "bn")),), "relu"))
                            for c in self.prunable_ids()}

    def layer(self, layer_id: int) -> LayerSpec:
        return self._by_id[layer_id]

    def prunable_ids(self) -> list[int]:
        return [l.id for l in self.layers if l.prunable]

    def parameters(self) -> list[Tensor]:
        out = []
        for lid in sorted(self.params):
            for role in sorted(self.params[lid]):
                out.append(self.params[lid][role])
        return out

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def arrays(self):
        """Every parameter and bn running statistic as `(layer id, role,
        array)`: parameters by layer id and role, then each bn's
        `running_mean` and `running_var`.  Checkpoints list them in this order."""
        for lid in sorted(self.params):
            for role in sorted(self.params[lid]):
                yield lid, role, self.params[lid][role].data
        for lid in sorted(self.bn_stats):
            yield lid, "running_mean", self.bn_stats[lid].mean
            yield lid, "running_var", self.bn_stats[lid].var


# ---------------------------------------------------------------------------
# builders


def _shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    """The shape of each array of `layer`, by role (see `ModelGraph.arrays`)."""
    c = layer.out_channels
    if layer.kind == "conv":
        return {"weight": (c, layer.in_channels, *layer.kernel)}
    if layer.kind == "bn":
        return dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), (c,))
    if layer.kind == "linear":
        return {"weight": (layer.in_channels, c), "bias": (c,)}
    return {}


def _init_params(layers: list[LayerSpec], dtype, make):
    """Parameters and bn running statistics for `layers`, stored in `dtype`.

    `make(layer, role, shape)` gives each array of `_shapes(layer)`, layer
    by layer in table order: fresh draws (`_he_normal`), checkpoint files
    (`load_checkpoint`), or the kept entries of another model's arrays
    (`slice_channels`).
    """
    params: dict[int, dict[str, Tensor]] = {}
    bn_stats: dict[int, RunningStats] = {}
    for l in layers:
        arrays = {role: make(l, role, shape).astype(dtype, copy=False) for role, shape in _shapes(l).items()}
        if l.kind == "bn":
            bn_stats[l.id] = RunningStats(arrays.pop("running_mean"), arrays.pop("running_var"))
        if arrays:
            params[l.id] = {role: Tensor(a, requires_grad=True, dtype=dtype) for role, a in arrays.items()}
    return params, bn_stats


def _he_normal(rng: np.random.Generator):
    """`_init_params`' `make` for fresh weights: conv and linear weights are
    He-normal draws taken in layer order, bn gammas and running variances
    start at 1, biases, bn betas and running means at 0."""

    def make(layer, role, shape):
        if role == "weight":
            fan_in = math.prod(shape) // layer.out_channels
            return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        return np.ones(shape) if role in ("gamma", "running_var") else np.zeros(shape)

    return make


class _Builder:
    """Appends layers in id order; `conv_bn` emits each conv with its bn."""

    def __init__(self):
        self.layers: list[LayerSpec] = []
        self.preds: dict[int, tuple[int, ...]] = {}

    def emit(self, kind: str, src, **kw) -> int:
        lid = len(self.layers)
        self.layers.append(LayerSpec(id=lid, kind=kind, **kw))
        self.preds[lid] = tuple(src) if isinstance(src, (tuple, list)) else (src,)
        return lid

    def conv_bn(self, src, cin, cout, k=3, stride=1, padding=1, prunable=False) -> int:
        c = self.emit(
            "conv",
            src,
            in_channels=cin,
            out_channels=cout,
            kernel=(k, k),
            stride=stride,
            padding=padding,
            prunable=prunable,
        )
        return self.emit("bn", c, in_channels=cout, out_channels=cout)

    def relu(self, src, channels) -> int:
        return self.emit("relu", src, in_channels=channels, out_channels=channels)

    def pool(self, src, channels, kind, window) -> int:
        return self.emit(
            "pool", src, in_channels=channels, out_channels=channels,
            kernel=(window, window), pool_kind=kind,
        )

    def add(self, a, b, channels) -> int:
        return self.emit("add", (a, b), in_channels=channels, out_channels=channels)

    def head(self, src, d, classes) -> int:
        return self.emit("linear", src, in_channels=d, out_channels=classes)

    def conv_bn_relu(self, src, cin, cout, stride=1, prunable=False) -> int:
        return self.relu(self.conv_bn(src, cin, cout, stride=stride, prunable=prunable), cout)


def _architecture(name: str, input_shape: tuple[int, int, int], num_classes: int) -> ModelGraph:
    """The layer table of the stock architecture `name`, with no arrays."""
    cin, h, w = input_shape
    if cin < 1 or h != w or h < 4 or h % 4:
        raise ValueError(f"input must have at least one channel and square spatial dims "
                         f"divisible by 4, got {input_shape}")
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    b = _Builder()

    if name == "cnn-small":
        r1 = b.conv_bn_relu(INPUT, cin, 16, prunable=True)
        p1 = b.pool(r1, 16, "max", 2)
        r2 = b.conv_bn_relu(p1, 16, 32, prunable=True)
        p2 = b.pool(r2, 32, "max", 2)
        r3 = b.conv_bn_relu(p2, 32, 32, prunable=True)
        r4 = b.conv_bn_relu(r3, 32, 64, prunable=True)
        g = b.pool(r4, 64, "avg", h // 4)
        b.head(g, 64, num_classes)
    elif name == "resnet-tiny":
        trunk = b.conv_bn_relu(INPUT, cin, 16)
        widths = (16, 32, 64)
        prev_c = 16
        for stage, cout in enumerate(widths):
            stride = 1 if stage == 0 else 2
            r_in = b.conv_bn_relu(trunk, prev_c, cout, stride=stride, prunable=True)
            bn2 = b.conv_bn(r_in, cout, cout)
            if stride == 1 and prev_c == cout:
                short = trunk
            else:
                short = b.conv_bn(trunk, prev_c, cout, k=1, stride=stride, padding=0)
            s = b.add(bn2, short, cout)
            trunk = b.relu(s, cout)
            prev_c = cout
        g = b.pool(trunk, 64, "avg", h // 4)
        b.head(g, 64, num_classes)
    else:
        raise ValueError(f"unknown model {name!r}; expected 'cnn-small' or 'resnet-tiny'")

    return ModelGraph(name=name, layers=b.layers, preds=b.preds, params={}, bn_stats={},
                      input_shape=tuple(input_shape), num_classes=num_classes)


def build_model(
    name: str,
    num_classes: int = 10,
    input_shape: tuple[int, int, int] = (1, 28, 28),
    rng: np.random.Generator | None = None,
) -> ModelGraph:
    """Construct one of the stock architectures with fresh parameters.

    Every parameter and running statistic is stored in the engine's
    current default dtype (see `use_dtype`).

    `cnn-small` is a plain four-conv chain (widths 16, 32, 32, 64) with
    two max pools and a global average pool.  `resnet-tiny` has a stem
    plus three residual stages (widths 16, 32, 64); only the first conv
    inside each block is prunable, so residual additions always see
    full-width operands.  The input needs at least one channel and square
    spatial dims divisible by 4, and the head at least two classes.
    """
    model = _architecture(name, input_shape, num_classes)
    model.params, model.bn_stats = _init_params(
        model.layers, engine._DEFAULT_DTYPE, _he_normal(rng if rng is not None else np.random.default_rng(0))
    )
    return model


# ---------------------------------------------------------------------------
# forward


def forward(
    model: ModelGraph,
    batch,
    masks: dict[int, Tensor] | None = None,
    mode: str = "train",
    update_running: bool = True,
) -> Tensor:
    """Run the graph on a [N, C, H, W] batch and return [N, classes] logits.
    Each conv runs with its bn in one step; the bn layer passes it on.

    `masks` maps prunable conv ids to per-channel scale vectors (Tensor
    or array) with no negative or NaN entry.  Each scales the gamma and
    beta of the conv's bn, before its mask-point relu, which for m >= 0
    equals scaling the relu's output: m*relu(y) = relu(m*y) and
    m*(gamma*xhat + beta) = (m*gamma)*xhat + m*beta.  A mask that is in
    the graph and has a zero entry scales the relu's output itself, so
    that entry's gradient is sum(g*relu(y)), not relu's zero subgradient:
    the ratio step reads it at a kink (`mask_grad_wrt_ratio`).  An
    all-ones mask is bit-identical to passing no mask.

    Evaluating without a graph (under `no_grad`, or with nothing that
    requires a gradient) folds every bn into its conv: the conv runs on a
    scaled copy of its weight and its output is shifted in place
    (`_conv_bn`).  The logits then differ from the unfolded ones by
    rounding, about 5e-7 relative in float32; no array of `model` is
    written.  Train mode and eval with a graph run each bn as its own op.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch))
    if x.data.ndim != 4 or x.data.shape[1:] != model.input_shape:
        raise ValueError(
            f"batch shape {x.data.shape} does not match input shape {model.input_shape}"
        )
    masks = masks or {}
    unknown = set(masks) - set(model.mask_points)
    if unknown:
        raise ValueError(f"masks given for non-prunable layers {sorted(unknown)}")
    # conv id -> mask of its bn's gamma and beta; relu id -> mask of its output
    fold, scale = {}, {}
    for cid, mvec in masks.items():
        if not isinstance(mvec, Tensor):
            mvec = Tensor(np.asarray(mvec), dtype=model.params[cid]["weight"].data.dtype)
        if not (mvec.data >= 0).all():
            raise ValueError(f"mask for conv {cid} has a negative or NaN entry")
        if mvec.requires_grad and not mvec.data.all():
            scale[model.mask_points[cid]] = mvec
        else:
            fold[cid] = mvec
    folding = mode == "eval" and not engine._recording((x, *model.parameters(), *fold.values(), *scale.values()))
    bns = {model.preds[l.id][0]: l.id for l in model.layers if l.kind == "bn"}  # conv id -> its bn

    # drop each output after its last consumer, so a pass without a graph
    # holds only the live activations, not every layer's
    last_use = {p: layer.id for layer in model.layers for p in model.preds[layer.id]}
    outputs: dict[int, Tensor] = {INPUT: x}
    out = x
    for layer in model.layers:
        pin = model.preds[layer.id]
        srcs = [outputs.pop(p) if last_use[p] == layer.id else outputs[p] for p in pin]
        if layer.kind == "conv":  # its input is popped, so it is freed before the bn runs
            bn = bns[layer.id]
            if folding:
                out = _conv_bn(model, layer, bn, fold.get(layer.id), srcs.pop())
            else:
                out = conv2d(srcs.pop(), model.params[layer.id]["weight"], layer.stride, layer.padding)
                gamma, beta = model.params[bn]["gamma"], model.params[bn]["beta"]
                if layer.id in fold:
                    gamma, beta = mul(gamma, fold[layer.id]), mul(beta, fold[layer.id])
                out = batch_norm2d(out, gamma, beta, model.bn_stats[bn], mode=mode,
                                   update_running=update_running)
        elif layer.kind == "bn":
            out = srcs[0]  # applied by its conv
        elif layer.kind == "relu":
            out = relu(srcs[0])
        elif layer.kind == "pool":
            out = pool2d(srcs[0], layer.pool_kind, layer.kernel[0])
        elif layer.kind == "add":
            out = add(srcs[0], srcs[1])
        elif layer.kind == "linear":
            feats = reshape(srcs[0], (len(srcs[0].data), -1))
            out = linear(feats, model.params[layer.id]["weight"], model.params[layer.id]["bias"])
        if layer.id in scale:
            out = channel_scale(out, scale[layer.id])
        outputs[layer.id] = out
    return out


def _conv_bn(model: ModelGraph, conv: LayerSpec, bn: int, mask: Tensor | None, x: Tensor) -> Tensor:
    """Conv `conv` on `x`, then eval-mode bn `bn` with its gamma and beta
    scaled by `mask`, as one conv and one in-place add: the bn's map
    y*a + beta*m - running_mean*a, a = gamma*m / sqrt(running_var + eps),
    taken in float64, scales the conv's output channels through a fresh
    copy of its weight and shifts its fresh output.  Without a graph only."""
    stats, gamma, beta = model.bn_stats[bn], model.params[bn]["gamma"].data, model.params[bn]["beta"].data
    m = 1.0 if mask is None else mask.data.astype(np.float64)
    a = gamma * m / np.sqrt(stats.var.astype(np.float64) + engine._BN_EPS)
    weight = model.params[conv.id]["weight"].data
    out = conv2d(x, Tensor(weight * a[:, None, None, None], dtype=weight.dtype), conv.stride, conv.padding)
    # over [N, C, H*W]: numpy's inner loop then runs a whole channel, not a row
    y = out.data.reshape(*out.data.shape[:2], -1)
    y += (beta * m - stats.mean * a).astype(y.dtype)[:, None]
    out.data = y.reshape(out.data.shape)
    return out


# ---------------------------------------------------------------------------
# FLOPs accounting


def prunable_flops(model: ModelGraph) -> dict[int, int]:
    """Full FLOPs of each prunable conv, the weights of the cost term."""
    per_layer = exact_flops_by_layer(model)
    return {l.id: per_layer[l.id] for l in model.layers if l.prunable}


def exact_flops_by_layer(model: ModelGraph, kept: dict[int, int] | None = None) -> dict[int, int]:
    """Per-layer FLOPs with channel counts reduced per `kept`.

    Input and output widths couple: a conv consuming a pruned layer's
    output pays only for the kept input channels.  The linear head pays
    per kept input feature.  With `kept` empty this equals the full
    per-layer FLOPs.
    """
    kept = kept or {}
    unknown = set(kept) - set(model.prunable_ids())
    if unknown:
        raise ValueError(f"kept counts for non-prunable layers {sorted(unknown)}")
    for i, k in kept.items():
        c = model.layer(i).out_channels
        if not (1 <= k <= c):
            raise ValueError(f"kept count {k} out of range [1, {c}] for layer {i}")
    layers, _ = _kept_index(model, {i: np.arange(k) for i, k in kept.items()})
    sizes = {INPUT: model.input_shape[1:]}  # output height and width of each layer
    out: dict[int, int] = {}
    for layer in layers:
        h, w = sizes[model.preds[layer.id][0]]
        kh, kw = layer.kernel
        flops = 0
        if layer.kind == "conv":
            h = (h + 2 * layer.padding - kh) // layer.stride + 1
            w = (w + 2 * layer.padding - kw) // layer.stride + 1
            flops = 2 * kh * kw * layer.in_channels * layer.out_channels * h * w
        elif layer.kind == "pool":
            h, w = h // kh, w // kw
        elif layer.kind == "linear":
            flops = 2 * layer.in_channels * layer.out_channels
        sizes[layer.id], out[layer.id] = (h, w), flops
    return out


def exact_model_flops(model: ModelGraph, kept: dict[int, int] | None = None) -> int:
    """Total FLOPs with channel counts reduced per `kept`."""
    return sum(exact_flops_by_layer(model, kept).values())


def _exact_fpr(model: ModelGraph, kept: dict[int, int]) -> float:
    """The FLOPs pruning ratio of keeping `kept[i]` output channels of each
    conv `i`: the one FPR formula, shared by the search's log and the plan."""
    return 1.0 - exact_model_flops(model, kept) / exact_model_flops(model)


# ---------------------------------------------------------------------------
# channel slicing


def _kept_index(model: ModelGraph, keep: dict[int, np.ndarray]):
    """`model`'s layer table narrowed to the channels `keep` leaves, and per
    parameterised layer and role the index that picks those entries.

    `keep` maps conv ids to ascending output channel ids; every other
    layer passes its input's channels through, so a bn takes its conv's
    ids, a conv takes its input's ids on axis 1, and the linear head the
    rows of its input's kept channels, one per pixel of each.  A
    full-width index is `slice(None)`; a bn's running statistics take the
    index of its gamma and beta.
    """
    flow: dict[int, np.ndarray | None] = {INPUT: None}  # channel ids out of each layer, None = all
    index: dict[int, dict[str, object]] = {}
    layers = []
    for layer in model.layers:
        pin = model.preds[layer.id]
        src = flow[pin[0]]
        cin = layer.in_channels if src is None else len(src)
        if layer.kind == "conv":
            out = keep.get(layer.id)
            if out is None:
                idx = slice(None) if src is None else (slice(None), src)
            else:
                idx = out if src is None else np.ix_(out, src)
            index[layer.id] = {"weight": idx}
            flow[layer.id] = out
        elif layer.kind == "bn":
            idx = slice(None) if src is None else src
            index[layer.id] = dict.fromkeys(_shapes(layer), idx)
            flow[layer.id] = src
        elif layer.kind == "add":
            if any(flow[p] is not None for p in pin):
                raise ValueError(f"add layer {layer.id} would see pruned operands")
            flow[layer.id] = None
        elif layer.kind == "linear":
            rows = slice(None)
            if src is not None:
                hw = layer.in_channels // model.layer(pin[0]).out_channels
                rows = (src[:, None] * hw + np.arange(hw)[None, :]).ravel()
                cin = len(rows)
            index[layer.id] = {"weight": rows, "bias": slice(None)}
            flow[layer.id] = None
        else:
            flow[layer.id] = src
        cout = layer.out_channels if flow[layer.id] is None else len(flow[layer.id])
        layers.append(replace(layer, in_channels=cin, out_channels=cout))
    return layers, index


def slice_channels(model: ModelGraph, keep: dict[int, np.ndarray]) -> ModelGraph:
    """A copy of `model` holding only the channels `keep` names.

    `keep` maps conv ids to ascending output channel ids; convs it omits
    stay full width.  Output channels shrink to the kept ids, and so does
    everything that consumes them: bn parameters and running statistics,
    the next conv's input channels, the linear head's input features.
    The arrays are built by `_init_params` in `model`'s dtype, each a
    fresh copy, so training the slice leaves `model` as it was until
    `write_back`.  Keeping every channel reproduces the original logits
    bit for bit.
    """
    layers, index = _kept_index(model, keep)
    whole = {(lid, role): a for lid, role, a in model.arrays()}
    dtype = next(iter(whole.values())).dtype  # every array of a model shares one dtype
    # a full-width index is `slice(None)`, a view: the copy keeps the slice apart
    params, bn_stats = _init_params(
        layers, dtype, lambda l, role, shape: whole[l.id, role][index[l.id][role]].copy())
    return replace(model, layers=layers, preds=dict(model.preds), params=params, bn_stats=bn_stats)


def write_back(dense: ModelGraph, small: ModelGraph, keep: dict[int, np.ndarray]) -> None:
    """Copy every parameter and running statistic of `small`, which is
    `slice_channels(dense, keep)`, into the entries of `dense` it came from.

    Entries the slice left out are never written.
    """
    _, index = _kept_index(dense, keep)
    for (lid, role, whole), (_, _, part) in zip(dense.arrays(), small.arrays()):
        whole[index[lid][role]] = part


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    model: ModelGraph,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
    masks: dict | None = None,
) -> float:
    """Top-1 accuracy in eval mode, without touching gradients, stats or
    any other array of `model`.

    It runs `forward` without a graph, which folds each bn into its conv.
    `images` must hold at least one image, `labels` one label per image,
    and `batch_size` must be at least 1; otherwise `ValueError`.
    """
    if len(images) == 0:
        raise ValueError("images must hold at least one image")
    if np.shape(labels) != (len(images),):
        raise ValueError(f"labels has shape {np.shape(labels)}, not one label per image ({len(images)},)")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    correct = 0
    with no_grad():
        for start in range(0, len(images), batch_size):
            xb = images[start : start + batch_size]
            yb = labels[start : start + batch_size]
            logits = forward(model, xb, masks=masks, mode="eval")
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    return correct / len(images)


# ---------------------------------------------------------------------------
# (de)serialization helpers used by checkpoints


def model_to_table(model: ModelGraph) -> dict:
    """JSON-ready record of `model`'s structure: its architecture, input
    shape and classes, and each prunable conv's width, by layer id."""
    return {
        "name": model.name,
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "widths": {str(i): model.layer(i).out_channels for i in model.prunable_ids()},
    }


class CheckpointError(ValueError):
    """A run record (a checkpoint, a plan, a phase manifest) that a phase
    reads back is malformed."""


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the test and the wording of each JSON value kind `_field` takes
_KINDS = {
    "int": (_int, "an integer"),
    "float": (lambda v: isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_int, v)), "a list of integers"),
    "tuple[int, int, int]": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_int, v)),
                             "a list of three integers"),
}


def _field(where: str, record, key: str, kind: str):
    """`record[key]`, which must be a `kind`, a key of `_KINDS` (a bool is
    no integer); otherwise `CheckpointError` "<where>field '<key>' is
    missing or not <kind in words>"."""
    value = record.get(key) if isinstance(record, dict) else None
    test, words = _KINDS[kind]
    if not test(value):
        raise CheckpointError(f"{where}field {key!r} is missing or not {words}")
    return value


def model_from_table(table: dict) -> ModelGraph:
    """The layer table that `model_to_table` recorded, with no arrays: the
    stock architecture, each prunable conv narrowed to its width.

    A field of the wrong type raises `CheckpointError`, and widths that
    do not name each prunable conv once, each in [1, its full width],
    `ValueError`; so does anything `build_model` refuses.
    """
    kinds = {"name": "str", "input_shape": "tuple[int, int, int]", "num_classes": "int", "widths": "dict"}
    for key, kind in kinds.items():
        _field("model table ", table, key, kind)
    model = _architecture(table["name"], tuple(table["input_shape"]), table["num_classes"])
    widths = table["widths"]
    names = [str(i) for i in model.prunable_ids()]
    if set(widths) != set(names):
        raise ValueError(f"model table field 'widths' names {list(widths)}, "
                         f"not the prunable convs {names} of {model.name!r}")
    keep = {}
    for i in model.prunable_ids():
        w, full = _field("model table widths ", widths, str(i), "int"), model.layer(i).out_channels
        if not 1 <= w <= full:
            raise ValueError(f"model table widths field '{i}' is {w}, not in [1, {full}]")
        keep[i] = np.arange(w)
    return replace(model, layers=_kept_index(model, keep)[0])
