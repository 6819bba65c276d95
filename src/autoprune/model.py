"""Small CNN graphs: layer tables, forward passes, and FLOPs accounting.

A model is a flat list of layers plus a predecessor map, so plain chains
and residual blocks share one representation.  Only conv layers are
prunable; each prunable conv has a mask point right after its bn+relu,
where a per-channel mask multiplies the feature map.  Masking there is
numerically equivalent to slicing the channels out (`slice_channels`),
which the exporter and the search's steps rely on.

FLOPs use the multiply-add-counts-two convention: a conv costs
2*Kh*Kw*Cin*Cout*Hout*Wout, a linear layer 2*D*K, and bn/relu/pool/add
are counted as zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

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
    no_grad,
    pool2d,
    relu,
    reshape,
)

INPUT = -1  # predecessor id meaning "the network input"

KINDS = ("conv", "bn", "relu", "pool", "linear", "add")


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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.prunable and self.kind != "conv":
            raise ValueError(f"layer {self.id}: only conv layers are prunable")


@dataclass
class ModelGraph:
    """A small CNN as a layer table plus predecessor map."""

    name: str
    layers: list[LayerSpec]
    preds: dict[int, tuple[int, ...]]
    params: dict[int, dict[str, Tensor]]
    bn_stats: dict[int, RunningStats]
    mask_points: dict[int, int]  # prunable conv id -> layer id whose output is masked
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        # the layer list is fixed once built; specs may change in place
        self._by_id = {l.id: l for l in self.layers}

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

    def set_array(self, layer_id: int, role: str, array: np.ndarray) -> None:
        """Replace the array `arrays` lists under `(layer_id, role)`."""
        if role == "running_mean":
            self.bn_stats[layer_id].mean = array
        elif role == "running_var":
            self.bn_stats[layer_id].var = array
        else:
            self.params[layer_id][role].data = array


def _validate_graph(model: ModelGraph) -> None:
    ids = [l.id for l in model.layers]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate layer ids")
    known = {INPUT}
    for layer in model.layers:
        pin = model.preds[layer.id]
        for p in pin:
            if p not in known:
                raise ValueError(f"layer {layer.id} consumes {p} before it is produced")
        if layer.kind == "add" and len(pin) != 2:
            raise ValueError(f"add layer {layer.id} needs exactly two inputs")
        if layer.kind != "add" and len(pin) != 1:
            raise ValueError(f"layer {layer.id} ({layer.kind}) needs exactly one input")
        if layer.kind in ("conv", "pool") and (min(*layer.kernel, layer.stride) < 1 or layer.padding < 0):
            raise ValueError(f"layer {layer.id} ({layer.kind}) needs a kernel and stride of at least 1 "
                             f"and a nonnegative padding, got kernel {layer.kernel}, stride "
                             f"{layer.stride}, padding {layer.padding}")
        known.add(layer.id)

    # each prunable conv is masked after the relu that follows its bn (`conv_bn_relu`)
    consumer = {(model.preds[l.id], l.kind): l.id for l in model.layers}
    want = {c: consumer.get(((consumer.get(((c,), "bn")),), "relu")) for c in model.prunable_ids()}
    if model.mask_points != want or None in want.values():
        raise ValueError(f"mask points {model.mask_points} must map each prunable conv to the relu "
                         f"after its bn, {want}")

    # each layer must take the width its sources declare; only conv and
    # linear change it
    def width(lid):
        return model.input_shape[0] if lid == INPUT else model.layer(lid).out_channels

    sizes = _spatial_map(model)
    for layer in model.layers:
        src, *other = model.preds[layer.id]
        need = width(src)
        if other and width(other[0]) != need:
            raise ValueError(
                f"add layer {layer.id} with unequal widths {need} and {width(other[0])}"
            )
        if layer.kind == "linear":
            need *= sizes[src][0] * sizes[src][1]
        if layer.in_channels != need:
            raise ValueError(
                f"layer {layer.id} ({layer.kind}) takes {layer.in_channels} input channels, "
                f"but layer {src} gives it {need}"
            )
        if layer.kind not in ("conv", "linear") and layer.out_channels != need:
            raise ValueError(
                f"layer {layer.id} ({layer.kind}) cannot turn {need} channels into {layer.out_channels}"
            )


# ---------------------------------------------------------------------------
# builders


def _param_dtype(dtype):
    """`dtype` as a numpy scalar type; None means the engine's current default."""
    return np.dtype(engine._DEFAULT_DTYPE if dtype is None else dtype).type


def _param(data, dtype) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def _init_params(layers: list[LayerSpec], dtype, rng: np.random.Generator | None = None):
    """Parameters and bn running statistics for `layers`, stored in `dtype`.

    With `rng`, conv and linear weights are He-normal draws taken in layer
    order; without one they are zeros.  Biases and bn betas start at 0,
    bn gammas at 1.
    """

    def weight(shape, fan_in):
        if rng is None:
            return np.zeros(shape, dtype=dtype)
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)

    arrays: dict[int, dict[str, np.ndarray]] = {}
    bn_stats: dict[int, RunningStats] = {}
    for l in layers:
        if l.kind == "conv":
            kh, kw = l.kernel
            fan_in = l.in_channels * kh * kw
            arrays[l.id] = {"weight": weight((l.out_channels, l.in_channels, kh, kw), fan_in)}
        elif l.kind == "bn":
            arrays[l.id] = {"gamma": np.ones(l.out_channels, dtype=dtype),
                            "beta": np.zeros(l.out_channels, dtype=dtype)}
            bn_stats[l.id] = RunningStats.zeros(l.out_channels, dtype=dtype)
        elif l.kind == "linear":
            arrays[l.id] = {"weight": weight((l.in_channels, l.out_channels), l.in_channels),
                            "bias": np.zeros(l.out_channels, dtype=dtype)}
    params = {lid: {role: _param(a, dtype) for role, a in d.items()} for lid, d in arrays.items()}
    return params, bn_stats


class _Builder:
    def __init__(self):
        self.layers: list[LayerSpec] = []
        self.preds: dict[int, tuple[int, ...]] = {}
        self.mask_points: dict[int, int] = {}

    def emit(self, kind: str, src, **kw) -> int:
        lid = len(self.layers)
        self.layers.append(LayerSpec(id=lid, kind=kind, **kw))
        self.preds[lid] = tuple(src) if isinstance(src, (tuple, list)) else (src,)
        return lid

    def conv(self, src, cin, cout, k=3, stride=1, padding=1, prunable=False) -> int:
        return self.emit(
            "conv",
            src,
            in_channels=cin,
            out_channels=cout,
            kernel=(k, k),
            stride=stride,
            padding=padding,
            prunable=prunable,
        )

    def bn(self, src, channels) -> int:
        return self.emit("bn", src, in_channels=channels, out_channels=channels)

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

    def conv_bn_relu(self, src, cin, cout, stride=1, prunable=False):
        c = self.conv(src, cin, cout, stride=stride, prunable=prunable)
        b = self.bn(c, cout)
        r = self.relu(b, cout)
        if prunable:
            self.mask_points[c] = r
        return c, r


def build_model(
    name: str,
    num_classes: int = 10,
    input_shape: tuple[int, int, int] = (1, 28, 28),
    rng: np.random.Generator | None = None,
    dtype=None,
) -> ModelGraph:
    """Construct one of the stock architectures with fresh parameters.

    Every parameter and running statistic is stored in `dtype`, by
    default the engine's current default dtype (see `use_dtype`).

    `cnn-small` is a plain four-conv chain (widths 16, 32, 32, 64) with
    two max pools and a global average pool.  `resnet-tiny` has a stem
    plus three residual stages (widths 16, 32, 64); only the first conv
    inside each block is prunable, so residual additions always see
    full-width operands.  Spatial dims must be divisible by 4.
    """
    cin, h, w = input_shape
    if h % 4 or w % 4:
        raise ValueError(f"input spatial dims must be divisible by 4, got {input_shape}")
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    b = _Builder()

    if name == "cnn-small":
        _, r1 = b.conv_bn_relu(INPUT, cin, 16, prunable=True)
        p1 = b.pool(r1, 16, "max", 2)
        _, r2 = b.conv_bn_relu(p1, 16, 32, prunable=True)
        p2 = b.pool(r2, 32, "max", 2)
        _, r3 = b.conv_bn_relu(p2, 32, 32, prunable=True)
        _, r4 = b.conv_bn_relu(r3, 32, 64, prunable=True)
        g = b.pool(r4, 64, "avg", h // 4)
        b.head(g, 64, num_classes)
    elif name == "resnet-tiny":
        _, trunk = b.conv_bn_relu(INPUT, cin, 16)
        widths = (16, 32, 64)
        prev_c = 16
        for stage, cout in enumerate(widths):
            stride = 1 if stage == 0 else 2
            _, r_in = b.conv_bn_relu(trunk, prev_c, cout, stride=stride, prunable=True)
            c2 = b.conv(r_in, cout, cout)
            bn2 = b.bn(c2, cout)
            if stride == 1 and prev_c == cout:
                short = trunk
            else:
                sc = b.conv(trunk, prev_c, cout, k=1, stride=stride, padding=0)
                short = b.bn(sc, cout)
            s = b.add(bn2, short, cout)
            trunk = b.relu(s, cout)
            prev_c = cout
        g = b.pool(trunk, 64, "avg", h // 4)
        b.head(g, 64, num_classes)
    else:
        raise ValueError(f"unknown model {name!r}; expected 'cnn-small' or 'resnet-tiny'")

    params, bn_stats = _init_params(
        b.layers, _param_dtype(dtype), rng if rng is not None else np.random.default_rng(0)
    )
    model = ModelGraph(
        name=name,
        layers=b.layers,
        preds=b.preds,
        params=params,
        bn_stats=bn_stats,
        mask_points=b.mask_points,
        input_shape=tuple(input_shape),
        num_classes=num_classes,
    )
    _validate_graph(model)
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

    `masks` maps prunable conv ids to per-channel scale vectors (Tensor
    or array); each is applied at that conv's mask point.  An all-ones
    mask is bit-identical to passing no mask.
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
    mask_at = {model.mask_points[cid]: (cid, masks[cid]) for cid in masks}

    # drop each output after its last consumer, so a pass without a graph
    # holds only the live activations, not every layer's
    last_use = {p: layer.id for layer in model.layers for p in model.preds[layer.id]}
    outputs: dict[int, Tensor] = {INPUT: x}
    out = x
    for layer in model.layers:
        pin = model.preds[layer.id]
        srcs = [outputs.pop(p) if last_use[p] == layer.id else outputs[p] for p in pin]
        if layer.kind == "conv":
            out = conv2d(srcs[0], model.params[layer.id]["weight"], layer.stride, layer.padding)
        elif layer.kind == "bn":
            out = batch_norm2d(
                srcs[0],
                model.params[layer.id]["gamma"],
                model.params[layer.id]["beta"],
                model.bn_stats[layer.id],
                mode=mode,
                update_running=update_running and mode == "train",
            )
        elif layer.kind == "relu":
            out = relu(srcs[0])
        elif layer.kind == "pool":
            out = pool2d(srcs[0], layer.pool_kind, layer.kernel[0])
        elif layer.kind == "add":
            out = add(srcs[0], srcs[1])
        elif layer.kind == "linear":
            feats = srcs[0]
            if feats.data.ndim == 4:
                n = feats.data.shape[0]
                feats = reshape(feats, (n, -1))
            out = linear(feats, model.params[layer.id]["weight"], model.params[layer.id]["bias"])
        if layer.id in mask_at:
            _, mvec = mask_at[layer.id]
            if not isinstance(mvec, Tensor):
                mvec = Tensor(np.asarray(mvec), dtype=out.data.dtype)
            out = channel_scale(out, mvec)
        outputs[layer.id] = out
    return out


# ---------------------------------------------------------------------------
# FLOPs accounting


def _spatial_map(model: ModelGraph) -> dict[int, tuple[int, int]]:
    """Output spatial size of every layer, propagated from the input."""
    _, h, w = model.input_shape
    sizes: dict[int, tuple[int, int]] = {INPUT: (h, w)}
    for layer in model.layers:
        ph, pw = sizes[model.preds[layer.id][0]]
        if layer.kind == "conv":
            kh, kw = layer.kernel
            oh = (ph + 2 * layer.padding - kh) // layer.stride + 1
            ow = (pw + 2 * layer.padding - kw) // layer.stride + 1
            sizes[layer.id] = (oh, ow)
        elif layer.kind == "pool":
            win = layer.kernel[0]
            sizes[layer.id] = (ph // win, pw // win)
        elif layer.kind == "linear":
            sizes[layer.id] = (1, 1)
        else:
            sizes[layer.id] = (ph, pw)
    return sizes


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
    flow, _ = _kept_index(model, {i: np.arange(k) for i, k in kept.items()})
    sizes = _spatial_map(model)
    out: dict[int, int] = {}
    for layer in model.layers:
        src = flow[model.preds[layer.id][0]]
        cin = layer.in_channels if src is None else len(src)
        if layer.kind == "conv":
            cout = layer.out_channels if flow[layer.id] is None else len(flow[layer.id])
            oh, ow = sizes[layer.id]
            kh, kw = layer.kernel
            out[layer.id] = 2 * kh * kw * cin * cout * oh * ow
        elif layer.kind == "linear":
            # the head's input features are its source's channels times their pixels
            if src is not None:
                h, w = sizes[model.preds[layer.id][0]]
                cin *= h * w
            out[layer.id] = 2 * cin * layer.out_channels
        else:
            out[layer.id] = 0
    return out


def exact_model_flops(model: ModelGraph, kept: dict[int, int] | None = None) -> int:
    """Total FLOPs with channel counts reduced per `kept`."""
    return sum(exact_flops_by_layer(model, kept).values())


# ---------------------------------------------------------------------------
# channel slicing


def _kept_index(model: ModelGraph, keep: dict[int, np.ndarray]):
    """The channel ids flowing out of each layer under `keep` (None for
    all of them), and per parameterised layer and role the index that
    picks the entries `keep` leaves.

    `keep` maps conv ids to ascending output channel ids; every other
    layer passes its input's channels through, so a bn takes its conv's
    ids, a conv takes its input's ids on axis 1, and the linear head the
    rows of its input's kept channels.  A full-width index is `slice(None)`;
    a bn's running statistics take the index of its gamma and beta.
    """
    flow: dict[int, np.ndarray | None] = {INPUT: None}  # channel ids out of each layer, None = all
    index: dict[int, dict[str, object]] = {}
    spatial = None
    for layer in model.layers:
        pin = model.preds[layer.id]
        src = flow[pin[0]]
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
            index[layer.id] = dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), idx)
            flow[layer.id] = src
        elif layer.kind == "add":
            if any(flow[p] is not None for p in pin):
                raise ValueError(f"add layer {layer.id} would see pruned operands")
            flow[layer.id] = None
        elif layer.kind == "linear":
            rows = slice(None)
            if src is not None:
                spatial = spatial or _spatial_map(model)
                hw = spatial[pin[0]][0] * spatial[pin[0]][1]
                rows = (src[:, None] * hw + np.arange(hw)[None, :]).ravel()
            index[layer.id] = {"weight": rows, "bias": slice(None)}
            flow[layer.id] = None
        else:
            flow[layer.id] = src
    return flow, index


def slice_channels(model: ModelGraph, keep: dict[int, np.ndarray]) -> ModelGraph:
    """A copy of `model` holding only the channels `keep` names.

    `keep` maps conv ids to ascending output channel ids; convs it omits
    stay full width.  Output channels shrink to the kept ids, and so does
    everything that consumes them: bn parameters and running statistics,
    the next conv's input channels, the linear head's input features.
    Every array is a fresh copy, so training the slice leaves `model` as
    it was until `write_back`.  Keeping every channel reproduces the
    original logits bit for bit.
    """
    flow, index = _kept_index(model, keep)
    params = {
        lid: {role: _param(t.data[index[lid][role]].copy(), t.data.dtype) for role, t in d.items()}
        for lid, d in model.params.items()
    }
    bn_stats = {}
    for lid, s in model.bn_stats.items():
        idx = index[lid]["running_mean"]
        bn_stats[lid] = RunningStats(s.mean[idx].copy(), s.var[idx].copy())
    layers = []
    for layer in model.layers:
        if layer.kind == "conv":
            cout, cin = params[layer.id]["weight"].data.shape[:2]
        elif layer.kind == "linear":
            cin, cout = params[layer.id]["weight"].data.shape
        else:
            ids = flow[layer.id]
            cin = cout = layer.out_channels if ids is None else len(ids)
        layers.append(replace(layer, in_channels=cin, out_channels=cout))
    return ModelGraph(
        name=model.name,
        layers=layers,
        preds=dict(model.preds),
        params=params,
        bn_stats=bn_stats,
        mask_points=dict(model.mask_points),
        input_shape=model.input_shape,
        num_classes=model.num_classes,
    )


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
    """Top-1 accuracy in eval mode, without touching gradients or stats."""
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
    """JSON-ready structural description, sufficient to rebuild the graph."""
    return {
        "name": model.name,
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "layers": [{**asdict(l), "kernel": list(l.kernel)} for l in model.layers],
        "preds": {str(k): list(v) for k, v in model.preds.items()},
        "mask_points": {str(k): v for k, v in model.mask_points.items()},
    }


def model_from_table(table: dict, dtype=None) -> ModelGraph:
    """Rebuild a graph (zeroed parameters) from `model_to_table` output.

    Parameters and running statistics are stored in `dtype`, by default
    the engine's current default dtype.
    """
    layers = [LayerSpec(**{f.name: e[f.name] for f in fields(LayerSpec)}) for e in table["layers"]]
    for l in layers:
        l.kernel = tuple(l.kernel)  # a list in JSON
    for key in ("preds", "mask_points"):
        if not isinstance(table[key], dict):
            raise ValueError(f"model table field {key!r} is not an object")
    params, bn_stats = _init_params(layers, _param_dtype(dtype))
    model = ModelGraph(
        name=table["name"],
        layers=layers,
        preds={int(k): tuple(v) for k, v in table["preds"].items()},
        params=params,
        bn_stats=bn_stats,
        mask_points={int(k): v for k, v in table["mask_points"].items()},
        input_shape=tuple(table["input_shape"]),
        num_classes=table["num_classes"],
    )
    _validate_graph(model)
    return model
