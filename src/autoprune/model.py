"""Small CNN graphs: layer tables, forward passes, and FLOPs accounting.

A model is a flat list of layers plus a predecessor map, so plain chains
and residual blocks share one representation.  Only conv layers are
prunable; each prunable conv has a mask point right after its bn+relu,
where a per-channel mask multiplies the feature map.  Masking there is
numerically identical to slicing the channels out, which is what the
exporter relies on.

FLOPs use the multiply-add-counts-two convention: a conv costs
2*Kh*Kw*Cin*Cout*Hout*Wout, a linear layer 2*D*K, and bn/relu/pool/add
are counted as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    meta: dict = field(default_factory=dict)

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
        known.add(layer.id)

    # each layer must take the width its inputs produce (the propagation
    # refuses an add of unequal widths); only conv and linear change it
    widths = _kept_channels(model, {})
    sizes = _spatial_map(model)
    for layer in model.layers:
        src = model.preds[layer.id][0]
        need = widths[src]
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


def _he_conv(rng, cout, cin, kh, kw, dtype):
    std = np.sqrt(2.0 / (cin * kh * kw))
    return Tensor((rng.standard_normal((cout, cin, kh, kw)) * std).astype(dtype), requires_grad=True)


def _linear_init(rng, d, k, dtype):
    std = np.sqrt(2.0 / d)
    w = Tensor((rng.standard_normal((d, k)) * std).astype(dtype), requires_grad=True)
    b = Tensor(np.zeros(k, dtype=dtype), requires_grad=True)
    return w, b


class _Builder:
    def __init__(self, dtype):
        self.layers: list[LayerSpec] = []
        self.preds: dict[int, tuple[int, ...]] = {}
        self.params: dict[int, dict[str, Tensor]] = {}
        self.bn_stats: dict[int, RunningStats] = {}
        self.mask_points: dict[int, int] = {}
        self.dtype = dtype
        self.next_id = 0

    def emit(self, kind: str, src, **kw) -> int:
        lid = self.next_id
        self.next_id += 1
        self.layers.append(LayerSpec(id=lid, kind=kind, **kw))
        self.preds[lid] = tuple(src) if isinstance(src, (tuple, list)) else (src,)
        return lid

    def conv(self, src, rng, cin, cout, k=3, stride=1, padding=1, prunable=False) -> int:
        lid = self.emit(
            "conv",
            src,
            in_channels=cin,
            out_channels=cout,
            kernel=(k, k),
            stride=stride,
            padding=padding,
            prunable=prunable,
        )
        self.params[lid] = {"weight": _he_conv(rng, cout, cin, k, k, self.dtype)}
        return lid

    def bn(self, src, channels) -> int:
        lid = self.emit("bn", src, in_channels=channels, out_channels=channels)
        self.params[lid] = {
            "gamma": Tensor(np.ones(channels, dtype=self.dtype), requires_grad=True),
            "beta": Tensor(np.zeros(channels, dtype=self.dtype), requires_grad=True),
        }
        self.bn_stats[lid] = RunningStats.zeros(channels, dtype=self.dtype)
        return lid

    def relu(self, src, channels) -> int:
        return self.emit("relu", src, in_channels=channels, out_channels=channels)

    def pool(self, src, channels, kind, window) -> int:
        return self.emit(
            "pool", src, in_channels=channels, out_channels=channels,
            kernel=(window, window), pool_kind=kind,
        )

    def add(self, a, b, channels) -> int:
        return self.emit("add", (a, b), in_channels=channels, out_channels=channels)

    def head(self, src, rng, d, classes) -> int:
        lid = self.emit("linear", src, in_channels=d, out_channels=classes)
        w, b = _linear_init(rng, d, classes, self.dtype)
        self.params[lid] = {"weight": w, "bias": b}
        return lid

    def conv_bn_relu(self, src, rng, cin, cout, stride=1, prunable=False):
        c = self.conv(src, rng, cin, cout, stride=stride, prunable=prunable)
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
    dtype=np.float32,
) -> ModelGraph:
    """Construct one of the stock architectures with fresh parameters.

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
    rng = rng if rng is not None else np.random.default_rng(0)
    b = _Builder(dtype)

    if name == "cnn-small":
        _, r1 = b.conv_bn_relu(INPUT, rng, cin, 16, prunable=True)
        p1 = b.pool(r1, 16, "max", 2)
        _, r2 = b.conv_bn_relu(p1, rng, 16, 32, prunable=True)
        p2 = b.pool(r2, 32, "max", 2)
        _, r3 = b.conv_bn_relu(p2, rng, 32, 32, prunable=True)
        _, r4 = b.conv_bn_relu(r3, rng, 32, 64, prunable=True)
        g = b.pool(r4, 64, "avg", h // 4)
        b.head(g, rng, 64, num_classes)
    elif name == "resnet-tiny":
        _, trunk = b.conv_bn_relu(INPUT, rng, cin, 16)
        widths = (16, 32, 64)
        prev_c = 16
        for stage, cout in enumerate(widths):
            stride = 1 if stage == 0 else 2
            _, r_in = b.conv_bn_relu(trunk, rng, prev_c, cout, stride=stride, prunable=True)
            c2 = b.conv(r_in, rng, cout, cout)
            bn2 = b.bn(c2, cout)
            if stride == 1 and prev_c == cout:
                short = trunk
            else:
                sc = b.conv(trunk, rng, prev_c, cout, k=1, stride=stride, padding=0)
                short = b.bn(sc, cout)
            s = b.add(bn2, short, cout)
            trunk = b.relu(s, cout)
            prev_c = cout
        g = b.pool(trunk, 64, "avg", h // 4)
        b.head(g, rng, 64, num_classes)
    else:
        raise ValueError(f"unknown model {name!r}; expected 'cnn-small' or 'resnet-tiny'")

    model = ModelGraph(
        name=name,
        layers=b.layers,
        preds=b.preds,
        params=b.params,
        bn_stats=b.bn_stats,
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


def _kept_channels(model: ModelGraph, kept: dict[int, int]) -> dict[int, int]:
    """Effective channel count flowing out of every layer under `kept`."""
    out: dict[int, int] = {INPUT: model.input_shape[0]}
    for layer in model.layers:
        if layer.kind == "conv":
            if layer.prunable:
                k = kept.get(layer.id, layer.out_channels)
                if not (1 <= k <= layer.out_channels):
                    raise ValueError(
                        f"kept count {k} out of range [1, {layer.out_channels}] for layer {layer.id}"
                    )
                out[layer.id] = k
            else:
                out[layer.id] = layer.out_channels
        elif layer.kind == "add":
            a, b_ = (out[p] for p in model.preds[layer.id])
            if a != b_:
                raise ValueError(f"add layer {layer.id} with unequal widths {a} and {b_}")
            out[layer.id] = a
        else:
            out[layer.id] = out[model.preds[layer.id][0]]
    return out


def exact_flops_by_layer(model: ModelGraph, kept: dict[int, int] | None = None) -> dict[int, int]:
    """Per-layer FLOPs with channel counts reduced per `kept`.

    Input and output widths couple: a conv consuming a pruned layer's
    output pays only for the kept input channels.  The linear head pays
    per kept input feature.  With `kept` empty this equals the full
    per-layer FLOPs.
    """
    kept = kept or {}
    unknown = set(kept) - {l.id for l in model.layers if l.prunable}
    if unknown:
        raise ValueError(f"kept counts for non-prunable layers {sorted(unknown)}")
    widths = _kept_channels(model, kept)
    sizes = _spatial_map(model)
    out: dict[int, int] = {}
    for layer in model.layers:
        if layer.kind == "conv":
            cin = widths[model.preds[layer.id][0]]
            cout = widths[layer.id]
            oh, ow = sizes[layer.id]
            kh, kw = layer.kernel
            out[layer.id] = 2 * kh * kw * cin * cout * oh * ow
        elif layer.kind == "linear":
            src = model.preds[layer.id][0]
            cin_full = model.input_shape[0] if src == INPUT else model.layer(src).out_channels
            per_channel = layer.in_channels // cin_full
            out[layer.id] = 2 * widths[src] * per_channel * layer.out_channels
        else:
            out[layer.id] = 0
    return out


def exact_model_flops(model: ModelGraph, kept: dict[int, int] | None = None) -> int:
    """Total FLOPs with channel counts reduced per `kept`."""
    return sum(exact_flops_by_layer(model, kept).values())


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
        "layers": [
            {
                "id": l.id,
                "kind": l.kind,
                "in_channels": l.in_channels,
                "out_channels": l.out_channels,
                "kernel": list(l.kernel),
                "stride": l.stride,
                "padding": l.padding,
                "prunable": l.prunable,
                "pool_kind": l.pool_kind,
            }
            for l in model.layers
        ],
        "preds": {str(k): list(v) for k, v in model.preds.items()},
        "mask_points": {str(k): v for k, v in model.mask_points.items()},
    }


def model_from_table(table: dict, dtype=np.float32) -> ModelGraph:
    """Rebuild a graph (zeroed parameters) from `model_to_table` output."""
    layers = [
        LayerSpec(
            id=e["id"],
            kind=e["kind"],
            in_channels=e["in_channels"],
            out_channels=e["out_channels"],
            kernel=tuple(e["kernel"]),
            stride=e["stride"],
            padding=e["padding"],
            prunable=e["prunable"],
            pool_kind=e["pool_kind"],
        )
        for e in table["layers"]
    ]
    params: dict[int, dict[str, Tensor]] = {}
    bn_stats: dict[int, RunningStats] = {}
    for l in layers:
        if l.kind == "conv":
            kh, kw = l.kernel
            params[l.id] = {
                "weight": Tensor(
                    np.zeros((l.out_channels, l.in_channels, kh, kw), dtype=dtype),
                    requires_grad=True,
                )
            }
        elif l.kind == "bn":
            params[l.id] = {
                "gamma": Tensor(np.ones(l.out_channels, dtype=dtype), requires_grad=True),
                "beta": Tensor(np.zeros(l.out_channels, dtype=dtype), requires_grad=True),
            }
            bn_stats[l.id] = RunningStats.zeros(l.out_channels, dtype=dtype)
        elif l.kind == "linear":
            params[l.id] = {
                "weight": Tensor(
                    np.zeros((l.in_channels, l.out_channels), dtype=dtype), requires_grad=True
                ),
                "bias": Tensor(np.zeros(l.out_channels, dtype=dtype), requires_grad=True),
            }
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
