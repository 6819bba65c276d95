"""Spans around calls into the program, recorded from outside it.

The benchmark replaces functions in the program's modules with thin
wrappers, so no file of the program changes.  Two kinds of hooks exist:

* `Clock` hooks stay on in every run.  They stamp the end of each search
  iteration (`search.outer_step` returning) and of each SGD step
  (`pruner.sgd_step` returning), and the start and end of each probe
  evaluation.  That is one `perf_counter` call per hook, so untraced
  timings carry no measurable cost.
* `Tracer` hooks are installed only for traced passes.  They record a
  span (name, start, end, parent) around every public call a layer makes
  into the next one, around each tensor op's forward, and around each
  op's backward closure.  Spans stay in memory; `write` saves them when
  the run ends.  A span's self time is its duration minus the time its
  child spans cover.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

# Tensor ops called by the model graph (and the loss by objective/pruner).
MODEL_OPS = ("conv2d", "pool2d", "batch_norm2d", "relu", "channel_scale", "linear", "add")
OPS = MODEL_OPS + ("softmax_cross_entropy",)


class Patches:
    """Attribute replacements on modules, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


class Clock:
    """Always-on timestamps at search-iteration and SGD-step boundaries."""

    def __init__(self, ap):
        self.iter_ends: list[float] = []
        self.step_ends: list[float] = []
        self.probe_spans: list[tuple[float, float, int]] = []
        search, pruner = ap.search, ap.pruner
        outer, sgd, probe = search.outer_step, pruner.sgd_step, search.evaluate

        def outer_step(*args, **kwargs):
            out = outer(*args, **kwargs)
            self.iter_ends.append(perf_counter())
            return out

        def sgd_step(*args, **kwargs):
            out = sgd(*args, **kwargs)
            self.step_ends.append(perf_counter())
            return out

        def evaluate(model, images, *args, **kwargs):
            t0 = perf_counter()
            out = probe(model, images, *args, **kwargs)
            self.probe_spans.append((t0, perf_counter(), len(images)))
            return out

        search.outer_step = outer_step
        pruner.sgd_step = sgd_step
        search.evaluate = evaluate

    def reset(self) -> None:
        self.iter_ends.clear()
        self.step_ends.clear()
        self.probe_spans.clear()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patches = Patches()
        self.conv_labels: dict[int, str] = {}  # id(weight tensor) -> "<model>.L<layer id>"
        self.counts: dict[str, float] = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def _timed_backward(self, out, name: str) -> None:
        back = out._backward_fn
        if back is None:
            return

        def timed(g):
            i = self.open(name)
            try:
                back(g)
            finally:
                self.close(i)

        out._backward_fn = timed

    def op(self, prefix: str, fn):
        """Span the forward call and, via the output node, the backward closure."""
        fwd, bwd = f"{prefix}.fwd", f"{prefix}.bwd"

        def wrapped(*args, **kwargs):
            out = self.call(fwd, fn, *args, **kwargs)
            self._timed_backward(out, bwd)
            return out

        return wrapped

    def conv_op(self, fn):
        """conv2d with per-layer span names and shape-computed work counts."""
        counts = self.counts

        def wrapped(x, w, stride=1, padding=0):
            label = self.conv_labels.get(id(w), "unknown")
            out = self.call(f"tensor.conv2d.fwd@{label}", fn, x, w, stride, padding)
            n, cin = x.data.shape[:2]
            cout, _, kh, kw = w.data.shape
            ho, wo = out.data.shape[2:]
            cols = n * cin * kh * kw * ho * wo  # im2col buffer elements
            gemm = 2 * cols * cout
            item = x.data.dtype.itemsize
            counts["conv2d.flop"] += gemm
            counts["conv2d.im2col_bytes"] += cols * item
            if out._backward_fn is not None:
                counts["conv2d.flop"] += gemm * (int(w.requires_grad) + int(x.requires_grad))
                counts["conv2d.im2col_bytes"] += cols * item * int(x.requires_grad)
            self._timed_backward(out, f"tensor.conv2d.bwd@{label}")
            return out

        return wrapped

    def forward(self, fn):
        """model.forward, split by mode, registering conv weights for labels."""
        labels = self.conv_labels

        def wrapped(model, batch, masks=None, mode="train", update_running=True):
            for layer in model.layers:
                if layer.kind == "conv":
                    labels[id(model.params[layer.id]["weight"])] = f"{model.name}.L{layer.id}"
            return self.call(f"model.forward.{mode}", fn, model, batch, masks, mode, update_running)

        return wrapped

    def backward(self, fn):
        """tensor.backward, counting the graph nodes it will replay."""
        counts = self.counts

        def wrapped(loss):
            seen, stack, nodes = {id(loss)}, [loss], 0
            while stack:
                node = stack.pop()
                nodes += node._backward_fn is not None
                for p in node._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            counts["tensor.nodes"] += nodes
            return self.call("tensor.backward", fn, loss)

        return wrapped

    def inner_step(self, fn):
        """search.inner_step, counting the channels its fixed masks zero out."""
        counts = self.counts

        def wrapped(model, xb, yb, masks, *args, **kwargs):
            for mask in masks.values():
                counts["mask.zero_channels"] += int((mask.by_channel == 0.0).sum())
                counts["mask.channels"] += mask.by_channel.size
            return self.call("search.inner_step", fn, model, xb, yb, masks, *args, **kwargs)

        return wrapped

    def batches(self, fn):
        """data.batches, spanning each draw of one batch."""

        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def draws():
                while True:
                    i = self.open("data.batch")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    yield item

            return draws()

        return wrapped

    def install(self, ap) -> None:
        """Wrap the program's layer boundaries; `uninstall` restores them."""
        p = self._patches
        model, search, pruner, objective, masking = ap.model, ap.search, ap.pruner, ap.objective, ap.masking
        for op in MODEL_OPS:
            if op == "conv2d":
                p.set(model, op, self.conv_op(model.conv2d))
            else:
                p.set(model, op, self.op(f"tensor.{op}", getattr(model, op)))
        for mod in (objective, pruner):
            p.set(mod, "softmax_cross_entropy",
                  self.op("tensor.softmax_cross_entropy", mod.softmax_cross_entropy))
        for mod in (search, pruner):
            p.set(mod, "backward", self.backward(mod.backward))
            p.set(mod, "batches", self.batches(mod.batches))
        for mod in (model, search, pruner):
            p.set(mod, "forward", self.forward(mod.forward))
        p.set(search, "ratio_mask_tensor", self.op("masking.ratio_mask_tensor", search.ratio_mask_tensor))
        for mod in (search, masking):
            p.set(mod, "build_mask", self.span("masking.build_mask", mod.build_mask))
        p.set(search, "refresh_ranking", self.span("masking.refresh_ranking", search.refresh_ranking))
        p.set(search, "combined_loss", self.span("objective.combined_loss", search.combined_loss))
        p.set(objective, "flops_cost_tensor",
              self.op("objective.flops_cost_tensor", objective.flops_cost_tensor))
        for mod in (model, pruner):
            p.set(mod, "exact_flops_by_layer", self.span("model.exact_flops", mod.exact_flops_by_layer))
        p.set(search, "inner_step", self.inner_step(search.inner_step))
        p.set(search, "outer_step", self.span("search.outer_step", search.outer_step))
        p.set(search, "evaluate", self.span("search.probe_eval", search.evaluate))
        p.set(pruner, "evaluate", self.span("pruner.epoch_eval", pruner.evaluate))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total ms, self ms, and op-backward ms under outer steps."""
        n = len(self.names)
        child = [0.0] * n
        under_outer = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                under_outer[i] = under_outer[p] or self.names[p] == "search.outer_step"
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                                                   "outer_ms": 0.0})
        for i in range(n):
            dur = (self.ends[i] - self.starts[i]) * 1e3
            row = out[self.names[i]]
            row["calls"] += 1
            row["total_ms"] += dur
            row["self_ms"] += dur - child[i] * 1e3
            if under_outer[i]:
                row["outer_ms"] += dur - child[i] * 1e3
        return dict(out)

    def write(self, path) -> None:
        """Save every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                    "end": self.ends[i], "parent": self.parents[i]}) + "\n")
