"""Dense float tensors with reverse-mode automatic differentiation.

Everything runs on plain numpy arrays in NCHW layout.  Each operation
records its inputs and a backward closure on the output tensor, stamped
with a global sequence number.  `backward` replays the recorded closures
in exact reverse execution order (sequence numbers are strictly
increasing, so sorting by them reproduces the forward schedule), then
releases the graph so a second traversal fails loudly instead of reusing
stale state.

Gradients accumulate into `.grad` and are populated for every tensor
reachable from the loss that has `requires_grad` set, intermediates
included.  Training loops are expected to call `zero_grad` between steps.

`conv2d` has two formulations.  The im2col side multiplies the weight
by im2col columns of the input and scatters the input gradient back with
col2im.  The output side multiplies each image by the tap-stacked weight
and adds a shifted copy per kernel tap, with no column buffer: with a
graph it runs at Cout <= Cin, without one only at 2*Cout < Cin.  Both
loop over the kernel taps through one table (`_taps`).  A conv with
stride 1, an output grid equal to its input grid and padding below
min(H, W) (every 3x3/pad-1 conv of the stock models) shifts each tap
over each channel's flattened H*W map and zeroes the columns the shift
wraps into the next or previous row; every other conv takes each tap as
a 2-d strided slice.  The two give the same bits.
`batch_norm2d` keeps no normalized copy of its input.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
_SEQ = itertools.count()


@contextmanager
def use_dtype(dtype):
    """Store new tensors in `dtype` (float32 or float64) inside the block."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dtype}")
    old, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation passes)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


class Tensor:
    """A numpy array plus optional gradient and graph bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_seq", "_released")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._seq = next(_SEQ)
        self._released = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on `parents` records a graph node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, recording graph edges when gradients are live."""
    needs = _recording(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = needs
    out._parents = tuple(parents) if needs else ()
    out._backward_fn = backward_fn if needs else None
    out._seq = next(_SEQ)
    out._released = False
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add `g` into `t.grad`, copying it when it is the first gradient.

    `owned` says the caller has just allocated `g` and holds it nowhere
    else; it then becomes `.grad` without the copy, provided it already
    has the dtype and the C layout the copy would give it.
    """
    if t.grad is None:
        if owned and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into `.grad` over the recorded graph.

    The loss must be scalar.  The graph is released afterwards; calling
    backward a second time on the same loss raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._released:
        raise RuntimeError("backward called twice: graph already released")

    nodes: list[Tensor] = []
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward_fn is not None:
            nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)

    loss.grad = np.ones_like(loss.data)
    nodes.sort(key=lambda n: n._seq, reverse=True)
    for node in nodes:
        node._backward_fn(node.grad)
        node._parents = ()
        node._backward_fn = None
        node._released = True
    loss._released = True


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def back(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _make(out_data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def back(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _make(out_data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * a.data.dtype.type(c)

    def back(g):
        if a.requires_grad:
            _accum(a, g * a.data.dtype.type(c))

    return _make(out_data, (a,), back)


def tensor_sum(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def back(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def back(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), back)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly zero is zero.

    Every input that is not greater than zero maps to +0.0, NaN and -0.0
    included: `fmax` drops the NaN, and adding +0.0 turns -0.0 into +0.0
    while leaving every other value as it is.  (`np.maximum` would keep
    both NaN and -0.0.)
    """
    keep = a.data > 0 if _recording((a,)) else None
    zero = a.data.dtype.type(0)
    out_data = np.fmax(a.data, zero)
    out_data += zero

    def back(g):
        if a.requires_grad:
            _accum(a, g * keep, owned=True)

    return _make(out_data, (a,), back)


def channel_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale a [N, C, H, W] feature map per channel by a length-C vector."""
    if x.data.ndim != 4:
        raise ValueError(f"channel_scale expects a 4-d feature map, got shape {x.data.shape}")
    if s.data.shape != (x.data.shape[1],):
        raise ValueError(
            f"channel_scale vector shape {s.data.shape} does not match {x.data.shape[1]} channels"
        )
    col = s.data.reshape(1, -1, 1, 1)
    out_data = x.data * col

    def back(g):
        if x.requires_grad:
            _accum(x, g * col, owned=True)
        if s.requires_grad:
            _accum(s, np.einsum("nchw,nchw->c", g, x.data, dtype=np.float64).astype(s.data.dtype))

    return _make(out_data, (x, s), back)


# ---------------------------------------------------------------------------
# linear and convolution


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: [N, D] @ [D, K] + [K]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"linear expects 2-d input and weight, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear dimension mismatch: input {x.data.shape} vs weight {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} does not match {w.data.shape[1]} outputs")
    out_data = x.data @ w.data + b.data

    def back(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _make(out_data, (x, w, b), back)


# Bytes of im2col columns built at a time when no weight gradient keeps them.
_COLS_BLOCK_BYTES = 1 << 19


class _TapTable(NamedTuple):
    """The kernel taps of one conv geometry (`_taps`)."""

    flat: bool
    in_grid: tuple[int, ...]  # trailing shape of an input map: (H*W,) if flat, else (H, W)
    out_grid: tuple[int, ...]  # the same for an output map
    taps: list  # (i, j, src, dst): index tuples into an input and an output map
    wraps: list  # (j, input columns, output columns) of a flat shift's wrapped columns


def _taps(kh: int, kw: int, stride: int, padding: int, h: int, w: int, ho: int, wo: int) -> _TapTable:
    """Every kernel tap (i, j) that reads the input, in row-major order,
    with the input positions it reads and the output positions it serves.

    A flat table views maps as [..., H*W]: tap (i, j) is one shift by
    d = (i-p)*W + (j-p), clipped to the outputs o with o and o + d in
    [0, H*W).  The shift also pairs the last (j > p) or first (j < p)
    |j-p| columns of each output row with columns of the next or previous
    input row; `wraps` names those columns, which the caller zeroes.
    Otherwise each tap is a 2-d strided window of an [..., H, W] map.
    """
    if stride == 1 and (ho, wo) == (h, w) and padding < min(h, w):
        taps = []
        for i in range(kh):
            for j in range(kw):
                d = (i - padding) * w + (j - padding)
                lo, hi = max(0, -d), min(h * w, h * w - d)
                taps.append((i, j, (..., slice(lo + d, hi + d)), (..., slice(lo, hi))))
        wraps = [
            (j, slice(0, j - padding), slice(w + padding - j, w)) if j > padding
            else (j, slice(w + j - padding, w), slice(0, padding - j))
            for j in range(kw)
            if j != padding
        ]
        return _TapTable(True, (h * w,), (ho * wo,), taps, wraps)
    rows = [_tap_span(i, stride, padding, h, ho) for i in range(kh)]
    columns = [_tap_span(j, stride, padding, w, wo) for j in range(kw)]
    taps = [
        (i, j, (..., row[0], col[0]), (..., row[1], col[1]))
        for i, row in enumerate(rows)
        for j, col in enumerate(columns)
        if row is not None and col is not None
    ]
    return _TapTable(False, (h, w), (ho, wo), taps, [])


def _tap_span(k: int, stride: int, padding: int, size: int, osize: int):
    """Input and output slices of kernel tap `k` along one axis.

    Output position o reads input k + stride*o - padding; the slices cover
    the o for which that lands inside [0, size), or None if none do.
    """
    lo = max(0, -((k - padding) // stride))
    hi = min(osize, (size - 1 + padding - k) // stride + 1)
    if lo >= hi:
        return None
    start = k + stride * lo - padding
    return slice(start, start + stride * (hi - lo - 1) + 1, stride), slice(lo, hi)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """The [N, C*Kh*Kw, Ho*Wo] columns of `x`, zero where a tap reads padding."""
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    t = _taps(kh, kw, stride, padding, h, w, ho, wo)
    x = x.reshape((n, c) + t.in_grid)
    # A flat tap writes all but its ends, so zeroing only those is cheaper
    # than a zeroed buffer (here and in the output side's `gtap`).
    cols = (np.empty if t.flat else np.zeros)((n, c, kh, kw) + t.out_grid, dtype=x.dtype)
    for i, j, src, dst in t.taps:
        tap = cols[:, :, i, j]
        tap[dst] = x[src]
        if t.flat:  # the outputs past the shift's ends read padding rows
            tap[..., : dst[-1].start] = 0
            tap[..., dst[-1].stop :] = 0
    grid = cols.reshape(n, c, kh, kw, ho, wo)
    for j, _, out_cols in t.wraps:
        grid[:, :, :, j, :, out_cols] = 0
    return cols.reshape(n, c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Sum im2col columns back onto the input grid, tap by tap.

    Each tap adds straight into the unpadded input over its clipped range,
    so every input element receives its terms in the same (i, j) order as
    a sum over the padded grid would give it, and gets the same bits.  A
    flat table's wrapped columns are zeroed in `cols` first: a sum that
    starts at +0.0 is never -0.0, so adding +0.0 to it changes no bit.
    `cols` is consumed: when it is contiguous, those columns are zeroed in
    place, so a caller passes columns it does not read again.
    """
    n, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    t = _taps(kh, kw, stride, padding, h, w, ho, wo)
    grid = cols.reshape(n, c, kh, kw, ho, wo)
    for j, _, out_cols in t.wraps:
        grid[:, :, :, j, :, out_cols] = 0
    cols = grid.reshape((n, c, kh, kw) + t.out_grid)
    out = np.zeros((n, c) + t.in_grid, dtype=cols.dtype)
    for i, j, src, dst in t.taps:
        out[src] += cols[:, :, i, j][dst]
    return out.reshape(n, c, h, w)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross correlation of [N, Cin, H, W] with [Cout, Cin, Kh, Kw].

    Output size is floor((H + 2p - Kh) / stride) + 1 per dimension and
    must be at least 1x1. Rows and columns the stride never samples
    contribute nothing and receive zero gradient.

    With a graph, a conv with Cout <= Cin multiplies each image by the
    tap-stacked weight and adds the shifted partial outputs
    (`_output_side_conv2d`); without one it does so only at 2*Cout < Cin,
    where writing Kh*Kw partial maps per output still costs less than
    im2col's columns.  Others multiply the weight by im2col columns, and
    take the weight gradient as one GEMM per image with the columns'
    transpose, summed over the batch, which copies neither operand.
    Either side moves data per kernel tap; at stride 1 with an output the
    size of the input and padding below min(H, W), each tap is one shift
    over whole flattened channel maps, else a 2-d strided slice (`_taps`).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.data.shape} and {w.data.shape}")
    n, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d bad stride/padding: {stride}/{padding}")
    for dim, k in ((h, kh), (wd, kw)):
        if dim + 2 * padding - k < 0:
            raise ValueError(
                f"conv2d kernel exceeds input: input {x.data.shape}, kernel {w.data.shape}, "
                f"stride {stride}, padding {padding}"
            )
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    recording = _recording((x, w))
    if (cout <= cin) if recording else (2 * cout < cin):
        return _output_side_conv2d(x, w, stride, padding, ho, wo)

    # Only the weight gradient reads the columns: when it will, they are
    # built for the whole batch, before the output buffer, and kept;
    # otherwise a block of images at a time.  Each block runs the same
    # per-image GEMM.
    wmat = w.data.reshape(cout, -1)
    keep = recording and w.requires_grad
    cols = _im2col(x.data, kh, kw, stride, padding) if keep else None
    per = max(1, n if keep else _COLS_BLOCK_BYTES // max(1, cin * kh * kw * ho * wo * x.data.itemsize))
    out_data = np.empty((n, cout, ho * wo), dtype=np.result_type(wmat, x.data))
    for s in range(0, n, per):
        block = cols if keep else _im2col(x.data[s : s + per], kh, kw, stride, padding)
        np.matmul(wmat, block, out=out_data[s : s + per])
    out_data = out_data.reshape(n, cout, ho, wo)

    def back(g):
        gmat = g.reshape(n, cout, ho * wo)
        if w.requires_grad:
            # A weight made trainable after the forward rebuilds its columns.
            xcols = cols if cols is not None else _im2col(x.data, kh, kw, stride, padding)
            gw = np.matmul(gmat, xcols.transpose(0, 2, 1)).sum(axis=0)
            _accum(w, gw.reshape(w.data.shape), owned=True)
        if x.requires_grad:
            gcols = np.matmul(wmat.T, gmat)  # fresh, so `_col2im` may consume it
            _accum(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding), owned=True)

    return _make(out_data, (x, w), back)


def _output_side_conv2d(x: Tensor, w: Tensor, stride: int, padding: int, ho: int, wo: int) -> Tensor:
    """conv2d from the output side, with every GEMM on the Kh*Kw*Cout side.

    Row (i*Kw + j)*Cout + o of the stacked weight is tap (i, j) of output
    channel o.  The forward multiplies each image by it, which gives
    every tap's partial output at every input position, and adds each
    tap's partials into the output over the tap's clipped range, a block
    of images at a time.  The backward places g into the same tap layout
    (zero where a tap reads padding or a position the stride skips); one
    multiply of that buffer by x's transpose gives the weight gradient,
    and one by the stacked weight's transpose gives the input gradient.
    A flat shift zeroes the partials of its wrapped columns before adding
    them, and their places in the tap layout after filling it.
    """
    n, cin, h, wd = x.data.shape
    cout, _, kh, kw = w.data.shape
    t = _taps(kh, kw, stride, padding, h, wd, ho, wo)
    wstack = w.data.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    xmat = x.data.reshape(n, cin, h * wd)
    dt = np.result_type(wstack, x.data)
    out_data = np.zeros((n, cout) + t.out_grid, dtype=dt)
    per = max(1, _COLS_BLOCK_BYTES // max(1, wstack.shape[0] * h * wd * dt.itemsize))
    part = np.empty((min(per, n), wstack.shape[0], h * wd), dtype=dt)
    for s in range(0, n, per):
        block = part[: min(per, n - s)]
        np.matmul(wstack, xmat[s : s + per], out=block)
        grid = block.reshape(-1, kh, kw, cout, h, wd)
        for j, in_cols, _ in t.wraps:
            grid[:, :, j, :, :, in_cols] = 0
        block = block.reshape((-1, kh, kw, cout) + t.in_grid)
        out_block = out_data[s : s + per]
        for i, j, src, dst in t.taps:
            out_block[dst] += block[:, i, j][src]
    out_data = out_data.reshape(n, cout, ho, wo)

    def back(g):
        gtap = (np.empty if t.flat else np.zeros)((n, kh, kw, cout) + t.in_grid, dtype=g.dtype)
        g = g.reshape((n, cout) + t.out_grid)
        for i, j, src, dst in t.taps:
            tap = gtap[:, i, j]
            tap[src] = g[dst]
            if t.flat:  # no output reads the inputs past the shift's ends
                tap[..., : src[-1].start] = 0
                tap[..., src[-1].stop :] = 0
        grid = gtap.reshape(n, kh, kw, cout, h, wd)
        for j, in_cols, _ in t.wraps:
            grid[:, :, j, :, :, in_cols] = 0
        gtap = gtap.reshape(n, kh * kw * cout, h * wd)
        if w.requires_grad:
            gw = np.matmul(gtap, xmat.transpose(0, 2, 1)).sum(axis=0)
            _accum(w, gw.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
        if x.requires_grad:
            gx = np.matmul(wstack.T, gtap)
            _accum(x, gx.reshape(n, cin, h, wd), owned=True)

    return _make(out_data, (x, w), back)


# ---------------------------------------------------------------------------
# pooling


def pool2d(x: Tensor, kind: str, window: int) -> Tensor:
    """Non-overlapping max or average pooling with a square window.

    The window must divide both spatial dimensions.  Max pooling folds the
    window's strided views together in row-major order, so the output is
    the first maximum of each window and NaN wherever the window holds a
    NaN.  Its gradient goes to that one element: the lowest flat index
    inside the window (row-major) whose value equals the output, or the
    first NaN of a NaN window; every other element gets zero.  Average
    pooling spreads the gradient evenly over the window.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool2d kind must be 'max' or 'avg', got {kind!r}")
    if x.data.ndim != 4:
        raise ValueError(f"pool2d expects a 4-d input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    if window < 1 or h % window or w % window:
        raise ValueError(f"pool2d window {window} does not divide spatial dims of {x.data.shape}")
    ho, wo = h // window, w // window

    if kind == "max":
        offsets = [(i, j) for i in range(window) for j in range(window)]
        out_data = x.data[:, :, 0::window, 0::window].copy()
        for i, j in offsets[1:]:
            # np.maximum returns its second operand on ties, so the
            # earlier element wins between -0.0 and +0.0
            np.maximum(x.data[:, :, i::window, j::window], out_data, out=out_data)

        def back(g):
            if not x.requires_grad:
                return
            # g arrives as out_data's dtype, which is x's (`_accum` casts)
            bits = np.dtype(f"u{g.itemsize}")
            gx = np.empty_like(x.data)
            free = np.ones(out_data.shape, dtype=bool)
            hit = np.empty(out_data.shape, dtype=bool)
            for i, j in offsets:
                np.equal(x.data[:, :, i::window, j::window], out_data, out=hit)
                hit &= free
                # g's bit pattern times 0/1 keeps g exactly (-0.0 too) at a
                # hit and writes +0.0 elsewhere; g * hit would give -0.0
                # where g < 0, and copyto(where=) is several times slower
                np.multiply(g.view(bits), hit, out=gx.view(bits)[:, :, i::window, j::window])
                free ^= hit
            if free.any():
                # NaN equals nothing, so a NaN window is still free here:
                # its gradient goes to its first NaN
                for i, j in offsets:
                    np.isnan(x.data[:, :, i::window, j::window], out=hit)
                    hit &= free
                    np.copyto(gx[:, :, i::window, j::window], g, where=hit)
                    free ^= hit
            _accum(x, gx, owned=True)

        return _make(out_data, (x,), back)

    patches = (
        x.data.reshape(n, c, ho, window, wo, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, window * window)
    )
    out_data = patches.mean(axis=-1)

    def back(g):
        if not x.requires_grad:
            return
        gp = np.broadcast_to((g / (window * window))[..., None], patches.shape)
        gx = (
            gp.reshape(n, c, ho, wo, window, window)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        _accum(x, gx)

    return _make(np.ascontiguousarray(out_data), (x,), back)


# ---------------------------------------------------------------------------
# batch norm


_BN_EPS = 1e-5  # added to the variance before its square root
_BN_MOMENTUM = 0.1  # weight of the batch statistics in a running update


@dataclass
class RunningStats:
    """Exponential running mean/variance for one batch-norm layer."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def zeros(cls, channels: int, dtype=np.float32) -> "RunningStats":
        return cls(mean=np.zeros(channels, dtype=dtype), var=np.ones(channels, dtype=dtype))


def _channel_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel float64 sums of `a`, or of `a * b` summed per image in their dtype first."""
    a3 = a.reshape(*a.shape[:2], -1)
    if b is None:
        return np.einsum("nci->c", a3, dtype=np.float64)
    return np.einsum("nci,nci->nc", a3, b.reshape(a3.shape)).sum(axis=0, dtype=np.float64)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    mode: str = "train",
    update_running: bool = True,
) -> Tensor:
    """Per-channel batch normalization over [N, C, H, W].

    Train mode normalizes by batch statistics (biased variance) and, when
    `update_running` is set, folds them into `stats` with momentum 0.1
    (`_BN_MOMENTUM`).  Eval mode normalizes by the stored running
    statistics and ignores `update_running`.  Both add eps 1e-5
    (`_BN_EPS`) to the variance and write (x - mean) * a + beta, with
    a = gamma / sigma, into one buffer.  The batch mean is a float64 sum,
    so a constant float32 channel gives exactly beta; the batch variance is the
    mean square of x - mean.  The backward centres x again and writes
    (g - (x - mean) * s) * a - a * mean(g), s = sum(g * xhat) / (sigma * N*H*W),
    into that buffer, or g * a in eval mode: no normalized copy is kept.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"batch_norm2d mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4:
        raise ValueError(f"batch_norm2d expects a 4-d input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"batch_norm2d parameter shapes {gamma.data.shape}/{beta.data.shape} do not match {c} channels"
        )
    if mode == "train" and n == 0:
        raise ValueError("batch_norm2d cannot take batch statistics of an empty batch")

    dt = x.data.dtype
    count = n * h * w
    mu = _channel_sums(x.data) / count if mode == "train" else stats.mean.astype(np.float64)
    mu_col = mu.astype(dt).reshape(1, c, 1, 1)
    out_data = np.subtract(x.data, mu_col)
    var = _channel_sums(out_data, out_data) / count if mode == "train" else stats.var.astype(np.float64)
    if mode == "train" and update_running:
        m = _BN_MOMENTUM
        stats.mean = ((1 - m) * stats.mean + m * mu).astype(stats.mean.dtype)
        stats.var = ((1 - m) * stats.var + m * var).astype(stats.var.dtype)
    sigma = np.sqrt(var + _BN_EPS)
    a = gamma.data / sigma
    a_col = a.astype(dt).reshape(1, c, 1, 1)
    out_data *= a_col
    out_data += beta.data.reshape(1, c, 1, 1)

    def back(g):
        g_sum = _channel_sums(g)
        gx = np.subtract(x.data, mu_col)
        g_xhat = _channel_sums(g, gx) / sigma
        if gamma.requires_grad:
            _accum(gamma, g_xhat.astype(dt))
        if beta.requires_grad:
            _accum(beta, g_sum.astype(dt))
        if x.requires_grad:
            if mode == "train":
                gx *= (-g_xhat / (sigma * count)).astype(dt).reshape(1, c, 1, 1)
                gx += g
                gx *= a_col
                gx -= (a * g_sum / count).astype(dt).reshape(1, c, 1, 1)
            else:
                np.multiply(g, a_col, out=gx)
            _accum(x, gx, owned=True)

    return _make(out_data, (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# classification loss


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of [N, K] logits against integer labels.

    Computed with max subtraction so large logits stay finite.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2-d logits, got shape {logits.data.shape}")
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch of {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): min {labels.min()}, max {labels.max()}")
    if n == 0:
        raise ValueError("softmax_cross_entropy on an empty batch")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)
    out_data = np.asarray(-logp[rows, labels].mean(), dtype=logits.data.dtype)

    def back(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[rows, labels] -= 1
            _accum(logits, p * (g / logits.data.dtype.type(n)))

    return _make(out_data, (logits,), back)


# ---------------------------------------------------------------------------
# numerical gradient checking


def finite_diff_check(f, x: Tensor, step: float = 1e-3) -> float:
    """Compare autodiff against central finite differences.

    Kept in the public API as the gradient check demo 02 walks through;
    the gradient tests call it too.

    `f` must map the tensor `x` to a scalar Tensor and be free of hidden
    state (batch-norm running updates must be disabled by the caller).
    Returns the maximum elementwise relative error between the analytic
    gradient and the numerical one, with denominators floored at 1e-6 so
    near-zero entries compare absolutely.
    """
    if step <= 0:
        raise ValueError(f"finite difference step must be positive, got {step}")
    if not x.requires_grad:
        raise ValueError("finite_diff_check needs x.requires_grad")

    out = f(x)
    if out.data.size != 1:
        raise ValueError(f"f must return a scalar, got shape {out.data.shape}")
    x.grad = None
    backward(out)
    analytic = np.array(x.grad, dtype=np.float64, copy=True)

    numeric = np.empty(x.data.size, dtype=np.float64)
    flat = x.data.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f(x).data)
            flat[i] = orig - step
            f_minus = float(f(x).data)
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * step)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))
