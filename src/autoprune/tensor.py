"""Dense float tensors with reverse-mode automatic differentiation.

Everything runs on plain numpy arrays in NCHW layout.  Each op is a
function (`add`, `mul`, `reshape`, `conv2d`, ...); `Tensor` overloads
no operator and has no op methods.  Each op records its inputs and a
backward closure on the output tensor, stamped with a global sequence
number.  `backward` replays the recorded closures in exact reverse
execution order (sequence numbers are strictly increasing, so sorting
by them reproduces the forward schedule), then releases the graph so a
second traversal fails loudly instead of reusing stale state.

Gradients accumulate into `.grad` and are populated for every tensor
reachable from the loss that has `requires_grad` set, intermediates
included.  Training loops are expected to call `zero_grad` between steps.

`conv2d` has two formulations over one table of kernel taps (`_taps`),
which each call builds once and both kernels and their backward passes
share.  Two loops serve both: `_gather` copies each tap of a map into
columns, `_scatter_add` adds each tap's columns into a map.  The im2col
side gathers the input and scatter-adds the input gradient; the output
side, which keeps no column buffer, scatter-adds the tap-stacked
weight's partial outputs and gathers the output gradient over the
transposed table.  With a graph the output side runs at Cout <= Cin,
without one only at 2*Cout < Cin.  A conv with stride 1, an output grid
equal to its input grid and padding p below min(H, W) (every 3x3/pad-1
conv of the stock models) takes each tap (i, j) as one shift over each
channel's flattened H*W map, else as a 2-d strided slice; the two give
the same bits.  A shift leaves the columns past its ends unwritten,
which `_gather` zeroes, and pairs the last (j > p) or first (j < p)
|j-p| columns of each row with the next or previous row, which both
loops zero in the columns (`_zero_wraps`): a sum that starts at +0.0 is
never -0.0, so adding +0.0 changes no bit.
`batch_norm2d` keeps no normalized copy of its input.

The per-image work of conv2d with a graph (both kernels' forward, the
weight-gradient GEMMs and both input gradients), relu, max pool2d and
batch_norm2d's elementwise passes and per-image sums runs in contiguous
chunks of images, one per CPU this process may use (`_over_images`):
the calling thread runs the first chunk, a pool of pinned threads the
rest.  An op splits only when each chunk gets at least
`_SPLIT_MIN_ELEMENTS` elements.  Every image's arithmetic is what one
thread does, and the weight gradients are summed over the batch on the
calling thread once all chunks have run, so no bit depends on the
number of threads.  Serial stay: the float64 per-channel sums (split,
their order would change), the forward of a conv without a graph (it
builds columns a memory-bounded block at a time, and many small blocks
lose to the hand-off) and average pooling, which is the global mean.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
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
# image chunks over the process's CPUs


# Bytes of im2col columns built at a time when no weight gradient keeps them.
_COLS_BLOCK_BYTES = 1 << 19
# Elements an op needs per chunk of images before it splits over threads
# (`_over_images`): below this, waking a thread whose CPU has gone idle
# costs more than the chunk saves.
_SPLIT_MIN_ELEMENTS = 3 << 17
# Threads that run chunks, the calling one included.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL: ThreadPoolExecutor | None = None


def _over_images(n: int, size: int, fn: Callable[[int, int], None]) -> None:
    """Call `fn(start, stop)` on contiguous image ranges that cover [0, n) once.

    `size` counts the op's image-side elements (an elementwise op's input,
    a conv's GEMM operands and products), and there are min(_WORKERS, n,
    size // _SPLIT_MIN_ELEMENTS) ranges, or one.  The calling thread runs
    the first and a pool of _WORKERS - 1 threads, started on first use, the
    others; all have ended when this returns or raises the first range's
    exception.  `fn` writes only its own images' rows of arrays that the
    caller owns, and never calls this helper, so a busy pool cannot
    deadlock.
    """
    global _POOL
    chunks = min(_WORKERS, n, size // _SPLIT_MIN_ELEMENTS)
    if chunks <= 1:
        fn(0, n)
        return
    if _POOL is None:
        _POOL = _start_pool()
    bounds = [n * k // chunks for k in range(chunks + 1)]
    rest = [_POOL.submit(fn, s, e) for s, e in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(rest)
    for f in rest:
        f.result()


def _start_pool() -> ThreadPoolExecutor:
    """_WORKERS - 1 threads, each pinned to one of this process's CPUs
    other than the calling thread's while there are such CPUs.  Where the
    kernel does not balance load across CPUs (a cpuset with
    sched_load_balance 0), an unpinned thread stays on its creator's CPU
    and adds no throughput; the caller itself stays unpinned."""
    free = iter(())
    if hasattr(os, "sched_setaffinity"):
        try:
            with open("/proc/thread-self/stat") as f:
                here = int(f.read().rsplit(")", 1)[1].split()[36])
            free = iter(sorted(os.sched_getaffinity(0) - {here}))
        except (OSError, ValueError, IndexError):
            pass

    def pin():
        cpu = next(free, None)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="autoprune-engine", initializer=pin)


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: work queued on
    the inherited pool would never run, so the child starts its own."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    x = np.atleast_1d(a.data)  # a view with an image axis to split over
    keep = np.empty(x.shape, dtype=bool) if _recording((a,)) else None
    zero = x.dtype.type(0)
    out_data = np.empty(x.shape, dtype=x.dtype)

    def forward(s, e):
        if keep is not None:
            np.greater(x[s:e], 0, out=keep[s:e])
        np.fmax(x[s:e], zero, out=out_data[s:e])
        out_data[s:e] += zero

    _over_images(len(x), x.size, forward)

    def back(g):
        if a.requires_grad:
            g, gx = g.reshape(x.shape), np.empty(x.shape, dtype=g.dtype)
            _over_images(len(x), x.size, lambda s, e: np.multiply(g[s:e], keep[s:e], out=gx[s:e]))
            _accum(a, gx.reshape(a.data.shape), owned=True)

    return _make(out_data.reshape(a.data.shape), (a,), back)


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


class _TapTable(NamedTuple):
    """The kernel taps of one conv geometry (`_taps`)."""

    flat: bool
    in_grid: tuple[int, ...]  # trailing shape of an input map: (H*W,) if flat, else (H, W)
    out_grid: tuple[int, ...]  # the same for an output map
    taps: list  # (i, j, src, dst): index tuples into an input and an output map
    wraps: list  # (j, src, dst): one wrapped column of a flat shift, as stride-W slices

    def transposed(self) -> "_TapTable":
        """The same taps with input and output swapped."""
        return _TapTable(self.flat, self.out_grid, self.in_grid,
                         [(i, j, dst, src) for i, j, src, dst in self.taps],
                         [(j, dst, src) for j, src, dst in self.wraps])


def _taps(kh: int, kw: int, stride: int, padding: int, h: int, w: int, ho: int, wo: int) -> _TapTable:
    """Every kernel tap (i, j) that reads the input, in row-major order,
    with the input positions it reads and the output positions it serves.

    A flat table views maps as [..., H*W]: tap (i, j) is one shift by
    d = (i-p)*W + (j-p), clipped to the outputs o with o and o + d in
    [0, H*W).  Otherwise each tap is a 2-d strided window of an
    [..., H, W] map.
    """
    if stride == 1 and (ho, wo) == (h, w) and padding < min(h, w):
        taps = []
        for i in range(kh):
            for j in range(kw):
                d = (i - padding) * w + (j - padding)
                lo, hi = max(0, -d), min(h * w, h * w - d)
                taps.append((i, j, (..., slice(lo + d, hi + d)), (..., slice(lo, hi))))
        wraps = [(j, slice((c + j - padding) % w, None, w), slice(c, None, w))
                 for j in range(kw) for c in (range(w + padding - j, w) if j > padding else range(padding - j))]
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


def _zero_wraps(cols: np.ndarray, t: _TapTable) -> None:
    """Zero every tap's wrapped output columns in `[N, C, Kh, Kw] + t.out_grid` columns."""
    for j, _, dst in t.wraps:
        cols[:, :, :, j, dst] = 0


def _gather(a: np.ndarray, t: _TapTable, cols: np.ndarray) -> None:
    """Fill each tap's `cols[:, :, i, j]` (`[N, C] + t.out_grid`) from the
    `[N, C] + t.in_grid` map `a`.  A flat table writes every column; any
    other writes only what the taps read, so its `cols` starts zeroed.
    """
    for i, j, src, dst in t.taps:
        tap = cols[:, :, i, j]
        tap[dst] = a[src]
        if t.flat:
            tap[..., : dst[-1].start] = 0
            tap[..., dst[-1].stop :] = 0
    _zero_wraps(cols, t)


def _scatter_add(cols: np.ndarray, t: _TapTable, out: np.ndarray) -> None:
    """Add each tap's `cols[:, :, i, j]` into the `[N, C] + t.in_grid` map
    `out`, in row-major tap order.

    Each tap adds straight into its clipped range, so every element of
    `out` receives its terms in the same (i, j) order as a sum over the
    padded grid would give it, and gets the same bits.  `cols` is
    consumed: a flat table's wrapped columns are zeroed in it first.
    """
    _zero_wraps(cols, t)
    for i, j, src, dst in t.taps:
        out[src] += cols[:, :, i, j][dst]


def _cols_buffer(shape: tuple[int, ...], t: _TapTable, dtype) -> np.ndarray:
    """Columns of `shape` + t.out_grid for `_gather`, zeroed unless the table is flat."""
    return (np.empty if t.flat else np.zeros)(shape + t.out_grid, dtype=dtype)


def _im2col(x: np.ndarray, t: _TapTable, kh: int, kw: int, cols: np.ndarray | None = None):
    """The [N, C*Kh*Kw, Ho*Wo] columns of `x` over `t`, zero where a tap reads padding,
    written into `cols` (a `_cols_buffer` of [N, C, Kh, Kw]) when it is given."""
    n, c = x.shape[:2]
    if cols is None:
        cols = _cols_buffer((n, c, kh, kw), t, x.dtype)
    _gather(x.reshape((n, c) + t.in_grid), t, cols)
    return cols.reshape(n, c * kh * kw, math.prod(t.out_grid))


def _col2im(cols: np.ndarray, x_shape, t: _TapTable, kh: int, kw: int, out: np.ndarray) -> np.ndarray:
    """Sum im2col columns back onto the input grid (`_scatter_add`), into
    `out` ([N, C] + t.in_grid, zeroed).  This consumes `cols`: a caller
    passes columns it does not read again."""
    n, c = x_shape[:2]
    _scatter_add(cols.reshape((n, c, kh, kw) + t.out_grid), t, out)
    return out.reshape(x_shape)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross correlation of [N, Cin, H, W] with [Cout, Cin, Kh, Kw].

    Output size is floor((H + 2p - Kh) / stride) + 1 per dimension and
    must be at least 1x1. Rows and columns the stride never samples
    contribute nothing and receive zero gradient.

    With a graph, a conv with Cout <= Cin runs on the output side
    (`_output_side_conv2d`); without one it does so only at 2*Cout < Cin,
    where writing Kh*Kw partial maps per output still costs less than
    im2col's columns.  Others multiply the weight by im2col columns: with
    a graph the whole batch's, kept for the weight gradient (one GEMM per
    image with their transpose, summed over the batch, which copies
    neither operand); without one a memory-bounded block at a time.
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
    t = _taps(kh, kw, stride, padding, h, wd, ho, wo)  # the call's one table, for both kernels and passes
    recording = _recording((x, w))
    if (cout <= cin) if recording else (2 * cout < cin):
        return _output_side_conv2d(x, w, t.transposed(), ho, wo, recording)

    # kept columns are allocated before the output buffer and filled a chunk
    # of images per thread, blocks on the calling thread: the same GEMMs
    wmat = w.data.reshape(cout, -1)
    size = n * (cin * kh * kw + cout) * ho * wo  # the GEMMs' columns and products
    cols = _cols_buffer((n, cin, kh, kw), t, x.data.dtype) if recording else None
    out_data = np.empty((n, cout, ho * wo), dtype=np.result_type(wmat, x.data))
    if recording:
        _over_images(n, size, lambda s, e: np.matmul(wmat, _im2col(x.data[s:e], t, kh, kw, cols[s:e]),
                                                     out=out_data[s:e]))
    else:
        per = max(1, _COLS_BLOCK_BYTES // max(1, cin * kh * kw * ho * wo * x.data.itemsize))
        for s in range(0, n, per):
            np.matmul(wmat, _im2col(x.data[s : s + per], t, kh, kw), out=out_data[s : s + per])
    out_data = out_data.reshape(n, cout, ho, wo)

    def back(g):
        gmat = g.reshape(n, cout, ho * wo)
        # one GEMM per image, summed over the batch once all have run
        gw = np.empty((n, cout, cin * kh * kw), dtype=np.result_type(gmat, x.data)) if w.requires_grad else None
        gx = np.zeros((n, cin) + t.in_grid, dtype=np.result_type(wmat, gmat)) if x.requires_grad else None

        def chunk(s, e):
            if gw is not None:
                np.matmul(gmat[s:e], cols[s:e].reshape(e - s, -1, ho * wo).transpose(0, 2, 1), out=gw[s:e])
            if gx is not None:
                # fresh, so `_col2im` may consume it
                gcols = np.matmul(wmat.T, gmat[s:e])
                _col2im(gcols, (e - s,) + x.data.shape[1:], t, kh, kw, gx[s:e])

        _over_images(n, size, chunk)
        if gw is not None:
            _accum(w, gw.sum(axis=0).reshape(w.data.shape), owned=True)
        if gx is not None:
            _accum(x, gx.reshape(x.data.shape), owned=True)

    return _make(out_data, (x, w), back)


def _output_side_conv2d(x: Tensor, w: Tensor, t: _TapTable, ho: int, wo: int, recording: bool) -> Tensor:
    """conv2d from the output side, with every GEMM on the Kh*Kw*Cout side.

    Row (i*Kw + j)*Cout + o of the stacked weight is tap (i, j) of output
    channel o.  The forward multiplies each image by it, which gives
    every tap's partial output at every input position, and scatter-adds
    those into the output over `t`, the conv's tap table transposed, a
    block of images at a time.  The backward gathers g into the same tap
    layout; one multiply of that by x's transpose gives the weight
    gradient, and one by the stacked weight's transpose gives the input
    gradient.  `recording` says whether the call records a graph.
    """
    n, cin, h, wd = x.data.shape
    cout, _, kh, kw = w.data.shape
    # the [N, Kh, Kw, Cout] + grid tap layout seen as `_gather`'s columns
    axes = (0, 3, 1, 2) + tuple(range(4, 4 + len(t.out_grid)))
    wstack = w.data.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    xmat = x.data.reshape(n, cin, h * wd)
    dt = np.result_type(wstack, x.data)
    out_data = np.zeros((n, cout) + t.in_grid, dtype=dt)
    rows = kh * kw * cout
    size = n * (cin + rows) * h * wd  # the GEMMs' image operands and products
    per = max(1, _COLS_BLOCK_BYTES // max(1, rows * h * wd * dt.itemsize))

    def forward(s, e):
        part = np.empty((min(per, e - s), rows, h * wd), dtype=dt)
        for b in range(s, e, per):
            block = part[: min(per, e - b)]
            np.matmul(wstack, xmat[b : b + len(block)], out=block)
            _scatter_add(block.reshape((-1, kh, kw, cout) + t.out_grid).transpose(axes), t,
                         out_data[b : b + len(block)])

    # without a graph the point of this kernel is its memory bound, which
    # a block per thread would break: that forward stays on one thread
    if recording:
        _over_images(n, size, forward)
    else:
        forward(0, n)
    out_data = out_data.reshape(n, cout, ho, wo)

    def back(g):
        gtap = _cols_buffer((n, kh, kw, cout), t, g.dtype)
        g_in = g.reshape((n, cout) + t.in_grid)
        gmat = gtap.reshape(n, rows, h * wd)
        # one GEMM per image, summed over the batch once all have run
        gw = np.empty((n, rows, cin), dtype=np.result_type(gmat, xmat)) if w.requires_grad else None
        gx = np.empty((n, cin, h * wd), dtype=np.result_type(wstack, gmat)) if x.requires_grad else None

        def chunk(s, e):
            _gather(g_in[s:e], t, gtap[s:e].transpose(axes))
            if gw is not None:
                np.matmul(gmat[s:e], xmat[s:e].transpose(0, 2, 1), out=gw[s:e])
            if gx is not None:
                np.matmul(wstack.T, gmat[s:e], out=gx[s:e])

        _over_images(n, size, chunk)
        if gw is not None:
            _accum(w, gw.sum(axis=0).reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
        if gx is not None:
            _accum(x, gx.reshape(n, cin, h, wd), owned=True)

    return _make(out_data, (x, w), back)


# ---------------------------------------------------------------------------
# pooling


def pool2d(x: Tensor, kind: str, window: int) -> Tensor:
    """Max pooling over non-overlapping square windows, or average pooling
    over the whole map.

    A max window must divide both spatial dimensions.  Max pooling folds
    the window's strided views together in row-major order, so the output
    is the first maximum of each window and NaN wherever the window holds
    a NaN.  Its gradient goes to that one element: the lowest flat index
    inside the window (row-major) whose value equals the output, or the
    first NaN of a NaN window; every other element gets zero.  An average
    window must be the whole (square) map: the output is each channel's
    mean, [N, C, 1, 1], and its gradient spreads evenly over the map.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool2d kind must be 'max' or 'avg', got {kind!r}")
    if x.data.ndim != 4:
        raise ValueError(f"pool2d expects a 4-d input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    if kind == "avg":
        if (h, w) != (window, window):
            raise ValueError(f"pool2d avg window {window} is not the whole map of {x.data.shape}")
        out_data = x.data.mean(axis=(2, 3), keepdims=True)

        def back(g):
            if x.requires_grad:
                _accum(x, np.broadcast_to(g / (h * w), x.data.shape))

        return _make(out_data, (x,), back)

    if window < 1 or h % window or w % window:
        raise ValueError(f"pool2d window {window} does not divide spatial dims of {x.data.shape}")
    ho, wo = h // window, w // window
    offsets = [(i, j) for i in range(window) for j in range(window)]
    out_data = np.empty((n, c, ho, wo), dtype=x.data.dtype)

    def forward(s, e):
        xs, out = x.data[s:e], out_data[s:e]
        np.copyto(out, xs[:, :, 0::window, 0::window])
        for i, j in offsets[1:]:
            # np.maximum returns its second operand on ties, so the
            # earlier element wins between -0.0 and +0.0
            np.maximum(xs[:, :, i::window, j::window], out, out=out)

    _over_images(n, x.data.size, forward)

    def back(g):
        if not x.requires_grad:
            return
        # g arrives as out_data's dtype, which is x's (`_accum` casts)
        bits = np.dtype(f"u{g.itemsize}")
        gx = np.empty_like(x.data)

        def chunk(s, e):
            xs, out, gs, gxs = x.data[s:e], out_data[s:e], g[s:e], gx[s:e]
            free = np.ones(out.shape, dtype=bool)
            hit = np.empty(out.shape, dtype=bool)
            for i, j in offsets:
                np.equal(xs[:, :, i::window, j::window], out, out=hit)
                hit &= free
                # g's bit pattern times 0/1 keeps g exactly (-0.0 too) at a
                # hit and writes +0.0 elsewhere; g * hit would give -0.0
                # where g < 0, and copyto(where=) is several times slower
                np.multiply(gs.view(bits), hit, out=gxs.view(bits)[:, :, i::window, j::window])
                free ^= hit
            if free.any():
                # NaN equals nothing, so a NaN window is still free here:
                # its gradient goes to its first NaN
                for i, j in offsets:
                    np.isnan(xs[:, :, i::window, j::window], out=hit)
                    hit &= free
                    np.copyto(gxs[:, :, i::window, j::window], gs, where=hit)
                    free ^= hit

        _over_images(n, x.data.size, chunk)
        _accum(x, gx, owned=True)

    return _make(out_data, (x,), back)


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
    """Per-channel float64 sums of `a`, or of `a * b` summed per image in
    their dtype first.  The sums over images stay on one thread: split,
    the float64 order of `"nci->c"` would change."""
    a3 = a.reshape(*a.shape[:2], -1)
    if b is None:
        return np.einsum("nci->c", a3, dtype=np.float64)
    b3 = b.reshape(a3.shape)
    per_image = np.empty(a3.shape[:2], dtype=np.result_type(a3, b3))
    _over_images(len(a3), a3.size,
                 lambda s, e: np.einsum("nci,nci->nc", a3[s:e], b3[s:e], out=per_image[s:e]))
    return per_image.sum(axis=0, dtype=np.float64)


def _centred(x: np.ndarray, mu_col: np.ndarray) -> np.ndarray:
    """A fresh x - mu_col, a chunk of images per thread."""
    out = np.empty(x.shape, dtype=np.result_type(x, mu_col))
    _over_images(len(x), x.size, lambda s, e: np.subtract(x[s:e], mu_col, out=out[s:e]))
    return out


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
    out_data = _centred(x.data, mu_col)
    var = _channel_sums(out_data, out_data) / count if mode == "train" else stats.var.astype(np.float64)
    if mode == "train" and update_running:
        m = _BN_MOMENTUM
        stats.mean = ((1 - m) * stats.mean + m * mu).astype(stats.mean.dtype)
        stats.var = ((1 - m) * stats.var + m * var).astype(stats.var.dtype)
    sigma = np.sqrt(var + _BN_EPS)
    a = gamma.data / sigma
    a_col = a.astype(dt).reshape(1, c, 1, 1)
    beta_col = beta.data.reshape(1, c, 1, 1)

    def scale_shift(s, e):
        out = out_data[s:e]
        out *= a_col
        out += beta_col

    _over_images(n, out_data.size, scale_shift)

    def back(g):
        g_sum = _channel_sums(g)
        gx = _centred(x.data, mu_col)
        g_xhat = _channel_sums(g, gx) / sigma
        if gamma.requires_grad:
            _accum(gamma, g_xhat.astype(dt))
        if beta.requires_grad:
            _accum(beta, g_sum.astype(dt))
        if x.requires_grad:
            if mode == "train":
                s_col = (-g_xhat / (sigma * count)).astype(dt).reshape(1, c, 1, 1)
                m_col = (a * g_sum / count).astype(dt).reshape(1, c, 1, 1)

                def chunk(s, e):
                    gxs = gx[s:e]
                    gxs *= s_col
                    gxs += g[s:e]
                    gxs *= a_col
                    gxs -= m_col
            else:
                def chunk(s, e):
                    np.multiply(g[s:e], a_col, out=gx[s:e])

            _over_images(n, gx.size, chunk)
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
