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
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
_SEQ = itertools.count()


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are stored in (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dtype}")
    _DEFAULT_DTYPE = dtype.type


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default storage dtype (useful for 64-bit checks)."""
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(())[()])

    def __float__(self) -> float:
        return self.item()

    def backward(self) -> None:
        backward(self)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return add_scalar(self, -float(other))

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


def add_scalar(a: Tensor, c: float) -> Tensor:
    out_data = a.data + a.data.dtype.type(c)

    def back(g):
        if a.requires_grad:
            _accum(a, g)

    return _make(out_data, (a,), back)


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


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    n, c, h, w = x.shape
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


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


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Sum im2col columns back onto the input grid, tap by tap.

    Each tap adds straight into the unpadded input over its clipped range,
    so every input element receives its terms in the same (i, j) order as
    a sum over the padded grid would give it, and gets the same bits.
    """
    n, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    out = np.zeros((n, c, h, w), dtype=cols.dtype)
    rows = [_tap_span(i, stride, padding, h, ho) for i in range(kh)]
    columns = [_tap_span(j, stride, padding, w, wo) for j in range(kw)]
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            if row is None or col is None:
                continue
            out[:, :, row[0], col[0]] += cols[:, :, i, j, row[1], col[1]]
    return out


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross correlation of [N, Cin, H, W] with [Cout, Cin, Kh, Kw].

    Output size is floor((H + 2p - Kh) / stride) + 1 per dimension and
    must be at least 1x1. Rows and columns the stride never samples
    contribute nothing and receive zero gradient.
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

    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = w.data.reshape(cout, -1)
    out_data = np.matmul(wmat, cols).reshape(n, cout, ho, wo)

    def back(g):
        gmat = g.reshape(n, cout, ho * wo)
        if w.requires_grad:
            gw = np.tensordot(gmat, cols, axes=([0, 2], [0, 2]))
            _accum(w, gw.reshape(w.data.shape))
        if x.requires_grad:
            gcols = np.matmul(wmat.T, gmat)
            _accum(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding), owned=True)

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


@dataclass
class RunningStats:
    """Exponential running mean/variance for one batch-norm layer."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def zeros(cls, channels: int, dtype=np.float32) -> "RunningStats":
        return cls(mean=np.zeros(channels, dtype=dtype), var=np.ones(channels, dtype=dtype))

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: RunningStats,
    mode: str = "train",
    eps: float = 1e-5,
    momentum: float = 0.1,
    update_running: bool = True,
) -> Tensor:
    """Per-channel batch normalization over [N, C, H, W].

    Train mode normalizes by batch statistics (biased variance) and, when
    `update_running` is set, folds them into `stats` with the given
    momentum.  Eval mode normalizes by the stored running statistics.
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
    if mode == "train":
        mu = x.data.mean(axis=(0, 2, 3))
        xhat = x.data - mu.reshape(1, c, 1, 1)
        # np.var's own arithmetic on the centred input: sum of squares,
        # then a true divide by an intp count, so the bits match x.var()
        var = np.add.reduce(np.square(xhat), axis=(0, 2, 3))
        np.true_divide(var, np.intp(n * h * w), out=var, casting="unsafe")
        if update_running:
            m = dt.type(momentum)
            stats.mean = ((1 - m) * stats.mean + m * mu).astype(stats.mean.dtype)
            stats.var = ((1 - m) * stats.var + m * var).astype(stats.var.dtype)
    else:
        mu = stats.mean.astype(dt)
        var = stats.var.astype(dt)
        xhat = x.data - mu.reshape(1, c, 1, 1)

    sigma = np.sqrt(var + dt.type(eps))
    xhat /= sigma.reshape(1, c, 1, 1)
    if not _recording((x, gamma, beta)):
        # nothing reads xhat again, so the output takes its buffer
        np.multiply(gamma.data.reshape(1, c, 1, 1), xhat, out=xhat)
        xhat += beta.data.reshape(1, c, 1, 1)
        return _make(xhat, (x, gamma, beta), None)
    out_data = gamma.data.reshape(1, c, 1, 1) * xhat
    out_data += beta.data.reshape(1, c, 1, 1)

    def back(g):
        train_x = mode == "train" and x.requires_grad
        if gamma.requires_grad or train_x:
            g_xhat = np.einsum("nchw,nchw->c", g, xhat, dtype=np.float64).astype(dt)
        if gamma.requires_grad:
            _accum(gamma, g_xhat)
        if beta.requires_grad:
            _accum(beta, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            scale = (gamma.data / sigma).reshape(1, c, 1, 1)
            if train_x:
                gx = g - g.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
                gx -= xhat * (g_xhat / (n * h * w)).reshape(1, c, 1, 1)
                np.multiply(scale, gx, out=gx)
            else:
                gx = g * scale
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
