"""Engine checks: forward kernels against loop oracles, gradients against
central finite differences, and the graph lifecycle rules."""

import itertools
import tracemalloc

import numpy as np
import pytest

from autoprune import tensor
from autoprune.tensor import (
    RunningStats,
    Tensor,
    _col2im,
    _im2col,
    _taps,
    add,
    backward,
    batch_norm2d,
    channel_scale,
    conv2d,
    finite_diff_check,
    linear,
    mul,
    no_grad,
    pool2d,
    relu,
    softmax_cross_entropy,
    tensor_sum,
    use_dtype,
    zero_grad,
)

# ---------------------------------------------------------------------------
# oracles: direct-loop references computed in float64


def conv2d_oracle(x, w, stride=1, padding=0):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for b in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[b, co, i, j] = acc
    return out


def linear_oracle(x, w, b):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, d = x.shape
    k = w.shape[1]
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            acc = b[j]
            for t in range(d):
                acc += x[i, t] * w[t, j]
            out[i, j] = acc
    return out


def pool2d_oracle(x, kind, window):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    out = np.zeros((n, c, ho, wo))
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    patch = x[b, ch, i * window : (i + 1) * window, j * window : (j + 1) * window]
                    out[b, ch, i, j] = patch.max() if kind == "max" else patch.mean()
    return out


def argmax_max_pool(x, window, g):
    """Reference max pool: argmax over a transposed copy of the windows.

    Returns the pooled output and the gradient of sum(out * g) with
    respect to x, both in x's dtype, so they can be compared bit for bit.
    """
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    patches = (
        x.reshape(n, c, ho, window, wo, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, window * window)
    )
    idx = patches.argmax(axis=-1)
    out = np.take_along_axis(patches, idx[..., None], axis=-1)[..., 0]
    gp = np.zeros_like(patches)
    np.put_along_axis(gp, idx[..., None], g[..., None], axis=-1)
    gx = gp.reshape(n, c, ho, wo, window, window).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, gx


def two_pass_batch_norm(x, gamma, beta, mean, var, mode, g, eps=1e-5, momentum=0.1):
    """Reference batch norm in float64: mean and var of x, then (x - mu) / sigma.

    Returns the output, the running mean and var after the call, and the
    x, gamma and beta gradients of sum(out * g), all in float64.
    """
    x, gamma, beta, mean, var, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, mean, var, g))
    n, c, h, w = x.shape
    if mode == "train":
        mu = x.mean(axis=(0, 2, 3))
        v = ((x - mu.reshape(1, c, 1, 1)) ** 2).mean(axis=(0, 2, 3))
        mean = (1 - momentum) * mean + momentum * mu
        var = (1 - momentum) * var + momentum * v
    else:
        mu, v = mean, var
    sigma = np.sqrt(v + eps)
    xhat = (x - mu.reshape(1, c, 1, 1)) / sigma.reshape(1, c, 1, 1)
    out = gamma.reshape(1, c, 1, 1) * xhat + beta.reshape(1, c, 1, 1)
    g_gamma = (g * xhat).sum(axis=(0, 2, 3))
    g_beta = g.sum(axis=(0, 2, 3))
    scale = gamma.reshape(1, c, 1, 1) / sigma.reshape(1, c, 1, 1)
    if mode == "train":
        g_mean = g.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        gx_mean = (g_gamma / (n * h * w)).reshape(1, c, 1, 1)
        g_x = scale * (g - g_mean - xhat * gx_mean)
    else:
        g_x = g * scale
    return out, mean, var, g_x, g_gamma, g_beta


def padded_col2im(cols, x_shape, kh, kw, stride, padding):
    """Reference col2im: sum every tap into a padded grid, then crop it."""
    n, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return out[:, :, padding : padding + h, padding : padding + w]


def strided_im2col(x, kh, kw, stride, padding):
    """Reference im2col: pad the input, then take each tap as a 2-d
    strided slice of the padded grid."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def full_buffer_conv2d(x, w, stride, padding, g):
    """Reference conv: one strided-slice im2col buffer for the whole batch,
    then the per-image GEMM, the per-image weight-gradient GEMMs summed
    over the batch, and the input-gradient GEMM summed back by the padded
    col2im.

    Returns the output and the w and x gradients of sum(out * g).
    """
    n, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    cols = strided_im2col(x, kh, kw, stride, padding)
    wmat = w.reshape(cout, -1)
    out = np.matmul(wmat, cols).reshape(n, cout, ho, wo)
    gmat = g.reshape(n, cout, ho * wo)
    gw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gx = padded_col2im(np.matmul(wmat.T, gmat), x.shape, kh, kw, stride, padding)
    return out, gw, gx


def tap_span(k, stride, padding, size, osize):
    """Input and output slices of kernel tap `k` along one axis, or None."""
    lo = max(0, -((k - padding) // stride))
    hi = min(osize, (size - 1 + padding - k) // stride + 1)
    if lo >= hi:
        return None
    start = k + stride * lo - padding
    return slice(start, start + stride * (hi - lo - 1) + 1, stride), slice(lo, hi)


def tap_slice_output_side(x, w, stride, padding, g):
    """Reference output-side conv: every tap's clipped range as 2-d strided
    slices, with the whole batch's tap partials in one buffer.

    Returns the output and the w and x gradients of sum(out * g).
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    rows = [tap_span(i, stride, padding, h, ho) for i in range(kh)]
    columns = [tap_span(j, stride, padding, wd, wo) for j in range(kw)]
    taps = [(i, j, row, col) for i, row in enumerate(rows) for j, col in enumerate(columns)
            if row is not None and col is not None]
    wstack = w.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    xmat = x.reshape(n, cin, h * wd)
    part = np.matmul(wstack, xmat).reshape(n, kh, kw, cout, h, wd)
    out = np.zeros((n, cout, ho, wo), dtype=part.dtype)
    for i, j, (ri, ro), (ci, co) in taps:
        out[:, :, ro, co] += part[:, i, j, :, ri, ci]
    gtap = np.zeros((n, kh, kw, cout, h, wd), dtype=g.dtype)
    for i, j, (ri, ro), (ci, co) in taps:
        gtap[:, i, j, :, ri, ci] = g[:, :, ro, co]
    gtap = gtap.reshape(n, kh * kw * cout, h * wd)
    gw = np.matmul(gtap, xmat.transpose(0, 2, 1)).sum(axis=0)
    gw = np.ascontiguousarray(gw.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
    gx = np.matmul(wstack.T, gtap).reshape(x.shape)
    return out, gw, gx


def plant_specials(a):
    """Write NaN, +inf, -inf and -0.0 into the first and last column of
    image 0, channel 0 of `a`, row by row: the columns a flat tap shift
    wraps into the neighbouring row."""
    specials = itertools.cycle((np.nan, np.inf, -np.inf, -0.0))
    for r in range(a.shape[2]):
        a[0, 0, r, 0] = next(specials)
        a[0, 0, r, -1] = next(specials)
    return a


# (h, w) maps for the column helpers: a general one, a single row, a single
# column, and maps whose smaller side is at most a k = 5 kernel's padding
MAPS = [(7, 9), (1, 6), (5, 1), (2, 3), (3, 2)]


def bits(a):
    """The raw bit patterns of a float array, so that -0.0 != +0.0."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


def max_pool_with_grad(x, window, g):
    """pool2d's max output and the gradient of sum(out * g) with respect to x."""
    t = Tensor(x, requires_grad=True)
    out = pool2d(t, "max", window)
    backward(tensor_sum(mul(out, Tensor(g))))
    return out.data, t.grad


def upstream_grad(rng, shape, dtype):
    """Random upstream gradient with negative entries and both zeros."""
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.1] = -0.0
    g[rng.random(shape) < 0.1] = 0.0
    return g.astype(dtype)


def cross_entropy_oracle(logits, labels):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


# ---------------------------------------------------------------------------
# forward agreement with the oracles


class TestForwardOracles:
    def test_conv2d_matches_loop_oracle_on_random_shapes(self):
        rng = np.random.default_rng(42)
        shapes = [
            (1, 1, 5, 5, 1, 3, 1, 0),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (4, 8, 16, 16, 6, 3, 1, 1),
            (2, 4, 9, 9, 5, 3, 2, 1),
            (3, 2, 16, 16, 4, 5, 1, 2),
            (2, 6, 12, 10, 3, 1, 1, 0),
            (2, 3, 6, 6, 4, 3, 2, 1),
        ]
        for n, cin, h, w, cout, k, stride, pad in shapes:
            x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
            wt = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
            got = conv2d(Tensor(x), Tensor(wt), stride=stride, padding=pad).data
            want = conv2d_oracle(x, wt, stride=stride, padding=pad)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_linear_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 11)).astype(np.float32)
        w = rng.standard_normal((11, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, linear_oracle(x, w, b), rtol=1e-5, atol=1e-5)

    def test_pool2d_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8, 16, 16)).astype(np.float32)
        for kind in ("max", "avg"):
            for window in (2, 4):
                got = pool2d(Tensor(x), kind, window).data
                np.testing.assert_allclose(
                    got, pool2d_oracle(x, kind, window), rtol=1e-5, atol=1e-5
                )

    def test_cross_entropy_matches_float64_oracle(self):
        rng = np.random.default_rng(11)
        logits = (rng.standard_normal((16, 10)) * 30).astype(np.float32)
        labels = rng.integers(0, 10, 16)
        got = float(softmax_cross_entropy(Tensor(logits), labels).data)
        assert abs(got - cross_entropy_oracle(logits, labels)) < 1e-5

    def test_cross_entropy_stays_finite_for_huge_logits(self):
        logits = Tensor(np.array([[1e4, -1e4, 0.0]], dtype=np.float32))
        val = float(softmax_cross_entropy(logits, np.array([0])).data)
        assert np.isfinite(val) and val < 1e-3

    def test_batch_norm_train_normalizes_to_unit_stats(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((8, 3, 6, 6)) * 4 + 2).astype(np.float32)
        stats = RunningStats.zeros(3)
        out = batch_norm2d(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, mode="train"
        ).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batch_norm_running_stats_update(self):
        rng = np.random.default_rng(9)
        x = (rng.standard_normal((16, 2, 4, 4)) * 3 + 1).astype(np.float32)
        stats = RunningStats.zeros(2)
        batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, mode="train")
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(stats.mean, 0.1 * mu, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * var, rtol=1e-5, atol=1e-6)

    def test_batch_norm_eval_uses_running_stats(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        stats = RunningStats(
            mean=np.array([1.0, -2.0], dtype=np.float32),
            var=np.array([4.0, 0.25], dtype=np.float32),
        )
        gamma = np.array([2.0, 3.0], dtype=np.float32)
        beta = np.array([0.5, -1.0], dtype=np.float32)
        out = batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta), stats, mode="eval").data
        want = gamma.reshape(1, 2, 1, 1) * (
            x - stats.mean.reshape(1, 2, 1, 1)
        ) / np.sqrt(stats.var.reshape(1, 2, 1, 1) + 1e-5) + beta.reshape(1, 2, 1, 1)
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)

    def test_forward_is_bit_identical_across_runs(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = conv2d(Tensor(x), Tensor(w), padding=1).data
        b = conv2d(Tensor(x), Tensor(w), padding=1).data
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# behavioural corner cases


class TestOpSemantics:
    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
        out = tensor_sum(relu(x))
        backward(out)
        np.testing.assert_array_equal(x.grad, np.array([0.0, 0.0, 1.0], dtype=np.float32))

    def test_relu_is_bitwise_where_positive(self):
        # NaN and -0.0 both map to +0.0; np.maximum would keep them
        rng = np.random.default_rng(23)
        special = [np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 1e-45, -1e-45]
        for dtype in (np.float32, np.float64):
            with use_dtype(dtype):
                x = np.concatenate([special, rng.standard_normal(1000)]).astype(dtype)
                out = relu(Tensor(x)).data
                assert out.dtype == dtype
                np.testing.assert_array_equal(bits(out), bits(np.where(x > 0, x, dtype(0))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in the loss
    def test_max_pool_tie_goes_to_lowest_flat_index(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        out = tensor_sum(pool2d(t, "max", 2))
        backward(out)
        want = np.zeros((1, 1, 2, 2), dtype=np.float32)
        want[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(t.grad, want)

        # a tie between flat indices 1 and 3 of a 2x2 window goes to 1
        x = np.array([[[[0.0, 5.0], [1.0, 5.0]]]], dtype=np.float32)
        _, gx = max_pool_with_grad(x, 2, np.array([[[[-2.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(gx, [[[[0.0, -2.0], [0.0, 0.0]]]])

        # -0.0 and +0.0 tie: the output keeps the earlier one's sign bit
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            x = np.array([[[[first, second], [second, first]]]], dtype=np.float32)
            out, gx = max_pool_with_grad(x, 2, np.ones((1, 1, 1, 1), dtype=np.float32))
            assert np.signbit(out[0, 0, 0, 0]) == np.signbit(first)
            np.testing.assert_array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])

        # every case below against the argmax reference, bit for bit
        rng = np.random.default_rng(29)
        shape = (3, 4, 8, 8)
        signed_zeros = rng.choice([-0.0, 0.0], shape)
        cases = {
            "random": rng.standard_normal(shape),
            "all-equal": np.full(shape, 0.75),
            "pairwise ties": rng.integers(-2, 3, shape).astype(np.float64),
            "signed zeros": signed_zeros,
            "signed zeros and negatives": np.where(rng.random(shape) < 0.5, signed_zeros, -1.0),
            "infinities": rng.choice([-np.inf, np.inf, -1.0, 0.0, 1.0], shape),
            "all -inf": np.full(shape, -np.inf),
        }
        for dtype in (np.float32, np.float64):
            with use_dtype(dtype):
                for name, values in cases.items():
                    x = values.astype(dtype)
                    for window in (2, 4):
                        g = upstream_grad(rng, (3, 4, 8 // window, 8 // window), dtype)
                        out, gx = max_pool_with_grad(x, window, g)
                        want_out, want_gx = argmax_max_pool(x, window, g)
                        where = f"{name}, window {window}, {dtype.__name__}"
                        assert out.dtype == gx.dtype == dtype, where
                        np.testing.assert_array_equal(bits(out), bits(want_out), err_msg=where)
                        np.testing.assert_array_equal(bits(gx), bits(want_gx), err_msg=where)

    def test_max_pool_window_with_nan_outputs_nan(self):
        # the gradient of a NaN window goes to its first NaN, as argmax has it
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        x[0, 0, 1, 1] = np.nan
        x[1, 2, 2, 3] = np.nan
        x[1, 2, 3, 2] = np.nan
        x[0, 1, :2, :2] = [[np.inf, -np.inf], [np.nan, 0.0]]
        g = upstream_grad(rng, (2, 3, 2, 2), np.float32)
        out, gx = max_pool_with_grad(x, 2, g)
        want_out, want_gx = argmax_max_pool(x, 2, g)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(want_out))
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[1, 2, 1, 1]) and np.isnan(out[0, 1, 0, 0])
        assert np.isnan(out).sum() == 3
        np.testing.assert_array_equal(bits(gx), bits(want_gx))
        assert gx[1, 2, 2, 3] == g[1, 2, 1, 1] and gx[1, 2, 3, 2] == 0.0

    # Largest error of the batch norm's output, running statistics and
    # gradients, relative to the largest magnitude of the float64
    # reference.  A float32 input at |mean| / std = 2e3 resolves each value
    # to only about 1e-4 of a std, so there the bound is loose; it still
    # catches a variance taken as E[x^2] - mean^2, which loses all of it.
    BN_TOLERANCES = {
        (np.float32, "unit"): 2e-6,
        (np.float32, "offset"): 1e-4,
        (np.float64, "unit"): 1e-12,
        (np.float64, "offset"): 1e-10,
    }

    @pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("float32", "float64"))
    def test_batch_norm_matches_a_float64_two_pass_reference(self, dtype):
        rng = np.random.default_rng(37)
        shapes = {"batch": (4, 3, 5, 6), "batch 1": (1, 3, 5, 6)}
        grads = {"all": (True, True, True), "x only": (True, False, False),
                 "params only": (False, True, True)}
        with use_dtype(dtype):
            for (shape_name, shape), spread in itertools.product(shapes.items(), ("unit", "offset")):
                x = rng.standard_normal(shape) * 3 + 1
                if spread == "offset":
                    x[:, 0] = x[:, 0] / 60 + 100  # mean / std about 2e3
                x = x.astype(dtype)
                # a constant channel: zero variance, and a float64 mean that is
                # exact for any float32 constant but not for float64's 0.1
                x[:, 1] = 0.1 if dtype == np.float32 else 0.625
                x[:, 2] = -0.0  # a channel of negative zeros
                gamma = rng.standard_normal(3).astype(dtype)
                beta = rng.standard_normal(3).astype(dtype)
                mean = rng.standard_normal(3).astype(dtype)
                var = rng.random(3).astype(dtype) + dtype(0.5)
                g = upstream_grad(rng, shape, dtype)
                tol = self.BN_TOLERANCES[dtype, spread]
                for mode in ("train", "eval"):
                    if spread == "offset" and mode == "eval":
                        mean[0] = x[:, 0].mean()
                    want = two_pass_batch_norm(x, gamma, beta, mean, var, mode, g)
                    where = f"{shape_name}, {spread}, {mode}"
                    # no graph: output and running statistics
                    stats = RunningStats(mean.copy(), var.copy())
                    with no_grad():
                        plain = batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta), stats, mode)
                    for got, ref in zip((plain.data, stats.mean, stats.var), want[:3]):
                        assert got.dtype == dtype, where
                        assert rel_err(got, ref) <= tol, (where, rel_err(got, ref))
                    if mode == "train":
                        # x - mean is exactly zero there, so the output is beta
                        for ch in (1, 2):
                            assert np.all(bits(plain.data[:, ch]) == bits(beta[ch])), where
                    # with a graph: the same output bits, plus every gradient asked for
                    for grad_name, flags in grads.items():
                        ts = [Tensor(a, requires_grad=f) for a, f in zip((x, gamma, beta), flags)]
                        stats = RunningStats(mean.copy(), var.copy())
                        out = batch_norm2d(*ts, stats, mode)
                        np.testing.assert_array_equal(bits(out.data), bits(plain.data), err_msg=where)
                        backward(tensor_sum(mul(out, Tensor(g))))
                        for k, (t, f) in enumerate(zip(ts, flags)):
                            if f:
                                at = f"{where}, {grad_name} grads, item {k}"
                                assert t.grad.dtype == dtype, at
                                assert rel_err(t.grad, want[3 + k]) <= tol, (at, rel_err(t.grad, want[3 + k]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_col2im_is_bitwise_the_padded_sum(self):
        # NaN, infinities and -0.0 sit in the columns a flat tap shift wraps
        rng = np.random.default_rng(41)
        for dtype, (h, w), k, stride, padding in itertools.product(
            (np.float32, np.float64), MAPS, (1, 2, 3, 5), (1, 2, 3), range(4)
        ):
            if h + 2 * padding < k or w + 2 * padding < k:
                continue
            x_shape = (2, 3, h, w)
            ho = (h + 2 * padding - k) // stride + 1
            wo = (w + 2 * padding - k) // stride + 1
            cols = plant_specials(upstream_grad(rng, (2, 3 * k * k, ho, wo), dtype)).reshape(2, -1, ho * wo)
            want = padded_col2im(cols, x_shape, k, k, stride, padding)
            got = _col2im(cols, x_shape, _taps(k, k, stride, padding, h, w, ho, wo), k, k)
            where = f"{h}x{w}, k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            assert got.shape == x_shape and got.dtype == dtype, where
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=where)

    @pytest.mark.parametrize("block_bytes", [None, 1 << 14])
    def test_conv_without_kept_columns_is_bitwise_the_full_buffer(self, block_bytes, monkeypatch):
        # 37 images at 3x32x32 span several column blocks and a remainder;
        # the 16 KiB budget cuts every shape here into blocks of 1-2 images
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_COLS_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(53)
        for dtype, k, stride, padding in itertools.product(
            (np.float32, np.float64), (1, 3), (1, 2), (0, 1)
        ):
            where = f"k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            x = rng.standard_normal((37, 3, 32, 32)).astype(dtype)
            w = rng.standard_normal((8, 3, k, k)).astype(dtype)
            ho = (32 + 2 * padding - k) // stride + 1
            g = upstream_grad(rng, (37, 8, ho, ho), dtype)
            want, _, want_gx = full_buffer_conv2d(x, w, stride, padding, g)
            with use_dtype(dtype):
                with no_grad():
                    out = conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                                 stride, padding)
                assert out.data.dtype == dtype, where
                np.testing.assert_array_equal(bits(out.data), bits(want), err_msg=where)
                # a frozen weight and a live input: the ratio step's case
                xt = Tensor(x, requires_grad=True)
                out = conv2d(xt, Tensor(w), stride, padding)
                np.testing.assert_array_equal(bits(out.data), bits(want), err_msg=where)
                backward(tensor_sum(mul(out, Tensor(g))))
                np.testing.assert_array_equal(bits(xt.grad), bits(want_gx), err_msg=where)

    def test_weight_made_trainable_after_forward_gets_its_gradient(self):
        rng = np.random.default_rng(59)
        x = rng.standard_normal((5, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        g = upstream_grad(rng, (5, 4, 5, 5), np.float32)
        _, want_gw, want_gx = full_buffer_conv2d(x, w, 2, 1, g)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w)
        out = conv2d(xt, wt, stride=2, padding=1)
        wt.requires_grad = True
        backward(tensor_sum(mul(out, Tensor(g))))
        np.testing.assert_array_equal(bits(wt.grad), bits(want_gw))
        np.testing.assert_array_equal(bits(xt.grad), bits(want_gx))

    def test_no_grad_conv_peak_memory_is_the_output_plus_a_block(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.standard_normal((256, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (2 << 20), (peak, out.data.nbytes)

    def test_channel_scale_matches_manual_broadcast(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        s = np.array([0.0, 0.5, 1.0], dtype=np.float32)
        out = channel_scale(Tensor(x), Tensor(s)).data
        np.testing.assert_allclose(out, x * s.reshape(1, 3, 1, 1), rtol=1e-6)

    def test_channel_scale_by_ones_is_bitwise_identity(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 5, 3, 3)).astype(np.float32)
        out = channel_scale(Tensor(x), Tensor(np.ones(5, dtype=np.float32))).data
        assert np.array_equal(out, x)

    def test_shape_errors_name_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"\(1, 3, 8, 8\).*\(4, 2, 3, 3\)"):
            conv2d(x, w)

    def test_conv_floors_and_ignores_unsampled_edge(self):
        # 7x7 input, 2x2 kernel, stride 2: output floors to 3x3 and the
        # last row/column never enter the computation; 1 -> 2 channels
        # run on im2col columns, 3 -> 1 from the output side
        rng = np.random.default_rng(12)
        for cin, cout in ((1, 2), (3, 1)):
            xv = rng.standard_normal((1, cin, 7, 7)).astype(np.float32)
            wv = rng.standard_normal((cout, cin, 2, 2)).astype(np.float32)
            x = Tensor(xv, requires_grad=True)
            out = conv2d(x, Tensor(wv), stride=2)
            assert out.data.shape == (1, cout, 3, 3)
            want = conv2d_oracle(xv, wv, stride=2)
            np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)
            backward(tensor_sum(out))
            assert np.all(x.grad[:, :, 6, :] == 0)
            assert np.all(x.grad[:, :, :, 6] == 0)
            assert np.any(x.grad[:, :, :6, :6] != 0)

    def test_conv_kernel_must_fit(self):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="exceeds"):
            conv2d(x, w)

    def test_pool_window_must_divide(self):
        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="window"):
            pool2d(x, "max", 4)

    def test_label_out_of_range_raises(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(logits, np.array([0, 3]))

    def test_empty_batch_norm_train_raises(self):
        x = Tensor(np.zeros((0, 2, 3, 3), dtype=np.float32))
        stats = RunningStats.zeros(2)
        with pytest.raises(ValueError, match="empty batch"):
            batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, mode="train")


def conv_with_grads(x, w, stride, padding, g):
    """conv2d's output and the w and x gradients of sum(out * g)."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride, padding)
    backward(tensor_sum(mul(out, Tensor(g))))
    return out.data, wt.grad, xt.grad


def rel_err(got, want):
    """Largest error relative to the largest magnitude of the reference."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))


# (n, cin, h, w, cout, k, stride, padding): non-square inputs, both
# strides, padding 0-2, and kernels that reach past the input, so that
# some taps read only padding and get an empty span
NARROW_CONVS = [
    (3, 6, 7, 9, 2, 3, 1, 1),
    (3, 6, 7, 9, 5, 3, 2, 1),
    (2, 5, 8, 6, 1, 1, 1, 0),
    (2, 5, 8, 6, 3, 1, 2, 0),
    (2, 4, 5, 7, 3, 3, 1, 0),
    (2, 4, 5, 7, 1, 3, 2, 2),
    (2, 7, 6, 5, 2, 3, 1, 2),
    (2, 3, 2, 3, 2, 5, 1, 2),
    (2, 3, 1, 2, 1, 3, 2, 2),
]


class TestOutputSideConv:
    """Convs run from the output side with a graph at Cout <= Cin, and
    without one at 2*Cout < Cin; the im2col kernel (`full_buffer_conv2d`)
    is the reference.  The output side sums each output over the taps
    first and the input channels second, so it matches im2col to
    rounding, not bit for bit."""

    # (cin, cout, side) on each side of both boundaries
    GRAPH_RULE = [(8, 7, "output"), (8, 8, "output"), (8, 9, "im2col"), (1, 1, "output"),
                  (1, 2, "im2col")]
    NO_GRAPH_RULE = [(8, 3, "output"), (9, 4, "output"), (8, 4, "im2col"), (9, 5, "im2col"),
                     (8, 8, "im2col")]

    @staticmethod
    def _side_taken(x, w, monkeypatch):
        """Run conv2d, counting calls into the output-side kernel."""
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        real = tensor._output_side_conv2d
        monkeypatch.setattr(tensor, "_output_side_conv2d", spy)
        conv2d(x, w, 1, 1)
        monkeypatch.setattr(tensor, "_output_side_conv2d", real)
        return "output" if calls else "im2col"

    @pytest.mark.parametrize("cin, cout, side", GRAPH_RULE)
    def test_kernel_rule_with_a_graph(self, cin, cout, side, monkeypatch):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((2, cin, 5, 5)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        # a live weight, a live input with a frozen weight (the ratio step's
        # case), or both live: each records a graph
        for x_grad, w_grad in ((False, True), (True, False), (True, True)):
            xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad)
            assert self._side_taken(xt, wt, monkeypatch) == side, (x_grad, w_grad)

    @pytest.mark.parametrize("cin, cout, side", NO_GRAPH_RULE)
    def test_kernel_rule_without_a_graph(self, cin, cout, side, monkeypatch):
        rng = np.random.default_rng(75)
        x = rng.standard_normal((2, cin, 5, 5)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        assert self._side_taken(Tensor(x), Tensor(w), monkeypatch) == side
        with no_grad():
            live = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            assert self._side_taken(*live, monkeypatch) == side

    @pytest.mark.parametrize("block_bytes", [None, 1 << 10])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_matches_the_im2col_kernel(self, dtype, tol, block_bytes, monkeypatch):
        # the 1 KiB budget runs the forward one image per block
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_COLS_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(67)
        for n, cin, h, wd, cout, k, stride, padding in NARROW_CONVS:
            where = f"{cin}->{cout} at {h}x{wd}, k {k}, stride {stride}, padding {padding}"
            x = rng.standard_normal((n, cin, h, wd)).astype(dtype)
            w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
            ho = (h + 2 * padding - k) // stride + 1
            wo = (wd + 2 * padding - k) // stride + 1
            g = upstream_grad(rng, (n, cout, ho, wo), dtype)
            want = full_buffer_conv2d(x, w, stride, padding, g)
            with use_dtype(dtype):
                got = conv_with_grads(x, w, stride, padding, g)
                with no_grad():
                    plain = conv2d(Tensor(x), Tensor(w), stride, padding).data
            if 2 * cout < cin:
                # the no-graph forward takes the output side too
                np.testing.assert_array_equal(bits(plain), bits(got[0]), err_msg=where)
            assert rel_err(plain, want[0]) <= tol, f"{where}: no-graph output"
            for name, a, b in zip(("output", "weight grad", "input grad"), got, want):
                assert a.dtype == dtype and a.shape == b.shape, f"{where}: {name}"
                assert rel_err(a, b) <= tol, f"{where}: {name} off by {rel_err(a, b):.2e}"

    def test_builds_no_columns(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("im2col buffer built for a conv with Cout < Cin")

        monkeypatch.setattr(tensor, "_im2col", refuse)
        monkeypatch.setattr(tensor, "_col2im", refuse)
        rng = np.random.default_rng(71)
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        conv_with_grads(x, w, 2, 1, rng.standard_normal((2, 3, 3, 3)).astype(np.float32))

    def test_weight_made_trainable_after_forward_gets_its_gradient(self):
        rng = np.random.default_rng(79)
        x = rng.standard_normal((5, 6, 9, 9)).astype(np.float32)
        w = rng.standard_normal((2, 6, 3, 3)).astype(np.float32)
        g = upstream_grad(rng, (5, 2, 5, 5), np.float32)
        _, want_gw, want_gx = conv_with_grads(x, w, 2, 1, g)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w)
        out = conv2d(xt, wt, stride=2, padding=1)
        wt.requires_grad = True
        backward(tensor_sum(mul(out, Tensor(g))))
        np.testing.assert_array_equal(bits(wt.grad), bits(want_gw))
        np.testing.assert_array_equal(bits(xt.grad), bits(want_gx))

    @pytest.mark.parametrize("cin, cout", [(3, 4), (3, 8), (1, 16), (16, 17)])
    def test_more_outputs_than_inputs_keeps_the_im2col_bits(self, cin, cout):
        rng = np.random.default_rng(83)
        for dtype, k, stride, padding in itertools.product(
            (np.float32, np.float64), (1, 3), (1, 2), (0, 1)
        ):
            where = f"{cin}->{cout}, k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            x = rng.standard_normal((4, cin, 9, 8)).astype(dtype)
            w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
            ho = (9 + 2 * padding - k) // stride + 1
            wo = (8 + 2 * padding - k) // stride + 1
            g = upstream_grad(rng, (4, cout, ho, wo), dtype)
            with use_dtype(dtype):
                got = conv_with_grads(x, w, stride, padding, g)
            for a, b in zip(got, full_buffer_conv2d(x, w, stride, padding, g)):
                np.testing.assert_array_equal(bits(a), bits(b), err_msg=where)

    @pytest.mark.parametrize("cin, cout", [(3, 3), (16, 16), (16, 8), (9, 5)])
    def test_no_graph_at_half_the_inputs_or_more_keeps_the_im2col_bits(self, cin, cout):
        rng = np.random.default_rng(87)
        for dtype, k, stride, padding in itertools.product(
            (np.float32, np.float64), (1, 3), (1, 2), (0, 1)
        ):
            where = f"{cin}->{cout}, k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            x = rng.standard_normal((4, cin, 9, 8)).astype(dtype)
            w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
            ho = (9 + 2 * padding - k) // stride + 1
            wo = (8 + 2 * padding - k) // stride + 1
            want = full_buffer_conv2d(x, w, stride, padding, np.zeros((4, cout, ho, wo), dtype))[0]
            with use_dtype(dtype), no_grad():
                got = conv2d(Tensor(x), Tensor(w), stride, padding).data
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=where)

    def test_train_step_peak_memory_stays_below_the_columns(self):
        # 16 -> 1 channels, 3x3, on 16 images of 16x32x32: the im2col
        # path's columns alone take 9.4 MB
        rng = np.random.default_rng(89)
        x = Tensor(rng.standard_normal((16, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 16, 3, 3)).astype(np.float32), requires_grad=True)
        g = Tensor(rng.standard_normal((16, 1, 32, 32)).astype(np.float32))
        cols_bytes = 16 * 16 * 9 * 32 * 32 * 4
        tracemalloc.start()
        try:
            backward(tensor_sum(mul(conv2d(x, w, padding=1), g)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cols_bytes // 3, (peak, cols_bytes)

    def test_no_grad_peak_memory_is_the_output_plus_a_block(self):
        rng = np.random.default_rng(97)
        x = Tensor(rng.standard_normal((256, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 16, 3, 3)).astype(np.float32))
        block = max(tensor._COLS_BLOCK_BYTES, 9 * 6 * 32 * 32 * 4)
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + block + (64 << 10), (peak, out.data.nbytes)


# (n, cin, h, w, cout, k, stride, padding) beyond NARROW_CONVS: single-row
# and single-column maps, a flat k = 5 conv, and k = 5 convs whose padding
# is at least the map's smaller side, which take 2-d slices
EDGE_CONVS = [
    (2, 4, 1, 6, 3, 1, 1, 0),
    (2, 4, 1, 6, 3, 3, 1, 1),
    (2, 4, 5, 1, 2, 1, 1, 0),
    (2, 4, 5, 1, 2, 3, 1, 1),
    (2, 3, 5, 6, 2, 5, 1, 2),
    (2, 3, 3, 2, 3, 5, 1, 2),
    (2, 3, 3, 4, 1, 5, 1, 3),
]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestTapShift:
    """A stride-1 conv whose output grid is its input grid, with padding
    below min(H, W), shifts each kernel tap over flattened channel maps;
    the references in this file take every tap as a 2-d strided slice.
    Both kernels match them bit for bit, with NaN, infinities and -0.0 in
    the columns a shift wraps into the neighbouring row."""

    def test_im2col_is_bitwise_the_strided_slices(self):
        rng = np.random.default_rng(43)
        for dtype, (h, w), k, stride, padding in itertools.product(
            (np.float32, np.float64), MAPS, (1, 2, 3, 5), (1, 2, 3), range(4)
        ):
            if h + 2 * padding < k or w + 2 * padding < k:
                continue
            where = f"{h}x{w}, k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            x = plant_specials(upstream_grad(rng, (2, 3, h, w), dtype))
            ho = (h + 2 * padding - k) // stride + 1
            wo = (w + 2 * padding - k) // stride + 1
            cols = _im2col(x, _taps(k, k, stride, padding, h, w, ho, wo), k, k)
            assert cols.dtype == dtype, where
            np.testing.assert_array_equal(bits(cols), bits(strided_im2col(x, k, k, stride, padding)),
                                          err_msg=where)

    @staticmethod
    def convs(dtype, planted, more_outputs=False):
        """Each conv of NARROW_CONVS and EDGE_CONVS, or Cin + 1 outputs with
        `more_outputs`, with its input, weight and upstream gradient;
        `planted` puts specials into the input and the gradient."""
        rng = np.random.default_rng(101)
        for n, cin, h, wd, cout, k, stride, padding in NARROW_CONVS + EDGE_CONVS:
            cout = cin + 1 if more_outputs else cout
            x = rng.standard_normal((n, cin, h, wd)).astype(dtype)
            w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
            ho = (h + 2 * padding - k) // stride + 1
            wo = (wd + 2 * padding - k) // stride + 1
            g = upstream_grad(rng, (n, cout, ho, wo), dtype)
            if planted:
                plant_specials(x)
                plant_specials(g)
            where = f"{cin}->{cout} at {h}x{wd}, k {k}, stride {stride}, padding {padding}, {dtype.__name__}"
            yield where, x, w, stride, padding, g

    @pytest.mark.parametrize("block_bytes", [None, 1 << 10])
    @pytest.mark.parametrize("planted", [False, True], ids=["finite", "planted"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_side_is_bitwise_the_tap_slices(self, dtype, planted, block_bytes, monkeypatch):
        # every conv here has Cout < Cin, so it runs from the output side;
        # the 1 KiB budget runs its forward one image per block
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_COLS_BLOCK_BYTES", block_bytes)
        for where, x, w, stride, padding, g in self.convs(dtype, planted):
            want = tap_slice_output_side(x, w, stride, padding, g)
            with use_dtype(dtype):
                got = conv_with_grads(x, w, stride, padding, g)
            for name, a, b in zip(("output", "weight grad", "input grad"), got, want):
                assert a.dtype == dtype and a.shape == b.shape, f"{where}: {name}"
                np.testing.assert_array_equal(bits(a), bits(b), err_msg=f"{where}: {name}")

    @pytest.mark.parametrize("block_bytes", [None, 1 << 10])
    @pytest.mark.parametrize("planted", [False, True], ids=["finite", "planted"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_im2col_side_is_bitwise_the_strided_slices(self, dtype, planted, block_bytes, monkeypatch):
        # Cout = Cin + 1 runs on im2col columns, with a graph and without;
        # the 1 KiB budget builds the no-graph columns one image at a time
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_COLS_BLOCK_BYTES", block_bytes)
        for where, x, w, stride, padding, g in self.convs(dtype, planted, more_outputs=True):
            want = full_buffer_conv2d(x, w, stride, padding, g)
            with use_dtype(dtype):
                got = conv_with_grads(x, w, stride, padding, g)
                with no_grad():
                    plain = conv2d(Tensor(x), Tensor(w), stride, padding).data
            np.testing.assert_array_equal(bits(plain), bits(want[0]), err_msg=f"{where}: no-graph output")
            for name, a, b in zip(("output", "weight grad", "input grad"), got, want):
                assert a.dtype == dtype and a.shape == b.shape, f"{where}: {name}"
                np.testing.assert_array_equal(bits(a), bits(b), err_msg=f"{where}: {name}")


class TestOneTapTablePerCall:
    """`conv2d` builds one tap table per call, and both kernels, every
    column block and both passes read it."""

    @staticmethod
    def _count_tables(monkeypatch) -> list:
        """Record the geometry of every `_taps` call from here on."""
        built = []
        real = tensor._taps

        def taps(*geometry):
            built.append(geometry)
            return real(*geometry)

        monkeypatch.setattr(tensor, "_taps", taps)
        return built

    # Cout > Cin runs on im2col columns: the forward gathers them and the
    # backward scatter-adds the input gradient; Cout < Cin runs from the
    # output side
    @pytest.mark.parametrize("cin, cout", [(3, 5), (5, 3)], ids=["im2col", "output-side"])
    def test_forward_and_backward_with_a_graph(self, cin, cout, monkeypatch):
        rng = np.random.default_rng(107)
        x = rng.standard_normal((2, cin, 6, 7)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        g = upstream_grad(rng, (2, cout, 3, 4), np.float32)
        built = self._count_tables(monkeypatch)
        _, gw, gx = conv_with_grads(x, w, 2, 1, g)
        assert built == [(3, 3, 2, 1, 6, 7, 3, 4)]
        assert gw.shape == w.shape and gx.shape == x.shape

    def test_no_graph_conv_over_several_column_blocks(self, monkeypatch):
        # a 1 KiB budget gives each of the 5 images its own column block
        monkeypatch.setattr(tensor, "_COLS_BLOCK_BYTES", 1 << 10)
        rng = np.random.default_rng(109)
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        built = self._count_tables(monkeypatch)
        with no_grad():
            conv2d(Tensor(x), Tensor(w), 1, 1)
        assert built == [(3, 3, 1, 1, 8, 8, 8, 8)]

    def test_weight_made_trainable_after_forward(self, monkeypatch):
        # the forward keeps no columns for a frozen weight, so the backward
        # rebuilds them, then scatter-adds the input gradient
        rng = np.random.default_rng(113)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        g = upstream_grad(rng, (2, 5, 6, 6), np.float32)
        _, want_gw, want_gx = conv_with_grads(x, w, 1, 1, g)
        built = self._count_tables(monkeypatch)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w)
        out = conv2d(xt, wt, 1, 1)
        wt.requires_grad = True
        backward(tensor_sum(mul(out, Tensor(g))))
        assert built == [(3, 3, 1, 1, 6, 6, 6, 6)]
        np.testing.assert_array_equal(bits(wt.grad), bits(want_gw))
        np.testing.assert_array_equal(bits(xt.grad), bits(want_gx))


class TestGraphLifecycle:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_backward_twice_raises(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = tensor_sum(relu(x))
        backward(loss)
        with pytest.raises(RuntimeError, match="released"):
            backward(loss)

    def test_every_reachable_tensor_gets_a_grad(self):
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32), requires_grad=True)
        w = Tensor(np.full((3, 2, 3, 3), 0.1, dtype=np.float32), requires_grad=True)
        h = conv2d(x, w, padding=1)
        a = relu(h)
        loss = tensor_sum(a)
        backward(loss)
        for t in (x, w, h, a):
            assert t.grad is not None and t.grad.shape == t.data.shape

    def test_grad_accumulates_until_zeroed(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        backward(tensor_sum(relu(x)))
        backward(tensor_sum(relu(x)))
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0, dtype=np.float32))
        zero_grad([x])
        assert x.grad is None

    def test_no_grad_blocks_graph_recording(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = relu(x)
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            loss = tensor_sum(y)
            backward(loss)
            backward(loss)

    def test_add_gives_each_parent_its_own_grad(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        backward(tensor_sum(relu(add(a, b))))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1
        np.testing.assert_array_equal(b.grad, np.ones((2, 3), dtype=np.float32))

    def test_shared_subexpression_accumulates_both_paths(self):
        x = Tensor(np.array([3.0], dtype=np.float64), requires_grad=True)
        y = mul(x, x)
        backward(tensor_sum(y))
        np.testing.assert_allclose(x.grad, [6.0])


# ---------------------------------------------------------------------------
# gradient checks against central finite differences


def _fd_cases(dtype):
    """Scalar functions of one tensor, each well conditioned for differencing.

    Kinked ops (relu, max pool) get inputs kept away from their kinks.
    Linear chains compose with a sign-random weighting bounded away from
    zero, so every gradient entry has usable magnitude.  Each case names
    the float32 step: piecewise-linear chains take a large step (central
    differences are exact for them, and the step averages out rounding),
    curved ones a small step.
    """
    rng = np.random.default_rng(101)

    def t(shape, scale=1.0):
        return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=True)

    def bounded(shape, lo=0.4, hi=1.2, signed=True):
        arr = rng.uniform(lo, hi, shape)
        if signed:
            arr *= rng.choice([-1.0, 1.0], size=shape)
        return arr.astype(dtype)

    def weighting(shape, lo=0.4, hi=1.2):
        from autoprune.tensor import mul

        arr = Tensor(bounded(shape, lo, hi))
        return lambda u: mul(u, arr)

    BIG, SMALL = 0.05, 0.01
    cases = {}

    x = Tensor(bounded((1, 2, 4, 4), 0.2, 1.2), requires_grad=True)
    w = Tensor(bounded((2, 2, 3, 3), 0.1, 0.4, signed=False), requires_grad=True)
    wt_conv = weighting((1, 2, 4, 4))
    cases["conv_x"] = (lambda v: tensor_sum(wt_conv(conv2d(v, w, padding=1))), x, BIG)
    x2 = Tensor(bounded((1, 2, 4, 4), 0.2, 1.2, signed=False), requires_grad=True)
    w2 = Tensor(bounded((2, 2, 3, 3), 0.1, 0.4), requires_grad=True)
    cases["conv_w"] = (lambda v: tensor_sum(wt_conv(conv2d(x2, v, padding=1))), w2, BIG)

    # relu away from its kink at zero
    xr = Tensor(bounded((3, 5), 0.5, 1.5), requires_grad=True)
    wt_relu = weighting((3, 5))
    cases["relu"] = (lambda v: tensor_sum(wt_relu(relu(v))), xr, BIG)

    labels = np.array([0, 2, 1])
    xl = t((3, 4))
    wl = t((4, 3), 0.4)
    bl = t((3,), 0.2)
    wt_lin = weighting((3, 3))
    cases["linear_x"] = (lambda v: tensor_sum(wt_lin(linear(v, wl, bl))), xl, BIG)
    cases["linear_w"] = (lambda v: softmax_cross_entropy(linear(xl, v, bl), labels), wl, SMALL)
    cases["linear_b"] = (lambda v: softmax_cross_entropy(linear(xl, wl, v), labels), bl, SMALL)

    # max pool with unique spaced entries, so no tie flips nearby
    perm = rng.permutation(2 * 4 * 4).astype(dtype).reshape(1, 2, 4, 4)
    xp = Tensor(perm * 0.5, requires_grad=True)
    wt_pool = weighting((1, 2, 2, 2))
    cases["pool_max"] = (lambda v: tensor_sum(wt_pool(pool2d(v, "max", 2))), xp, BIG)
    xa = t((1, 2, 4, 4))
    cases["pool_avg"] = (lambda v: tensor_sum(wt_pool(pool2d(v, "avg", 2))), xa, BIG)

    xb = t((2, 2, 3, 3), 1.5)
    gb = Tensor(bounded((2,), 0.8, 1.3, signed=False), requires_grad=True)
    bb = t((2,), 0.3)
    sb = RunningStats.zeros(2, dtype=dtype)
    wt_bn = weighting((2, 2, 3, 3))

    def bn_loss(v, g=gb, b=bb):
        return tensor_sum(wt_bn(batch_norm2d(v, g, b, sb, mode="train", update_running=False)))

    cases["bn_x"] = (bn_loss, xb, SMALL)
    xb2 = t((2, 2, 3, 3), 1.5)
    cases["bn_gamma"] = (lambda v: bn_loss(xb2, g=v), gb, SMALL)
    cases["bn_beta"] = (lambda v: bn_loss(xb2, b=v), bb, SMALL)

    xe = t((2, 2, 3, 3), 1.5)
    ge = Tensor(bounded((2,), 0.8, 1.3, signed=False), requires_grad=True)
    be = t((2,), 0.3)
    se = RunningStats(
        mean=(rng.standard_normal(2) * 0.3).astype(dtype),
        var=rng.uniform(0.5, 2.0, 2).astype(dtype),
    )
    cases["bn_eval_x"] = (
        lambda v: tensor_sum(wt_bn(batch_norm2d(v, ge, be, se, mode="eval"))),
        xe,
        BIG,  # eval bn is affine in x
    )

    xs = t((3, 5))
    cases["softmax_ce"] = (
        lambda v: softmax_cross_entropy(v, np.array([0, 2, 4])),
        xs,
        SMALL,
    )

    xc = Tensor(bounded((1, 3, 3, 3), 0.3, 1.2), requires_grad=True)
    sc = Tensor(bounded((3,), 0.3, 1.2), requires_grad=True)
    wt_cs = weighting((1, 3, 3, 3))
    cases["channel_scale_x"] = (lambda v: tensor_sum(wt_cs(channel_scale(v, sc))), xc, BIG)
    xc2 = Tensor(bounded((1, 3, 3, 3), 0.3, 1.2), requires_grad=True)
    cases["channel_scale_s"] = (lambda v: tensor_sum(wt_cs(channel_scale(xc2, v))), sc, BIG)

    # fewer outputs than inputs: the output-side conv, stride 2 on a
    # non-square input
    xn = Tensor(bounded((2, 3, 5, 4), 0.2, 1.2), requires_grad=True)
    wn = Tensor(bounded((2, 3, 3, 3), 0.1, 0.4, signed=False), requires_grad=True)
    wt_narrow = weighting((2, 2, 3, 2))
    cases["conv_narrow_x"] = (lambda v: tensor_sum(wt_narrow(conv2d(v, wn, 2, 1))), xn, BIG)
    xn2 = Tensor(bounded((2, 3, 5, 4), 0.2, 1.2, signed=False), requires_grad=True)
    wn2 = Tensor(bounded((2, 3, 3, 3), 0.1, 0.4), requires_grad=True)
    cases["conv_narrow_w"] = (lambda v: tensor_sum(wt_narrow(conv2d(xn2, v, 2, 1))), wn2, BIG)

    # more outputs than inputs: the im2col conv
    xw = Tensor(bounded((1, 2, 4, 4), 0.2, 1.2), requires_grad=True)
    ww = Tensor(bounded((3, 2, 3, 3), 0.1, 0.4, signed=False), requires_grad=True)
    wt_wide = weighting((1, 3, 4, 4))
    cases["conv_wide_x"] = (lambda v: tensor_sum(wt_wide(conv2d(v, ww, padding=1))), xw, BIG)
    xw2 = Tensor(bounded((1, 2, 4, 4), 0.2, 1.2, signed=False), requires_grad=True)
    ww2 = Tensor(bounded((3, 2, 3, 3), 0.1, 0.4), requires_grad=True)
    cases["conv_wide_w"] = (lambda v: tensor_sum(wt_wide(conv2d(xw2, v, padding=1))), ww2, BIG)

    return cases


class TestFiniteDifferences:
    def test_all_ops_float32(self):
        for name, (f, x, step) in _fd_cases(np.float32).items():
            err = finite_diff_check(f, x, step=step)
            assert err < 1e-2, f"{name}: max relative error {err:.3e}"

    def test_all_ops_float64(self):
        with use_dtype(np.float64):
            for name, (f, x, _) in _fd_cases(np.float64).items():
                err = finite_diff_check(f, x, step=1e-5)
                assert err < 1e-5, f"{name}: max relative error {err:.3e}"

    def test_step_must_be_positive(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="positive"):
            finite_diff_check(lambda v: tensor_sum(v), x, step=0.0)

    def test_non_scalar_f_rejected(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            finite_diff_check(lambda v: relu(v), x)
