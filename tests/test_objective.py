"""Cost term checks: hand-computed values, analytic gradient against
float64 finite differences, and the combined loss node."""

import numpy as np
import pytest

from autoprune.masking import rank_channels, ratio_mask_tensor
from autoprune.objective import (
    combined_loss,
    flops_cost,
    flops_cost_grad,
    flops_cost_tensor,
)
from autoprune.tensor import (
    Tensor,
    backward,
    channel_scale,
    linear,
    reshape,
    softmax_cross_entropy,
    zero_grad,
)


class TestCostValue:
    def test_hand_computed_two_layer_case(self):
        # weighted mean = (100*1 + 300*0.5) / 400 = 0.625, exponent 1
        assert abs(flops_cost([1.0, 0.5], [100, 300], 1.0) - 0.625) < 1e-12

    def test_all_ones_gives_unit_cost_for_any_exponent(self):
        for beta in (0.3, 0.5, 1.0, 2.0):
            assert flops_cost([1.0, 1.0, 1.0], [10, 20, 30], beta) == 1.0

    def test_sublinear_exponent_lifts_small_bases(self):
        base = flops_cost([0.5, 0.5], [1, 1], 1.0)
        lifted = flops_cost([0.5, 0.5], [1, 1], 0.3)
        assert base == 0.5
        assert abs(lifted - 0.5**0.3) < 1e-12
        assert lifted > base

    def test_cost_in_unit_interval_for_valid_ratios(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            r = rng.uniform(0.05, 1.0, n)
            p = rng.uniform(1, 1000, n)
            beta = float(rng.uniform(0.1, 2.0))
            c = flops_cost(r, p, beta)
            assert 0.0 < c <= 1.0

    def test_cost_monotone_in_each_ratio(self):
        p = [100, 300, 50]
        lo = flops_cost([0.5, 0.5, 0.5], p, 0.3)
        hi = flops_cost([0.5, 0.9, 0.5], p, 0.3)
        assert hi > lo

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            flops_cost([0.5], [1, 2], 0.3)
        with pytest.raises(ValueError, match="no prunable"):
            flops_cost([], [], 0.3)
        with pytest.raises(ValueError, match="positive"):
            flops_cost([0.5], [0], 0.3)
        with pytest.raises(ValueError, match="exponent"):
            flops_cost([0.5], [10], 0.0)


class TestCostGradient:
    def test_matches_finite_differences_in_float64(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            r = rng.uniform(0.1, 1.0, n)
            p = rng.uniform(1, 1000, n)
            beta = float(rng.uniform(0.2, 1.5))
            got = flops_cost_grad(r, p, beta)
            h = 1e-7
            for i in range(n):
                rp, rm = r.copy(), r.copy()
                rp[i] += h
                rm[i] -= h
                num = (flops_cost(rp, p, beta) - flops_cost(rm, p, beta)) / (2 * h)
                assert abs(got[i] - num) < 1e-6

    def test_gradient_proportional_to_layer_flops(self):
        g = flops_cost_grad([1.0, 1.0], [100, 300], 1.0)
        np.testing.assert_allclose(g, [0.25, 0.75], atol=1e-12)

    def test_singularity_signaled_not_clamped(self):
        with pytest.raises(FloatingPointError, match="singular"):
            flops_cost_grad([0.0, 0.0], [10, 10], 0.3)

    def test_tensor_route_delivers_same_gradient(self):
        p = [120.0, 480.0, 60.0]
        vals = [0.8, 0.45, 0.95]
        ratios = [Tensor(np.float64(v), requires_grad=True) for v in vals]
        backward(flops_cost_tensor(ratios, p, 0.3))
        want = flops_cost_grad(vals, p, 0.3)
        got = np.array([float(t.grad) for t in ratios])
        np.testing.assert_allclose(got, want, rtol=1e-7)


class TestCombinedLoss:
    def _logits(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32) * 0.5, requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        labels = rng.integers(0, 3, 6)
        return linear(x, w, b), labels, w

    @staticmethod
    def _ratios(*values):
        return [Tensor(np.float64(v), requires_grad=True, dtype=np.float64) for v in values]

    @pytest.mark.parametrize("alpha", [0.5, 3.0, 20.0])
    @pytest.mark.parametrize("beta", [0.3, 1.0])
    def test_loss_is_cross_entropy_plus_weighted_cost(self, alpha, beta):
        logits, labels, _ = self._logits()
        ratios = self._ratios(0.7, 0.9)
        loss_t, ce = combined_loss(logits, labels, ratios, [100, 200], alpha=alpha, beta=beta)
        assert ce == float(softmax_cross_entropy(logits, labels).data)
        # bit for bit: the float64 sum and product, no rounding in between
        assert float(loss_t.data) == ce + alpha * flops_cost([0.7, 0.9], [100, 200], beta)
        # the logits do not depend on the ratios, so only the cost reaches them
        backward(loss_t)
        want = alpha * flops_cost_grad([0.7, 0.9], [100, 200], beta)
        assert [float(t.grad) for t in ratios] == want.tolist()

    def test_float32_ratios_give_a_float32_loss(self):
        # alpha takes the cost's dtype, so float32 ratios round as the cost does
        logits, labels, _ = self._logits()
        ratios = [Tensor(np.float32(v), requires_grad=True) for v in (0.7, 0.9)]
        loss_t, ce = combined_loss(logits, labels, ratios, [100, 200], alpha=0.3, beta=0.3)
        cost = np.float32(flops_cost([float(t.data) for t in ratios], [100, 200], 0.3))
        assert loss_t.data.dtype == np.float32
        assert loss_t.data == np.float32(ce) + cost * np.float32(0.3)

    def test_zero_alpha_reduces_to_cross_entropy_exactly(self):
        logits, labels, _ = self._logits()
        ratios = self._ratios(0.7, 0.9)
        loss_t, ce = combined_loss(logits, labels, ratios, [100, 200], alpha=0.0, beta=0.3)
        assert float(loss_t.data) == ce
        backward(loss_t)
        assert all(t.grad is None for t in ratios)

    def test_gradients_reach_weights_and_ratios_in_one_backward(self):
        rng = np.random.default_rng(23)
        conv_w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        ranking = rank_channels(conv_w)
        ratio = Tensor(np.float32(0.6), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 4, 2, 2)).astype(np.float32))
        feats = channel_scale(x, ratio_mask_tensor(ratio, ranking))
        w = Tensor(rng.standard_normal((16, 3)).astype(np.float32) * 0.4, requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        logits = linear(reshape(feats, (5, 16)), w, b)
        labels = rng.integers(0, 3, 5)

        loss_t, _ = combined_loss(
            logits, labels, [ratio], [1000.0], alpha=0.5, beta=0.3
        )
        zero_grad([ratio, w, b])
        backward(loss_t)
        assert w.grad is not None and np.any(w.grad != 0)
        assert ratio.grad is not None and float(ratio.grad) != 0.0
        # the cost path alone contributes alpha * d cost/d r > 0
        cost_part = 0.5 * flops_cost_grad([0.6], [1000.0], 0.3)[0]
        assert cost_part > 0

    def test_negative_alpha_rejected(self):
        logits, labels, _ = self._logits()
        with pytest.raises(ValueError, match="alpha"):
            combined_loss(logits, labels, self._ratios(0.5), [10], alpha=-1.0, beta=0.3)
