"""Mask rule checks: closed form against an independent piecewise oracle,
gradient conventions at the moving boundary, and ranking semantics."""

import math

import numpy as np
import pytest

from autoprune.masking import (
    ChannelRanking,
    active_channels,
    build_mask,
    kept_count,
    mask_by_rank,
    mask_grad_wrt_ratio,
    rank_channels,
    ratio_mask_tensor,
)
from autoprune.tensor import Tensor, backward, mul, tensor_sum


def piecewise_mask_oracle(ratio, channels):
    """Independent reference: keep floor(r*C) ranks, fraction at the boundary.

    When r*C is an integer the fractional entry is zero and the rule
    collapses to a hard cutoff after rank r*C.
    """
    rc = ratio * channels
    floor = math.floor(rc)
    out = np.zeros(channels, dtype=np.float64)
    for k in range(1, channels + 1):
        if k <= floor:
            out[k - 1] = 1.0
        elif k == floor + 1 and rc > floor:
            out[k - 1] = rc - floor
    return out


def identity_ranking(channels):
    return ChannelRanking(
        order=np.arange(channels),
        ranks=np.arange(1, channels + 1),
    )


class TestMaskRule:
    def test_matches_piecewise_oracle_on_grid(self):
        for c in range(1, 33):
            lo = 1.0 / c
            for r100 in range(0, 101):
                r = r100 / 100.0
                if r < lo:
                    continue
                got = mask_by_rank(r, c)
                want = piecewise_mask_oracle(r, c)
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_worked_example_sixteen_channels(self):
        got = mask_by_rank(0.55, 16)
        want = np.concatenate([np.ones(8), [0.8], np.zeros(7)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mask_mass_equals_ratio_times_channels(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = int(rng.integers(1, 64))
            r = float(rng.uniform(1.0 / c, 1.0))
            assert abs(mask_by_rank(r, c).sum() - r * c) < 1e-6

    def test_mask_is_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = int(rng.integers(1, 64))
            r = float(rng.uniform(1.0 / c, 1.0))
            m = mask_by_rank(r, c)
            assert np.all(np.diff(m) <= 1e-12)
            assert np.all((0.0 <= m) & (m <= 1.0))

    def test_full_ratio_keeps_everything(self):
        for c in (1, 5, 32):
            np.testing.assert_array_equal(mask_by_rank(1.0, c), np.ones(c))

    def test_rule_is_total_outside_the_search_domain(self):
        np.testing.assert_array_equal(mask_by_rank(0.0, 8), np.zeros(8))
        np.testing.assert_array_equal(mask_by_rank(-0.3, 8), np.zeros(8))
        np.testing.assert_array_equal(mask_by_rank(1.2, 8), np.ones(8))

    def test_search_domain_enforced_where_ratios_live(self):
        with pytest.raises(ValueError, match="outside"):
            build_mask(0.01, identity_ranking(8))
        with pytest.raises(ValueError, match="outside"):
            build_mask(1.2, identity_ranking(8))
        with pytest.raises(ValueError, match="outside"):
            kept_count(0.01, 8)

    def test_boundary_value_recorded(self):
        entry = build_mask(0.55, identity_ranking(16))
        assert abs(entry.boundary_value - 0.8) < 1e-9
        entry = build_mask(0.5, identity_ranking(16))
        assert entry.boundary_value == 0.0


class TestMaskGradient:
    def test_only_boundary_rank_moves(self):
        g = mask_grad_wrt_ratio(0.55, 16)
        want = np.zeros(16)
        want[8] = 16.0  # rank 9, slope C
        np.testing.assert_array_equal(g, want)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(50):
            c = int(rng.integers(2, 40))
            r = float(rng.uniform(1.0 / c + 0.01, 0.99))
            if abs(r * c - round(r * c)) < c * h * 4:
                continue
            got = mask_grad_wrt_ratio(r, c)
            num = (mask_by_rank(r + h, c) - mask_by_rank(r - h, c)) / (2 * h)
            np.testing.assert_allclose(got, num, atol=1e-3)

    def test_kink_uses_right_sided_slope_and_is_counted(self):
        # the search counts a kink where the mask's boundary value is 0
        g = mask_grad_wrt_ratio(0.5, 16)
        want = np.zeros(16)
        want[8] = 16.0
        np.testing.assert_array_equal(g, want)
        assert build_mask(0.5, identity_ranking(16)).boundary_value == 0.0
        h = 1e-7
        num_right = (mask_by_rank(0.5 + h, 16) - mask_by_rank(0.5, 16)) / h
        np.testing.assert_allclose(g, num_right, atol=1e-3)

    def test_full_ratio_has_zero_gradient(self):
        g = mask_grad_wrt_ratio(1.0, 8)
        np.testing.assert_array_equal(g, np.zeros(8))
        assert build_mask(1.0, identity_ranking(8)).boundary_value == 0.0


class TestRanking:
    def test_ranks_by_absolute_weight_mass(self):
        w = np.zeros((3, 2, 1, 1), dtype=np.float32)
        w[0] = 0.5
        w[1] = -3.0  # largest mass, negative sign must not matter
        w[2] = 1.0
        r = rank_channels(w)
        np.testing.assert_array_equal(r.order, [1, 2, 0])
        np.testing.assert_array_equal(r.ranks, [3, 1, 2])

    def test_ties_break_toward_lower_channel_id(self):
        w = np.ones((4, 1, 2, 2), dtype=np.float32)
        r = rank_channels(w)
        np.testing.assert_array_equal(r.order, [0, 1, 2, 3])
        np.testing.assert_array_equal(r.ranks, [1, 2, 3, 4])

    def test_order_and_ranks_are_inverse(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((16, 3, 3, 3)).astype(np.float32)
        r = rank_channels(w)
        np.testing.assert_array_equal(r.order[r.ranks - 1], np.arange(16))

    def test_mask_lands_on_channels_through_ranking(self):
        w = np.zeros((4, 1, 1, 1), dtype=np.float32)
        w[:, 0, 0, 0] = [0.1, 5.0, 3.0, 0.2]  # importance: 1, 2, 3, 0
        ranking = rank_channels(w)
        entry = build_mask(0.625, ranking)  # r*C = 2.5: two on, half at rank 3
        np.testing.assert_allclose(entry.by_channel, [0.0, 1.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_array_equal(active_channels(entry), [1, 2, 3])


class TestMaskTensor:
    def test_forward_matches_build_mask(self):
        w = np.random.default_rng(5).standard_normal((8, 2, 3, 3)).astype(np.float32)
        ranking = rank_channels(w)
        r = Tensor(np.float32(0.7), requires_grad=True)
        m = ratio_mask_tensor(r, ranking)
        np.testing.assert_allclose(
            m.data, build_mask(0.7, ranking).by_channel.astype(np.float32), atol=1e-7
        )

    def test_backward_routes_boundary_slope_to_ratio(self):
        ranking = identity_ranking(16)
        r = Tensor(np.float64(0.55), requires_grad=True)
        m = ratio_mask_tensor(r, ranking)
        weights = Tensor(np.arange(16, dtype=np.float64))
        backward(tensor_sum(mul(m, weights)))
        # only rank 9 (channel 8 under identity ranking) moves, slope 16
        assert abs(float(r.grad) - 16.0 * 8.0) < 1e-9

    def test_end_to_end_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 2, 3, 3)).astype(np.float64)
        ranking = rank_channels(w)
        coeff = rng.standard_normal(8)

        def value(r):
            return float(np.dot(build_mask(r, ranking).by_channel, coeff))

        r0 = 0.63  # r*C = 5.04, safely off the kink
        r = Tensor(np.float64(r0), requires_grad=True)
        backward(tensor_sum(mul(ratio_mask_tensor(r, ranking), Tensor(coeff, dtype=np.float64))))
        h = 1e-6
        num = (value(r0 + h) - value(r0 - h)) / (2 * h)
        assert abs(float(r.grad) - num) < 1e-5
