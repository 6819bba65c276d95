"""Search loop tests on synthetic data: schedules, the two update
steps, determinism of full runs, and the divergence guard."""

import copy
import math

import numpy as np
import pytest

from autoprune import search
from autoprune.data import Dataset
from autoprune.masking import (
    MaskDiagnostics,
    build_mask,
    rank_channels,
    ratio_mask_tensor,
    ratio_step_channels,
)
from autoprune.model import build_model, forward, prunable_flops, slice_channels
from autoprune.objective import combined_loss
from autoprune.search import (
    SearchConfig,
    SearchDiverged,
    cosine_lr,
    inner_step,
    outer_step,
    run_search,
    sgd_step,
)
from autoprune.tensor import Tensor, backward, use_dtype, zero_grad


def tiny_dataset(n=32, seed=0, classes=10):
    rng = np.random.default_rng(seed)
    return Dataset(
        images=rng.standard_normal((n, 1, 8, 8)).astype(np.float32),
        labels=rng.integers(0, classes, n),
        split="train",
        mean=np.zeros(1, dtype=np.float32),
        std=np.ones(1, dtype=np.float32),
        checksums={},
    )


def tiny_model(seed=0):
    return build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(seed))


def tiny_config(**overrides):
    base = dict(
        alpha=0.5,
        beta=0.3,
        epochs=1,
        batch_size=8,
        lr_w_max=0.05,
        lr_w_min=0.001,
        lr_r_max=0.05,
        lr_r_min=0.001,
        ranking_interval=2,
        log_interval=2,
        probe_size=16,
        seed=0,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.1, 0.001) == pytest.approx(0.1)
        assert cosine_lr(50, 100, 0.1, 0.001) == pytest.approx((0.1 + 0.001) / 2)
        # warm restart: the period step wraps back to the peak
        assert cosine_lr(100, 100, 0.1, 0.001) == pytest.approx(0.1)
        assert cosine_lr(150, 100, 0.1, 0.001) == pytest.approx((0.1 + 0.001) / 2)

    def test_monotone_within_a_cycle(self):
        vals = [cosine_lr(s, 64, 0.1, 0.001) for s in range(64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert min(vals) >= 0.001

    def test_approaches_floor_at_cycle_end(self):
        assert cosine_lr(99, 100, 0.1, 0.001) == pytest.approx(0.001, abs=1e-4)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1, 0.001)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.1, 0.001)
        with pytest.raises(ValueError):
            cosine_lr(0, 10, 0.001, 0.1)


class TestSgdStep:
    def test_updates_and_skips_gradless(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        a.grad = np.full(3, 2.0, dtype=np.float32)
        sgd_step([a, b], 0.5)
        np.testing.assert_allclose(a.data, np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(b.data, np.ones(3))


class TestConfigValidation:
    def test_defaults_pass(self):
        SearchConfig().validate()

    def test_bad_values_rejected(self):
        for kw in (
            {"alpha": -0.1},
            {"beta": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"ranking_interval": 0},
            {"log_interval": 0},
            {"probe_size": 0},
            {"probe_size": -3},
            {"lr_w_max": 0.0},
            {"lr_w_min": 0.5, "lr_w_max": 0.1},
            {"cosine_period_epochs": -1.0},
        ):
            with pytest.raises(ValueError):
                SearchConfig(**kw).validate()

    def test_period_defaults_to_a_fifth(self):
        assert SearchConfig(epochs=10).period_epochs() == pytest.approx(2.0)
        assert SearchConfig(epochs=10, cosine_period_epochs=3.0).period_epochs() == 3.0


def _setup_step_inputs(model):
    flops = prunable_flops(model)
    ids = sorted(flops)
    rankings = {i: rank_channels(model.params[i]["weight"].data) for i in ids}
    ratios = {i: 1.0 for i in ids}
    masks = {i: build_mask(1.0, model.layer(i).out_channels, rankings[i]) for i in ids}
    return flops, ids, rankings, ratios, masks


class TestInnerStep:
    def test_moves_weights_and_reports_loss(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        before = model.params[ids[0]]["weight"].data.copy()
        bd = inner_step(
            model, ds.images[:8], ds.labels[:8], masks, ratios, flops, tiny_config(), 0.05
        )
        assert math.isfinite(bd.total)
        assert bd.total == bd.ce + 0.5 * bd.cost
        assert not np.array_equal(model.params[ids[0]]["weight"].data, before)

    def test_cost_term_is_constant_in_inner_loss(self):
        # ratios enter the inner loss as plain numbers: cost is reported
        # but only the data term can move the weights
        model_a, model_b = tiny_model(3), tiny_model(3)
        ds = tiny_dataset()
        for model, alpha in ((model_a, 0.0), (model_b, 5.0)):
            flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
            inner_step(
                model,
                ds.images[:8],
                ds.labels[:8],
                masks,
                ratios,
                flops,
                tiny_config(alpha=alpha),
                0.05,
            )
        for lid in model_a.params:
            for role in model_a.params[lid]:
                assert np.array_equal(
                    model_a.params[lid][role].data, model_b.params[lid][role].data
                )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_raises_with_state(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        head = next(l.id for l in model.layers if l.kind == "linear")
        model.params[head]["weight"].data[:] = np.nan
        with pytest.raises(SearchDiverged) as exc:
            inner_step(
                model, ds.images[:8], ds.labels[:8], masks, ratios, flops, tiny_config(), 0.05
            )
        assert "lr_w" in exc.value.state
        assert set(exc.value.state["ratios"]) == set(ids)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_conv_weights_raise_before_the_update(self):
        # relu maps the NaN conv output to zero, so the loss stays finite
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        model.params[0]["weight"].data[:] = np.nan
        before = [bits_of(p.data) for p in model.parameters()]
        with pytest.raises(SearchDiverged, match="gradient") as exc:
            inner_step(
                model, ds.images[:8], ds.labels[:8], masks, ratios, flops, tiny_config(), 0.05
            )
        assert math.isfinite(exc.value.state["loss"])
        assert "0.weight" in exc.value.state["params"]
        assert [bits_of(p.data) for p in model.parameters()] == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_batch_raises_and_leaves_the_weights(self):
        model = tiny_model()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        before = [p.data.copy() for p in model.parameters()]
        xb = np.full((8, 1, 8, 8), np.nan, dtype=np.float32)
        with pytest.raises(SearchDiverged) as exc:
            inner_step(model, xb, np.arange(8), masks, ratios, flops, tiny_config(), 0.05)
        assert math.isfinite(exc.value.state["loss"])
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)


def bits_of(a):
    return a.view(f"u{a.itemsize}").tobytes()


def live_weight_outer_step(model, xb, yb, ratios, rankings, flops, config, lr_r):
    """outer_step's ratio update with every weight left trainable, on the
    same channel slice."""
    ids = sorted(flops)
    dtype = model.params[ids[0]]["weight"].data.dtype
    keep = {i: ratio_step_channels(ratios[i], rankings[i]) for i in ids}
    net = slice_channels(model, keep)
    rts = {i: Tensor(np.float64(ratios[i]), requires_grad=True, dtype=np.float64) for i in ids}
    mask_ts = {i: ratio_mask_tensor(rts[i], rankings[i], dtype=dtype, ids=keep[i]) for i in ids}
    logits = forward(net, xb, masks=mask_ts, mode="train", update_running=False)
    loss_t, _ = combined_loss(
        logits, yb, [rts[i] for i in ids], [flops[i] for i in ids], config.alpha, config.beta
    )
    backward(loss_t)
    assert all(p.grad is not None for p in net.parameters())
    out = {}
    for i in ids:
        c = rankings[i].channels
        g = float(rts[i].grad) if rts[i].grad is not None else 0.0
        out[i] = float(min(1.0, max(1.0 / c, ratios[i] - lr_r * g)))
    return out


def assert_trainable_and_gradless(model):
    for p in model.parameters():
        assert p.requires_grad
        assert p.grad is None


class TestOuterStep:
    def test_ratios_match_a_step_with_live_weights(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, _, _ = _setup_step_inputs(model)
        rng = np.random.default_rng(4)
        ratios = {i: float(rng.uniform(0.3, 0.95)) for i in ids}
        cfg = tiny_config(alpha=0.5)
        xb, yb = ds.images[:8], ds.labels[:8]
        weights = [p.data.copy() for p in model.parameters()]
        new, _ = outer_step(model, xb, yb, ratios, rankings, flops, cfg, 0.05)
        assert_trainable_and_gradless(model)
        for p, before in zip(model.parameters(), weights):
            assert np.array_equal(p.data, before)
        want = live_weight_outer_step(model, xb, yb, ratios, rankings, flops, cfg, 0.05)
        assert new == want
        assert any(new[i] != ratios[i] for i in ids)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_weights_stay_trainable_when_the_step_diverges(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, _ = _setup_step_inputs(model)
        # a NaN input batch would not do: relu maps NaN to zero before the
        # head, so the NaN has to sit past the last relu
        head = next(l.id for l in model.layers if l.kind == "linear")
        model.params[head]["weight"].data[:] = np.nan
        with pytest.raises(SearchDiverged) as exc:
            outer_step(
                model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, tiny_config(), 0.05
            )
        assert "lr_r" in exc.value.state
        assert_trainable_and_gradless(model)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_ratio_gradient_raises_instead_of_clamping(self):
        # NaN conv-8 weights: relu zeroes the NaN, the loss is finite, and
        # the ratio gradients of layers 0 and 4 upstream of conv 8 are NaN
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, _ = _setup_step_inputs(model)
        model.params[8]["weight"].data[:] = np.nan
        with pytest.raises(SearchDiverged, match="ratio gradient") as exc:
            outer_step(
                model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, tiny_config(), 0.05
            )
        assert math.isfinite(exc.value.state["loss"])
        assert exc.value.state["layers"] == [0, 4]
        assert_trainable_and_gradless(model)

    def test_cost_pressure_pushes_ratios_down(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        ratios = {i: 0.7 for i in ids}
        cfg = tiny_config(alpha=50.0, beta=0.3)
        new, bd = outer_step(
            model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, cfg, 0.01
        )
        assert all(new[i] < 0.7 for i in ids)
        assert math.isfinite(bd.total)

    def test_all_ones_with_zero_alpha_is_a_fixed_point(self):
        # at full width the mask has no boundary channel and with no cost
        # term there is no other route for gradient to reach the ratios
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        cfg = tiny_config(alpha=0.0)
        new, _ = outer_step(
            model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, cfg, 0.5
        )
        assert all(new[i] == 1.0 for i in ids)

    def test_ratios_stay_clamped(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        ratios = {i: 1.0 / model.layer(i).out_channels + 1e-6 for i in ids}
        cfg = tiny_config(alpha=1e4, beta=0.3)
        new, _ = outer_step(
            model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, cfg, 10.0
        )
        for i in ids:
            c = model.layer(i).out_channels
            assert 1.0 / c <= new[i] <= 1.0

    def test_running_stats_untouched(self):
        model = tiny_model()
        ds = tiny_dataset()
        flops, ids, rankings, ratios, masks = _setup_step_inputs(model)
        bn_id = next(l.id for l in model.layers if l.kind == "bn")
        before = model.bn_stats[bn_id].mean.copy()
        outer_step(
            model, ds.images[:8], ds.labels[:8], ratios, rankings, flops, tiny_config(), 0.01
        )
        assert np.array_equal(model.bn_stats[bn_id].mean, before)


def masked_dense_inner_step(model, xb, yb, masks, ratios, flops, config, lr_w):
    """The weight step computing every channel and masking the dropped ones."""
    ids = sorted(flops)
    mask_vecs = {i: masks[i].by_channel for i in masks}
    logits = forward(model, xb, masks=mask_vecs, mode="train")
    loss_t, bd = combined_loss(
        logits, yb, [ratios[i] for i in ids], [flops[i] for i in ids], config.alpha, config.beta
    )
    params = model.parameters()
    zero_grad(params)
    backward(loss_t)
    sgd_step(params, lr_w)
    return bd


def masked_dense_outer_step(model, xb, yb, ratios, rankings, flops, config):
    """The ratio step over every channel: its loss breakdown and ratio gradients."""
    ids = sorted(flops)
    dtype = model.params[ids[0]]["weight"].data.dtype
    rts = {i: Tensor(np.float64(ratios[i]), requires_grad=True, dtype=np.float64) for i in ids}
    mask_ts = {i: ratio_mask_tensor(rts[i], rankings[i], dtype=dtype) for i in ids}
    model.set_requires_grad(False)
    logits = forward(model, xb, masks=mask_ts, mode="train", update_running=False)
    loss_t, bd = combined_loss(
        logits, yb, [rts[i] for i in ids], [flops[i] for i in ids], config.alpha, config.beta
    )
    backward(loss_t)
    model.set_requires_grad(True)
    return bd, {i: float(rts[i].grad) for i in ids}


def step_case(name, kind, seed=0):
    """A model, a batch and per-layer ratios of one kind: "mid" puts every
    boundary channel at mask 0.5, "kink" puts r*C on an integer (the
    boundary channel's mask is 0), "full" keeps every channel."""
    shape = (1, 8, 8) if name == "cnn-small" else (3, 8, 8)
    model = build_model(name, 10, shape, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    xb = rng.standard_normal((8, *shape)).astype(np.float32)
    yb = rng.integers(0, 10, 8)
    flops = prunable_flops(model)
    ids = sorted(flops)
    rankings = {i: rank_channels(model.params[i]["weight"]) for i in ids}
    ratios = {}
    for i in ids:
        c = model.layer(i).out_channels
        k = int(rng.integers(1, c))
        ratios[i] = {"mid": (k + 0.5) / c, "kink": k / c, "full": 1.0}[kind]
    masks = {i: build_mask(ratios[i], rankings[i].channels, rankings[i]) for i in ids}
    return model, xb, yb, flops, rankings, ratios, masks


def bn_after(model, conv_id):
    return next(l.id for l in model.layers if model.preds[l.id] == (conv_id,))


def spy_ratio_tensors(monkeypatch):
    """Record the ratio tensors outer_step builds, so their gradients can be read."""
    seen = {}

    def spy(ratio, ranking, *args, layer_id=-1, **kwargs):
        seen[layer_id] = ratio
        return ratio_mask_tensor(ratio, ranking, *args, layer_id=layer_id, **kwargs)

    monkeypatch.setattr(search, "ratio_mask_tensor", spy)
    return seen


MODELS = ("cnn-small", "resnet-tiny")


@pytest.fixture(params=(np.float32, np.float64), ids=("float32", "float64"))
def dtype(request):
    """Every tensor the test makes, the model's included, in this dtype."""
    with use_dtype(request.param):
        yield request.param


class TestSlicedStepsMatchMaskedDense:
    """The steps compute only the channels they need; the masked-dense
    steps above, which compute every channel, are the reference.

    Narrower GEMMs sum in another order.  In float64 that moves nothing
    these tolerances can see, so a wrong channel set fails at once.  In
    float32 the masked-dense ratio gradient itself sits up to 1.1e-5
    (relative) from its float64 value, so the sliced one is held to 5e-5.
    """

    @pytest.mark.parametrize("kind", ("mid", "kink"))
    @pytest.mark.parametrize("name", MODELS)
    def test_inner_step(self, name, kind, dtype):
        model, xb, yb, flops, rankings, ratios, masks = step_case(name, kind)
        before, ref = copy.deepcopy(model), copy.deepcopy(model)
        cfg = tiny_config()
        want = masked_dense_inner_step(ref, xb, yb, masks, ratios, flops, cfg, 0.05)
        got = inner_step(model, xb, yb, masks, ratios, flops, cfg, 0.05)
        np.testing.assert_allclose(got.ce, want.ce, rtol=1e-6)
        np.testing.assert_allclose(got.total, want.total, rtol=1e-6)
        for p, r in zip(model.parameters(), ref.parameters()):
            np.testing.assert_allclose(p.data, r.data, rtol=0, atol=1e-5)
        for i, m in masks.items():
            dropped = np.flatnonzero(m.by_channel == 0.0)
            kept = np.flatnonzero(m.by_channel != 0.0)
            assert len(dropped) and len(kept)
            w, w0 = model.params[i]["weight"].data, before.params[i]["weight"].data
            assert bits_of(w[dropped]) == bits_of(w0[dropped])
            bn = bn_after(model, i)
            for role in ("gamma", "beta"):
                p, p0 = model.params[bn][role].data, before.params[bn][role].data
                assert bits_of(p[dropped]) == bits_of(p0[dropped])
            # a dropped channel's running statistics freeze; the kept ones
            # move as in the masked-dense step
            s, s0, sr = model.bn_stats[bn], before.bn_stats[bn], ref.bn_stats[bn]
            assert bits_of(s.mean[dropped]) == bits_of(s0.mean[dropped])
            assert bits_of(s.var[dropped]) == bits_of(s0.var[dropped])
            np.testing.assert_allclose(s.mean[kept], sr.mean[kept], rtol=0, atol=1e-5)
            np.testing.assert_allclose(s.var[kept], sr.var[kept], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kind", ("mid", "kink"))
    @pytest.mark.parametrize("name", MODELS)
    def test_outer_step(self, name, kind, dtype, monkeypatch):
        model, xb, yb, flops, rankings, ratios, _ = step_case(name, kind)
        assert model.params[0]["weight"].data.dtype == dtype
        cfg = tiny_config()
        want, want_grads = masked_dense_outer_step(
            copy.deepcopy(model), xb, yb, ratios, rankings, flops, cfg
        )
        seen = spy_ratio_tensors(monkeypatch)
        diag = MaskDiagnostics()
        _, got = outer_step(model, xb, yb, ratios, rankings, flops, cfg, 0.05, diag)
        assert diag.kink_count == (len(ratios) if kind == "kink" else 0)
        np.testing.assert_allclose(got.ce, want.ce, rtol=1e-6)
        np.testing.assert_allclose(got.total, want.total, rtol=1e-6)
        rtol = 5e-5 if dtype == np.float32 else 1e-5
        for i, g in want_grads.items():
            np.testing.assert_allclose(float(seen[i].grad), g, rtol=rtol)

    @pytest.mark.parametrize("name", MODELS)
    def test_full_width_steps_are_the_masked_dense_steps(self, name, monkeypatch):
        # float32 only: at full width no GEMM changes shape, in any dtype
        model, xb, yb, flops, rankings, ratios, masks = step_case(name, "full")
        ref = copy.deepcopy(model)
        cfg = tiny_config()
        want = masked_dense_inner_step(ref, xb, yb, masks, ratios, flops, cfg, 0.05)
        got = inner_step(model, xb, yb, masks, ratios, flops, cfg, 0.05)
        assert got == want
        assert [bits_of(p.data) for p in model.parameters()] == [
            bits_of(p.data) for p in ref.parameters()
        ]
        for lid, s in model.bn_stats.items():
            assert bits_of(s.mean) == bits_of(ref.bn_stats[lid].mean)
            assert bits_of(s.var) == bits_of(ref.bn_stats[lid].var)
        want, want_grads = masked_dense_outer_step(ref, xb, yb, ratios, rankings, flops, cfg)
        seen = spy_ratio_tensors(monkeypatch)
        _, got = outer_step(model, xb, yb, ratios, rankings, flops, cfg, 0.05)
        assert got == want
        assert {i: float(t.grad) for i, t in seen.items()} == want_grads


class TestRunSearch:
    def test_single_epoch_bookkeeping(self):
        model = tiny_model()
        train, val = tiny_dataset(32, seed=0), tiny_dataset(16, seed=1)
        res = run_search(model, train, val, tiny_config())
        assert res.iterations == 4
        assert res.epochs_run == pytest.approx(1.0)
        assert res.metrics[-1]["iteration"] == res.iterations
        row = res.metrics[-1]
        for key in ("lr_w", "lr_r", "loss_ce", "cost", "total", "val_accuracy",
                    "fpr_surrogate", "fpr_exact"):
            assert math.isfinite(row[key]), key
        for i in sorted(res.ratios):
            assert f"ratio_{i}" in row

    def test_same_seed_runs_are_identical(self):
        train, val = tiny_dataset(32), tiny_dataset(16, seed=1)
        r1 = run_search(tiny_model(5), train, val, tiny_config(epochs=2))
        r2 = run_search(tiny_model(5), train, val, tiny_config(epochs=2))
        assert r1.ratios == r2.ratios
        assert r1.metrics == r2.metrics
        assert r1.refresh_events == r2.refresh_events

    def test_strong_cost_pressure_thins_the_network(self):
        model = tiny_model()
        train, val = tiny_dataset(64), tiny_dataset(16, seed=1)
        cfg = tiny_config(alpha=50.0, epochs=3, lr_r_max=0.2, lr_r_min=0.01)
        res = run_search(model, train, val, cfg)
        mean_ratio = sum(res.ratios.values()) / len(res.ratios)
        assert mean_ratio < 0.8
        assert res.fpr_exact > 0.0

    @staticmethod
    def _short_search():
        model = tiny_model()
        train, val = tiny_dataset(32), tiny_dataset(16, seed=1)
        cfg = tiny_config(alpha=2.0, epochs=2, lr_r_max=0.2, lr_r_min=0.01)
        return run_search(model, train, val, cfg)

    @staticmethod
    def _assert_near(res, ratios, loss_ce, cost, total, rtol):
        assert sorted(res.ratios) == sorted(ratios)
        for i, want in ratios.items():
            np.testing.assert_allclose(res.ratios[i], want, rtol=rtol)
        row = res.metrics[-1]
        assert row["iteration"] == 8
        np.testing.assert_allclose(row["loss_ce"], loss_ce, rtol=rtol)
        np.testing.assert_allclose(row["cost"], cost, rtol=rtol)
        np.testing.assert_allclose(row["total"], total, rtol=rtol)

    def test_short_search_matches_golden_values(self):
        # pinned figures, so any change to the search arithmetic shows;
        # every ratio stays inside (1/C, 1), so both the mask and the cost
        # gradient count
        golden_ratios = {
            0: 0.8679276055125148,
            4: 0.8712172028503338,
            8: 0.9223755567478036,
            11: 0.18479637731380247,
        }
        self._assert_near(self._short_search(), golden_ratios, 2.3259129524230957,
                          0.9055256551235452, 4.136964262670186, rtol=1e-6)

    def test_short_search_stays_near_the_masked_dense_values(self):
        # the same search computed every channel and masked the dropped
        # ones; the sliced steps only reassociate float sums
        masked_dense_ratios = {
            0: 0.8679279079932118,
            4: 0.8712173952840686,
            8: 0.9223755513319326,
            11: 0.18479580844721188,
        }
        self._assert_near(self._short_search(), masked_dense_ratios, 2.325913190841675,
                          0.9055257158128155, 4.136964622467306, rtol=1e-5)

    def test_stop_when_mean_ratio(self):
        model = tiny_model()
        train, val = tiny_dataset(64), tiny_dataset(16, seed=1)
        cfg = tiny_config(alpha=50.0, epochs=50, lr_r_max=0.2, lr_r_min=0.01)
        res = run_search(model, train, val, cfg, stop_when={"mean_ratio_below": 0.9})
        assert sum(res.ratios.values()) / len(res.ratios) < 0.9
        assert res.iterations < 50 * 8
        assert res.metrics[-1]["iteration"] == res.iterations

    def test_frozen_ratios_converge_early(self):
        model = tiny_model()
        train, val = tiny_dataset(32), tiny_dataset(16, seed=1)
        cfg = tiny_config(alpha=0.0, epochs=10, lr_r_max=1e-12, lr_r_min=0.0)
        res = run_search(model, train, val, cfg)
        assert res.converged
        assert res.epochs_run == pytest.approx(1.0)

    def test_refresh_events_recorded_on_interval(self):
        model = tiny_model()
        train, val = tiny_dataset(32), tiny_dataset(16, seed=1)
        res = run_search(model, train, val, tiny_config(ranking_interval=2))
        its = sorted({e["iteration"] for e in res.refresh_events})
        assert its == [2, 4]
        ev = res.refresh_events[0]
        for key in ("layer", "ratio", "floor", "boundary_value", "kink_count",
                    "entered", "left"):
            assert key in ev

    def test_refresh_events_count_kinks_per_layer(self):
        # every ratio starts at 1, a kink, so each layer has counted some
        model = tiny_model()
        train, val = tiny_dataset(32), tiny_dataset(16, seed=1)
        res = run_search(model, train, val, tiny_config(ranking_interval=2))
        last = {e["layer"]: e["kink_count"] for e in res.refresh_events
                if e["iteration"] == res.iterations}
        assert last == res.diagnostics.kinks_by_layer
        assert len(last) > 1 and all(c > 0 for c in last.values())
        assert sum(last.values()) == res.diagnostics.kink_count

    def test_model_without_prunable_layers_rejected(self):
        model = tiny_model()
        for l in model.layers:
            l.prunable = False
        train, val = tiny_dataset(8), tiny_dataset(8, seed=1)
        with pytest.raises(ValueError, match="prunable"):
            run_search(model, train, val, tiny_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_surfaces_from_run(self):
        model = tiny_model()
        head = next(l.id for l in model.layers if l.kind == "linear")
        model.params[head]["weight"].data[:] = np.inf
        train, val = tiny_dataset(16), tiny_dataset(8, seed=1)
        with pytest.raises(SearchDiverged):
            run_search(model, train, val, tiny_config())
