"""Model graph checks: stock architectures, masked forward semantics,
and FLOPs accounting against hand-computed values."""

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from autoprune import model as model_module
from autoprune.masking import rank_channels, ratio_mask_tensor, ratio_step_channels
from autoprune.model import (
    INPUT,
    CheckpointError,
    _field,
    build_model,
    evaluate,
    exact_flops_by_layer,
    exact_model_flops,
    forward,
    model_from_table,
    model_to_table,
    prunable_flops,
    slice_channels,
    write_back,
)
from autoprune.pruner import export_pruned, finalize_plan
from autoprune.tensor import (
    Tensor,
    add,
    backward,
    batch_norm2d,
    channel_scale,
    conv2d,
    linear,
    no_grad,
    pool2d,
    relu,
    reshape,
    softmax_cross_entropy,
    use_dtype,
    zero_grad,
)


def small_model(seed=0, input_shape=(1, 28, 28)):
    return build_model("cnn-small", 10, input_shape, rng=np.random.default_rng(seed))


class TestArchitectures:
    def test_cnn_small_prunable_widths(self):
        m = small_model()
        widths = [m.layer(i).out_channels for i in m.prunable_ids()]
        assert widths == [16, 32, 32, 64]

    def test_cnn_small_forward_shape(self):
        m = small_model()
        x = np.random.default_rng(1).standard_normal((3, 1, 28, 28)).astype(np.float32)
        assert forward(m, x, mode="eval").data.shape == (3, 10)

    def test_resnet_tiny_structure(self):
        m = build_model("resnet-tiny", 10, (3, 32, 32), rng=np.random.default_rng(0))
        assert len(m.prunable_ids()) == 3
        adds = [l for l in m.layers if l.kind == "add"]
        assert len(adds) == 3
        for a in adds:
            pa, pb = m.preds[a.id]
            assert m.layer(pa).out_channels == m.layer(pb).out_channels
        x = np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert forward(m, x, mode="eval").data.shape == (2, 10)

    def test_resnet_tiny_on_mnist_geometry(self):
        m = build_model("resnet-tiny", 10, (1, 28, 28), rng=np.random.default_rng(0))
        x = np.zeros((1, 1, 28, 28), dtype=np.float32)
        assert forward(m, x, mode="eval").data.shape == (1, 10)

    @pytest.mark.parametrize("name, shapes", [
        ("cnn-small", [(1, s, s) for s in range(4, 65, 4)]),
        ("resnet-tiny", [(1, s, s) for s in range(4, 65, 4)] + [(3, 32, 32)]),
    ])
    def test_one_global_average_pool_feeds_a_head_as_wide_as_the_last_conv(self, name, shapes, monkeypatch):
        # every input `build_model` accepts: square, with a side that is a
        # multiple of 4; the engine's average pool takes only the whole map
        pooled, real = [], model_module.pool2d

        def pool(x, kind, window):
            if kind == "avg":
                pooled.append((x.data.shape[2:], window))
            return real(x, kind, window)

        monkeypatch.setattr(model_module, "pool2d", pool)
        for shape in shapes:
            m = build_model(name, 10, shape)
            avg = [l for l in m.layers if l.kind == "pool" and l.pool_kind == "avg"]
            (head,) = [l for l in m.layers if l.kind == "linear"]
            last_conv = [l for l in m.layers if l.kind == "conv"][-1]
            assert len(avg) == 1 and head.in_channels == last_conv.out_channels, shape
            pooled.clear()
            with no_grad():
                forward(m, np.zeros((1, *shape), np.float32), mode="eval")
            assert len(pooled) == 1 and pooled[0][0] == (pooled[0][1],) * 2 == avg[0].kernel, shape

    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 28, 28)), ("resnet-tiny", (3, 32, 32))])
    def test_stride_one_same_size_convs_take_the_flat_tap_shift(self, name, shape, monkeypatch):
        # a train step with live masks, a train step on a half-width slice and
        # a no-graph eval of each run every conv through both kernels; no
        # stride-1 conv with an output the size of its input (every 3x3/pad-1
        # conv of both models) may reach the 2-d strided tap slices
        import autoprune.tensor as tensor_module

        tables, strided = [], []
        real_taps, real_span = tensor_module._taps, tensor_module._tap_span

        def taps(*geometry):
            table = real_taps(*geometry)
            tables.append((geometry, table.flat))
            return table

        def span(k, stride, padding, size, osize):
            strided.append((stride, size, osize))
            return real_span(k, stride, padding, size, osize)

        monkeypatch.setattr(tensor_module, "_taps", taps)
        monkeypatch.setattr(tensor_module, "_tap_span", span)
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        half = slice_channels(model, {i: np.arange(0, model.layer(i).out_channels, 2)
                                      for i in model.prunable_ids()})
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, *shape)).astype(np.float32)
        y = np.array([3, 7])
        for net in (model, half):
            masks = {i: Tensor(np.full(net.layer(i).out_channels, 0.5, np.float32), requires_grad=True)
                     for i in net.prunable_ids()}
            backward(softmax_cross_entropy(forward(net, x, masks=masks, mode="train", update_running=False), y))
            with no_grad():
                forward(net, x, mode="eval")
        same_size = [g for g, _ in tables if g[2] == 1 and g[4:6] == g[6:8]]
        assert same_size and all(flat for g, flat in tables if g in same_size)
        assert not [s for s in strided if s[0] == 1 and s[1] == s[2]]
        # resnet-tiny's stride-2 convs still take the strided slices
        assert bool(strided) == (name == "resnet-tiny")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("vgg-99", 10, (1, 28, 28))

    def test_indivisible_input_rejected(self):
        for shape in ((1, 30, 30), (0, 28, 28)):
            with pytest.raises(ValueError, match="divisible"):
                build_model("cnn-small", 10, shape)

    def test_seeded_builds_are_identical(self):
        a, b = small_model(7), small_model(7)
        for lid in a.params:
            for role in a.params[lid]:
                assert np.array_equal(a.params[lid][role].data, b.params[lid][role].data)

    @pytest.mark.parametrize("name, shape, digest", [
        ("cnn-small", (1, 28, 28), "0fad5dc3347055127fcd2915a18c6b99974b0173aeab637b1188231e6a648b2e"),
        ("resnet-tiny", (3, 32, 32), "fa9592aa103fc7487a759ea16b222fe9825fb060fea8f7a295423e0fd91020ae"),
    ])
    def test_seeded_build_golden_digest(self, name, shape, digest):
        # pins the initial values and the order of the He-normal draws
        m = build_model(name, 10, shape, rng=np.random.default_rng(0))
        h = hashlib.sha256()
        for _, _, a in m.arrays():
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("name, shape, digest", [
        ("cnn-small", (1, 28, 28), "332305536f706aff6f97a02a105faaa677291b6e0cf1e04604a97857496cf3c3"),
        ("cnn-small", (3, 32, 32), "2b6d9c524c674fd3e7d1d1d7ff1e0c044dcd1f3c766151ee6b7549f8992ba2f9"),
        ("resnet-tiny", (1, 28, 28), "9d7deffdddecd9b013f13844d1fb6887d85f851d1f4508d38c23c6ba6614016e"),
        ("resnet-tiny", (3, 32, 32), "7eb90e1f6cae5198344e33d14b0e40fe5b81eb62887425c5fe25f95167925c20"),
    ])
    def test_layer_table_golden_digest(self, name, shape, digest):
        # pins every layer's kind, widths, kernel, stride, padding and pool
        # kind, and each layer's inputs, as the builder makes them
        m = build_model(name, 10, shape)
        text = json.dumps([[dataclasses.asdict(l) for l in m.layers], sorted(m.preds.items())])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_table_roundtrip_preserves_structure(self):
        for m in (small_model(), build_model("resnet-tiny", 10, (3, 32, 32))):
            # the full model, and slices keeping every channel and every third
            for step in (None, 1, 3):
                if step is not None:
                    m = slice_channels(m, {i: np.arange(0, m.layer(i).out_channels, step)
                                           for i in m.prunable_ids()})
                m2 = model_from_table(json.loads(json.dumps(model_to_table(m))))
                assert not m2.params and not m2.bn_stats
                assert m2.layers == m.layers
                assert m2.preds == m.preds
                assert m2.mask_points == m.mask_points
                assert exact_flops_by_layer(m2) == exact_flops_by_layer(m)


class TestForwardSemantics:
    def test_all_ones_mask_is_bit_identical_to_no_mask(self):
        m = small_model()
        x = np.random.default_rng(3).standard_normal((4, 1, 28, 28)).astype(np.float32)
        ones = {i: np.ones(m.layer(i).out_channels, dtype=np.float32) for i in m.prunable_ids()}
        with no_grad():
            plain = forward(m, x, mode="eval").data
            masked = forward(m, x, masks=ones, mode="eval").data
        assert np.array_equal(plain, masked)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("name", ["cnn-small", "resnet-tiny"])
    def test_forward_without_graph_frees_consumed_outputs(self, monkeypatch, name, mode):
        # at every op, only the outputs some later layer still reads are
        # alive: the op's input, plus a residual block's skip operand; in
        # eval mode each bn is folded into its conv, so it makes no op call
        import weakref

        import autoprune.model as model_module

        made, most = [], [0]

        def tracked(op):
            def wrapped(*args, **kwargs):
                most[0] = max(most[0], sum(ref() is not None for ref in made))
                out = op(*args, **kwargs)
                made.append(weakref.ref(out.data))
                return out

            return wrapped

        for op in ("conv2d", "batch_norm2d", "relu", "pool2d", "add", "linear"):
            monkeypatch.setattr(model_module, op, tracked(getattr(model_module, op)))
        m = build_model(name, 10, (1, 8, 8), rng=np.random.default_rng(0))
        x = np.random.default_rng(5).standard_normal((2, 1, 8, 8)).astype(np.float32)
        with no_grad():
            forward(m, x, mode=mode)
        bns = sum(l.kind == "bn" for l in m.layers)
        assert len(made) == len(m.layers) - (bns if mode == "eval" else 0)
        assert most[0] == (1 if name == "cnn-small" else 2)

    def test_eval_forward_is_deterministic(self):
        m = small_model()
        x = np.random.default_rng(4).standard_normal((2, 1, 28, 28)).astype(np.float32)
        with no_grad():
            a = forward(m, x, mode="eval").data
            b = forward(m, x, mode="eval").data
        assert np.array_equal(a, b)

    def test_train_mode_updates_running_stats_eval_does_not(self):
        m = small_model()
        x = np.random.default_rng(5).standard_normal((8, 1, 28, 28)).astype(np.float32)
        bn_id = next(l.id for l in m.layers if l.kind == "bn")
        before = m.bn_stats[bn_id].mean.copy()
        with no_grad():
            forward(m, x, mode="eval")
        assert np.array_equal(m.bn_stats[bn_id].mean, before)
        with no_grad():
            forward(m, x, mode="train")
        assert not np.array_equal(m.bn_stats[bn_id].mean, before)

    def test_update_running_flag_freezes_stats_in_train_mode(self):
        m = small_model()
        x = np.random.default_rng(6).standard_normal((8, 1, 28, 28)).astype(np.float32)
        bn_id = next(l.id for l in m.layers if l.kind == "bn")
        before = m.bn_stats[bn_id].mean.copy()
        with no_grad():
            forward(m, x, mode="train", update_running=False)
        assert np.array_equal(m.bn_stats[bn_id].mean, before)

    def test_masked_out_channels_receive_zero_gradient(self):
        m = small_model()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, 6)
        conv0 = m.prunable_ids()[0]
        mask = np.ones(16, dtype=np.float32)
        dead = [2, 5, 11]
        mask[dead] = 0.0
        logits = forward(m, x, masks={conv0: mask}, mode="train")
        loss = softmax_cross_entropy(logits, labels)
        zero_grad(m.parameters())
        backward(loss)
        g = m.params[conv0]["weight"].grad
        assert g is not None
        assert np.all(g[dead] == 0)
        alive = [i for i in range(16) if i not in dead]
        assert np.any(g[alive] != 0)

    def test_masked_weights_stay_bit_identical_under_sgd(self):
        from autoprune.search import sgd_step

        m = small_model()
        rng = np.random.default_rng(8)
        conv0 = m.prunable_ids()[0]
        mask = np.ones(16, dtype=np.float32)
        mask[[1, 9]] = 0.0
        frozen_before = m.params[conv0]["weight"].data[[1, 9]].copy()
        for _ in range(3):
            x = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)
            labels = rng.integers(0, 10, 6)
            logits = forward(m, x, masks={conv0: mask}, mode="train")
            loss = softmax_cross_entropy(logits, labels)
            zero_grad(m.parameters())
            backward(loss)
            sgd_step(m.parameters(), 0.05)
        assert np.array_equal(m.params[conv0]["weight"].data[[1, 9]], frozen_before)

    def test_mask_for_unknown_layer_rejected(self):
        m = small_model()
        x = np.zeros((1, 1, 28, 28), dtype=np.float32)
        with pytest.raises(ValueError, match="non-prunable"):
            forward(m, x, masks={999: np.ones(4)})

    def test_wrong_input_shape_rejected(self):
        m = small_model()
        with pytest.raises(ValueError, match="input shape"):
            forward(m, np.zeros((1, 3, 28, 28), dtype=np.float32))

    @pytest.mark.parametrize("as_tensor", [False, True], ids=["array", "tensor"])
    @pytest.mark.parametrize("bad", [-0.5, np.nan], ids=["negative", "nan"])
    def test_negative_or_nan_mask_entry_rejected(self, bad, as_tensor):
        # relu(m*y) = m*relu(y), which lets a mask scale bn's gamma and
        # beta, holds only for m >= 0
        m = small_model(input_shape=(1, 8, 8))
        mask = np.ones(32, dtype=np.float32)
        mask[3] = bad
        with pytest.raises(ValueError, match="mask for conv 4 has a negative or NaN entry"):
            forward(m, np.zeros((2, 1, 8, 8), dtype=np.float32),
                    masks={4: Tensor(mask) if as_tensor else mask})


def scale_after_relu(model, x, masks):
    """Reference train-mode forward in which each mask multiplies its
    mask-point relu's output with `channel_scale`, the definition of
    masking that `forward`'s bn fold must reproduce."""
    at = {model.mask_points[i]: m if isinstance(m, Tensor) else Tensor(m) for i, m in masks.items()}
    outputs = {INPUT: Tensor(x)}
    for layer in model.layers:
        srcs = [outputs[p] for p in model.preds[layer.id]]
        p = model.params.get(layer.id)
        if layer.kind == "conv":
            out = conv2d(srcs[0], p["weight"], layer.stride, layer.padding)
        elif layer.kind == "bn":
            out = batch_norm2d(srcs[0], p["gamma"], p["beta"], model.bn_stats[layer.id],
                               update_running=False)
        elif layer.kind == "relu":
            out = relu(srcs[0])
        elif layer.kind == "pool":
            out = pool2d(srcs[0], layer.pool_kind, layer.kernel[0])
        elif layer.kind == "add":
            out = add(srcs[0], srcs[1])
        else:
            out = linear(reshape(srcs[0], (len(x), -1)), p["weight"], p["bias"])
        outputs[layer.id] = channel_scale(out, at[layer.id]) if layer.id in at else out
    return out


def fold(model, x, masks):
    return forward(model, x, masks=masks, mode="train", update_running=False)


class TestMaskFold:
    """`forward` against `scale_after_relu`, in float64, within 1e-12
    relative: the logits, every parameter gradient and every ratio gradient."""

    @staticmethod
    def case(name):
        shape = (1, 8, 8) if name == "cnn-small" else (3, 8, 8)
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for l in model.layers:
            if l.kind == "bn":  # away from their initial ones and zeros
                model.params[l.id]["gamma"].data[:] = rng.uniform(0.5, 1.5, l.out_channels)
                model.params[l.id]["beta"].data[:] = rng.normal(0.0, 0.5, l.out_channels)
        return model, rng.standard_normal((6, *shape)), rng.integers(0, 10, 6)

    @staticmethod
    def assert_close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("name", ["cnn-small", "resnet-tiny"])
    def test_constant_masks_of_zeros_ones_and_fractions(self, name):
        # the weight step's masks: constants, so every one is folded
        with use_dtype(np.float64):
            model, x, y = self.case(name)
            masks = {i: np.resize([0.0, 1.0, 0.3, 1.0, 0.75], model.layer(i).out_channels)
                     for i in model.prunable_ids()}
            runs = []
            for fwd in (fold, scale_after_relu):
                zero_grad(model.parameters())
                logits = fwd(model, x, masks)
                backward(softmax_cross_entropy(logits, y))
                runs.append((logits.data, [p.grad for p in model.parameters()]))
        (logits, grads), (want_logits, want_grads) = runs
        self.assert_close(logits, want_logits)
        for g, want in zip(grads, want_grads):
            self.assert_close(g, want)

    @pytest.mark.parametrize("kink", [False, True], ids=["fraction", "kink"])
    @pytest.mark.parametrize("name", ["cnn-small", "resnet-tiny"])
    def test_ratio_gradients_on_the_ratio_steps_channels(self, name, kink):
        # the ratio step's view: off a kink each mask holds ones and one
        # fractional entry, which are folded; at a kink the boundary entry
        # is 0, and its gradient still reaches the ratio
        with use_dtype(np.float64):
            model, x, y = self.case(name)
            ids = model.prunable_ids()
            rankings = {i: rank_channels(model.params[i]["weight"].data) for i in ids}
            ratios = {}
            for i in ids:
                c = model.layer(i).out_channels
                ratios[i] = (c // 2 + (0.0 if kink else 0.3)) / c
            keep = {i: ratio_step_channels(ratios[i], rankings[i]) for i in ids}
            net = slice_channels(model, keep)
            runs = []
            for fwd in (fold, scale_after_relu):
                rts = {i: Tensor(ratios[i], requires_grad=True) for i in ids}
                masks = {i: ratio_mask_tensor(rts[i], rankings[i], ids=keep[i]) for i in ids}
                logits = fwd(net, x, masks)
                backward(softmax_cross_entropy(logits, y))
                runs.append((logits.data, np.array([float(rts[i].grad) for i in ids])))
        (logits, grads), (want_logits, want_grads) = runs
        assert np.all(want_grads != 0)
        self.assert_close(logits, want_logits)
        self.assert_close(grads, want_grads)


class TestEvalFold:
    """An eval forward without a graph folds each bn into its conv: its
    logits match the unfolded forward that records a graph, it makes no
    `batch_norm2d` call, and it writes no array of the model."""

    MASKS = [None, (0.0, 1.0, 0.3)]
    CASES = [("cnn-small", False), ("resnet-tiny", False), ("resnet-tiny", True)]
    IDS = ["cnn-small", "resnet-tiny", "resnet-tiny-sliced"]

    @staticmethod
    def case(name, sliced, masked):
        """A model whose bn running statistics, gammas and betas are random,
        a batch, and masks holding 0, 1 and 0.3 (or None).  The slice keeps
        every fifth channel, so resnet-tiny's pruned convs have 2*Cout < Cin
        and run from the output side."""
        shape = (1, 8, 8) if name == "cnn-small" else (3, 8, 8)
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        for l in model.layers:
            if l.kind == "bn":
                c = l.out_channels
                model.params[l.id]["gamma"].data[:] = rng.uniform(0.5, 1.5, c)
                model.params[l.id]["beta"].data[:] = rng.normal(0.0, 0.5, c)
                model.bn_stats[l.id].mean[:] = rng.normal(0.0, 0.5, c)
                model.bn_stats[l.id].var[:] = rng.uniform(0.2, 2.0, c)
        if sliced:
            model = slice_channels(model, {i: np.arange(0, model.layer(i).out_channels, 5)
                                           for i in model.prunable_ids()})
        masks = masked and {i: np.resize(masked, model.layer(i).out_channels) for i in model.prunable_ids()}
        return model, rng.standard_normal((6, *shape)).astype(model.params[0]["weight"].data.dtype), masks

    @classmethod
    def relative_error(cls, name, sliced, masked):
        model, x, masks = cls.case(name, sliced, masked)
        with no_grad():
            got = forward(model, x, masks=masks, mode="eval").data
        want = forward(model, x, masks=masks, mode="eval").data
        assert got.dtype == want.dtype
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("masked", MASKS, ids=["unmasked", "masked"])
    @pytest.mark.parametrize("name, sliced", CASES, ids=IDS)
    def test_float64_logits_match_the_unfolded_forward(self, name, sliced, masked):
        with use_dtype(np.float64):
            assert self.relative_error(name, sliced, masked) <= 1e-12

    @pytest.mark.parametrize("masked", MASKS, ids=["unmasked", "masked"])
    @pytest.mark.parametrize("name, sliced", CASES, ids=IDS)
    def test_float32_logits_match_the_unfolded_forward(self, name, sliced, masked):
        # measured at most 5.9e-7 over these cases
        assert self.relative_error(name, sliced, masked) <= 2e-6

    @pytest.mark.parametrize("name, sliced", CASES, ids=IDS)
    def test_only_an_eval_forward_without_a_graph_skips_batch_norm(self, monkeypatch, name, sliced):
        import autoprune.model as model_module
        import autoprune.tensor as tensor_module

        calls = {"batch_norm2d": 0, "_output_side_conv2d": 0}
        for module, op in ((model_module, "batch_norm2d"), (tensor_module, "_output_side_conv2d")):
            def counted(*args, _op=getattr(module, op), _name=op, **kwargs):
                calls[_name] += 1
                return _op(*args, **kwargs)

            monkeypatch.setattr(module, op, counted)
        model, x, masks = self.case(name, sliced, (0.0, 1.0, 0.3))
        bns = sum(l.kind == "bn" for l in model.layers)
        for mode, graph, want in (("train", False, bns), ("eval", True, bns), ("eval", False, 0)):
            calls.update(dict.fromkeys(calls, 0))
            if graph:
                forward(model, x, masks=masks, mode=mode, update_running=False)
            else:
                with no_grad():
                    forward(model, x, masks=masks, mode=mode, update_running=False)
            assert calls["batch_norm2d"] == want, (mode, graph)
        # the slice's folded convs keep conv2d's rule for a pass without a graph
        assert (calls["_output_side_conv2d"] > 0) == sliced

    @pytest.mark.parametrize("name, sliced", CASES, ids=IDS)
    def test_evaluate_writes_no_array_of_the_model(self, name, sliced):
        model, x, masks = self.case(name, sliced, (0.0, 1.0, 0.3))
        before = [(lid, role, a.dtype, a.tobytes()) for lid, role, a in model.arrays()]
        evaluate(model, x, np.zeros(len(x), dtype=np.int64), batch_size=4, masks=masks)
        assert [(lid, role, a.dtype, a.tobytes()) for lid, role, a in model.arrays()] == before


class TestFlops:
    def test_cnn_small_hand_computed_totals(self):
        m = small_model()
        per = exact_flops_by_layer(m)
        convs = m.prunable_ids()
        # 3x3 convs at 28x28, 14x14, 7x7, 7x7 with the stock widths
        assert per[convs[0]] == 2 * 9 * 1 * 16 * 28 * 28
        assert per[convs[1]] == 2 * 9 * 16 * 32 * 14 * 14
        assert per[convs[2]] == 2 * 9 * 32 * 32 * 7 * 7
        assert per[convs[3]] == 2 * 9 * 32 * 64 * 7 * 7
        head = next(l.id for l in m.layers if l.kind == "linear")
        assert per[head] == 2 * 64 * 10 == 1280
        assert exact_model_flops(m) == sum(per.values()) == 4742912

    def test_non_compute_layers_are_free(self):
        m = small_model()
        per = exact_flops_by_layer(m)
        for l in m.layers:
            if l.kind in ("bn", "relu", "pool", "add"):
                assert per[l.id] == 0

    def test_kept_counts_couple_through_the_chain(self):
        m = small_model()
        convs = m.prunable_ids()
        full = exact_flops_by_layer(m)
        half = exact_flops_by_layer(m, {convs[0]: 8})
        # the pruned conv halves, and its consumer halves too
        assert half[convs[0]] == full[convs[0]] // 2
        assert half[convs[1]] == full[convs[1]] // 2
        assert half[convs[2]] == full[convs[2]]

    def test_head_pays_per_kept_feature(self):
        m = small_model()
        convs = m.prunable_ids()
        head = next(l.id for l in m.layers if l.kind == "linear")
        per = exact_flops_by_layer(m, {convs[3]: 16})
        assert per[head] == 2 * 16 * 10

    def test_full_kept_is_identity(self):
        m = small_model()
        kept = {i: m.layer(i).out_channels for i in m.prunable_ids()}
        assert exact_model_flops(m, kept) == exact_model_flops(m)

    def test_kept_bounds_enforced(self):
        m = small_model()
        conv0 = m.prunable_ids()[0]
        with pytest.raises(ValueError, match="out of range"):
            exact_model_flops(m, {conv0: 0})
        with pytest.raises(ValueError, match="out of range"):
            exact_model_flops(m, {conv0: 17})
        with pytest.raises(ValueError, match="non-prunable"):
            exact_model_flops(m, {999: 3})

    def test_resnet_kept_respects_blocks(self):
        m = build_model("resnet-tiny", 10, (3, 32, 32), rng=np.random.default_rng(0))
        pf = prunable_flops(m)
        kept = {i: max(1, m.layer(i).out_channels // 2) for i in pf}
        pruned = exact_model_flops(m, kept)
        assert 0 < pruned < exact_model_flops(m)

    @pytest.mark.parametrize("name, shape", [
        ("cnn-small", (1, 28, 28)), ("cnn-small", (3, 12, 12)),
        ("resnet-tiny", (3, 32, 32)), ("resnet-tiny", (1, 8, 8)),
    ])
    def test_per_layer_flops_are_what_a_sliced_forward_runs(self, name, shape, monkeypatch):
        """Each conv and linear call of a forward of `slice_channels(dense,
        keep)` costs, by the shapes it sees, `exact_flops_by_layer(dense,
        kept)` of its layer: stride-2 convs and 1x1 shortcuts included."""
        dense = build_model(name, 10, shape, rng=np.random.default_rng(0))
        ran = []

        def conv_spy(x, w, *args):
            out = conv2d(x, w, *args)
            cout, cin, kh, kw = w.data.shape
            ran.append(2 * kh * kw * cin * cout * out.data.shape[2] * out.data.shape[3])
            return out

        def linear_spy(x, w, b):
            ran.append(2 * w.data.shape[0] * w.data.shape[1])
            return linear(x, w, b)

        monkeypatch.setattr(model_module, "conv2d", conv_spy)
        monkeypatch.setattr(model_module, "linear", linear_spy)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, *shape)).astype(np.float32)
        for _ in range(8):
            widths = {i: dense.layer(i).out_channels for i in dense.prunable_ids()}
            keep = {i: np.sort(rng.choice(c, rng.integers(1, c + 1), replace=False))
                    for i, c in widths.items() if rng.random() < 0.8}
            per = exact_flops_by_layer(dense, {i: len(ids) for i, ids in keep.items()})
            ran.clear()
            with no_grad():
                forward(slice_channels(dense, keep), x, mode="eval")
            assert ran == [per[l.id] for l in dense.layers if l.kind in ("conv", "linear")]


class TestSliceChannels:
    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 8, 8))])
    def test_write_back_fills_exactly_the_kept_entries(self, name, shape):
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        keep = {i: np.arange(1, model.layer(i).out_channels, 3) for i in model.prunable_ids()}
        small = slice_channels(model, keep)
        before = copy.deepcopy(model)
        arrays = lambda m: [p.data for p in m.parameters()] + [
            a for s in m.bn_stats.values() for a in (s.mean, s.var)
        ]
        for a in arrays(small):
            a += 1.0
        write_back(model, small, keep)
        # each kept entry is written once and nothing else moves
        for new, old, part in zip(arrays(model), arrays(before), arrays(small)):
            assert np.count_nonzero(new != old) == part.size
        again = slice_channels(model, keep)
        for a, b in zip(arrays(again), arrays(small)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 8, 8))])
    def test_a_slice_shares_no_memory_with_its_model(self, name, shape):
        # a full-width entry is indexed by `slice(None)`, a view, and must
        # still be copied
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        ids = model.prunable_ids()
        some = slice_channels(model, {i: np.arange(0, model.layer(i).out_channels, 2) for i in ids[::2]})
        full = export_pruned(model, finalize_plan(model, dict.fromkeys(ids, 1.0)))
        for small in (some, full):
            for (lid, role, whole), (_, _, part) in zip(model.arrays(), small.arrays()):
                assert not np.shares_memory(whole, part), (lid, role)
        assert all(a.shape == b.shape for (_, _, a), (_, _, b) in zip(model.arrays(), full.arrays()))


class TestDtypes:
    """Parameters and running statistics share one dtype: the engine's
    default when the model is built."""

    @staticmethod
    def arrays(m):
        return [p.data for p in m.parameters()] + [
            a for s in m.bn_stats.values() for a in (s.mean, s.var)
        ]

    @pytest.mark.parametrize("later", (np.float32, np.float64))
    @pytest.mark.parametrize("default", (np.float32, np.float64))
    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 8, 8))])
    def test_every_array_has_the_default_dtype_at_build(self, name, shape, default, later):
        with use_dtype(default):
            built = build_model(name, 10, shape, rng=np.random.default_rng(0))
            keep = {i: np.arange(0, built.layer(i).out_channels, 2) for i in built.prunable_ids()}
            sliced = slice_channels(built, keep)
        # the slice keeps its model's dtype whatever the default is then
        with use_dtype(later):
            sliced_later = slice_channels(built, keep)
        for what, m in (("built", built), ("sliced", sliced), ("sliced later", sliced_later)):
            assert {a.dtype for a in self.arrays(m)} == {np.dtype(default)}, what

    def test_float64_weights_are_not_float32_rounded(self):
        w32 = build_model("cnn-small", 10, (1, 8, 8)).params[0]["weight"].data
        assert w32.dtype == np.float32
        with use_dtype(np.float64):
            w64 = build_model("cnn-small", 10, (1, 8, 8)).params[0]["weight"].data
        assert w64.dtype == np.float64
        assert np.array_equal(w64.astype(np.float32), w32)
        assert not np.array_equal(w64.astype(np.float32).astype(np.float64), w64)


class TestEvaluate:
    def test_accuracy_on_rigged_model(self):
        m = small_model()
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 1, 28, 28)).astype(np.float32)
        with no_grad():
            logits = forward(m, x, mode="eval").data
        labels = logits.argmax(axis=1)
        assert evaluate(m, x, labels) == 1.0
        wrong = (labels + 1) % 10
        assert evaluate(m, x, wrong) == 0.0

    def test_empty_image_set_is_refused(self):
        with pytest.raises(ValueError, match="images"):
            evaluate(small_model(), np.zeros((0, 1, 28, 28), np.float32), np.zeros(0, np.int64))

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_batch_size_below_one_is_refused(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(small_model(), np.zeros((8, 1, 28, 28), np.float32), np.zeros(8, np.int64),
                     batch_size=batch_size)

    def test_labels_not_one_per_image_are_refused(self):
        with pytest.raises(ValueError, match="labels"):
            evaluate(small_model(), np.zeros((8, 1, 28, 28), np.float32), np.zeros(1, np.int64))


class TestField:
    """`_field` over a grid of JSON values and every kind a record reads
    back: which values each kind takes, and the one message it gives for
    the rest, a missing key and a record that is not an object."""

    VALUES = [None, True, False, 0, 1, -3, 2.5, 0.0, "", "a", "1", {}, {"a": 1}, [], [1], [1, 2, 3],
              [1, 2], [1, 2, 3, 4], [1.0, 2, 3], [True, 2, 3], ["a"], [[1]], [{}]]
    # kind -> (the indices into VALUES it accepts, its wording)
    KINDS = {
        "int": ({3, 4, 5}, "an integer"),
        "float": ({6, 7}, "a number"),
        "str": ({8, 9, 10}, "a string"),
        "dict": ({11, 12}, "an object"),
        "list": (set(range(13, 23)), "a list"),
        "list[int]": ({13, 14, 15, 16, 17}, "a list of integers"),
        "tuple[int, int, int]": ({15}, "a list of three integers"),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_each_value_is_taken_or_refused_in_its_kinds_words(self, kind):
        accepted, words = self.KINDS[kind]
        message = f"w: field 'k' is missing or not {words}"
        for n, value in enumerate(self.VALUES):
            if n in accepted:
                assert _field("w: ", {"k": value}, "k", kind) is value
            else:
                with pytest.raises(CheckpointError) as e:
                    _field("w: ", {"k": value}, "k", kind)
                assert str(e.value) == message, value
        for record in ({}, None, [], "k", 3):  # no key, or not an object
            with pytest.raises(CheckpointError) as e:
                _field("w: ", record, "k", kind)
            assert str(e.value) == message, record
