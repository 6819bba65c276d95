"""Model graph checks: stock architectures, masked forward semantics,
and FLOPs accounting against hand-computed values."""

import numpy as np
import pytest

from autoprune.model import (
    build_model,
    evaluate,
    exact_flops_by_layer,
    exact_model_flops,
    forward,
    model_from_table,
    model_to_table,
    prunable_flops,
)
from autoprune.tensor import Tensor, backward, no_grad, softmax_cross_entropy, zero_grad


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

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("vgg-99", 10, (1, 28, 28))

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            build_model("cnn-small", 10, (1, 30, 30))

    def test_seeded_builds_are_identical(self):
        a, b = small_model(7), small_model(7)
        for lid in a.params:
            for role in a.params[lid]:
                assert np.array_equal(a.params[lid][role].data, b.params[lid][role].data)

    def test_table_roundtrip_preserves_structure(self):
        m = small_model()
        m2 = model_from_table(model_to_table(m))
        assert [l.kind for l in m2.layers] == [l.kind for l in m.layers]
        assert m2.preds == m.preds
        assert m2.mask_points == m.mask_points
        assert exact_flops_by_layer(m2) == exact_flops_by_layer(m)


def _set(table, layer_id, **fields):
    next(l for l in table["layers"] if l["id"] == layer_id).update(fields)


def _narrow_first_block_conv(table):
    # resnet-tiny: conv 6 -> bn 7 -> add 8, whose other operand is the
    # 16-channel stem
    _set(table, 6, out_channels=8)
    _set(table, 7, in_channels=8, out_channels=8)


WIDTH_MISMATCHES = {
    "conv off the input": ("cnn-small", lambda t: _set(t, 0, in_channels=3),
                           r"layer 0 \(conv\) takes 3 input channels, but layer -1 gives it 1"),
    "conv off a pool": ("cnn-small", lambda t: _set(t, 4, in_channels=8),
                        r"layer 4 \(conv\) takes 8 input channels, but layer 3 gives it 16"),
    "bn changes width": ("cnn-small", lambda t: _set(t, 1, out_channels=8),
                         r"layer 1 \(bn\) cannot turn 16 channels into 8"),
    "linear head": ("cnn-small", lambda t: _set(t, 15, in_channels=32),
                    r"layer 15 \(linear\) takes 32 input channels, but layer 14 gives it 64"),
    "add operands": ("resnet-tiny", _narrow_first_block_conv,
                     r"add layer 8 with unequal widths 8 and 16"),
}


@pytest.mark.parametrize("case", sorted(WIDTH_MISMATCHES))
def test_table_with_mismatched_widths_rejected(case):
    name, edit, message = WIDTH_MISMATCHES[case]
    table = model_to_table(build_model(name, 10, (1, 8, 8)))
    edit(table)
    with pytest.raises(ValueError, match=message):
        model_from_table(table)


class TestForwardSemantics:
    def test_all_ones_mask_is_bit_identical_to_no_mask(self):
        m = small_model()
        x = np.random.default_rng(3).standard_normal((4, 1, 28, 28)).astype(np.float32)
        ones = {i: np.ones(m.layer(i).out_channels, dtype=np.float32) for i in m.prunable_ids()}
        with no_grad():
            plain = forward(m, x, mode="eval").data
            masked = forward(m, x, masks=ones, mode="eval").data
        assert np.array_equal(plain, masked)

    @pytest.mark.parametrize("name", ["cnn-small", "resnet-tiny"])
    def test_forward_without_graph_frees_consumed_outputs(self, monkeypatch, name):
        # at every op, only the outputs some later layer still reads are
        # alive: the op's input, plus a residual block's skip operand
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
            forward(m, x, mode="eval")
        assert len(made) == len(m.layers)
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
