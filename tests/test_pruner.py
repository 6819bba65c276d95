"""Pruning plan, physical export, fine-tuning, and checkpoint tests.

The load-bearing property: slicing channels out of the dense model must
agree with masking the same channels to zero, because the search only
ever saw the masked network.
"""

import json

import numpy as np
import pytest

from autoprune.data import Dataset
from autoprune.masking import active_channels, build_mask, rank_channels
from autoprune.model import build_model, exact_flops_by_layer, exact_model_flops, forward
from autoprune.pruner import (
    CheckpointError,
    PruningPlan,
    export_pruned,
    finalize_plan,
    load_checkpoint,
    save_checkpoint,
    train_supervised,
)
from autoprune.search import SearchConfig, run_search
from autoprune.tensor import no_grad


def small_model(seed=0, shape=(1, 8, 8)):
    return build_model("cnn-small", 10, shape, rng=np.random.default_rng(seed))


def mask_vectors(model, plan):
    out = {}
    for i, e in plan.entries.items():
        v = np.zeros(model.layer(i).out_channels, dtype=np.float32)
        v[e.kept_channel_ids] = 1.0
        out[i] = v
    return out


def logits_of(model, x, masks=None, mode="eval"):
    with no_grad():
        return forward(model, x, masks=masks, mode=mode, update_running=False).data


def toy_problem(n=256, seed=0):
    # mean brightness of the image decides the class: learnable in a
    # couple of epochs by a small net
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    images = rng.standard_normal((n, 1, 8, 8)).astype(np.float32) * 0.3
    images += (labels * 2.0 - 1.0).reshape(-1, 1, 1, 1).astype(np.float32)
    return Dataset(images, labels, {})


class TestFinalizePlan:
    def test_rounding_half_up_with_floor_of_one(self):
        model = small_model()
        ids = model.prunable_ids()
        ratios = {i: 1.0 for i in ids}
        ratios[ids[0]] = 0.55  # 16 channels: 8.8 rounds to 9
        ratios[ids[1]] = 8.49 / 32  # just below the half: stays 8
        ratios[ids[2]] = 8.5 / 32  # exactly half: rounds up to 9
        ratios[ids[3]] = 1.0 / 64  # floor of one channel
        plan = finalize_plan(model, ratios)
        assert [len(plan.entries[i].kept_channel_ids) for i in ids] == [9, 8, 9, 1]

    def test_kept_ids_are_top_ranked_ascending(self):
        model = small_model()
        lid = model.prunable_ids()[0]
        ranking = rank_channels(model.params[lid]["weight"])
        ratios = {i: 1.0 for i in model.prunable_ids()}
        ratios[lid] = 0.5
        plan = finalize_plan(model, ratios)
        e = plan.entries[lid]
        assert e.kept_channel_ids == sorted(int(c) for c in ranking.order[:8])
        assert all(isinstance(c, int) for c in e.kept_channel_ids)

    def test_fpr_is_the_exported_models(self):
        model = small_model()
        ratios = {i: 0.5 for i in model.prunable_ids()}
        plan = finalize_plan(model, ratios)
        pruned = export_pruned(model, plan)
        assert plan.fpr == 1.0 - exact_model_flops(pruned) / exact_model_flops(model)
        assert 0.0 < plan.fpr < 1.0

    def test_coverage_must_be_exact(self):
        model = small_model()
        ids = model.prunable_ids()
        with pytest.raises(ValueError, match="expected"):
            finalize_plan(model, {ids[0]: 0.5})
        full = {i: 1.0 for i in ids}
        with pytest.raises(ValueError, match="expected"):
            finalize_plan(model, {**full, 999: 0.5})

    def test_dict_roundtrip_through_json(self):
        model = small_model()
        plan = finalize_plan(model, {i: 0.6 for i in model.prunable_ids()})
        blob = json.dumps(plan.to_dict())
        assert json.loads(blob) == {"entries": [{"layer_id": i, "kept_channel_ids": e.kept_channel_ids}
                                                for i, e in plan.entries.items()]}
        back = PruningPlan.from_dict(json.loads(blob), model)
        assert back.entries == plan.entries
        assert back.fpr == plan.fpr


class TestPlanFromSearch:
    def test_plan_keeps_the_channels_the_search_trained(self):
        model = small_model()
        cfg = SearchConfig(alpha=50.0, epochs=2, batch_size=16, lr_w_max=0.05, lr_r_max=0.2,
                           lr_r_min=0.01, ranking_interval=1000, log_interval=1000, probe_size=16)
        result = run_search(model, toy_problem(64, seed=0), toy_problem(32, seed=1), cfg)
        # the channels the search's final masks leave on
        active = {}
        for i, r in result.ratios.items():
            mask = build_mask(r, result.rankings[i])
            active[i] = active_channels(mask).tolist()
        lid = model.prunable_ids()[0]
        dropped = sorted(set(range(model.layer(lid).out_channels)) - set(active[lid]))
        assert dropped
        # a masked channel's stored weights come to outrank every kept one:
        # fresh rankings would keep it, the search's rankings do not
        victim = dropped[0]
        w = model.params[lid]["weight"].data
        w[victim] = np.abs(w).max() * 10.0
        assert victim in finalize_plan(model, result.ratios).entries[lid].kept_channel_ids
        plan = finalize_plan(model, result.ratios, result.rankings)
        for i, e in plan.entries.items():
            assert set(e.kept_channel_ids) <= set(active[i])
        x = np.random.default_rng(5).standard_normal((16, 1, 8, 8)).astype(np.float32)
        dense = logits_of(model, x, mask_vectors(model, plan))
        sliced = logits_of(export_pruned(model, plan), x)
        assert np.abs(dense - sliced).max() <= 1e-5

    def test_search_and_plan_report_one_fpr(self):
        model = small_model()
        cfg = SearchConfig(alpha=50.0, epochs=2, batch_size=16, lr_w_max=0.05, lr_r_max=0.2,
                           lr_r_min=0.01, ranking_interval=3, log_interval=1000, probe_size=16)
        result = run_search(model, toy_problem(64, seed=0), toy_problem(32, seed=1), cfg)
        assert result.fpr_exact > 0.0
        assert result.fpr_exact == finalize_plan(model, result.ratios, result.rankings).fpr


class TestExport:
    def test_widths_shrink_to_plan(self):
        model = small_model()
        ratios = {i: 0.5 for i in model.prunable_ids()}
        plan = finalize_plan(model, ratios)
        pruned = export_pruned(model, plan)
        for i, e in plan.entries.items():
            assert pruned.layer(i).out_channels == len(e.kept_channel_ids)

    @pytest.mark.parametrize(
        "name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 16, 16))]
    )
    def test_exported_flops_match_the_plan_per_layer(self, name, shape):
        model = build_model(name, 10, shape, rng=np.random.default_rng(0))
        ids = model.prunable_ids()
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            ratios = {i: float(rng.uniform(1.0 / model.layer(i).out_channels, 1.0)) for i in ids}
            plan = finalize_plan(model, ratios)
            pruned = export_pruned(model, plan)
            kept = {i: len(e.kept_channel_ids) for i, e in plan.entries.items()}
            assert exact_flops_by_layer(pruned) == exact_flops_by_layer(model, kept)
            assert plan.fpr == 1.0 - exact_model_flops(pruned) / exact_model_flops(model)

    def test_full_plan_reproduces_logits_bitwise(self):
        model = small_model()
        plan = finalize_plan(model, {i: 1.0 for i in model.prunable_ids()})
        pruned = export_pruned(model, plan)
        x = np.random.default_rng(1).standard_normal((5, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(logits_of(model, x), logits_of(pruned, x))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slice_equals_mask_eval_mode(self, seed):
        model = small_model(seed)
        rng = np.random.default_rng(100 + seed)
        ids = model.prunable_ids()
        ratios = {i: float(rng.uniform(0.3, 0.95)) for i in ids}
        plan = finalize_plan(model, ratios)
        pruned = export_pruned(model, plan)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        dense = logits_of(model, x, masks=mask_vectors(model, plan))
        sliced = logits_of(pruned, x)
        np.testing.assert_allclose(dense, sliced, rtol=1e-5, atol=1e-5)

    def test_slice_equals_mask_train_mode_stats(self):
        # batch statistics of surviving channels do not depend on the
        # masked channels, so the equivalence holds in train mode too
        model = small_model()
        rng = np.random.default_rng(7)
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()})
        pruned = export_pruned(model, plan)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        dense = logits_of(model, x, masks=mask_vectors(model, plan), mode="train")
        sliced = logits_of(pruned, x, mode="train")
        np.testing.assert_allclose(dense, sliced, rtol=1e-4, atol=1e-5)

    def test_resnet_export_respects_blocks(self):
        model = build_model("resnet-tiny", 10, (3, 16, 16), rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()})
        pruned = export_pruned(model, plan)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        dense = logits_of(model, x, masks=mask_vectors(model, plan))
        sliced = logits_of(pruned, x)
        np.testing.assert_allclose(dense, sliced, rtol=1e-5, atol=1e-5)
        for i, e in plan.entries.items():
            assert pruned.layer(i).out_channels == len(e.kept_channel_ids)

    def test_malformed_plans_rejected(self):
        model = small_model()
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()})

        def damaged(edit):
            d = plan.to_dict()
            edit(d["entries"], d["entries"][0]["kept_channel_ids"])  # layer 0 keeps 8 of 16
            return d

        ids_rule = "plan entry 0: layer 0 channel ids must be nonempty"
        for edit, message in [
            (lambda entries, ids: ids.reverse(), f"{ids_rule}, ascending"),
            (lambda entries, ids: ids.__setitem__(0, ids[1]), f"{ids_rule}, ascending, unique"),
            (lambda entries, ids: ids.__setitem__(-1, 16), rf"{ids_rule}, .* in \[0, 16\)"),
            (lambda entries, ids: ids.clear(), ids_rule),
            (lambda entries, ids: entries.pop(0), "plan names no entry for prunable conv 0"),
            (lambda entries, ids: entries.append(entries[0]), "plan entry 4: layer 0 is named more than once"),
            (lambda entries, ids: entries[0].update(layer_id=1), "plan entry 0: layer 1 is not a prunable conv"),
        ]:
            with pytest.raises(CheckpointError, match=f"plan.json: {message}"):
                PruningPlan.from_dict(damaged(edit), model, "plan.json")
        # with no stored count, one id fewer is a smaller plan with the FPR of its own widths
        smaller = PruningPlan.from_dict(damaged(lambda entries, ids: ids.pop()), model)
        assert smaller.fpr > plan.fpr
        assert smaller.fpr == 1.0 - exact_model_flops(export_pruned(model, smaller)) / exact_model_flops(model)

    def test_export_does_not_alias_source_arrays(self):
        model = small_model()
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()})
        pruned = export_pruned(model, plan)
        lid = model.prunable_ids()[0]
        before = pruned.params[lid]["weight"].data.copy()
        model.params[lid]["weight"].data[:] = 0
        assert np.array_equal(pruned.params[lid]["weight"].data, before)


class TestTrainer:
    def test_learns_the_toy_problem(self):
        model = small_model(seed=1)
        train = toy_problem(256, seed=0)
        val = toy_problem(64, seed=1)
        res = train_supervised(model, train, val, epochs=2, lr_max=0.05, lr_min=0.001,
                               batch_size=32, seed=0)
        assert not res.diverged
        assert res.best_val_accuracy > 0.9
        assert any("val_accuracy" in m for m in res.metrics)

    def test_returns_best_epoch_weights(self):
        from autoprune.model import evaluate

        model = small_model(seed=1)
        train = toy_problem(128, seed=0)
        val = toy_problem(64, seed=1)
        res = train_supervised(model, train, val, epochs=3, lr_max=0.05, lr_min=0.001,
                               batch_size=32, seed=0)
        assert evaluate(model, val.images, val.labels) == res.best_val_accuracy

    def test_restores_every_array_of_the_best_epoch(self, monkeypatch):
        import autoprune.pruner as pruner

        model = small_model(seed=1)
        seen = []

        def falling_accuracy(m, images, labels):
            # the first epoch scores best, so the trainer must roll back
            seen.append([a.copy() for _, _, a in m.arrays()])
            return 0.9 - 0.3 * len(seen)

        monkeypatch.setattr(pruner, "evaluate", falling_accuracy)
        res = train_supervised(model, toy_problem(64), toy_problem(32, seed=1), epochs=3,
                               lr_max=0.05, lr_min=0.001, batch_size=32, seed=0)
        assert res.best_val_accuracy == 0.9 - 0.3 and len(seen) == 3  # the first epoch's
        arrays = list(model.arrays())
        assert {role for _, role, _ in arrays} >= {"running_mean", "running_var"}
        for (lid, role, got), best, last in zip(arrays, seen[0], seen[-1]):
            assert np.array_equal(got, best), (lid, role)
            assert not np.array_equal(got, last), (lid, role)

    def test_a_parameter_array_held_from_before_holds_the_best_epoch(self, monkeypatch):
        import autoprune.pruner as pruner

        model = small_model(seed=1)
        held = [p.data for p in model.parameters()]
        seen = []

        def falling_accuracy(m, images, labels):
            seen.append([p.data.copy() for p in m.parameters()])
            return 0.9 - 0.3 * len(seen)

        monkeypatch.setattr(pruner, "evaluate", falling_accuracy)
        train_supervised(model, toy_problem(64), toy_problem(32, seed=1), epochs=3,
                         lr_max=0.05, lr_min=0.001, batch_size=32, seed=0)
        # the best epoch is written into the arrays, not swapped in for them
        for p, array, best, last in zip(model.parameters(), held, seen[0], seen[-1]):
            assert p.data is array
            assert np.array_equal(array, best) and not np.array_equal(array, last)

    @pytest.mark.parametrize("settings, message", [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"lr_max": -0.1, "lr_min": -0.2}, r"bad learning rate range \[lr_min, lr_max\] = \[-0.2, -0.1\]"),
        ({"lr_max": 0.01, "lr_min": 0.1}, r"bad learning rate range \[lr_min, lr_max\] = \[0.1, 0.01\]"),
        ({"epochs": -1}, "epochs must be nonnegative, got -1"),
        ({"lr_max": float("nan"), "lr_min": 0.0}, r"bad learning rate range \[lr_min, lr_max\] = \[0.0, nan\]"),
        ({"lr_max": float("inf"), "lr_min": float("inf")},
         r"bad learning rate range \[lr_min, lr_max\] = \[inf, inf\]"),
    ])
    def test_settings_wrong_on_their_face_are_refused(self, settings, message):
        model = small_model(seed=1)
        before = [p.data.copy() for p in model.parameters()]
        kwargs = {"epochs": 1, "lr_max": 0.1, "lr_min": 0.001, "batch_size": 16} | settings
        with pytest.raises(ValueError, match=message):
            train_supervised(model, toy_problem(32), toy_problem(16, seed=1), **kwargs)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    @pytest.mark.parametrize("empty", ("training", "validation"))
    def test_an_empty_set_is_refused_by_name(self, empty):
        sets = {"training": toy_problem(32), "validation": toy_problem(16, seed=1)}
        sets[empty] = toy_problem(0)
        with pytest.raises(ValueError, match=f"the {empty} set is empty"):
            train_supervised(small_model(seed=1), sets["training"], sets["validation"],
                             epochs=1, lr_max=0.1, lr_min=0.001)

    def test_zero_epochs_is_evaluate_only(self):
        model = small_model(seed=1)
        val = toy_problem(32, seed=1)
        res = train_supervised(model, toy_problem(32), val, epochs=0, lr_max=0.1, lr_min=0.001)
        assert res.metrics == []
        assert 0.0 <= res.best_val_accuracy <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_sets_the_flag(self):
        model = small_model(seed=1)
        head = next(l.id for l in model.layers if l.kind == "linear")
        model.params[head]["weight"].data[:] = np.nan
        res = train_supervised(model, toy_problem(32), toy_problem(16, seed=1),
                               epochs=2, lr_max=0.1, lr_min=0.001)
        assert res.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_stops_before_the_update(self):
        # relu maps the NaN pixels' conv output to zero: the loss is finite
        model = small_model(seed=1)
        before = [p.data.copy() for p in model.parameters()]
        train = toy_problem(32)
        train.images[:] = np.nan
        res = train_supervised(model, train, toy_problem(16, seed=1),
                               epochs=2, lr_max=0.1, lr_min=0.001)
        assert res.diverged
        assert res.metrics == []
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)


class TestCheckpoints:
    def test_roundtrip_is_bitwise(self, tmp_path):
        model = small_model(seed=4)
        # make running stats nontrivial first
        x = np.random.default_rng(0).standard_normal((16, 1, 8, 8)).astype(np.float32)
        with no_grad():
            forward(model, x, mode="train")
        manifest_path = save_checkpoint(model, tmp_path / "ck", extra={"note": "test"})
        assert manifest_path.name == "manifest.json"
        back, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest["note"] == "test"
        assert manifest["format_version"] == 2
        assert manifest["model"] == {"name": "cnn-small", "input_shape": [1, 8, 8], "num_classes": 10,
                                     "widths": {"0": 16, "4": 32, "8": 32, "11": 64}}
        for lid in model.params:
            for role in model.params[lid]:
                assert np.array_equal(back.params[lid][role].data, model.params[lid][role].data)
        for lid in model.bn_stats:
            assert np.array_equal(back.bn_stats[lid].mean, model.bn_stats[lid].mean)
            assert np.array_equal(back.bn_stats[lid].var, model.bn_stats[lid].var)
        xq = np.random.default_rng(1).standard_normal((3, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(logits_of(model, xq), logits_of(back, xq))

    def test_pruned_model_roundtrips(self, tmp_path):
        model = small_model(seed=4)
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()})
        pruned = export_pruned(model, plan)
        save_checkpoint(pruned, tmp_path / "ck", extra={"plan": plan.to_dict()})
        back, manifest = load_checkpoint(tmp_path / "ck")
        assert PruningPlan.from_dict(manifest["plan"], model) == plan
        x = np.random.default_rng(2).standard_normal((3, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(logits_of(pruned, x), logits_of(back, x))

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_checkpoint(tmp_path / "nope")
        model = small_model()
        save_checkpoint(model, tmp_path / "ck")
        victim = next((tmp_path / "ck").glob("layer*.f32"))
        victim.unlink()
        with pytest.raises(FileNotFoundError, match=victim.name):
            load_checkpoint(tmp_path / "ck")

    def test_truncated_array_raises(self, tmp_path):
        model = small_model()
        save_checkpoint(model, tmp_path / "ck")
        victim = next((tmp_path / "ck").glob("layer*.weight.f32"))
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="expected shape"):
            load_checkpoint(tmp_path / "ck")

    def test_manifest_with_an_array_list_and_mask_points_loads(self, tmp_path):
        # keys the loader does not read, such as the array list and mask
        # points of older manifests, are ignored
        model = small_model(seed=4)
        x = np.random.default_rng(0).standard_normal((16, 1, 8, 8)).astype(np.float32)
        with no_grad():
            forward(model, x, mode="train")
        path = save_checkpoint(model, tmp_path / "ck")
        manifest = json.loads(path.read_text())
        manifest["arrays"] = [
            {"file": f"layer{lid:03d}.{role}.f32", "layer": lid, "role": role, "shape": list(a.shape)}
            for lid, role, a in model.arrays()
        ]
        manifest["model"]["mask_points"] = {"0": 2, "4": 6, "8": 10, "11": 13}
        path.write_text(json.dumps(manifest))
        back, _ = load_checkpoint(tmp_path / "ck")
        assert back.mask_points == model.mask_points == {0: 2, 4: 6, 8: 10, 11: 13}
        for (lid, role, got), (_, _, want) in zip(back.arrays(), model.arrays(), strict=True):
            assert got.shape == want.shape and np.array_equal(got, want), (lid, role)
        xq = np.random.default_rng(1).standard_normal((3, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(logits_of(model, xq), logits_of(back, xq))

    @pytest.mark.parametrize("field, bad", [("model", [])])
    def test_bad_top_level_field_raises(self, tmp_path, field, bad):
        path = save_checkpoint(small_model(), tmp_path / "ck")
        manifest = json.loads(path.read_text())
        for value in (None, bad):
            if value is None:
                del manifest[field]
            else:
                manifest[field] = value
            path.write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError, match=f"manifest.json: field '{field}' is missing or not"):
                load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("version", [1, 3, "2", None, "deleted"])
    def test_other_format_version_is_refused(self, tmp_path, version):
        # a version-1 manifest stores the whole layer table and no `widths`
        path = save_checkpoint(small_model(), tmp_path / "ck")
        manifest = json.loads(path.read_text())
        if version == "deleted":
            del manifest["format_version"]
        else:
            manifest["format_version"] = version
        del manifest["model"]["widths"]
        path.write_text(json.dumps(manifest))
        shown = None if version == "deleted" else version
        with pytest.raises(CheckpointError, match=f"manifest.json: format_version is {shown!r}, not 2; "
                                                 "rerun the phase that wrote it"):
            load_checkpoint(tmp_path / "ck")

    def test_model_table_without_a_field_raises(self, tmp_path):
        path = save_checkpoint(small_model(), tmp_path / "ck")
        manifest = json.loads(path.read_text())
        del manifest["model"]["widths"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="manifest.json: model table field 'widths' "
                                                 "is missing or not an object"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("damage, message", [
        ("head of 11 classes", r"layer015.weight.f32: holds 640 floats, expected shape \(64, 11\)"),
        ("3 input channels", r"layer000.weight.f32: holds 144 floats, expected shape \(16, 3, 3, 3\)"),
        ("conv 4 at width 8", r"layer004.weight.f32: holds 4608 floats, expected shape \(8, 16, 3, 3\)"),
        ("conv 0 at width 17", r"manifest.json: model table widths field '0' is 17, not in \[1, 16\]"),
        ("conv 0 at width 0", r"manifest.json: model table widths field '0' is 0, not in \[1, 16\]"),
        ("a width for layer 1", r"manifest.json: model table field 'widths' names \['0', '11', '4', '8', "
                                r"'1'\], not the prunable convs \['0', '4', '8', '11'\] of 'cnn-small'"),
        ("block conv 6 for 3", r"manifest.json: model table field 'widths' names \['10', '19', '6'\], "
                               r"not the prunable convs \['3', '10', '19'\] of 'resnet-tiny'"),
        ("input 8x12", r"manifest.json: input must have at least one channel and square spatial dims "
                       r"divisible by 4, got \(1, 8, 12\)"),
        ("input 0x0", r"manifest.json: input must have .* got \(1, 0, 0\)"),
        ("one class", "manifest.json: need at least two classes, got 1"),
        ("name vgg", "manifest.json: unknown model 'vgg'"),
    ])
    def test_bad_model_record_raises(self, tmp_path, damage, message):
        # each record is checked against the builder, then each array file
        # against the shape the record implies
        model = build_model("resnet-tiny", 10, (3, 8, 8)) if damage.startswith("block") else small_model()
        path = save_checkpoint(model, tmp_path / "ck")
        manifest = json.loads(path.read_text())
        table = manifest["model"]
        widths = table["widths"]
        if damage == "head of 11 classes":
            table["num_classes"] = 11
        elif damage == "3 input channels":
            table["input_shape"][0] = 3
        elif damage.startswith("conv "):
            widths[damage.split()[1]] = int(damage.split()[-1])
        elif damage == "a width for layer 1":
            widths["1"] = 16
        elif damage.startswith("block"):
            widths["6"] = widths.pop("3")
        elif damage.startswith("input"):
            table["input_shape"][1:] = map(int, damage.split()[1].split("x"))
        elif damage == "one class":
            table["num_classes"] = 1
        else:
            table["name"] = "vgg"
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "ck")


def _leaves(node, path=()):
    """The path of keys and indices to every leaf of a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(v, path + (k,))
    else:
        yield path


_DELETE = object()
_MUTATIONS = {"deleted": _DELETE, "null": None, "x": "x", "-1": -1, "[]": [], "10**9": 10**9}


def _one_leaf_mutations(record, value, paths=None):
    """Copies of `record` with one leaf (or one node of `paths`) deleted
    (`_DELETE`) or set to `value`, each with the path of that leaf."""
    for path in _leaves(record) if paths is None else paths:
        copy = json.loads(json.dumps(record))
        *up, last = path
        parent = copy
        for k in up:
            parent = parent[k]
        if value is _DELETE:
            del parent[last]
        else:
            parent[last] = value
        yield path, copy


class TestOneLeafMutations:
    """Every one-leaf mutation of a saved record loads or is refused with
    the checkpoint's own errors, before any array is allocated from it:
    a mutated `10**9` width or input channel count allocated as asked
    would need hundreds of GiB."""

    @pytest.mark.parametrize("mutation", list(_MUTATIONS))
    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 8, 8))])
    def test_model_table(self, tmp_path, name, shape, mutation):
        path = save_checkpoint(build_model(name, 10, shape), tmp_path)
        manifest = json.loads(path.read_text())
        loaded = []
        for leaf, bad in _one_leaf_mutations(manifest, _MUTATIONS[mutation]):
            path.write_text(json.dumps(bad))
            try:
                load_checkpoint(tmp_path)
            except (CheckpointError, FileNotFoundError) as e:
                # a model record without one of its fields is refused by name
                if mutation == "deleted" and leaf[0] == "model":
                    assert "model table " in str(e), f"{name} manifest {leaf}: {e}"
            except Exception as e:  # any other escape is the failure
                pytest.fail(f"{name} manifest {leaf} {mutation}: {type(e).__name__}: {e}")
            else:
                loaded.append(leaf)
        # the package version is never read back
        assert loaded == [("package_version",)], loaded

    @pytest.mark.parametrize("mutation", ["null", "x", "[]", "a scalar for a list or an object"])
    @pytest.mark.parametrize("name, shape", [("cnn-small", (1, 8, 8)), ("resnet-tiny", (3, 8, 8))])
    def test_model_table_wrong_type_names_its_field(self, tmp_path, name, shape, mutation):
        path = save_checkpoint(build_model(name, 10, shape), tmp_path)
        manifest = json.loads(path.read_text())
        table = manifest["model"]
        if mutation.startswith("a scalar"):
            cases = _one_leaf_mutations(table, 3, [("input_shape",), ("widths",)])
        else:
            cases = _one_leaf_mutations(table, _MUTATIONS[mutation])
        named = 0
        for leaf, bad in cases:
            # each width is named in its record
            where, field = ("widths ", leaf[1]) if leaf[0] == "widths" and len(leaf) == 2 else ("", leaf[0])
            if mutation == "x" and field == "name":
                continue  # "x" is a string, the type this field takes
            path.write_text(json.dumps({**manifest, "model": bad}))
            with pytest.raises(CheckpointError, match=f"model table {where}field '{field}' is missing or not"):
                load_checkpoint(tmp_path)
            named += 1
        assert named >= 2

    @pytest.mark.parametrize("mutation", list(_MUTATIONS))
    def test_plan_record(self, mutation):
        model = small_model()
        plan = finalize_plan(model, {i: 0.5 for i in model.prunable_ids()}).to_dict()
        for leaf, record in _one_leaf_mutations(plan, _MUTATIONS[mutation]):
            try:
                PruningPlan.from_dict(record, model)
            except CheckpointError:
                pass
            except Exception as e:  # any other escape is the failure
                pytest.fail(f"plan {leaf} {mutation}: {type(e).__name__}: {e}")
