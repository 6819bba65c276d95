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
    finetune,
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
    return Dataset(images, labels, "train", np.zeros(1, np.float32), np.ones(1, np.float32), {})


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
            mask = build_mask(r, model.layer(i).out_channels, result.rankings[i])
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
        assert res.seconds > 0
        assert any("val_accuracy" in m for m in res.metrics)

    def test_returns_best_epoch_weights(self):
        from autoprune.model import evaluate

        model = small_model(seed=1)
        train = toy_problem(128, seed=0)
        val = toy_problem(64, seed=1)
        res = train_supervised(model, train, val, epochs=3, lr_max=0.05, lr_min=0.001,
                               batch_size=32, seed=0)
        assert evaluate(model, val.images, val.labels) == res.best_val_accuracy
        assert 0 <= res.best_epoch < 3

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
        assert res.best_epoch == 0 and len(seen) == 3
        arrays = list(model.arrays())
        assert {role for _, role, _ in arrays} >= {"running_mean", "running_var"}
        for (lid, role, got), best, last in zip(arrays, seen[0], seen[-1]):
            assert np.array_equal(got, best), (lid, role)
            assert not np.array_equal(got, last), (lid, role)

    def test_zero_epochs_is_evaluate_only(self):
        model = small_model(seed=1)
        val = toy_problem(32, seed=1)
        res = train_supervised(model, toy_problem(32), val, epochs=0, lr_max=0.1, lr_min=0.001)
        assert res.metrics == []
        assert res.epochs_run == 0
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

    def test_finetune_reports_test_top1(self):
        model = small_model(seed=1)
        test = toy_problem(32, seed=2)
        res = finetune(model, toy_problem(64), toy_problem(32, seed=1),
                       epochs=1, batch_size=32, test=test)
        assert res.test_top1 is not None
        assert 0.0 <= res.test_top1 <= 1.0


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
        assert manifest["flops_total"] == exact_model_flops(model)
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

    @staticmethod
    def edit_manifest(directory, edit):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["arrays"] = edit(manifest["arrays"])
        path.write_text(json.dumps(manifest))

    def test_missing_entry_raises(self, tmp_path):
        save_checkpoint(small_model(), tmp_path / "ck")
        gone = {(15, "weight"), (12, "running_var")}  # the head and a bn statistic
        self.edit_manifest(
            tmp_path / "ck", lambda arrays: [e for e in arrays if (e["layer"], e["role"]) not in gone]
        )
        with pytest.raises(ValueError, match=r"manifest.json: no array for layer 12 running_var, "
                                             r"expected shape \(64,\)"):
            load_checkpoint(tmp_path / "ck")

    def test_duplicate_entry_raises(self, tmp_path):
        save_checkpoint(small_model(), tmp_path / "ck")
        self.edit_manifest(tmp_path / "ck", lambda arrays: arrays + [dict(arrays[0])])
        with pytest.raises(ValueError, match=r"layer000.weight.f32: layer 0 weight is listed more"):
            load_checkpoint(tmp_path / "ck")

    def test_same_size_wrong_shape_raises(self, tmp_path):
        save_checkpoint(small_model(), tmp_path / "ck")

        def reverse_conv0(arrays):
            for e in arrays:
                if (e["layer"], e["role"]) == (0, "weight"):
                    e["shape"] = e["shape"][::-1]
            return arrays

        self.edit_manifest(tmp_path / "ck", reverse_conv0)
        with pytest.raises(ValueError, match=r"layer 0 weight has shape \(3, 3, 1, 16\), "
                                             r"expected shape \(16, 1, 3, 3\)"):
            load_checkpoint(tmp_path / "ck")

    def test_channel_width_mismatch_fails_at_load(self, tmp_path):
        # conv 4 claims 8 input channels behind a 16-channel pool, with a
        # weight of that shape: every array matches the table, the graph not
        directory = tmp_path / "ck"
        save_checkpoint(small_model(), directory)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        next(l for l in manifest["model"]["layers"] if l["id"] == 4)["in_channels"] = 8
        entry = next(e for e in manifest["arrays"] if (e["layer"], e["role"]) == (4, "weight"))
        entry["shape"] = [32, 8, 3, 3]
        weight = directory / entry["file"]
        weight.write_bytes(weight.read_bytes()[: 32 * 8 * 9 * 4])
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=r"layer 4 \(conv\) takes 8 input channels, "
                                                  r"but layer 3 gives it 16"):
            load_checkpoint(directory)

    @pytest.mark.parametrize("field, bad", [("model", []), ("arrays", {})])
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

    @pytest.mark.parametrize("field, bad", [("file", 7), ("layer", "4"), ("layer", True),
                                            ("role", None), ("shape", [32, "16", 3, 3])])
    def test_bad_array_field_raises(self, tmp_path, field, bad):
        for missing in (True, False):
            save_checkpoint(small_model(), tmp_path / "ck")

            def edit(arrays):
                if missing:
                    del arrays[3][field]
                else:
                    arrays[3][field] = bad
                return arrays

            self.edit_manifest(tmp_path / "ck", edit)
            with pytest.raises(CheckpointError, match=f"manifest.json: array entry 3: field '{field}' "
                                                      f"is missing or not"):
                load_checkpoint(tmp_path / "ck")

    def test_model_table_without_a_field_raises(self, tmp_path):
        path = save_checkpoint(small_model(), tmp_path / "ck")
        manifest = json.loads(path.read_text())
        del manifest["model"]["layers"][2]["kernel"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="manifest.json: model table has no field 'kernel'"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("damage, message", [
        ("conv stride 0", "layer 0 \\(conv\\) needs a kernel and stride of at least 1"),
        ("conv stride -1", "layer 0 \\(conv\\) needs a kernel and stride of at least 1"),
        ("conv padding -1", "and a nonnegative padding, got kernel \\(3, 3\\), stride 1, padding -1"),
        ("pool kernel 0", "layer 3 \\(pool\\) needs a kernel and stride of at least 1"),
        ("mask points a list", "model table field 'mask_points' is not an object"),
        ("preds a list", "model table field 'preds' is not an object"),
        ("mask point a list", "must map each prunable conv to the relu after its bn"),
        ("mask point dropped", "must map each prunable conv to the relu after its bn"),
        ("mask point at the bn", "must map each prunable conv to the relu after its bn"),
        ("mask point for a bn", "must map each prunable conv to the relu after its bn"),
    ])
    def test_bad_model_table_raises(self, tmp_path, damage, message):
        path = save_checkpoint(small_model(), tmp_path / "ck")
        manifest = json.loads(path.read_text())
        table = manifest["model"]
        layers, points = table["layers"], table["mask_points"]  # conv 0 -> bn 1 -> relu 2 -> pool 3
        if damage.startswith("conv "):
            key, value = damage.split()[1:]
            layers[0][key] = int(value)
        elif damage == "pool kernel 0":
            layers[3]["kernel"] = [0, 0]
        elif damage == "mask points a list":
            table["mask_points"] = []
        elif damage == "preds a list":
            table["preds"] = []
        elif damage == "mask point a list":
            points["0"] = [2]
        elif damage == "mask point dropped":
            del points["0"]
        elif damage == "mask point at the bn":
            points["0"] = 1
        else:
            points["1"] = 2
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"manifest.json: .*{message}"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("layer, role", [(2, "weight"), (99, "weight"), (0, "bias")])
    def test_unknown_entry_raises(self, tmp_path, layer, role):
        save_checkpoint(small_model(), tmp_path / "ck")
        extra = {"file": "layer000.weight.f32", "layer": layer, "role": role, "shape": [16, 1, 3, 3]}
        self.edit_manifest(tmp_path / "ck", lambda arrays: arrays + [extra])
        with pytest.raises(ValueError, match=f"layer {layer} {role} is not an array of model"):
            load_checkpoint(tmp_path / "ck")
