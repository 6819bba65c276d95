"""Command-line interface tests: config validation, overrides, each
subcommand's artifacts, exit codes, and rerun determinism.

The pipeline tests run on a small synthetic MNIST directory, so they
exercise wiring and determinism rather than accuracy.
"""

import argparse
import configparser
import json
import re
import shutil
from pathlib import Path

import pytest

from autoprune.cli import DEFAULTS, ConfigError, _bool, apply_overrides, load_config, main
from autoprune.model import exact_model_flops
from autoprune.pruner import load_checkpoint

SMALL_CONFIG = """
[run]
validation_fraction = 0.2

[pretrain]
epochs = 1
batch_size = 32
lr_max = 0.05

[search]
epochs = 1
batch_size = 32
log_interval = 1
probe_size = 24
ranking_interval = 2

[finetune]
epochs = 1
batch_size = 32
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    p = tmp_path / "settings.ini"
    p.write_text(text)
    return str(p)


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["run"]["model"] == "cnn-small"
        assert cfg["search"]["alpha"] == 0.5
        assert cfg["finetune"]["epochs"] == 10

    def test_file_overrides_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["pretrain"]["epochs"] == 1
        assert cfg["pretrain"]["lr_max"] == 0.05
        assert cfg["run"]["validation_fraction"] == 0.2
        # untouched keys keep their defaults
        assert cfg["search"]["alpha"] == 0.5

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[search]\nalpha_decay = 0.9\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "[search]\nepochs = three\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/settings.ini")

    def test_ini_spelling_out_every_default_loads_to_the_defaults(self, tmp_path):
        text = "".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for section, keys in DEFAULTS.items()
        )
        cfg = load_config(write_config(tmp_path, text))
        assert cfg == DEFAULTS
        assert {s: {k: type(v) for k, v in keys.items()} for s, keys in cfg.items()} == \
            {s: {k: type(v) for k, v in keys.items()} for s, keys in DEFAULTS.items()}

    def test_readme_example_spells_out_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert load_config(write_config(tmp_path, text)) == DEFAULTS
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert set(parser["search"]) == set(DEFAULTS["search"])

    def test_bool_values(self):
        for text, want in (("yes", True), ("ON", True), ("1", True),
                           ("no", False), ("Off", False), ("0", False)):
            assert _bool(text) is want
        with pytest.raises(ConfigError):
            _bool("maybe")

    def test_epochs_override_routes_by_command(self):
        for command, section in (("pretrain", "pretrain"), ("search", "search"),
                                 ("prune", "finetune")):
            args = argparse.Namespace(command=command, model=None, data_dir=None,
                                      seed=None, out=None, epochs=7)
            cfg = apply_overrides(load_config(None), args)
            assert cfg[section]["epochs"] == 7

    def test_search_knob_overrides(self):
        args = argparse.Namespace(command="search", model=None, data_dir=None,
                                  seed=None, out=None, epochs=None, alpha=2.5, beta=0.7)
        cfg = apply_overrides(load_config(None), args)
        assert cfg["search"]["alpha"] == 2.5
        assert cfg["search"]["beta"] == 0.7


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path, capsys):
        # knobs removed from SearchConfig are unknown keys like any other
        for line in ("wat = 1", "inner_steps_per_outer = 2", "convergence_tol = 0.01"):
            path = write_config(tmp_path, f"[search]\n{line}\n")
            assert run_cli("describe", "--config", path) == 2, line
            assert "unknown config key" in capsys.readouterr().err, line

    @pytest.mark.parametrize("line, message", [
        ("alpha = -1", "alpha must be nonnegative, got -1.0"),
        ("log_interval = 0", "log_interval must be >= 1, got 0"),
        ("probe_size = 0", "probe_size must be >= 1, got 0"),
        ("probe_size = -3", "probe_size must be >= 1, got -3"),
    ])
    def test_bad_search_value_is_2_before_any_file_is_read(self, tmp_path, capsys, line, message):
        # no baseline and no data: the config is refused first
        path = write_config(tmp_path, f"[search]\n{line}\n")
        assert run_cli("search", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: bad [search] setting: {message}\n"

    def test_missing_data_dir_is_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AUTOPRUNE_DATA_DIR", raising=False)
        assert run_cli("pretrain", "--out", str(tmp_path / "out")) == 2
        assert "data directory" in capsys.readouterr().err

    def test_search_without_baseline_is_2(self, tmp_path, synthetic_mnist_dir, capsys):
        code = run_cli("search", "--data-dir", str(synthetic_mnist_dir),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_prune_without_search_is_2(self, tmp_path, synthetic_mnist_dir, capsys):
        code = run_cli("prune", "--data-dir", str(synthetic_mnist_dir),
                       "--out", str(tmp_path / "out"))
        assert code == 2

    def test_report_without_baseline_is_2(self, tmp_path, capsys):
        assert run_cli("report", "--out", str(tmp_path / "out")) == 2

    def test_bad_model_name_is_1(self, tmp_path, synthetic_mnist_dir, capsys):
        code = run_cli("pretrain", "--model", "vgg-99",
                       "--data-dir", str(synthetic_mnist_dir),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "unknown model" in capsys.readouterr().err


class TestDescribe:
    def test_prints_architecture(self, capsys):
        assert run_cli("describe") == 0
        out = capsys.readouterr().out
        assert "cnn-small" in out
        assert "conv" in out and "linear" in out
        assert "total flops: 4742912" in out

    def test_resnet_variant(self, capsys):
        assert run_cli("describe", "--model", "resnet-tiny") == 0
        out = capsys.readouterr().out
        assert "resnet-tiny" in out
        assert "add" in out


@pytest.fixture(scope="class")
def seed0_baseline(tmp_path_factory, synthetic_mnist_dir):
    """A seed-0 cnn-small baseline and search, and the options that made them."""
    root = tmp_path_factory.mktemp("upstream")
    common = ["--config", write_config(root), "--data-dir", str(synthetic_mnist_dir),
              "--out", str(root / "run")]
    assert main(["pretrain", *common, "--seed", "0"]) == 0
    assert main(["search", *common, "--seed", "0"]) == 0
    return common


class TestForeignUpstream:
    def test_search_refuses_another_seed(self, seed0_baseline, capsys):
        assert main(["search", *seed0_baseline, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "its seed is 0, this run's is 1" in err

    def test_search_refuses_another_model(self, seed0_baseline, capsys):
        assert main(["search", *seed0_baseline, "--seed", "0", "--model", "resnet-tiny"]) == 2
        assert "its run.model is 'cnn-small', this run's is 'resnet-tiny'" in capsys.readouterr().err

    def test_prune_refuses_another_seed(self, seed0_baseline, capsys):
        assert main(["prune", *seed0_baseline, "--seed", "1"]) == 2
        assert "its seed is 0, this run's is 1" in capsys.readouterr().err

    def test_search_refuses_other_data(self, seed0_baseline, tmp_path, synthetic_mnist_dir, capsys):
        other = tmp_path / "mnist"
        other.mkdir()
        for f in synthetic_mnist_dir.iterdir():
            other.joinpath(f.name).write_bytes(f.read_bytes())
        labels = other / "train-labels-idx1-ubyte"
        raw = bytearray(labels.read_bytes())
        raw[-1] = (raw[-1] + 1) % 10
        labels.write_bytes(bytes(raw))
        args = list(seed0_baseline)
        args[args.index("--data-dir") + 1] = str(other)
        assert main(["search", *args, "--seed", "0"]) == 2
        assert "its dataset_checksums is" in capsys.readouterr().err

    def test_report_refuses_another_seed(self, seed0_baseline, capsys):
        assert main(["report", *seed0_baseline, "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "its seed is 0, this run's is 5" in err


class TestBadCheckpoint:
    def test_truncated_baseline_array_is_2(self, seed0_baseline, tmp_path, capsys):
        args = list(seed0_baseline)
        out = args.index("--out") + 1
        run = tmp_path / "run"
        shutil.copytree(args[out], run)
        args[out] = str(run)
        weight = run / "baseline" / "layer000.weight.f32"
        weight.write_bytes(weight.read_bytes()[:-8])
        assert main(["search", *args, "--seed", "0"]) == 2
        assert "holds 142 floats, expected shape (16, 1, 3, 3)" in capsys.readouterr().err


    @pytest.mark.parametrize("field", ["model", "shape"])
    def test_manifest_without_a_field_is_2(self, seed0_baseline, tmp_path, capsys, field):
        args = list(seed0_baseline)
        out = args.index("--out") + 1
        run = tmp_path / "run"
        shutil.copytree(args[out], run)
        args[out] = str(run)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        del (manifest if field == "model" else manifest["arrays"][0])[field]
        path.write_text(json.dumps(manifest))
        assert main(["search", *args, "--seed", "0"]) == 2
        assert f"field '{field}' is missing" in capsys.readouterr().err


@pytest.fixture(scope="class")
def pipeline_run(tmp_path_factory, synthetic_mnist_dir):
    """One full pretrain/search/prune/report pass, shared by the checks."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "run"
    cfg = write_config(root)
    common = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir),
              "--out", str(out), "--seed", "3"]
    codes = [
        main(["pretrain", *common]),
        main(["search", *common]),
        main(["prune", *common]),
        main(["report", *common]),
    ]
    return out, codes, cfg


@pytest.mark.usefixtures("synthetic_mnist_dir")
class TestPipeline:
    def test_all_phases_succeed(self, pipeline_run):
        _, codes, _ = pipeline_run
        assert codes == [0, 0, 0, 0]

    def test_baseline_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        manifest = json.loads((out / "baseline" / "manifest.json").read_text())
        assert manifest["phase"] == "pretrain"
        assert 0.0 <= manifest["top1"] <= 1.0
        assert manifest["seed"] == 3
        assert (out / "baseline" / "metrics.csv").is_file()
        assert list((out / "baseline").glob("layer*.f32"))

    def test_search_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        result = json.loads((out / "search" / "result.json").read_text())
        # the plan is the one record of kept channels
        assert set(result["ratios"]) == {str(e["layer_id"]) for e in result["plan"]["entries"]}
        assert "kept_counts" not in result and "active_channels" not in result
        assert result["iterations"] > 0
        assert "plan" in result
        traj = (out / "search" / "trajectory.csv").read_text().splitlines()
        assert traj[0].startswith("iteration,")
        assert len(traj) >= 2
        assert (out / "search" / "diagnostics.csv").is_file()

    def test_prune_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        manifest = json.loads((out / "pruned" / "manifest.json").read_text())
        assert manifest["phase"] == "prune"
        assert 0.0 <= manifest["fpr"] < 1.0
        assert manifest["accuracy_drop"] == pytest.approx(
            manifest["baseline_top1"] - manifest["top1"]
        )
        # the plan is the kept ids, one entry per prunable conv; FPR comes from the models
        dense, _ = load_checkpoint(out / "search")
        pruned, _ = load_checkpoint(out / "pruned")
        entries = manifest["plan"]["entries"]
        assert list(manifest["plan"]) == ["entries"]
        assert [sorted(e) for e in entries] == [["kept_channel_ids", "layer_id"]] * len(entries)
        assert [e["layer_id"] for e in entries] == dense.prunable_ids()
        for e in entries:
            assert pruned.layer(e["layer_id"]).out_channels == len(e["kept_channel_ids"])
        assert manifest["fpr"] == 1.0 - exact_model_flops(pruned) / exact_model_flops(dense)

    def test_report_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        report = out / "report"
        assert (report / "summary.csv").read_text().splitlines()[0] == \
            "model,method,top1,accuracy_drop,fpr"
        for name in ("accuracy.svg", "loss.svg", "ratios.svg", "fpr.svg"):
            assert (report / name).is_file(), name

    @pytest.mark.parametrize("damage, message", [
        ("truncate", "line 1 column"),
        ("drop plan", "field 'plan' is missing or not an object"),
        ("drop ids", "plan entry 0: field 'kept_channel_ids' is missing or not a list of integers"),
        ("drop entry 0", "plan names no entry for prunable conv 0"),
        ("layer -1", "plan entry 0: layer -1 is not a prunable conv"),
        ("layer 1e9", "plan entry 0: layer 1000000000 is not a prunable conv"),
        ("layer 1", "plan entry 0: layer 1 is not a prunable conv"),
        ("repeat entry 0", "plan entry 4: layer 0 is named more than once"),
        ("reverse ids", "plan entry 0: layer 0 channel ids must be nonempty, ascending, unique"),
        ("empty ids", "plan entry 0: layer 0 channel ids must be nonempty"),
        ("id 16", "plan entry 0: layer 0 channel ids must be nonempty, ascending, unique and in [0, 16)"),
    ])
    def test_malformed_search_result_is_2(self, pipeline_run, synthetic_mnist_dir, tmp_path,
                                          capsys, damage, message):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "search" / "result.json"
        text = path.read_text()
        result = json.loads(text)
        entries = result["plan"]["entries"]
        ids = entries[0]["kept_channel_ids"]
        if damage == "truncate":
            text = text[: len(text) // 2].replace("\n", " ")
        elif damage == "drop plan":
            del result["plan"]
        elif damage == "drop ids":
            del entries[0]["kept_channel_ids"]
        elif damage == "drop entry 0":
            del entries[0]
        elif damage.startswith("layer "):
            entries[0]["layer_id"] = int(float(damage.split()[1]))
        elif damage == "repeat entry 0":
            entries.append(entries[0])
        elif damage == "reverse ids":
            entries[0]["kept_channel_ids"] = [ids[-1], ids[0]]
        elif damage == "empty ids":
            ids.clear()
        else:
            ids[-1] = 16
        path.write_text(text if damage == "truncate" else json.dumps(result))
        assert main(["prune", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize("phase, damage, message", [
        ("report", "drop top1", "field 'top1' is missing or not a number"),
        ("report", "not an object", "field 'config' is missing or not an object"),
        ("prune", "drop top1", "field 'top1' is missing or not a number"),
    ])
    def test_malformed_manifest_is_2(self, pipeline_run, synthetic_mnist_dir, tmp_path,
                                     capsys, phase, damage, message):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        # report reads the pruned manifest, prune the baseline's
        path = run / ("pruned" if phase == "report" else "baseline") / "manifest.json"
        manifest = json.loads(path.read_text())
        if damage == "drop top1":
            del manifest["top1"]
        else:
            manifest = [1, 2]
        path.write_text(json.dumps(manifest))
        assert main([phase, "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err, err

    def test_rerun_is_byte_identical(self, pipeline_run, synthetic_mnist_dir,
                                     tmp_path_factory):
        out, _, cfg = pipeline_run
        out2 = tmp_path_factory.mktemp("pipeline-again") / "run"
        common = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                  "--out", str(out2), "--seed", "3"]
        assert main(["pretrain", *common]) == 0
        assert main(["search", *common]) == 0
        for rel in ("baseline/metrics.csv", "search/trajectory.csv",
                    "search/result.json"):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_different_seed_changes_the_run(self, pipeline_run, synthetic_mnist_dir,
                                            tmp_path_factory):
        out, _, cfg = pipeline_run
        out2 = tmp_path_factory.mktemp("pipeline-seed") / "run"
        common = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                  "--out", str(out2), "--seed", "4"]
        assert main(["pretrain", *common]) == 0
        a = (out / "baseline" / "metrics.csv").read_bytes()
        b = (out2 / "baseline" / "metrics.csv").read_bytes()
        assert a != b
