"""Command-line interface tests: config validation, overrides, each
subcommand's artifacts, exit codes, and rerun determinism.

The pipeline tests run on a small synthetic MNIST directory, so they
exercise wiring and determinism rather than accuracy.
"""

import argparse
import json

import pytest

from autoprune.cli import ConfigError, _bool, apply_overrides, load_config, main

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
        path = write_config(tmp_path, "[search]\nwat = 1\n")
        assert run_cli("describe", "--config", path) == 2
        assert "unknown config key" in capsys.readouterr().err

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
        assert set(result["ratios"]) == set(result["kept_counts"])
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
        plan = manifest["plan"]
        assert plan["flops_pruned"] <= plan["flops_full"]

    def test_report_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        report = out / "report"
        assert (report / "summary.csv").read_text().splitlines()[0] == \
            "model,method,top1,accuracy_drop,fpr"
        for name in ("accuracy.svg", "loss.svg", "ratios.svg", "fpr.svg"):
            assert (report / name).is_file(), name

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
