"""Command-line interface tests: config validation, overrides, each
subcommand's artifacts, exit codes, and rerun determinism.

The pipeline tests run on a small synthetic MNIST directory, so they
exercise wiring and determinism rather than accuracy.
"""

import argparse
import configparser
import csv
import inspect
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from autoprune import cli
from autoprune.cli import DEFAULTS, ConfigError, _bool, apply_overrides, load_config, main
from autoprune.data import load_mnist
from autoprune.model import evaluate, exact_model_flops
from autoprune.pruner import _array_file, load_checkpoint, train_supervised
from test_data import make_mnist_dir, write_idx
from test_pruner import _MUTATIONS, _leaves, _one_leaf_mutations

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
        # [run]'s data_dir and out_dir are paths, set by flag
        for section in ("pretrain", "search", "finetune"):
            assert set(parser[section]) == set(DEFAULTS[section]), section

    def test_training_keys_are_train_supervised_parameters(self):
        # both training phases pass their section as keywords; [run] sets the seed
        params = set(inspect.signature(train_supervised).parameters) - {"model", "train", "val", "seed"}
        for section in ("pretrain", "finetune"):
            assert set(DEFAULTS[section]) <= params, section

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

    def test_out_dir_tilde_expands_once_after_the_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        path = write_config(tmp_path, "[run]\nout_dir = ~/runs/x\n")
        for out, want in ((None, tmp_path / "runs" / "x"), ("~/flag", tmp_path / "flag")):
            args = argparse.Namespace(command="describe", model=None, data_dir=None,
                                      seed=None, out=out)
            assert apply_overrides(load_config(path), args)["run"]["out_dir"] == str(want)

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
        ("alpha = nan", "alpha must be finite, got nan"),
        ("beta = inf", "beta must be finite, got inf"),
        ("cosine_period_epochs = nan", "cosine_period_epochs must be finite, got nan"),
    ])
    def test_bad_search_value_is_2_before_any_file_is_read(self, tmp_path, capsys, line, message):
        # no baseline and no data: the config is refused first
        path = write_config(tmp_path, f"[search]\n{line}\n")
        assert run_cli("search", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: bad [search] setting: {message}\n"

    @pytest.mark.parametrize("text, message", [
        (b"alpha = 1\n", "File contains no section headers."),
        (b"[search]\nalpha = 1\nalpha = 2\n", "option 'alpha' in section 'search' already exists"),
        (b"[search]\nalpha = 1\n[search]\nbeta = 1\n", "section 'search' already exists"),
        (b"[search]\nalpha = 1\xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"[run]\ndata_dir = /data/100%\n", "'%' must be followed by '%' or '('"),
    ], ids=["no_section_header", "duplicate_key", "duplicate_section", "not_utf8", "bare_percent"])
    def test_malformed_config_file_is_2_naming_it(self, tmp_path, capsys, text, message):
        path = tmp_path / "settings.ini"
        path.write_bytes(text)
        assert run_cli("describe", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config file {path}: ") and err.count("\n") == 1, err
        assert message in err

    @pytest.mark.parametrize("split, name", [("train", "train-images-idx3-ubyte"),
                                             ("test", "t10k-images-idx3-ubyte")])
    def test_empty_mnist_split_is_2_before_training(self, tmp_path, capsys, split, name):
        data = make_mnist_dir(tmp_path, **{f"n_{split}": 0})
        out = tmp_path / "out"
        assert run_cli("pretrain", "--data-dir", str(data), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {data / name}: holds no images\n"
        assert not (out / "baseline").exists()

    @pytest.mark.parametrize("name, n", [("train-images-idx3-ubyte", 40), ("t10k-images-idx3-ubyte", 12)])
    def test_mnist_images_not_28x28_are_2_before_training(self, tmp_path, capsys, name, n):
        # the MNIST models take 1x28x28 inputs; a 32x32 test split used to
        # fail only after the whole training budget had run
        data = make_mnist_dir(tmp_path)
        write_idx(data / name, np.zeros((n, 32, 32), dtype=np.uint8))
        out = tmp_path / "out"
        assert run_cli("pretrain", "--data-dir", str(data), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {data / name}: images are 32x32, not 28x28\n"
        assert not (out / "baseline").exists()

    @pytest.mark.parametrize("dims, payload, message", [
        ((-600, -28, 28), 600 * 28 * 28, "negative dimension in header (-600, -28, 28)"),
        ((2**30, 2**30, 16), 0, f"expected {2**64} bytes of payload, found 0"),
    ])
    def test_mnist_header_dims_that_do_not_fit_are_2_naming_the_file(self, tmp_path, capsys, dims,
                                                                     payload, message):
        # both used to exit 1 with a numpy reshape error that named no file
        data = make_mnist_dir(tmp_path)
        path = data / "t10k-images-idx3-ubyte"
        path.write_bytes(struct.pack(">4i", 0x803, *dims) + bytes(payload))
        out = tmp_path / "out"
        assert run_cli("pretrain", "--data-dir", str(data), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (out / "baseline").exists()

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_fraction_leaving_an_empty_split_is_2_naming_the_setting_and_the_data(
        self, tmp_path, capsys, fraction
    ):
        # valid on its face, but 10 images give 0 (or 10) validation images
        data = make_mnist_dir(tmp_path, n_train=10)
        path = write_config(tmp_path, f"[run]\nvalidation_fraction = {fraction}\n")
        out = tmp_path / "out"
        assert run_cli("pretrain", "--config", path, "--data-dir", str(data), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: bad [run] validation_fraction for the data in {data}: "
            f"fraction {fraction} leaves an empty split for 10 examples\n"
        )
        assert not (out / "baseline").exists()

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

    @pytest.mark.parametrize("command, text, flags, message", [
        ("pretrain", "[pretrain]\nbatch_size = 0", [], "[pretrain] setting: batch_size must be >= 1, got 0"),
        ("pretrain", "[pretrain]\nlr_max = -0.1\nlr_min = -0.2", [],
         "[pretrain] setting: bad learning rate range [lr_min, lr_max] = [-0.2, -0.1]"),
        ("pretrain", "[pretrain]\nepochs = -1", [], "[pretrain] setting: epochs must be nonnegative, got -1"),
        ("prune", "[finetune]\nlr_max = 0.01\nlr_min = 0.1", [],
         "[finetune] setting: bad learning rate range [lr_min, lr_max] = [0.1, 0.01]"),
        ("pretrain", "[run]\nvalidation_fraction = 1.5", [],
         "[run] setting: validation_fraction must be in (0, 1), got 1.5"),
        ("pretrain", "", ["--model", "foo"],
         "[run] setting: unknown model 'foo'; expected 'cnn-small' or 'resnet-tiny'"),
        ("search", "[run]\ndataset = foo", [], "[run] setting: unknown dataset 'foo'; expected mnist or cifar10"),
        ("pretrain", "[pretrain]\nlr_max = nan", [],
         "[pretrain] setting: bad learning rate range [lr_min, lr_max] = [0.001, nan]"),
        ("prune", "[finetune]\nlr_min = inf\nlr_max = inf", [],
         "[finetune] setting: bad learning rate range [lr_min, lr_max] = [inf, inf]"),
    ], ids=["pretrain.batch_size", "pretrain.lr_below_zero", "pretrain.epochs", "finetune.lr_min_above_lr_max",
            "run.validation_fraction", "run.model", "run.dataset", "pretrain.lr_max_nan", "finetune.lr_inf"])
    def test_bad_setting_is_2_before_any_file_is_read(self, tmp_path, capsys, command, text, flags, message):
        # the data directory does not exist, so a message naming the
        # setting shows that nothing was read before it was refused
        path = write_config(tmp_path, text)
        code = run_cli(command, "--config", path, *flags,
                       "--data-dir", str(tmp_path / "no-data"), "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: bad {message}\n"

    @pytest.mark.parametrize("command", ["pretrain", "search", "prune", "report"])
    @pytest.mark.parametrize("below", ["", "run", "run/deeper"], ids=["the_file", "under", "two_under"])
    def test_out_dir_at_or_under_a_regular_file_is_2_before_any_file_is_read(
        self, tmp_path, capsys, command, below
    ):
        # the data directory does not exist, so the message naming out_dir
        # shows that no data was read, let alone a step run, before it
        blocker = tmp_path / "taken"
        blocker.write_text("a regular file\n")
        out = blocker / below
        code = run_cli(command, "--data-dir", str(tmp_path / "no-data"), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad [run] setting: out_dir {str(out)!r} cannot be a directory: {blocker} is a file\n"
        )
        assert blocker.read_text() == "a regular file\n"


class TestReadme:
    def test_the_ini_block_shows_the_defaults_and_every_search_key(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        shown = configparser.ConfigParser(inline_comment_prefixes=(";",))
        shown.read_string(block)
        cfg = load_config(write_config(tmp_path, block))
        for section in shown.sections():
            for key in shown[section]:
                assert cfg[section][key] == DEFAULTS[section][key], f"{section}.{key}"
        assert set(shown["search"]) == set(DEFAULTS["search"])


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

    def test_search_refuses_another_input_shape(self, seed0_baseline, tmp_path, capsys):
        # the array files fit any square side divisible by 4, the run's data only 28x28
        args, run = _copied_run(seed0_baseline, tmp_path)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["model"]["input_shape"] = [1, 32, 32]
        path.write_text(json.dumps(manifest))
        assert main(["search", *args, "--seed", "0"]) == 2
        assert capsys.readouterr().err == (f"error: {path} is from another run: its model.input_shape "
                                           "is [1, 32, 32], this run's is [1, 28, 28]\n")

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

    def test_prune_takes_its_plan_only_from_this_runs_search(self, seed0_baseline, tmp_path, capsys):
        # a plan's kept ids were ranked from one search's weights, so they
        # must never slice another run's
        args, run = _copied_run(seed0_baseline, tmp_path)
        seed0 = tmp_path / "seed0-search"
        shutil.copytree(run / "search", seed0)
        assert main(["pretrain", *args, "--seed", "1"]) == 0
        capsys.readouterr()
        # seed 0's search beside a seed-1 baseline is refused
        assert main(["prune", *args, "--seed", "1"]) == 2
        assert capsys.readouterr().err == (f"error: {run / 'search' / 'manifest.json'} is from "
                                           "another run: its seed is 0, this run's is 1\n")
        assert not (run / "pruned").exists()
        # seed 1's own search, with seed 0's other search files dropped in beside
        # it, prunes by seed 1's plan
        assert main(["search", *args, "--seed", "1"]) == 0
        for f in seed0.iterdir():
            if f.name != "manifest.json" and f.suffix != ".f32":
                shutil.copy(f, run / "search")
        assert main(["prune", *args, "--seed", "1", "--epochs", "0"]) == 0
        search, pruned, other = (json.loads((d / "manifest.json").read_text())["plan"]
                                 for d in (run / "search", run / "pruned", seed0))
        assert pruned == search != other

    def test_report_refuses_another_seed(self, seed0_baseline, capsys):
        assert main(["report", *seed0_baseline, "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert "baseline" in err and "its seed is 0, this run's is 5" in err


class TestFlooredSearch:
    def test_a_search_that_floors_every_ratio_warns_and_the_report_names_the_layers(
            self, seed0_baseline, tmp_path, capsys):
        args, run = _copied_run(seed0_baseline, tmp_path)
        assert main(["search", *args, "--seed", "0", "--alpha", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: every prunable ratio ended at its floor 1/C at alpha 1000.0: "
                                "the plan keeps one channel per layer\n")
        assert captured.out.startswith("search: ")
        path = run / "search" / "manifest.json"
        manifest = json.loads(path.read_text())
        ids = load_checkpoint(run / "search")[0].prunable_ids()
        assert manifest["floored_layers"] == ids
        assert [len(e["kept_channel_ids"]) for e in manifest["plan"]["entries"]] == [1] * len(ids)
        assert main(["report", *args, "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == "floored layers (ratio 1/C, one channel kept): " + ", ".join(map(str, ids))
        # a search manifest written before the field reports as before
        del manifest["floored_layers"]
        path.write_text(json.dumps(manifest))
        assert main(["report", *args, "--seed", "0"]) == 0
        assert "floored" not in capsys.readouterr().out
        manifest["floored_layers"] = "x"
        path.write_text(json.dumps(manifest))
        assert main(["report", *args, "--seed", "0"]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: field 'floored_layers' is missing or not a list of integers\n"

    def test_a_search_above_the_floor_does_not_warn(self, seed0_baseline, capsys):
        manifest = json.loads((Path(seed0_baseline[-1]) / "search" / "manifest.json").read_text())
        ratios, floored = manifest["ratios"], manifest["floored_layers"]
        assert len(floored) < len(ratios)
        assert main(["search", *seed0_baseline, "--seed", "0"]) == 0
        assert capsys.readouterr().err == ""


def _copied_run(options, tmp_path):
    """`options` with `--out` pointing at a copy of its run under `tmp_path`."""
    args = list(options)
    out = args.index("--out") + 1
    run = tmp_path / "run"
    shutil.copytree(args[out], run)
    args[out] = str(run)
    return args, run


class TestBadCheckpoint:
    def test_truncated_baseline_array_is_2(self, seed0_baseline, tmp_path, capsys):
        args, run = _copied_run(seed0_baseline, tmp_path)
        weight = run / "baseline" / "layer000.weight.f32"
        weight.write_bytes(weight.read_bytes()[:-8])
        assert main(["search", *args, "--seed", "0"]) == 2
        assert "holds 142 floats, expected shape (16, 1, 3, 3)" in capsys.readouterr().err

    def test_checkpoint_of_another_format_version_is_2(self, seed0_baseline, tmp_path, capsys):
        # a baseline written before the model record held `widths` is refused
        # by its version, not by the field it lacks
        args, run = _copied_run(seed0_baseline, tmp_path)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        del manifest["model"]["widths"]
        path.write_text(json.dumps(manifest))
        assert main(["search", *args, "--seed", "0"]) == 2
        assert capsys.readouterr().err == (f"error: {path}: format_version is 1, not 2; "
                                           "rerun the phase that wrote it\n")

    @pytest.mark.parametrize("field", ["model"])
    def test_manifest_without_a_field_is_2(self, seed0_baseline, tmp_path, capsys, field):
        args, run = _copied_run(seed0_baseline, tmp_path)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[field]
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

    def test_baseline_artifacts(self, pipeline_run, synthetic_mnist_dir):
        out, _, _ = pipeline_run
        manifest = json.loads((out / "baseline" / "manifest.json").read_text())
        assert manifest["phase"] == "pretrain"
        # top-1 is the saved model's on the test split
        _, test = load_mnist(synthetic_mnist_dir)
        assert manifest["top1"] == evaluate(load_checkpoint(out / "baseline")[0], test.images, test.labels)
        # the seed is stored once, in the run's settings
        assert manifest["config"]["run"]["seed"] == 3 and "seed" not in manifest
        assert (out / "baseline" / "metrics.csv").is_file()
        assert list((out / "baseline").glob("layer*.f32"))

    def test_search_artifacts(self, pipeline_run):
        out, _, _ = pipeline_run
        # the search's record is its checkpoint manifest; there is no second file
        result = json.loads((out / "search" / "manifest.json").read_text())
        assert not (out / "search" / "result.json").exists()
        assert result["phase"] == "search"
        # the plan is the one record of kept channels
        assert set(result["ratios"]) == {str(e["layer_id"]) for e in result["plan"]["entries"]}
        assert "kept_counts" not in result and "active_channels" not in result
        assert result["iterations"] > 0 and result["epochs_run"] == 1
        assert isinstance(result["converged"], bool) and isinstance(result["kink_count"], int)
        assert 0.0 <= result["fpr_exact"] < 1.0
        traj = (out / "search" / "trajectory.csv").read_text().splitlines()
        assert traj[0].startswith("iteration,")
        assert len(traj) >= 2
        assert (out / "search" / "diagnostics.csv").is_file()

    def test_prune_artifacts(self, pipeline_run, synthetic_mnist_dir):
        out, _, _ = pipeline_run
        manifest = json.loads((out / "pruned" / "manifest.json").read_text())
        assert manifest["phase"] == "prune"
        assert 0.0 <= manifest["fpr"] < 1.0
        # top-1 is the saved fine-tuned model's on the test split
        dense, _ = load_checkpoint(out / "search")
        pruned, _ = load_checkpoint(out / "pruned")
        _, test = load_mnist(synthetic_mnist_dir)
        assert manifest["top1"] == evaluate(pruned, test.images, test.labels)
        baseline = json.loads((out / "baseline" / "manifest.json").read_text())
        assert manifest["baseline_top1"] == baseline["top1"]
        assert manifest["accuracy_drop"] == manifest["baseline_top1"] - manifest["top1"]
        # the plan is the kept ids, one entry per prunable conv; FPR comes from the models
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

    def test_each_phase_directory_holds_exactly_its_files(self, pipeline_run):
        out, _, _ = pipeline_run
        # the layout README's "Run directory layout" lists
        def arrays(phase):
            model, _ = load_checkpoint(out / phase)
            return {_array_file(lid, role) for lid, role, _ in model.arrays()}

        want = {
            "baseline": {"manifest.json", "metrics.csv"} | arrays("baseline"),
            "search": {"manifest.json", "trajectory.csv", "diagnostics.csv"} | arrays("search"),
            "pruned": {"manifest.json", "metrics.csv"} | arrays("pruned"),
            "report": {"summary.csv", "accuracy.svg", "loss.svg", "ratios.svg", "fpr.svg"},
        }
        assert {p.name for p in out.iterdir()} == set(want)
        for phase, names in want.items():
            assert {p.name for p in (out / phase).iterdir()} == names, phase

    @pytest.mark.parametrize("phase, command", [
        ("baseline", "pretrain"), ("search", "search"), ("pruned", "prune"), ("report", "report"),
    ])
    def test_a_write_that_stops_part_way_leaves_the_phase_as_it_was(
            self, pipeline_run, synthetic_mnist_dir, tmp_path, monkeypatch, phase, command):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        # mark the previous files, so a rerun's bytes cannot pass for them; the
        # arrays keep their sizes, so the checkpoint still loads
        for f in (run / phase).iterdir():
            if f.name != "manifest.json":
                f.write_bytes(bytes(f.stat().st_size) if f.suffix == ".f32" else b"previous")
        (run / phase / "layer099.weight.f32").write_bytes(bytes(8))  # another model's array
        before = {f.name: f.read_bytes() for f in (run / phase).iterdir()}

        class Stop(Exception):
            pass

        def save_part_way(model, directory, extra=None):
            for lid, role, arr in list(model.arrays())[:5]:
                arr.astype("<f4").tofile(Path(directory) / _array_file(lid, role))
            raise Stop

        plots = []

        def plot_part_way(series, path, **kwargs):
            plots.append(path)
            if len(plots) == 2:
                raise Stop
            real_plot(series, path, **kwargs)

        real_plot = cli.svg_line_plot
        if phase == "report":
            monkeypatch.setattr(cli, "svg_line_plot", plot_part_way)
        else:
            monkeypatch.setattr(cli, "save_checkpoint", save_part_way)
        common = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir), "--out", str(run), "--seed", "3"]
        with pytest.raises(Stop):
            main([command, *common])
        assert {f.name: f.read_bytes() for f in (run / phase).iterdir()} == before
        if phase != "report":
            load_checkpoint(run / phase)
        monkeypatch.undo()
        assert main([command, *common]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["baseline", "pruned", "report", "search"]

        def files(d):  # a manifest holds its run's `seconds` and `out_dir`
            return {f.name: None if f.name == "manifest.json" else f.read_bytes() for f in d.iterdir()}

        assert files(run / phase) == files(out / phase)

    @pytest.mark.parametrize("damage, column", [
        ("header only", "iteration"),
        ("drop val_accuracy", "val_accuracy"),
        ("x in val_accuracy", "val_accuracy"),
    ])
    def test_malformed_trajectory_is_2(self, pipeline_run, synthetic_mnist_dir, tmp_path,
                                       capsys, damage, column):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "search" / "trajectory.csv"
        lines = path.read_text().splitlines()
        if damage == "header only":
            lines = lines[:1]
        else:
            at = lines[0].split(",").index("val_accuracy")
            rows = [line.split(",") for line in lines]
            for n, row in enumerate(rows):
                if damage == "drop val_accuracy":
                    del row[at]
                elif n:
                    row[at] = "x"
            lines = [",".join(row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: column '{column}' ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("damage, message", [
        ("ratio_x", "column 'ratio_x' does not name a layer id"),
        # a digit to str.isdigit, but not one int() parses
        ("ratio_\u00b2", "column 'ratio_\u00b2' does not name a layer id"),
        ("extra field", "line 2 has more fields than the header"),
        # the first data row starts with a byte that is no UTF-8; {} is its offset
        ("non-utf-8", "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"),
        ("huge field", f"field larger than field limit ({csv.field_size_limit()})"),
    ])
    def test_malformed_trajectory_header_or_row_is_2(self, pipeline_run, synthetic_mnist_dir,
                                                     tmp_path, capsys, damage, message):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "search" / "trajectory.csv"
        lines = path.read_text().splitlines()
        if damage.startswith("ratio_"):
            header = lines[0].split(",")
            header[next(i for i, c in enumerate(header) if c.startswith("ratio_"))] = damage
            lines[0] = ",".join(header)
        elif damage == "huge field":
            lines[1] = "1" * (csv.field_size_limit() + 1) + lines[1]
        elif damage == "extra field":
            lines[1] += ",0.5"
        data = ("\n".join(lines) + "\n").encode()
        if damage == "non-utf-8":
            at = len(lines[0]) + 1
            data, message = data[:at] + b"\xff" + data[at:], message.format(at)
        path.write_bytes(data)
        assert main(["report", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n", err

    def test_bad_trajectory_value_leaves_the_report_as_it_was(self, pipeline_run, synthetic_mnist_dir,
                                                              tmp_path, capsys):
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        report = run / "report"
        for f in report.iterdir():
            f.write_text(f"previous {f.name}")
        before = {f.name: f.read_bytes() for f in report.iterdir()}
        path = run / "search" / "trajectory.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        at = rows[0].index("cost")
        rows[-1][at] = "x"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert main(["report", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: column 'cost' ")
        assert {f.name: f.read_bytes() for f in report.iterdir()} == before

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
        path = run / "search" / "manifest.json"
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

    def test_report_checks_the_baseline_checksums_itself(self, pipeline_run, synthetic_mnist_dir,
                                                         tmp_path, capsys):
        # the baseline's checksums stand in for the run's, so the baseline
        # is blamed for their loss, with or without the later phases beside it
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["dataset_checksums"]
        path.write_text(json.dumps(manifest))
        for phase in (None, "pruned", "search"):
            if phase:
                shutil.rmtree(run / phase)
            assert main(["report", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                         "--out", str(run), "--seed", "3"]) == 2
            assert capsys.readouterr().err == \
                f"error: {path}: field 'dataset_checksums' is missing or not an object\n", phase

    def test_report_names_both_files_when_checksums_disagree(self, pipeline_run, synthetic_mnist_dir,
                                                             tmp_path, capsys):
        # the baseline's checksums stand in for the run's, so a later
        # manifest that disagrees with them is named beside the baseline
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "baseline" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["dataset_checksums"]["t10k-images-idx3-ubyte"] = "0" * 64
        path.write_text(json.dumps(manifest))
        assert main(["report", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                     "--out", str(run), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / 'search' / 'manifest.json'} is from another run: "
                              "its dataset_checksums is ")
        assert err.count("error:") == 1 and err.count("\n") == 1 and f", {path}'s is " in err, err

    def test_one_leaf_mutations_of_the_run_fields_name_their_file(
            self, pipeline_run, synthetic_mnist_dir, tmp_path, capsys):
        """Each of `test_pruner._MUTATIONS` of a field that `_check_upstream`
        or `report` reads exits 2 and prints one `error:` line that names
        the damaged manifest: the baseline's through `search` and
        `report`, the pruned model's through `report`."""
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        args = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir), "--out", str(run), "--seed", "3"]
        upstream = [("config", "run", key) for key in ("seed", "model", "dataset", "validation_fraction")]
        upstream += [("dataset_checksums",), ("model", "name")]
        # search runs last: a baseline it accepts is searched, and the search rewritten
        sweeps = [("pruned", "report", [*upstream, ("top1",), ("fpr",)]),
                  ("baseline", "report", [*upstream, ("top1",)]),
                  ("baseline", "search", upstream)]
        codes = []
        for phase, command, leaves in sweeps:
            path = run / phase / "manifest.json"
            text = path.read_text()
            for mutation, value in _MUTATIONS.items():
                for leaf, bad in _one_leaf_mutations(json.loads(text), value, leaves):
                    path.write_text(json.dumps(bad))
                    code = main([command, *args])
                    err = capsys.readouterr().err
                    assert code in (0, 2), (command, phase, leaf, mutation, code, err)
                    if code == 2:
                        assert err.startswith(f"error: {path}") and err.count("\n") == 1, \
                            (command, phase, leaf, mutation, err)
                    codes.append(code)
            path.write_text(text)
        assert codes == [2] * 6 * (8 + 7 + 6)

    def test_a_run_with_the_seed_stored_twice_still_runs(self, pipeline_run, synthetic_mnist_dir,
                                                         tmp_path, capsys):
        # manifests written before the seed was stored once, in `config.run`,
        # also hold it at the top level; `config.run.seed` is the one checked
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        args = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir), "--out", str(run), "--seed", "3"]

        def store_the_seed_twice(phase, run_seed=3):
            path = run / phase / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["seed"] = 3
            manifest["config"]["run"]["seed"] = run_seed
            path.write_text(json.dumps(manifest))
            return path

        for phase in ("baseline", "search", "pruned"):
            store_the_seed_twice(phase)
        # report reads all three manifests, prune the first two, search the first
        for command in ("report", "prune", "search"):
            assert main([command, *args, *(["--epochs", "0"] if command == "prune" else [])]) == 0
        capsys.readouterr()
        path = store_the_seed_twice("baseline", run_seed=4)
        for command in ("search", "prune", "report"):
            assert main([command, *args]) == 2
            assert capsys.readouterr().err == \
                f"error: {path} is from another run: its seed is 4, this run's is 3\n", command

    def test_one_leaf_mutations_of_the_search_record_exit_0_or_2(
            self, pipeline_run, synthetic_mnist_dir, tmp_path, capsys):
        """`prune` after each of `test_pruner._MUTATIONS` of one leaf of the
        search manifest exits 0 or 2, and an exit 2 prints one `error:`
        line.  The leaves: plan entry 0's `layer_id` and first three
        `kept_channel_ids`, `format_version`, and every leaf of the model
        record.  Fine-tuning runs for zero epochs."""
        out, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        path = run / "search" / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = ("plan", "entries", 0)
        leaves = [(*entry, "layer_id"), *((*entry, "kept_channel_ids", n) for n in range(3))]
        leaves += [("format_version",), *(("model", *leaf) for leaf in _leaves(manifest["model"]))]
        assert len(leaves) == 14
        args = ["prune", "--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                "--out", str(run), "--seed", "3", "--epochs", "0"]
        codes = []
        for mutation, value in _MUTATIONS.items():
            for leaf, bad in _one_leaf_mutations(manifest, value, leaves):
                path.write_text(json.dumps(bad))
                code = main(args)
                err = capsys.readouterr().err
                assert code in (0, 2), (leaf, mutation, code, err)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (leaf, mutation, err)
                codes.append(code)
        assert len(codes) == len(leaves) * len(_MUTATIONS) and codes.count(2) > len(codes) // 2

    def test_rerun_is_byte_identical(self, pipeline_run, synthetic_mnist_dir,
                                     tmp_path_factory):
        out, _, cfg = pipeline_run
        out2 = tmp_path_factory.mktemp("pipeline-again") / "run"
        common = ["--config", cfg, "--data-dir", str(synthetic_mnist_dir),
                  "--out", str(out2), "--seed", "3"]
        assert main(["pretrain", *common]) == 0
        assert main(["search", *common]) == 0
        for rel in ("baseline/metrics.csv", "search/trajectory.csv", "search/diagnostics.csv"):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        # the search record (ratios, fpr_exact, iterations, epochs_run, converged,
        # kink_count, plan, model table), less `seconds` and `config.run.out_dir`
        a, b = (json.loads((d / "search" / "manifest.json").read_text()) for d in (out, out2))
        for m in (a, b):
            del m["seconds"], m["config"]["run"]["out_dir"]
        assert a == b
        weights = sorted(p.name for p in (out / "search").glob("layer*.f32"))
        assert weights == sorted(p.name for p in (out2 / "search").glob("layer*.f32"))
        assert weights
        for name in weights:
            assert (out / "search" / name).read_bytes() == (out2 / "search" / name).read_bytes(), name

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
