"""Command-line front end: pretrain, search, prune, report, describe.

A run lives in one output directory with a subdirectory per phase
(baseline/, search/, pruned/, report/).  Settings come from an INI file
plus command-line overrides; unknown keys are hard errors so typos never
silently fall back to defaults.

Exit codes: 0 success, 1 failed run (divergence, violated invariant),
2 bad arguments, missing or malformed files, or another run's upstream.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import shutil
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import __version__
from .data import DataFormatError, load_cifar10, load_mnist, resolve_data_dir, split_validation, substream
from .model import CheckpointError, _architecture, _field, build_model, evaluate, exact_flops_by_layer
from .pruner import (
    PruningPlan,
    _check_training,
    export_pruned,
    finalize_plan,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    train_supervised,
)
from .report import SUMMARY_COLUMNS, format_table, read_csv, summary_rows, svg_line_plot, write_csv
from .search import SearchConfig, SearchDiverged, run_search


class ConfigError(ValueError):
    """Bad configuration file or option value."""


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# [search] takes every SearchConfig field except the seed, which [run] sets
_SEARCH_FIELDS = [f for f in dataclasses.fields(SearchConfig) if f.name != "seed"]

DEFAULTS = {
    "run": {
        "model": "cnn-small",
        "dataset": "mnist",
        "data_dir": "",
        "out_dir": "runs/default",
        "seed": 0,
        "validation_fraction": 0.1,
    },
    # [pretrain] and [finetune] keys are `train_supervised` parameters
    "pretrain": {"epochs": 3, "batch_size": 64, "lr_max": 0.1, "lr_min": 0.001, "augment": False},
    "search": {f.name: f.default for f in _SEARCH_FIELDS},
    "finetune": {"epochs": 10, "batch_size": 64, "lr_max": 0.01, "lr_min": 0.0001},
}

# each key parses with the type of its default
SCHEMA = {
    section: {key: _bool if isinstance(v, bool) else type(v) for key, v in keys.items()}
    for section, keys in DEFAULTS.items()
}


def load_config(path: str | None) -> dict:
    """Read an INI file against the schema; start from defaults."""
    cfg = {s: dict(v) for s, v in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            conv = SCHEMA[section][key]
            try:
                cfg[section][key] = conv(raw)
            except ConfigError:
                raise
            except ValueError as e:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({e})")
    return cfg


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Command-line flags win over the config file.  A leading `~` of the
    resulting `out_dir` then expands to the home directory."""
    if args.model is not None:
        cfg["run"]["model"] = args.model
    if args.data_dir is not None:
        cfg["run"]["data_dir"] = args.data_dir
    if args.seed is not None:
        cfg["run"]["seed"] = args.seed
    if args.out is not None:
        cfg["run"]["out_dir"] = args.out
    if getattr(args, "alpha", None) is not None:
        cfg["search"]["alpha"] = args.alpha
    if getattr(args, "beta", None) is not None:
        cfg["search"]["beta"] = args.beta
    if getattr(args, "epochs", None) is not None:
        section = {"pretrain": "pretrain", "search": "search", "prune": "finetune"}.get(args.command)
        if section:
            cfg[section]["epochs"] = args.epochs
    cfg["run"]["out_dir"] = os.path.expanduser(cfg["run"]["out_dir"])
    return cfg


_LOADERS = {"mnist": load_mnist, "cifar10": load_cifar10}


def _check_config(cfg: dict) -> None:
    """Refuse a setting that is wrong on its face, before any file is read:
    `ConfigError` "bad [<section>] setting: ..." naming its key."""
    run, section = cfg["run"], "run"
    try:
        if run["dataset"] not in _LOADERS:
            raise ValueError(f"unknown dataset {run['dataset']!r}; expected mnist or cifar10")
        _architecture(run["model"], _input_shape(cfg), 10)
        if not 0 < run["validation_fraction"] < 1:
            raise ValueError(f"validation_fraction must be in (0, 1), got {run['validation_fraction']}")
        for section in ("pretrain", "finetune"):
            _check_training(**{k: cfg[section][k] for k in ("epochs", "batch_size", "lr_max", "lr_min")})
        section = "search"
        SearchConfig(**cfg["search"], seed=run["seed"]).validate()
    except ValueError as e:
        raise ConfigError(f"bad [{section}] setting: {e}") from e


def _input_shape(cfg: dict) -> tuple[int, int, int]:
    return (1, 28, 28) if cfg["run"]["dataset"] == "mnist" else (3, 32, 32)


def _fresh_model(cfg: dict):
    """The run's model with the seed's initial weights."""
    return build_model(cfg["run"]["model"], num_classes=10, input_shape=_input_shape(cfg),
                       rng=substream(cfg["run"]["seed"], "init"))


def _splits(cfg: dict):
    """Train, validation and test splits; a `validation_fraction` that
    leaves either side of the split empty for this data is a `ConfigError`."""
    run = cfg["run"]
    train_full, test = _LOADERS[run["dataset"]](run["data_dir"] or None)
    try:
        train, val = split_validation(train_full, run["validation_fraction"], seed=run["seed"])
    except ValueError as e:
        where = resolve_data_dir(run["data_dir"] or None)
        raise ConfigError(f"bad [run] validation_fraction for the data in {where}: {e}") from e
    return train, val, test


def _train(cfg: dict, section: str, model, train, val, test):
    """Train `model` by `train_supervised` with the `[section]` settings and
    the run's seed; returns the result and the test split's top-1."""
    result = train_supervised(model, train, val, seed=cfg["run"]["seed"], **cfg[section])
    return result, evaluate(model, test.images, test.labels)


@contextmanager
def _replacing(final: Path):
    """Yield an empty hidden sibling of `final`, `.<name>.partial`, to fill.
    When the block ends it takes `final`'s place; the old `final` is renamed
    `.<name>.old` and then removed.  A block that raises or is killed
    leaves `final` as it was, and the next write clears its leftovers."""
    partial, old = (final.with_name(f".{final.name}.{tag}") for tag in ("partial", "old"))
    for leftover in (partial, old):
        shutil.rmtree(leftover, ignore_errors=True)
    partial.mkdir(parents=True)
    yield partial
    if final.exists():
        final.rename(old)
    partial.rename(final)
    shutil.rmtree(old, ignore_errors=True)


def _write_phase(cfg: dict, name: str, t0: float, checksums: dict, model, tables: dict, fields: dict) -> Path:
    """Write the run's `<name>/` directory in one swap (`_replacing`): each
    CSV of `tables` (file name to rows), then the checkpoint of `model`,
    whose manifest holds the run's settings, its data checksums, the
    seconds since `t0` and the phase's `fields`.  Returns the directory."""
    final = Path(cfg["run"]["out_dir"]) / name
    with _replacing(final) as out:
        for file, rows in tables.items():
            write_csv(rows, out / file)
        save_checkpoint(model, out, extra={"config": cfg, "dataset_checksums": checksums,
                                           "seconds": round(time.perf_counter() - t0, 3), **fields})
    return final


def _column(path: Path, rows: list[dict], name: str) -> list[float]:
    """Column `name` of the CSV `rows` read from `path`, as finite floats.
    No rows, or a value that is missing or not a finite number, raises
    `CheckpointError` naming the file and the column."""
    try:
        values = [float(r[name]) for r in rows]
    except (KeyError, TypeError, ValueError):
        values = [math.nan]
    if not values or not all(map(math.isfinite, values)):
        raise CheckpointError(f"{path}: column {name!r} is missing, empty or not all finite numbers")
    return values


def _trajectory_plots(path: Path) -> dict:
    """The report's plots of `search/trajectory.csv`: file name to title,
    y label and series.  Every column is parsed and checked here, before
    the report writes a file; a row with more fields than the header, or
    a `ratio_` column that names no layer id, raises `CheckpointError`."""
    rows = read_csv(path)
    for n, row in enumerate(rows):
        if None in row:
            raise CheckpointError(f"{path}: line {n + 2} has more fields than the header")
    col = partial(_column, path, rows)
    it = col("iteration")
    ratio_cols = [c for c in rows[0] if c.startswith("ratio_")]
    for c in ratio_cols:
        if not c[len("ratio_"):].isdecimal():
            raise CheckpointError(f"{path}: column {c!r} does not name a layer id")
    plots = {
        "accuracy.svg": ("Search validation accuracy", "top-1", {"validation accuracy": "val_accuracy"}),
        "loss.svg": ("Search loss terms", "loss", {"cross entropy": "loss_ce", "flops cost": "cost"}),
        "ratios.svg": ("Remaining ratios", "ratio", {
            c.replace("_", " "): c for c in sorted(ratio_cols, key=lambda c: int(c[len("ratio_"):]))
        }),
        "fpr.svg": ("FLOPs pruned ratio", "fraction", {"exact": "fpr_exact", "surrogate": "fpr_surrogate"}),
    }
    return {name: (title, ylabel, {k: (it, col(c)) for k, c in series.items()})
            for name, (title, ylabel, series) in plots.items()}


def _check_upstream(cfg: dict, checksums: dict, manifest: dict, path: Path,
                    checksums_of: str = "this run") -> None:
    """Refuse an upstream phase that another run wrote.

    Its seed, model name and input shape, dataset, validation fraction and
    data checksums (`checksums_of`'s) must be this run's: the validation
    split is a function of the seed, so a foreign baseline would have
    trained on this run's validation images.  A manifest, `config`, `run`
    or `model` that is not a JSON object is refused too.
    """
    run = _field(f"{path}: config: ", _field(f"{path}: ", manifest, "config", "dict"), "run", "dict")
    fields = [("seed", run.get("seed"), cfg["run"]["seed"])]
    for key in ("model", "dataset", "validation_fraction"):
        fields.append((f"run.{key}", run.get(key), cfg["run"][key]))
    model = _field(f"{path}: ", manifest, "model", "dict")
    fields.append(("model.name", _field(f"{path}: model: ", model, "name", "str"), cfg["run"]["model"]))
    fields.append(("model.input_shape", model.get("input_shape"), list(_input_shape(cfg))))
    fields.append(("dataset_checksums", manifest.get("dataset_checksums"), checksums))
    for name, theirs, ours in fields:
        if theirs != ours:
            whose = checksums_of if name == "dataset_checksums" else "this run"
            raise ConfigError(
                f"{path} is from another run: its {name} is {theirs!r}, {whose}'s is {ours!r}"
            )


# ---------------------------------------------------------------------------
# commands


def cmd_pretrain(cfg: dict) -> int:
    t0 = time.perf_counter()
    train, val, test = _splits(cfg)
    model = _fresh_model(cfg)
    result, top1 = _train(cfg, "pretrain", model, train, val, test)
    out = _write_phase(cfg, "baseline", t0, train.checksums, model, {"metrics.csv": result.metrics}, {
        "phase": "pretrain",
        "top1": top1,
        "best_val_accuracy": result.best_val_accuracy,
        "diverged": result.diverged,
    })
    print(f"pretrain: model={cfg['run']['model']} top1={top1:.4f} "
          f"val={result.best_val_accuracy:.4f} -> {out}")
    return 1 if result.diverged else 0


def cmd_search(cfg: dict) -> int:
    t0 = time.perf_counter()
    base_dir = Path(cfg["run"]["out_dir"]) / "baseline"
    model, base_manifest = load_checkpoint(base_dir)
    train, val, test = _splits(cfg)
    _check_upstream(cfg, train.checksums, base_manifest, base_dir / "manifest.json")

    result = run_search(model, train, val, SearchConfig(**cfg["search"], seed=cfg["run"]["seed"]))
    plan = finalize_plan(model, result.ratios, result.rankings)
    tables = {"trajectory.csv": result.metrics, "diagnostics.csv": result.refresh_events}
    out = _write_phase(cfg, "search", t0, train.checksums, model, tables, {
        "phase": "search",
        "ratios": {str(k): v for k, v in result.ratios.items()},
        "fpr_exact": result.fpr_exact,
        "iterations": result.iterations,
        "epochs_run": result.epochs_run,
        "converged": result.converged,
        "kink_count": result.diagnostics.kink_count,
        "plan": plan.to_dict(),
    })
    ratio_text = ", ".join(f"{k}:{v:.3f}" for k, v in sorted(result.ratios.items()))
    print(f"search: iterations={result.iterations} fpr_exact={result.fpr_exact:.4f} "
          f"ratios=[{ratio_text}] -> {out}")
    return 0


def cmd_prune(cfg: dict) -> int:
    t0 = time.perf_counter()
    out_root = Path(cfg["run"]["out_dir"])
    search_dir = out_root / "search"
    search_path = search_dir / "manifest.json"
    base_path = out_root / "baseline" / "manifest.json"
    model, search_manifest = load_checkpoint(search_dir)
    baseline = read_manifest(base_path)
    train, val, test = _splits(cfg)
    _check_upstream(cfg, train.checksums, baseline, base_path)
    _check_upstream(cfg, train.checksums, search_manifest, search_path)
    baseline_top1 = _field(f"{base_path}: ", baseline, "top1", "float")

    plan_record = _field(f"{search_path}: ", search_manifest, "plan", "dict")
    plan = PruningPlan.from_dict(plan_record, model, search_path)
    pruned = export_pruned(model, plan)
    ft, top1 = _train(cfg, "finetune", pruned, train, val, test)
    drop = baseline_top1 - top1
    out = _write_phase(cfg, "pruned", t0, train.checksums, pruned, {"metrics.csv": ft.metrics}, {
        "phase": "prune",
        "plan": plan.to_dict(),
        "top1": top1,
        "baseline_top1": baseline_top1,
        "accuracy_drop": drop,
        "fpr": plan.fpr,
        "best_val_accuracy": ft.best_val_accuracy,
        "diverged": ft.diverged,
    })
    print(f"prune: fpr={plan.fpr:.4f} top1={top1:.4f} "
          f"drop={drop:.4f} -> {out}")
    return 1 if ft.diverged else 0


def cmd_report(cfg: dict) -> int:
    out_root = Path(cfg["run"]["out_dir"])
    base_path = out_root / "baseline" / "manifest.json"
    baseline = read_manifest(base_path)
    # The baseline's data checksums stand in for this run's: a report
    # loads no data, and the seed and model checks still apply to it.
    checksums = _field(f"{base_path}: ", baseline, "dataset_checksums", "dict")
    check = partial(_check_upstream, cfg, checksums, checksums_of=str(base_path))
    check(baseline, base_path)
    search_path = out_root / "search" / "manifest.json"
    if search_path.is_file():
        check(read_manifest(search_path), search_path)
    pruned = None
    pruned_path = out_root / "pruned" / "manifest.json"
    if pruned_path.is_file():
        pruned = read_manifest(pruned_path)
        check(pruned, pruned_path)

    # `_check_upstream` has matched each manifest's model name to the run's
    def summary(path, manifest, *keys):
        return {"model": cfg["run"]["model"]} | {k: _field(f"{path}: ", manifest, k, "float") for k in keys}

    rows = summary_rows(
        summary(base_path, baseline, "top1"),
        None if pruned is None else
        {**summary(pruned_path, pruned, "top1", "fpr"), "method": "auto-pruned"},
    )
    traj_path = out_root / "search" / "trajectory.csv"
    plots = _trajectory_plots(traj_path) if traj_path.is_file() else {}
    report_dir = out_root / "report"
    with _replacing(report_dir) as out:
        write_csv(rows, out / "summary.csv")
        for name, (title, ylabel, series) in plots.items():
            svg_line_plot(series, out / name, title=title, xlabel="iteration", ylabel=ylabel)

    table = format_table(rows, SUMMARY_COLUMNS)
    print(table)
    print(f"report -> {report_dir}")
    return 0


def cmd_describe(cfg: dict) -> int:
    model = _fresh_model(cfg)
    flops = exact_flops_by_layer(model)
    rows = []
    for layer in model.layers:
        rows.append({
            "id": layer.id,
            "kind": layer.kind,
            "shape": f"{layer.in_channels}->{layer.out_channels}",
            "kernel": "x".join(str(k) for k in layer.kernel) if layer.kind in ("conv", "pool") else "",
            "stride": layer.stride if layer.kind == "conv" else "",
            "pad": layer.padding if layer.kind == "conv" else "",
            "prunable": "yes" if layer.prunable else "",
            "flops": flops[layer.id],
            "inputs": ",".join(str(p) for p in model.preds[layer.id]),
        })
    print(f"{model.name}  input={model.input_shape}  classes={model.num_classes}")
    print(format_table(rows))
    print(f"total flops: {sum(flops.values())}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoprune",
        description="Learned channel pruning for small CNNs (pretrain, search, prune, report).",
    )
    parser.add_argument("--version", action="version", version=f"autoprune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_search_knobs=False, with_epochs=True):
        p.add_argument("--config", type=str, default=None, help="INI settings file")
        p.add_argument("--data-dir", type=str, default=None, help="dataset directory")
        p.add_argument("--seed", type=int, default=None, help="master random seed")
        p.add_argument("--model", type=str, default=None, help="cnn-small or resnet-tiny")
        p.add_argument("--out", type=str, default=None, help="run output directory")
        if with_search_knobs:
            p.add_argument("--alpha", type=float, default=None, help="cost term weight")
            p.add_argument("--beta", type=float, default=None, help="cost term exponent")
        if with_epochs:
            p.add_argument("--epochs", type=int, default=None, help="epoch budget for this phase")

    common(sub.add_parser("pretrain", help="train the dense baseline"))
    common(sub.add_parser("search", help="run the ratio search"), with_search_knobs=True)
    common(sub.add_parser("prune", help="export the plan and fine-tune"))
    common(sub.add_parser("report", help="emit plots and the summary table"), with_epochs=False)
    common(sub.add_parser("describe", help="print the architecture table"), with_epochs=False)
    return parser


COMMANDS = {
    "pretrain": cmd_pretrain,
    "search": cmd_search,
    "prune": cmd_prune,
    "report": cmd_report,
    "describe": cmd_describe,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        _check_config(cfg)
        return COMMANDS[args.command](cfg)
    except (ConfigError, DataFormatError, CheckpointError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SearchDiverged as e:
        print(f"error: search diverged: {e}\nstate: {json.dumps(e.state)}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
