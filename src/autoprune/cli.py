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
import sys
import time
from pathlib import Path

from . import __version__
from .data import DataFormatError, load_cifar10, load_mnist, split_validation, substream
from .model import build_model, evaluate, exact_flops_by_layer
from .pruner import (
    CheckpointError,
    PruningPlan,
    _field,
    export_pruned,
    finalize_plan,
    finetune,
    load_checkpoint,
    save_checkpoint,
    train_supervised,
)
from .report import format_table, read_csv, summary_rows, svg_line_plot, write_csv
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
    """Command-line flags win over the config file."""
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
    return cfg


def _load_dataset(cfg: dict):
    name = cfg["run"]["dataset"]
    data_dir = cfg["run"]["data_dir"] or None
    if name == "mnist":
        return load_mnist(data_dir)
    if name == "cifar10":
        return load_cifar10(data_dir)
    raise ConfigError(f"unknown dataset {cfg['run']['dataset']!r}; expected mnist or cifar10")


def _input_shape(cfg: dict) -> tuple[int, int, int]:
    return (1, 28, 28) if cfg["run"]["dataset"] == "mnist" else (3, 32, 32)


def _splits(cfg: dict):
    train_full, test = _load_dataset(cfg)
    train, val = split_validation(
        train_full, cfg["run"]["validation_fraction"], seed=cfg["run"]["seed"]
    )
    return train, val, test


def _phase_manifest(cfg: dict, checksums: dict, seconds: float, extra: dict) -> dict:
    out = {
        "config": cfg,
        "dataset_checksums": checksums,
        "seed": cfg["run"]["seed"],
        "seconds": round(seconds, 3),
    }
    out.update(extra)
    return out


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e


def _check_upstream(cfg: dict, checksums: dict, manifest: dict, path: Path) -> None:
    """Refuse an upstream phase that another run wrote.

    Its seed, model, dataset, validation fraction and dataset files must
    be this run's: the validation split is a function of the seed, so a
    foreign baseline would have trained on this run's validation images.
    A manifest, `config` or `run` that is not a JSON object is refused too.
    """
    run = _field(path, "config: ", _field(path, "", manifest, "config", dict), "run", dict)
    fields = [("seed", manifest.get("seed"), cfg["run"]["seed"])]
    for key in ("model", "dataset", "validation_fraction"):
        fields.append((f"run.{key}", run.get(key), cfg["run"][key]))
    fields.append(("dataset_checksums", manifest.get("dataset_checksums"), checksums))
    for name, theirs, ours in fields:
        if theirs != ours:
            raise ConfigError(
                f"{path} is from another run: its {name} is {theirs!r}, this run's is {ours!r}"
            )


# ---------------------------------------------------------------------------
# commands


def cmd_pretrain(cfg: dict) -> int:
    t0 = time.perf_counter()
    train, val, test = _splits(cfg)
    seed = cfg["run"]["seed"]
    model = build_model(
        cfg["run"]["model"],
        num_classes=10,
        input_shape=_input_shape(cfg),
        rng=substream(seed, "init"),
    )
    p = cfg["pretrain"]
    result = train_supervised(
        model, train, val,
        epochs=p["epochs"], lr_max=p["lr_max"], lr_min=p["lr_min"],
        batch_size=p["batch_size"], seed=seed, augment=p["augment"],
    )
    top1 = evaluate(model, test.images, test.labels)
    out = Path(cfg["run"]["out_dir"]) / "baseline"
    write_csv(result.metrics, out / "metrics.csv")
    save_checkpoint(
        model, out,
        extra=_phase_manifest(cfg, train.checksums, time.perf_counter() - t0, {
            "phase": "pretrain",
            "top1": top1,
            "best_val_accuracy": result.best_val_accuracy,
            "diverged": result.diverged,
        }),
    )
    print(f"pretrain: model={cfg['run']['model']} top1={top1:.4f} "
          f"val={result.best_val_accuracy:.4f} -> {out}")
    return 1 if result.diverged else 0


def cmd_search(cfg: dict) -> int:
    t0 = time.perf_counter()
    sc = SearchConfig(**cfg["search"], seed=cfg["run"]["seed"])
    try:
        sc.validate()
    except ValueError as e:
        raise ConfigError(f"bad [search] setting: {e}") from e
    out_root = Path(cfg["run"]["out_dir"])
    base_dir = out_root / "baseline"
    if not (base_dir / "manifest.json").is_file():
        raise FileNotFoundError(f"missing baseline checkpoint: expected {base_dir / 'manifest.json'}")
    model, base_manifest = load_checkpoint(base_dir)
    train, val, test = _splits(cfg)
    _check_upstream(cfg, train.checksums, base_manifest, base_dir / "manifest.json")

    result = run_search(model, train, val, sc)

    out = out_root / "search"
    write_csv(result.metrics, out / "trajectory.csv")
    write_csv(result.refresh_events, out / "diagnostics.csv")
    plan = finalize_plan(model, result.ratios, result.rankings)
    (out / "result.json").parent.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps({
        "ratios": {str(k): v for k, v in result.ratios.items()},
        "fpr_exact": result.fpr_exact,
        "iterations": result.iterations,
        "epochs_run": result.epochs_run,
        "converged": result.converged,
        "kink_count": result.diagnostics.kink_count,
        "plan": plan.to_dict(),
    }, indent=2, sort_keys=True))
    save_checkpoint(
        model, out,
        extra=_phase_manifest(cfg, train.checksums, time.perf_counter() - t0, {
            "phase": "search",
            "fpr_exact": result.fpr_exact,
            "iterations": result.iterations,
            "converged": result.converged,
        }),
    )
    ratio_text = ", ".join(f"{k}:{v:.3f}" for k, v in sorted(result.ratios.items()))
    print(f"search: iterations={result.iterations} fpr_exact={result.fpr_exact:.4f} "
          f"ratios=[{ratio_text}] -> {out}")
    return 0


def cmd_prune(cfg: dict) -> int:
    t0 = time.perf_counter()
    out_root = Path(cfg["run"]["out_dir"])
    search_dir = out_root / "search"
    base_dir = out_root / "baseline"
    result_path = search_dir / "result.json"
    for need in (search_dir / "manifest.json", result_path, base_dir / "manifest.json"):
        if not need.is_file():
            raise FileNotFoundError(f"missing run artifact: expected {need}")
    model, search_manifest = load_checkpoint(search_dir)
    result = _read_json(result_path)
    baseline = _read_json(base_dir / "manifest.json")
    train, val, test = _splits(cfg)
    _check_upstream(cfg, train.checksums, baseline, base_dir / "manifest.json")
    _check_upstream(cfg, train.checksums, search_manifest, search_dir / "manifest.json")
    baseline_top1 = _field(base_dir / "manifest.json", "", baseline, "top1", float)

    plan = PruningPlan.from_dict(_field(result_path, "", result, "plan", dict), model, result_path)
    pruned = export_pruned(model, plan)
    f = cfg["finetune"]
    ft = finetune(
        pruned, train, val,
        epochs=f["epochs"], lr_max=f["lr_max"], lr_min=f["lr_min"],
        batch_size=f["batch_size"], seed=cfg["run"]["seed"], test=test,
    )
    out = out_root / "pruned"
    write_csv(ft.metrics, out / "metrics.csv")
    drop = baseline_top1 - (ft.test_top1 or 0.0)
    save_checkpoint(
        pruned, out,
        extra=_phase_manifest(cfg, train.checksums, time.perf_counter() - t0, {
            "phase": "prune",
            "plan": plan.to_dict(),
            "top1": ft.test_top1,
            "baseline_top1": baseline_top1,
            "accuracy_drop": drop,
            "fpr": plan.fpr,
            "best_val_accuracy": ft.best_val_accuracy,
            "diverged": ft.diverged,
        }),
    )
    print(f"prune: fpr={plan.fpr:.4f} top1={ft.test_top1:.4f} "
          f"drop={drop:.4f} -> {out}")
    return 1 if ft.diverged else 0


def cmd_report(cfg: dict) -> int:
    out_root = Path(cfg["run"]["out_dir"])
    base_path = out_root / "baseline" / "manifest.json"
    if not base_path.is_file():
        raise FileNotFoundError(f"missing run artifact: expected {base_path}")
    baseline = _read_json(base_path)
    # The baseline's data checksums stand in for this run's: a report
    # loads no data, and the seed and model checks still apply to it.
    checksums = baseline.get("dataset_checksums") if isinstance(baseline, dict) else None
    _check_upstream(cfg, checksums, baseline, base_path)
    search_path = out_root / "search" / "manifest.json"
    if search_path.is_file():
        _check_upstream(cfg, checksums, _read_json(search_path), search_path)
    pruned = None
    pruned_path = out_root / "pruned" / "manifest.json"
    if pruned_path.is_file():
        pruned = _read_json(pruned_path)
        _check_upstream(cfg, checksums, pruned, pruned_path)

    def summary(path, manifest, *keys):
        model = _field(path, "", manifest, "model", dict)
        out = {"model": _field(path, "model: ", model, "name", str)}
        return out | {k: _field(path, "", manifest, k, float) for k in keys}

    report_dir = out_root / "report"
    rows = summary_rows(
        summary(base_path, baseline, "top1"),
        None if pruned is None else
        {**summary(pruned_path, pruned, "top1", "fpr"), "method": "auto-pruned"},
    )
    write_csv(rows, report_dir / "summary.csv")

    traj_path = out_root / "search" / "trajectory.csv"
    if traj_path.is_file():
        rows_t = read_csv(traj_path)
        it = [float(r["iteration"]) for r in rows_t]
        svg_line_plot(
            {"validation accuracy": (it, [float(r["val_accuracy"]) for r in rows_t])},
            report_dir / "accuracy.svg",
            title="Search validation accuracy", xlabel="iteration", ylabel="top-1",
        )
        svg_line_plot(
            {
                "cross entropy": (it, [float(r["loss_ce"]) for r in rows_t]),
                "flops cost": (it, [float(r["cost"]) for r in rows_t]),
            },
            report_dir / "loss.svg",
            title="Search loss terms", xlabel="iteration", ylabel="loss",
        )
        ratio_cols = sorted(
            (c for c in rows_t[0] if c.startswith("ratio_")), key=lambda c: int(c.split("_")[1])
        )
        svg_line_plot(
            {c.replace("_", " "): (it, [float(r[c]) for r in rows_t]) for c in ratio_cols},
            report_dir / "ratios.svg",
            title="Remaining ratios", xlabel="iteration", ylabel="ratio",
        )
        fpr_series = {"exact": (it, [float(r["fpr_exact"]) for r in rows_t]),
                      "surrogate": (it, [float(r["fpr_surrogate"]) for r in rows_t])}
        svg_line_plot(fpr_series, report_dir / "fpr.svg",
                      title="FLOPs pruned ratio", xlabel="iteration", ylabel="fraction")

    table = format_table(rows, ["model", "method", "top1", "accuracy_drop", "fpr"])
    print(table)
    print(f"report -> {report_dir}")
    return 0


def cmd_describe(cfg: dict) -> int:
    model = build_model(
        cfg["run"]["model"], num_classes=10, input_shape=_input_shape(cfg),
        rng=substream(cfg["run"]["seed"], "init"),
    )
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
