"""Run artifacts: metrics CSVs, SVG plots, and the summary table.

Plots are written as standalone SVG, so a run's report opens in any
browser without plotting dependencies.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path


def write_csv(rows: list[dict], path) -> Path:
    """Write dict rows with a stable union header (first-seen order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in header])
    return path


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return [dict(r) for r in csv.DictReader(f)]


# ---------------------------------------------------------------------------
# SVG line plots


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / n
    mag = 10 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = step * math.ceil(lo / step)
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def svg_line_plot(
    series: dict[str, tuple[list[float], list[float]]],
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Plot named (x, y) series as polylines into a standalone SVG file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width, height = 640, 400
    ml, mr, mt, mb = 60, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb

    xs = [x for pts in series.values() for x in pts[0]]
    ys = [y for pts in series.values() for y in pts[1]]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="13">{_esc(title)}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{mt + ph}" stroke="#ddd"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{mt + ph + 14}" text-anchor="middle">{_num(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + pw}" y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(
            f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end">{_num(t)}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    for idx, (name, (px, py)) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 14 * idx
        parts.append(f'<line x1="{ml + pw - 110}" y1="{ly - 4}" x2="{ml + pw - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 85}" y="{ly}">{_esc(name)}</text>')
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{_esc(ylabel)}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts))
    return path


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


# ---------------------------------------------------------------------------
# summary table


SUMMARY_COLUMNS = ["model", "method", "top1", "accuracy_drop", "fpr"]


def summary_rows(baseline: dict, pruned: dict | None = None) -> list[dict]:
    """Build the comparison table: the dense baseline and the pruned run."""
    rows = [
        {
            "model": baseline["model"],
            "method": "baseline",
            "top1": baseline["top1"],
            "accuracy_drop": 0.0,
            "fpr": 0.0,
        }
    ]
    if pruned is not None:
        rows.append(
            {
                "model": pruned["model"],
                "method": pruned.get("method", "pruned"),
                "top1": pruned["top1"],
                "accuracy_drop": baseline["top1"] - pruned["top1"],
                "fpr": pruned["fpr"],
            }
        )
    return rows


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Monospace table with a header rule, for terminal output."""
    columns = columns or (list(rows[0].keys()) if rows else [])
    cells = [[_cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)
