"""Run reports: JSON summaries, CSV tables and native SVG line charts.

Reports are deterministic functions of (config, seed): dictionaries are
serialised with sorted keys and the wall-clock timestamp lives in a
single top-level field that comparisons exclude.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class RunReport:
    config: dict
    estimates: dict = field(default_factory=dict)   # name -> {value, se, n}
    diagnostics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)    # name -> bool

    def add_estimate(self, name, value, se, n):
        self.estimates[name] = {"value": float(value), "se": float(se), "n": int(n)}

    def add_mean(self, name, values):
        """The mean of `values` as an estimate, with its iid standard error."""
        v = np.asarray(values, dtype=float)
        self.add_estimate(name, np.mean(v), np.std(v, ddof=1) / np.sqrt(len(v)), len(v))

    def dump(self, dest) -> None:
        """Write the report as JSON, stamped with the wall-clock time."""
        from . import __version__
        body = {
            "estimates": self.estimates,
            "diagnostics": self.diagnostics,
            "verdicts": self.verdicts,
            "provenance": {
                "config_hash": config_hash(self.config),
                "seed": self.config["run"]["seed"],
                "version": __version__,
            },
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(dest, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


def report_body(path) -> dict:
    """Load a report and drop the timestamp, for comparisons."""
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise ValueError("a report is a JSON object")
    body.pop("generated_at", None)
    return body


def write_csv(dest, header, rows) -> None:
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def read_csv(src):
    """Header and rows (n, columns) of a numeric table; ValueError if a cell
    is not a number or a row does not have one cell per column."""
    with open(src, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        rows = [[float(v) for v in row] for row in rd]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"a row does not have the header's {len(header)} cells")
    return header, np.array(rows).reshape(len(rows), len(header))


# ---------------------------------------------------------------------------
# minimal SVG line charts (no plotting dependency)
# ---------------------------------------------------------------------------

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


def svg_line_chart(dest, series: dict, title: str, xlabel: str, ylabel: str) -> None:
    """Write a simple multi-series line chart, 640 x 420 px.

    series maps a label to a pair (x, y) of equal-length arrays.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width/2:.0f}" y="24" text-anchor="middle" '
             f'font-size="16" font-family="sans-serif">{title}</text>']
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt+ph}" x2="{ml+pw}" y2="{mt+ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+ph}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{xv:.3g}</text>')
        parts.append(f'<text x="{ml-6}" y="{sy(yv)+4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{yv:.3g}</text>')
    parts.append(f'<text x="{ml+pw/2:.0f}" y="{height-8}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt+ph/2:.0f}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {mt+ph/2:.0f})">{ylabel}</text>')
    for i, (label, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(np.asarray(x), np.asarray(y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml+pw-6}" y="{mt+16+16*i}" text-anchor="end" fill="{color}" '
                     f'font-size="12" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(dest, "w") as fh:
        fh.write("\n".join(parts) + "\n")
