"""Report containers, least-squares fits, and a small self-contained SVG writer.

Charts are hand-rolled polyline SVGs so that report files are dependency-free
and byte-identical across repeated runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares y = slope * x + intercept with in-sample R^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidConfigError("fit needs matching 1-d inputs")
    if xs.shape[0] < 3:
        raise InvalidConfigError("fewer than 3 points")
    # points over one x value fix no slope: polyfit warns and returns an arbitrary line
    if xs.min() == xs.max():
        raise InvalidConfigError("fewer than 2 distinct x values")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r_squared, xs.shape[0])


@dataclass
class ScalingPoint:
    slow_factor: float
    observed_max_delay: int
    sqrt_max_delay: float
    tuned_eta: float
    eta_on_grid_edge: bool
    iterations_to_target: int
    sim_time_to_target: float
    final_error: float


@dataclass
class ScalingReport:
    """Tuned iteration counts against sqrt(max delay) for one problem preset."""

    preset: str
    epsilon: float
    points: list[ScalingPoint]
    fit: Optional[LinearFit]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.fit is not None and len(self.points) < 3:
            raise InvalidConfigError("a fitted report needs at least 3 points")


def write_json(path, payload: dict) -> None:
    """Standard JSON only: a NaN or infinity in ``payload`` raises ``ValueError``."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _cell(value):
    """Floats as ``repr`` (which round-trips exactly), booleans as 0/1."""
    if isinstance(value, bool):
        return int(value)
    return repr(value) if isinstance(value, float) else value


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# ---------------------------------------------------------------------------
# SVG


_PALETTE = ("#2b6cb0", "#c05621", "#2f855a", "#6b46c1", "#c53030", "#4a5568")


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_chart_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
    width: int = 640,
    height: int = 420,
    markers: bool = True,
) -> str:
    """Self-contained SVG line chart; series are (label, xs, ys) triples."""
    margin_l, margin_r, margin_t, margin_b = 64.0, 16.0, 36.0, 48.0
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def transform_y(v: float) -> float:
        return math.log10(v) if log_y else v

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [transform_y(y) for _, _, ys in series for y in ys if not log_y or y > 0]
    if not xs_all or not ys_all:
        raise InvalidConfigError("chart needs at least one finite point")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(margin_t)}" x2="{_fmt(margin_l)}" '
        f'y2="{_fmt(margin_t + plot_h)}" stroke="#444444"/>'
    )
    parts.append(
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(margin_t + plot_h)}" '
        f'x2="{_fmt(margin_l + plot_w)}" y2="{_fmt(margin_t + plot_h)}" stroke="#444444"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(margin_t + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(margin_t + plot_h + 4)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(margin_t + plot_h + 18)}" '
            f'text-anchor="middle">{format(tick, ".4g")}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        label = format(10.0**tick if log_y else tick, ".3g")
        parts.append(
            f'<line x1="{_fmt(margin_l - 4)}" y1="{_fmt(y)}" x2="{_fmt(margin_l)}" '
            f'y2="{_fmt(y)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l - 8)}" y="{_fmt(y + 4)}" text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt(margin_l + plot_w / 2)}" y="{_fmt(height - 8)}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(margin_t + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(margin_t + plot_h / 2)})">{y_label}</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            (px(x), py(transform_y(y)))
            for x, y in zip(xs, ys)
            if not log_y or y > 0
        ]
        if not pts:
            continue
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if markers:
            for x, y in pts:
                parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>')
        legend_y = margin_t + 14 * idx
        parts.append(
            f'<rect x="{_fmt(margin_l + plot_w - 150)}" y="{_fmt(legend_y)}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l + plot_w - 136)}" y="{_fmt(legend_y + 9)}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
