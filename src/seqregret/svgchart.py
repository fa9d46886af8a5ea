"""Minimal deterministic SVG line charts (no plotting dependencies).

Charts are a convenience output of the CLI; CSV is the contract.  All
coordinates are formatted with a fixed precision so the same data always
yields byte-identical markup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 16, 28, 44


def _num(v: float) -> str:
    return f"{float(v):.6g}"


def _range(values: np.ndarray) -> tuple[float, float]:
    """(min, max) of `values`; a flat range is widened to span 1, or |min| where
    adding 1 would not move it (a zero span would divide by zero)."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(
    series: list[tuple[str, Sequence[float] | np.ndarray, Sequence[float] | np.ndarray]],
    title: str,
    x_label: str,
    y_label: str,
    width: int = 640,
    height: int = 400,
) -> str:
    """Render labeled (xs, ys) polylines into a standalone SVG document.

    Each series' xs and ys may be lists or arrays; a polyline pairs them up to
    the shorter of the two.
    """
    if not series:
        raise ValueError("need at least one series")
    columns = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for _, xs, ys in series]
    xs_all = np.concatenate([xs for xs, _ in columns])
    ys_all = np.concatenate([ys for _, ys in columns])
    if not xs_all.size:
        raise ValueError("series contain no points")
    if not (np.isfinite(xs_all).all() and np.isfinite(ys_all).all()):
        raise ValueError("chart data must be finite")
    x_lo, x_hi = _range(xs_all)
    y_lo, y_hi = _range(ys_all)
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM

    # scalars (ticks) and whole arrays (polylines) take the same operations in
    # the same order, so a point lands on the same double either way
    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return (MARGIN_TOP + plot_h) - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = _num(sx(xt))
        parts.append(f'<line x1="{px}" y1="{MARGIN_TOP + plot_h}" x2="{px}" y2="{MARGIN_TOP + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px}" y="{MARGIN_TOP + plot_h + 16}" text-anchor="middle">{_num(xt)}</text>')
    for yt in _ticks(y_lo, y_hi):
        py = _num(sy(yt))
        parts.append(f'<line x1="{MARGIN_LEFT - 4}" y1="{py}" x2="{MARGIN_LEFT}" y2="{py}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 6}" y="{py}" text-anchor="end" dominant-baseline="middle">{_num(yt)}</text>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{height - 8}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {MARGIN_TOP + plot_h // 2})">{y_label}</text>'
    )
    for i, ((label, _, _), (xs, ys)) in enumerate(zip(series, columns)):
        color = PALETTE[i % len(PALETTE)]
        n = min(xs.size, ys.size)
        coords = np.empty(2 * n)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow prints inf, as Python floats do
            coords[0::2], coords[1::2] = sx(xs[:n]), sy(ys[:n])
        points = ("%.6g,%.6g " * n % tuple(coords.tolist()))[:-1]  # "%.6g" formats like _num
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_TOP + 14 + 14 * i
        lx = MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
