"""SVG line charts: the array renderer against the per-point renderer it replaced."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret.svgchart import line_chart

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 16, 28, 44


def _num(v: float) -> str:
    return f"{float(v):.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def per_point_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
    width: int = 640,
    height: int = 400,
) -> str:
    """Oracle: the renderer that scales and formats one point at a time in Python floats."""
    if not series:
        raise ValueError("need at least one series")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series contain no points")
    if any(not (math.isfinite(v)) for v in xs_all + ys_all):
        raise ValueError("chart data must be finite")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

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
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_num(sx(x))},{_num(sy(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_TOP + 14 + 14 * i
        lx = MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_all_ways(series, **labels):
    """(oracle, list input, array input) renderings, failing on any RuntimeWarning."""
    arrays = [(label, np.array(xs, dtype=float), np.array(ys, dtype=float)) for label, xs, ys in series]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return (per_point_line_chart(series, **labels), line_chart(series, **labels), line_chart(arrays, **labels))


LABELS = dict(title="t", x_label="x", y_label="y")

# finite values up to 1e100 in magnitude, with signed zeros, subnormals and exact ties
VALUE = st.one_of(
    st.floats(-1e100, 1e100),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e100, -1e100]),
)


def column(n):
    """n values: arbitrary, one value repeated (a constant series), or drawn from a tiny pool (ties)."""
    return st.one_of(
        st.lists(VALUE, min_size=n, max_size=n),
        VALUE.map(lambda v: [v] * n),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 3.0]), min_size=n, max_size=n),
    )


SERIES = st.integers(1, 300).flatmap(lambda n: st.tuples(st.sampled_from(["a", "b"]), column(n), column(n)))


@settings(max_examples=60, deadline=None)
@given(series=st.lists(SERIES, min_size=1, max_size=3))
def test_array_renderer_is_the_per_point_renderer_byte_for_byte(series):
    try:
        oracle, from_lists, from_arrays = render_all_ways(series, **LABELS)
    except ZeroDivisionError:
        # the per-point renderer divided by a zero span when all x (or all y) sat on one
        # value beyond 2^53, where adding 1 does not widen the range; the array renderer draws it
        flat = [set(v for s in series for v in s[i]) for i in (1, 2)]
        assert any(len(vs) == 1 and abs(next(iter(vs))) >= 2.0 ** 53 for vs in flat), series
        arrays = [(label, np.array(xs, dtype=float), np.array(ys, dtype=float)) for label, xs, ys in series]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert line_chart(series, **LABELS) == line_chart(arrays, **LABELS)
        return
    assert from_lists == oracle
    assert from_arrays == oracle


def test_flat_range_beyond_unit_spacing_is_drawn():
    # lowerbound --A 1e10 below n = 128 charts one point near 1e20, which used to end in a traceback
    svg = line_chart([("mean regret", [math.log(16)], [2.167e20])], **LABELS)
    assert not re.search(r"\b(nan|inf)\b", svg)
    assert 'points="64,' in svg


def test_regret_chart_shape_is_byte_identical():
    # the `regret --svg` input: steps 1..n against two cumulative sums, one long polyline each
    n = 5000
    rng = np.random.default_rng(0)
    steps = np.arange(1.0, n + 1)
    low = np.cumsum(rng.uniform(0.0, 1.0, n))
    series = [("certified loss", steps, low), ("certificate", steps, low + np.cumsum(rng.uniform(0.0, 0.1, n)))]
    oracle = per_point_line_chart([(label, xs.tolist(), ys.tolist()) for label, xs, ys in series], **LABELS)
    assert line_chart(series, **LABELS) == oracle


def test_series_of_unequal_lengths_pair_up_to_the_shorter():
    series = [("a", [0.0, 1.0, 2.0], [5.0, 4.0]), ("b", [1.0], [0.5, 9.0])]
    oracle, from_lists, from_arrays = render_all_ways(series, **LABELS)
    assert from_lists == oracle == from_arrays


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("as_array", [False, True])
def test_non_finite_data_is_refused(bad, where, as_array):
    xs, ys = [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    (xs if where == "x" else ys)[1] = bad
    if as_array:
        xs, ys = np.array(xs), np.array(ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            line_chart([("s", xs, ys)], **LABELS)


@pytest.mark.parametrize("series", [[], [("s", [], [])]], ids=["no-series", "no-points"])
def test_empty_charts_are_refused(series):
    with pytest.raises(ValueError):
        line_chart(series, **LABELS)
