"""Self-contained SVG emitter for actual-vs-predicted comparison charts.

Charts are plain hand-assembled SVG with no external assets or timestamps,
so identical inputs produce byte-identical files that diff cleanly in
version control.
"""
from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .errors import DegeneratePlotError
from .evaluation import EvaluationReport
from .series import TimeSeries

VIEW_WIDTH = 960
VIEW_HEIGHT = 540

_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 96

_COLOR_ACTUAL = "#1f77b4"
_COLOR_CLASSICAL = "#d62728"
_COLOR_MODIFIED = "#2ca02c"


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str, dash: str | None, label: str) -> str:
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs.tolist(), ys.tolist()))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline id="{label}" fill="none" stroke="{color}" stroke-width="2"'
        f'{dash_attr} points="{points}"/>'
    )


def render_comparison_svg(
    series: TimeSeries,
    classical: Sequence[float],
    modified: Sequence[float],
    report: EvaluationReport,
) -> str:
    """Render actual, classical and modified curves into a 960x540 SVG document.

    The three curves are drawn as polylines (solid, dashed, dash-dot) over the
    observed range with linear min-max scaling, a legend, axis labels and a
    caption carrying the SSE and improvement figures.
    """
    n = len(series)
    if n < 2:
        raise DegeneratePlotError(
            f"series has {n} point(s); at least 2 are needed to draw comparison "
            "curves - provide more data"
        )
    actual = series.demands
    classical = np.asarray(classical, dtype=np.float64)[:n]
    modified = np.asarray(modified, dtype=np.float64)[:n]

    x0, x1 = float(_MARGIN_LEFT), float(VIEW_WIDTH - _MARGIN_RIGHT)
    y0, y1 = float(VIEW_HEIGHT - _MARGIN_BOTTOM), float(_MARGIN_TOP)
    lo = min(actual.min(), classical.min(), modified.min())
    hi = max(actual.max(), classical.max(), modified.max())

    xs = _scale(np.arange(n, dtype=np.float64), 0.0, float(n - 1), x0, x1)
    curves = [
        _polyline(xs, _scale(actual, lo, hi, y0, y1), _COLOR_ACTUAL, None, "actual"),
        _polyline(xs, _scale(classical, lo, hi, y0, y1), _COLOR_CLASSICAL, "8 5", "classical"),
        _polyline(xs, _scale(modified, lo, hi, y0, y1), _COLOR_MODIFIED, "10 4 2 4", "modified"),
    ]

    legend_entries = [
        (_COLOR_ACTUAL, "", "actual"),
        (_COLOR_CLASSICAL, ' stroke-dasharray="8 5"', "classical"),
        (_COLOR_MODIFIED, ' stroke-dasharray="10 4 2 4"', f"modified ({report.variant_used.value})"),
    ]
    legend = []
    for i, (color, dash, text) in enumerate(legend_entries):
        ly = _MARGIN_TOP + 14 + 20 * i
        legend.append(
            f'<line x1="{x1 - 190:.0f}" y1="{ly}" x2="{x1 - 158:.0f}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        legend.append(
            f'<text x="{x1 - 150:.0f}" y="{ly + 4}" font-size="13">{escape(text)}</text>'
        )

    caption = (
        f"SSE classical {report.sse_classical:.4f} | SSE modified {report.sse_modified:.4f} | "
        f"improvement {report.improvement_percent:.2f}% | mode {report.mode}"
    )
    tail_line = (
        f"tail_per {report.tail_profile.tail_per:.4f} | r1 {report.tail_profile.r1:.4f} | "
        f"r2 {report.tail_profile.r2:.4f}"
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_WIDTH} {VIEW_HEIGHT}" '
        f'width="{VIEW_WIDTH}" height="{VIEW_HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{VIEW_WIDTH}" height="{VIEW_HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
        f'<text x="{x0 - 8:.0f}" y="{y0 + 4:.0f}" font-size="12" text-anchor="end">{lo:.6g}</text>',
        f'<text x="{x0 - 8:.0f}" y="{y1 + 4:.0f}" font-size="12" text-anchor="end">{hi:.6g}</text>',
        f'<text x="{x0:.0f}" y="{y0 + 18:.0f}" font-size="12">{escape(series.periods[0])}</text>',
        f'<text x="{x1:.0f}" y="{y0 + 18:.0f}" font-size="12" text-anchor="end">'
        f"{escape(series.periods[-1])}</text>",
        f'<text x="{(x0 + x1) / 2:.0f}" y="{y0 + 34:.0f}" font-size="13" '
        f'text-anchor="middle">period</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{escape(series.unit)}</text>',
        *curves,
        *legend,
        f'<text x="{x0:.0f}" y="{VIEW_HEIGHT - 40}" font-size="13">{escape(caption)}</text>',
        f'<text x="{x0:.0f}" y="{VIEW_HEIGHT - 20}" font-size="13">{escape(tail_line)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
