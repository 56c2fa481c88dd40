"""Self-contained SVG emitter for actual-vs-predicted comparison charts.

Charts are plain hand-assembled SVG with no external assets or timestamps,
so identical inputs produce byte-identical files that diff cleanly in
version control.
"""
from __future__ import annotations

import re

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


# What XML 1.0 allows in no document: C0 controls but TAB, LF, CR; surrogates; U+FFFE, U+FFFF.
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """Text with each code point XML 1.0 forbids made U+FFFD, then &, < and > made entities.

    The entities are what the stdlib SAX ``escape`` writes. That ``escape`` is
    not imported: its module loads urllib.request and, with it, the http, ssl,
    socket and email packages, about a fifth of the memory of a basscast
    process that never uses them
    (tests/test_cli.py::test_cli_import_loads_no_network_or_mail_modules).
    """
    text = _XML_FORBIDDEN.sub("\ufffd", text)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def _check_points(series: TimeSeries) -> None:
    """Raise DegeneratePlotError unless series has the 2 points a comparison chart needs."""
    if len(series) < 2:
        raise DegeneratePlotError(f"series has {len(series)} point(s); at least 2 are needed "
                                  "to draw comparison curves - provide more data")


def render_comparison_svg(report: EvaluationReport) -> str:
    """Render the report's series and its two predictions into a 960x540 SVG document.

    The actual, classical and modified curves are drawn as polylines (solid,
    dashed, dash-dot) over the observed range with linear min-max scaling, a
    legend, axis labels and a caption carrying the SSE and improvement figures.
    The x coordinates depend only on n, so they are formatted once, into one
    template that each curve fills with its y values in one C-level ``%``.
    One pass over the three curves draws each polyline with its legend entry;
    a curve passed twice as the same array (modified is classical when
    classical wins) is scaled and formatted once, and both polylines share it
    (tests/test_cli.py::TestSharedCurveFormattedOnce). The bytes are those of
    the per-point renderer kept in tests/oracles.py, with and without a shared
    curve (tests/test_svgplot.py::test_svg_bytes_match_numpy_scalar_formatting).
    """
    series = report.series
    _check_points(series)
    n = len(series)
    actual = series.demands
    classical = report.classical_predicted
    modified = report.modified_predicted

    x0, x1 = float(_MARGIN_LEFT), float(VIEW_WIDTH - _MARGIN_RIGHT)
    y0, y1 = float(VIEW_HEIGHT - _MARGIN_BOTTOM), float(_MARGIN_TOP)
    lo = min(actual.min(), classical.min(), modified.min())
    hi = max(actual.max(), classical.max(), modified.max())

    # The x coordinates depend only on n: format them once, into one template for all
    # three curves that holds a "%.3f" for each y.
    xs = _scale(np.arange(n, dtype=np.float64), 0.0, float(n - 1), x0, x1)
    template = " ".join(["%.3f,%%.3f"] * n) % tuple(xs.tolist())
    # One row per curve: (id, values, color, dash attribute, legend text).
    table = [
        ("actual", actual, _COLOR_ACTUAL, "", "actual"),
        ("classical", classical, _COLOR_CLASSICAL, ' stroke-dasharray="8 5"', "classical"),
        ("modified", modified, _COLOR_MODIFIED, ' stroke-dasharray="10 4 2 4"',
         f"modified ({report.variant_used.value})"),
    ]
    points, curves, legend = {}, [], []
    for i, (label, values, color, dash, text) in enumerate(table):
        if id(values) not in points:
            points[id(values)] = template % tuple(_scale(values, lo, hi, y0, y1).tolist())
        curves.append(f'<polyline id="{label}" fill="none" stroke="{color}" stroke-width="2"'
                      f'{dash} points="{points[id(values)]}"/>')
        ly = _MARGIN_TOP + 14 + 20 * i
        legend.append(f'<line x1="{x1 - 190:.0f}" y1="{ly}" x2="{x1 - 158:.0f}" y2="{ly}" '
                      f'stroke="{color}" stroke-width="2"{dash}/>')
        legend.append(
            f'<text x="{x1 - 150:.0f}" y="{ly + 4}" font-size="13">{_escape(text)}</text>')

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
        f'<text x="{x0:.0f}" y="{y0 + 18:.0f}" font-size="12">{_escape(series.periods[0])}</text>',
        f'<text x="{x1:.0f}" y="{y0 + 18:.0f}" font-size="12" text-anchor="end">'
        f"{_escape(series.periods[-1])}</text>",
        f'<text x="{(x0 + x1) / 2:.0f}" y="{y0 + 34:.0f}" font-size="13" '
        f'text-anchor="middle">period</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{_escape(series.unit)}</text>',
        *curves,
        *legend,
        f'<text x="{x0:.0f}" y="{VIEW_HEIGHT - 40}" font-size="13">{_escape(caption)}</text>',
        f'<text x="{x0:.0f}" y="{VIEW_HEIGHT - 20}" font-size="13">{_escape(tail_line)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
