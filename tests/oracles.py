"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force and kept separate from the code
under test: exact integer normal equations instead of an orthogonal solve,
compensated summation instead of running sums, linear scans instead of argmax.
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from xml.sax.saxutils import escape

import numpy as np

from basscast import (
    DivergenceError,
    EmptyInputError,
    EvaluationReport,
    FormatError,
    ForecastResult,
    ModelVariant,
    TimeSeries,
    ValidationError,
    cumulative,
    forecast,
    improvement_percent,
    mae,
    mape,
    rmse,
    sse,
)
from basscast.forecast import Candidate


def compensated_sum(values) -> float:
    """High-precision total via math.fsum."""
    return math.fsum(float(v) for v in values)


def lagged_cumulative(values) -> list[float]:
    """Accumulate one element at a time, independently of numpy."""
    out = [0.0]
    total = 0.0
    for v in values[:-1]:
        total += float(v)
        out.append(total)
    return out


def _det3(m: list[list[int]]) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def normal_equations_fit(demands) -> tuple[float, float, float, float]:
    """Exact least-squares (a, b, c, sse) for demand on lagged cumulative demand.

    Every float is an integer over a power of two, so scaling the demands by
    the largest denominator L makes them, their running sums D and D**2
    integers. The scaled regression d*L = a*L + b*(D*L) + (c/L)*(D*L)**2 has
    the same minimiser, so the 3x3 normal equations and Cramer's rule run in
    exact integer arithmetic, with one Fraction division per result at the end.
    """
    ratios = [float(x).as_integer_ratio() for x in demands]
    scale = max(den for _, den in ratios)
    d = [num * (scale // den) for num, den in ratios]
    D = [0]
    for x in d[:-1]:
        D.append(D[-1] + x)
    cols = [[1] * len(d), D, [x * x for x in D]]
    ata = [[sum(ci * cj for ci, cj in zip(c1, c2)) for c2 in cols] for c1 in cols]
    rhs = [sum(ci * di for ci, di in zip(c1, d)) for c1 in cols]
    det = _det3(ata)
    if det == 0:
        raise ZeroDivisionError("normal equations are singular")
    dets = []
    for k in range(3):
        mk = [row[:] for row in ata]
        for i in range(3):
            mk[i][k] = rhs[i]
        dets.append(_det3(mk))
    # The scaled solution is dets/det = (a*L, b, c/L); each residual, times det, is an integer.
    residuals = (det * di - dets[0] - dets[1] * Di - dets[2] * Di * Di for di, Di in zip(d, D))
    sse = Fraction(sum(r * r for r in residuals), (det * scale) ** 2)
    return (float(Fraction(dets[0], det * scale)), float(Fraction(dets[1], det)),
            float(Fraction(dets[2] * scale, det)), float(sse))


def quadratic_sse(demands, a: float, b: float, c: float) -> float:
    """Exact SSE of arbitrary (a, b, c) on the same regression, as a float."""
    d = [Fraction(float(x)) for x in demands]
    D = [Fraction(0)]
    for x in d[:-1]:
        D.append(D[-1] + x)
    af, bf, cf = Fraction(a), Fraction(b), Fraction(c)
    return float(sum((di - af - bf * Di - cf * Di * Di) ** 2 for di, Di in zip(d, D)))


def scan_argmax(values) -> tuple[int, float]:
    """Earliest-index maximum by explicit linear scan."""
    best_i, best_v = 0, float(values[0])
    for i, v in enumerate(values):
        if float(v) > best_v:
            best_i, best_v = i, float(v)
    return best_i, best_v


def scan_tail_start(values, height_fraction: float) -> int:
    """Hand enumeration of the first post-peak threshold crossing."""
    peak_i, peak_v = scan_argmax(values)
    min_v = min(float(v) for v in values)
    threshold = height_fraction * (peak_v - min_v) + min_v
    for i in range(peak_i + 1, len(values)):
        if float(values[i]) <= threshold:
            return i
    return len(values)


def group_by_month(rows) -> dict[str, float]:
    """Brute-force month totals for (\"YYYY-MM-DD...\", count) rows."""
    totals: dict[str, float] = {}
    for stamp, count in rows:
        key = str(stamp)[:7]
        totals[key] = totals.get(key, 0.0) + float(count)
    return totals


def sse_fsum(actual, predicted) -> float:
    return math.fsum((float(a) - float(p)) ** 2 for a, p in zip(actual, predicted))


def per_step_generate(series, coeffs, correction, mode, horizon, clamp) -> np.ndarray:
    """The original per-step forecast recursion, kept as the reference for forecast's.

    Every step goes through numpy scalars and np.isfinite. A curve diverges at
    the first period whose running total is not finite, or, over the observed
    range, at the first period whose left-to-right running sum of squared
    residuals is not finite (at n if only the pairwise total of those squares
    is not).
    """
    n = len(series)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    out = np.empty(n + horizon)

    def step(D: float) -> float:
        value = a + b * D + c * D * D + correction
        if clamp and value < 0.0:
            value = 0.0
        return value

    def diverged(t: int) -> DivergenceError:
        return DivergenceError(f"prediction overflowed at period {t}", period=t)

    def generate(running: float, periods: range) -> float:
        for t in periods:
            value = step(running)
            out[t - 1] = value
            running += value
            if not np.isfinite(running):
                raise diverged(t)
        return running

    if mode == "one_step":
        lagged = cumulative(series)
        for t in range(n):
            out[t] = step(float(lagged[t]))
        running = float(lagged[-1]) + float(series.demands[-1])
    else:
        running = generate(0.0, range(1, n + 1))
    squares = [(float(d) - float(p)) * (float(d) - float(p))
               for d, p in zip(series.demands, out[:n])]
    total = 0.0
    for t, square in enumerate(squares, 1):
        total += square
        if not np.isfinite(total):
            raise diverged(t)
    if not np.isfinite(np.add.reduce(np.array(squares))):
        raise diverged(n)
    # Beyond the data the recursion has to feed on its own output.
    generate(running, range(n + 1, n + horizon + 1))
    return out


def two_call_compare_models(
    series,
    coeffs,
    tail,
    mode: str = "simulated",
    variant: ModelVariant = ModelVariant.AUTO,
    clamp_nonnegative: bool = False,
) -> EvaluationReport:
    """compare_models as it was when it ran forecast twice, kept verbatim as the reference.

    It generates the classical curve on its own and then the requested
    variant, so under auto the classical curve is computed a second time.
    """
    classical = forecast(
        series,
        coeffs,
        tail,
        mode=mode,
        variant=ModelVariant.CLASSICAL,
        clamp_nonnegative=clamp_nonnegative,
    )
    modified = forecast(
        series,
        coeffs,
        tail,
        mode=mode,
        variant=variant,
        clamp_nonnegative=clamp_nonnegative,
    )
    sse_classical = sse(series, classical.predicted)
    sse_modified = sse(series, modified.predicted)
    # The one line not kept verbatim: a zero baseline under a positive modified SSE raises,
    # as in compare_models, where the two-call version reported 0.0.
    improvement = improvement_percent(sse_classical, sse_modified)
    mape_value, mape_skipped = mape(series, modified.predicted)
    # A report reads its SSEs, variant and curves from one result, so the two calls' numbers
    # go into one; the report reads only each record's curve and SSE.
    result = ForecastResult(modified.predicted, modified.variant_used, {
        ModelVariant.CLASSICAL: Candidate(classical.predicted, sse_classical, 0.0, math.nan),
        modified.variant_used: Candidate(modified.predicted, sse_modified, 0.0, math.nan),
    })
    return EvaluationReport(
        series,
        coeffs,
        tail,
        result,
        mode,
        improvement_percent=improvement,
        rmse=rmse(series, modified.predicted),
        mae=mae(series, modified.predicted),
        mape=mape_value,
        mape_skipped=mape_skipped,
    )


# parse_generic_csv as it was when it took rows from a generator and checked
# each with _blank, _check_ascending and _number, kept verbatim (helpers
# included) as the reference for the one-pass parser.


def _rows(text: str):
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        yield reader.line_num, row


def _blank(row: list[str]) -> bool:
    """True for a row with no cells or only whitespace in its cells."""
    return not "".join(row).strip()


def _check_ascending(label: str, previous: str | None, row_num: int) -> None:
    if previous is not None and label <= previous:
        raise ValidationError(f"period {label!r} does not ascend past {previous!r}", row=row_num)


def _number(cell: str, row_num: int, what: str = "value") -> float:
    """The finite number in a stripped cell, or FormatError naming the row."""
    try:
        value = float(cell)
    except ValueError:
        raise FormatError(f"unparseable {what} cell {cell!r}", row=row_num) from None
    if not math.isfinite(value):
        raise FormatError(f"{what} cell {cell!r} is not finite", row=row_num)
    return value


def _resolve_column(selector: str | int, header: list[str], row_num: int) -> int:
    if isinstance(selector, int):
        if not 0 <= selector < len(header):
            raise FormatError(
                f"column index {selector} out of range for header {header!r}", row=row_num
            )
        return selector
    stripped = [cell.strip() for cell in header]
    if selector not in stripped:
        raise FormatError(f"column {selector!r} not found in header {header!r}", row=row_num)
    return stripped.index(selector)


def row_by_row_parse_generic_csv(text: str, date_column: str | int = 0,
                                 value_column: str | int = 1) -> TimeSeries:
    """Parse a two-column CSV (period label, numeric demand) with one header row."""
    periods: list[str] = []
    demands: list[float] = []
    date_idx = value_idx = None
    unit = "unitless"
    for line_num, row in _rows(text):
        if _blank(row):
            continue
        if date_idx is None:
            date_idx = _resolve_column(date_column, row, line_num)
            value_idx = _resolve_column(value_column, row, line_num)
            unit = row[value_idx].strip() or "unitless"
            continue
        if len(row) <= max(date_idx, value_idx):
            raise FormatError(f"row has {len(row)} columns, need {max(date_idx, value_idx) + 1}",
                              row=line_num)
        label = row[date_idx].strip()
        _check_ascending(label, periods[-1] if periods else None, line_num)
        periods.append(label)
        demands.append(_number(row[value_idx].strip(), line_num))
    if date_idx is None:
        raise FormatError("no header row found; file has no data rows")
    if not periods:
        raise EmptyInputError("no data rows after the header")
    return TimeSeries(periods, demands, unit=unit)


# svgplot as it was when it formatted numpy float64 scalars one point at a
# time, kept verbatim except that render_comparison_svg takes the report
# alone and reads both predicted curves from it.


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def numpy_scalar_polyline(xs, ys, color: str, dash: str | None, label: str) -> str:
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline id="{label}" fill="none" stroke="{color}" stroke-width="2"'
        f'{dash_attr} points="{points}"/>'
    )


def numpy_scalar_comparison_svg(series: TimeSeries, report: EvaluationReport) -> str:
    VIEW_WIDTH, VIEW_HEIGHT = 960, 540
    _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 72, 24, 24, 96
    _COLOR_ACTUAL, _COLOR_CLASSICAL, _COLOR_MODIFIED = "#1f77b4", "#d62728", "#2ca02c"
    n = len(series)
    actual = series.demands
    classical = report.classical_predicted
    modified = report.modified_predicted

    x0, x1 = float(_MARGIN_LEFT), float(VIEW_WIDTH - _MARGIN_RIGHT)
    y0, y1 = float(VIEW_HEIGHT - _MARGIN_BOTTOM), float(_MARGIN_TOP)
    lo = min(actual.min(), classical.min(), modified.min())
    hi = max(actual.max(), classical.max(), modified.max())

    xs = _scale(np.arange(n, dtype=np.float64), 0.0, float(n - 1), x0, x1)
    curves = [
        numpy_scalar_polyline(xs, _scale(actual, lo, hi, y0, y1), _COLOR_ACTUAL, None,
                              "actual"),
        numpy_scalar_polyline(xs, _scale(classical, lo, hi, y0, y1), _COLOR_CLASSICAL, "8 5",
                              "classical"),
        numpy_scalar_polyline(xs, _scale(modified, lo, hi, y0, y1), _COLOR_MODIFIED,
                              "10 4 2 4", "modified"),
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


# cli._write_csv as it was when predictions.csv went through csv.writer, kept
# verbatim except that it returns the text instead of writing the file.


def csv_writer_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
