"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force and kept separate from the code
under test: exact rational normal equations instead of an orthogonal solve,
compensated summation instead of running sums, linear scans instead of argmax.
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

from basscast import (
    DIVERGENCE_GUARD,
    DivergenceError,
    EmptyInputError,
    EvaluationReport,
    ForecastConfig,
    FormatError,
    IngestOptions,
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


def _det3(m: list[list[Fraction]]) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def normal_equations_fit(demands) -> tuple[float, float, float, float]:
    """Exact least-squares (a, b, c, sse) for demand on lagged cumulative demand.

    Floats convert to Fractions losslessly, so building and solving the 3x3
    normal equations in rational arithmetic yields the exact minimiser of the
    float data; Cramer's rule is plenty for a 3x3 system.
    """
    d = [Fraction(float(x)) for x in demands]
    D = [Fraction(0)]
    for x in d[:-1]:
        D.append(D[-1] + x)
    cols = [[Fraction(1)] * len(d), D, [x * x for x in D]]
    ata = [[sum(ci * cj for ci, cj in zip(c1, c2)) for c2 in cols] for c1 in cols]
    rhs = [sum(ci * di for ci, di in zip(c1, d)) for c1 in cols]
    det = _det3(ata)
    if det == 0:
        raise ZeroDivisionError("normal equations are singular")
    beta = []
    for k in range(3):
        mk = [row[:] for row in ata]
        for i in range(3):
            mk[i][k] = rhs[i]
        beta.append(_det3(mk) / det)
    a, b, c = beta
    sse = sum((di - a - b * Di - c * Di * Di) ** 2 for di, Di in zip(d, D))
    return float(a), float(b), float(c), float(sse)


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
    """The original per-step forecast recursion, kept verbatim as the reference.

    Every step goes through numpy scalars and np.isfinite, and the loop and
    the divergence guard are written out once per mode.
    """
    n = len(series)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    out = np.empty(n + horizon)

    def step(D: float, t: int) -> float:
        value = a + b * D + c * D * D + correction
        if clamp and value < 0.0:
            value = 0.0
        if not np.isfinite(value):
            raise DivergenceError(f"prediction overflowed at period {t}", period=t)
        return value

    if mode == "one_step":
        lagged = cumulative(series)
        for t in range(n):
            out[t] = step(float(lagged[t]), t + 1)
        # Beyond the data the recursion has to feed on its own output.
        running = float(lagged[-1]) + float(series.demands[-1])
        for h in range(horizon):
            t = n + h + 1
            value = step(running, t)
            out[n + h] = value
            running += value
            if abs(running) > DIVERGENCE_GUARD:
                raise DivergenceError(
                    f"simulated cumulative demand exceeded {DIVERGENCE_GUARD:g} "
                    f"at period {t}",
                    period=t,
                )
    else:
        running = 0.0
        for t in range(1, n + horizon + 1):
            value = step(running, t)
            out[t - 1] = value
            running += value
            if abs(running) > DIVERGENCE_GUARD:
                raise DivergenceError(
                    f"simulated cumulative demand exceeded {DIVERGENCE_GUARD:g} "
                    f"at period {t}",
                    period=t,
                )
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
        ForecastConfig(mode=mode, variant=ModelVariant.CLASSICAL,
                       clamp_nonnegative=clamp_nonnegative),
    )
    modified = forecast(
        series,
        coeffs,
        tail,
        ForecastConfig(mode=mode, variant=variant, clamp_nonnegative=clamp_nonnegative),
    )
    sse_classical = sse(series, classical.predicted)
    sse_modified = sse(series, modified.predicted)
    improvement = (
        0.0 if sse_classical == 0.0 else improvement_percent(sse_classical, sse_modified)
    )
    mape_value, mape_skipped = mape(series, modified.predicted)
    return EvaluationReport(
        sse_classical=sse_classical,
        sse_modified=sse_modified,
        variant_used=modified.variant_used,
        improvement_percent=improvement,
        mode=mode,
        tail_profile=tail,
        rmse=rmse(series, modified.predicted),
        mae=mae(series, modified.predicted),
        mape=mape_value,
        mape_skipped=mape_skipped,
        classical_predicted=classical.predicted,
        modified_predicted=modified.predicted,
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
        raise ValidationError(
            f"row {row_num}: period {label!r} does not ascend past {previous!r}"
        )


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


def row_by_row_parse_generic_csv(text: str, opts: IngestOptions = IngestOptions()) -> TimeSeries:
    """Parse a two-column CSV (period label, numeric demand) with one header row."""
    periods: list[str] = []
    demands: list[float] = []
    date_idx = value_idx = None
    unit = "unitless"
    for line_num, row in _rows(text):
        if _blank(row):
            continue
        if date_idx is None:
            date_idx = _resolve_column(opts.date_column, row, line_num)
            value_idx = _resolve_column(opts.value_column, row, line_num)
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


def numpy_scalar_polyline(xs, ys, color: str, dash: str | None, label: str) -> str:
    """svgplot._polyline as it was when it formatted numpy float64 scalars, kept verbatim."""
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline id="{label}" fill="none" stroke="{color}" stroke-width="2"'
        f'{dash_attr} points="{points}"/>'
    )
