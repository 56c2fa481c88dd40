"""Parsers that turn external CSV data into TimeSeries.

Three formats are supported:

* Google-Trends-style exports: optional metadata lines (for example a
  "Category: ..." line and a blank line), a header row ``Month,<term>: (<region>)``,
  then ``YYYY-MM,<value>`` rows where the value is 0-100 or the literal "<1".
* Generic CSV with one header row; period and value columns are selected by
  name or 0-based index. RFC-4180 quoting is honoured.
* Transaction logs with (ISO-8601 timestamp, count) columns, aggregated to a
  monthly series; months without transactions inside the observed span are
  emitted with demand 0 so cumulative demand stays defined over real time.

Row numbers in error messages are 1-based and count every physical line,
header and metadata included.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Sequence

from .errors import EmptyInputError, FormatError, ParameterError, ValidationError
from .series import _MONTH_RE, TimeSeries, monthly_periods

LESS_THAN_ONE_POLICIES = {"as_half": 0.5, "as_zero": 0.0, "as_one": 1.0}


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for the parsers.

    less_than_one_policy maps censored "<1" Trends cells to 0.5, 0 or 1.
    date_column / value_column select generic-CSV columns by header name or
    0-based index. Transaction logs are always aggregated monthly.
    """

    less_than_one_policy: str = "as_half"
    date_column: str | int = 0
    value_column: str | int = 1

    def __post_init__(self):
        if self.less_than_one_policy not in LESS_THAN_ONE_POLICIES:
            raise ParameterError(
                f"less_than_one_policy must be one of {sorted(LESS_THAN_ONE_POLICIES)}, "
                f"got {self.less_than_one_policy!r}"
            )

    @property
    def less_than_one_value(self) -> float:
        return LESS_THAN_ONE_POLICIES[self.less_than_one_policy]


def _rows(text: str) -> Iterable[tuple[int, list[str]]]:
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


def parse_google_trends_csv(text: str, opts: IngestOptions = IngestOptions()) -> TimeSeries:
    """Parse a Google Trends CSV export into a monthly trend-index series."""
    periods: list[str] = []
    demands: list[float] = []
    header_term = None
    in_data = False
    last_line = 0
    for line_num, row in _rows(text):
        last_line = line_num
        if not in_data:
            if _blank(row):
                continue
            first = row[0].strip()
            if first == "Month":
                header_term = row[1].strip() if len(row) > 1 else None
                in_data = True
                continue
            if _MONTH_RE.match(first):
                raise FormatError(
                    f"data row {first!r} appeared before the 'Month' header", row=line_num
                )
            continue  # metadata line, e.g. "Category: ..."
        if _blank(row):
            continue
        if len(row) < 2:
            raise FormatError(f"expected 'YYYY-MM,value', got {row!r}", row=line_num)
        label = row[0].strip()
        if not _MONTH_RE.match(label):
            raise FormatError(f"month label {label!r} is not YYYY-MM", row=line_num)
        _check_ascending(label, periods[-1] if periods else None, line_num)
        cell = row[1].strip()
        if cell == "<1":
            value = opts.less_than_one_value
        else:
            value = _number(cell, line_num)
            if not 0.0 <= value <= 100.0:
                raise FormatError(f"trend value {cell!r} is outside 0-100", row=line_num)
        periods.append(label)
        demands.append(value)
    if not in_data:
        raise FormatError("no 'Month' header row found", row=last_line or None)
    if not periods:
        raise EmptyInputError("no data rows after the header")
    unit = "trend-index" if not header_term else f"trend-index: {header_term}"
    return TimeSeries(periods, demands, unit=unit)


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


def parse_generic_csv(text: str, opts: IngestOptions = IngestOptions()) -> TimeSeries:
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


def _parse_timestamp(cell: str, row_num: int) -> str:
    """The "YYYY-MM" month of an ISO-8601 date or datetime string."""
    text = cell.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    for parser in (datetime.fromisoformat, date.fromisoformat):
        try:
            stamp = parser(text)
        except ValueError:
            continue
        return f"{stamp.year:04d}-{stamp.month:02d}"
    raise FormatError(f"unparseable timestamp {cell!r}", row=row_num)


def aggregate_transactions(
    rows: Sequence[tuple[str, float]],
    first_row_number: int = 1,
) -> TimeSeries:
    """Sum transaction counts into a monthly demand series.

    Months with no transactions between the first and last observed month are
    emitted with demand 0, so the total demand always equals the total of the
    input counts.
    """
    if not rows:
        raise EmptyInputError("no transaction rows")
    buckets: dict[str, float] = {}
    for offset, (stamp, count) in enumerate(rows):
        row_num = first_row_number + offset
        key = _parse_timestamp(str(stamp), row_num)
        count = float(count)
        if count < 0:
            raise ValidationError(f"row {row_num}: negative count {count}")
        buckets[key] = buckets.get(key, 0.0) + count
    first, last = min(buckets), max(buckets)
    months = 12 * (int(last[:4]) - int(first[:4])) + int(last[5:]) - int(first[5:]) + 1
    periods = monthly_periods(months, first)
    demands = [buckets.get(label, 0.0) for label in periods]
    return TimeSeries(periods, demands, unit="transactions/month")


def parse_transactions_csv(text: str, opts: IngestOptions = IngestOptions()) -> TimeSeries:
    """Parse a (timestamp, count) CSV, with or without a header row, and aggregate monthly."""
    rows: list[tuple[str, float]] = []
    first_data_line = 1
    for line_num, row in _rows(text):
        if _blank(row):
            continue
        if len(row) < 2:
            raise FormatError(f"expected 'timestamp,count', got {row!r}", row=line_num)
        if not rows and first_data_line == 1:
            # Treat the first row as a header when its count cell is not numeric.
            try:
                float(row[1])
            except ValueError:
                first_data_line = line_num + 1
                continue
        rows.append((row[0], _number(row[1].strip(), line_num, "count")))
        if len(rows) == 1:
            first_data_line = line_num
    if not rows:
        raise EmptyInputError("no data rows")
    return aggregate_transactions(rows, first_row_number=first_data_line)


def to_generic_csv(series: TimeSeries) -> str:
    """Serialise a series as generic CSV that parse_generic_csv round-trips."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period", "demand"])
    for label, value in zip(series.periods, series.demands):
        writer.writerow([label, repr(float(value))])
    return out.getvalue()
