"""Parsers that turn external CSV data into TimeSeries, and csv_text, which writes CSV.

Three formats are supported:

* Google-Trends-style exports: optional metadata lines (for example a
  "Category: ..." line and a blank line), a header row ``Month,<term>: (<region>)``,
  then ``YYYY-MM,<value>`` rows where the value is 0-100 or the literal "<1".
* Generic CSV with one header row; period and value columns are selected by
  name or 0-based index. RFC-4180 quoting is honoured. A file that str.split
  cuts into the cells csv.reader would, header included, is read whole
  (_split_series); any other is read row by row.
* Transaction logs with (ISO-8601 timestamp, count) columns, aggregated to a
  monthly series. A timestamp is a valid date and time in _STAMP_RE's grammar;
  months without transactions inside the observed span are emitted with demand
  0 so cumulative demand stays defined over real time. The span may not pass
  MAX_TRANSACTION_MONTHS.

Every row-by-row read walks _rows, which skips blank rows (no cells, or only
whitespace in them). Row numbers in error messages, and in the errors'
``row`` attribute, are 1-based and count every physical line, header,
metadata and blank lines included, in decode_utf8 too.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import re
from datetime import datetime
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyInputError, FormatError, ParameterError, ValidationError
from .series import _MONTH_RE, TimeSeries, _month_number, monthly_periods

LESS_THAN_ONE_POLICIES = {"as_half": 0.5, "as_zero": 0.0, "as_one": 1.0}

# A transactions log may span at most this many months, zero-filled ones included,
# so a mistyped year fails instead of padding centuries of zero months.
MAX_TRANSACTION_MONTHS = 1200


def decode_utf8(data: bytes) -> str:
    """A file's bytes as text after any UTF-8 BOM, or FormatError naming the bad byte's row.

    One decode of the whole file makes the error's offset a file offset. Line
    ends are not translated: the parsers split CR, LF and CRLF themselves.
    """
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]  # the file after any BOM, up to the bad byte
        row = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"not UTF-8: {exc.reason} (byte {exc.object[exc.start]:#04x})",
                          row=row) from None


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(physical line, cells) for each row of text with a cell that is not all whitespace.

    The StringIO is opened with newline="", so it splits lines where
    csv.reader does. csv.reader raises csv.Error for a cell longer than
    csv.field_size_limit(); that becomes a FormatError naming the line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"unreadable CSV: {exc}", row=reader.line_num) from None


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


def parse_google_trends_csv(text: str, less_than_one: str = "as_half") -> TimeSeries:
    """Parse a Google Trends CSV export into a monthly trend-index series.

    less_than_one names the value of a censored "<1" cell, one of
    LESS_THAN_ONE_POLICIES: "as_half" (0.5), "as_zero" (0) or "as_one" (1).
    """
    if less_than_one not in LESS_THAN_ONE_POLICIES:
        raise ParameterError(f"less_than_one must be one of {sorted(LESS_THAN_ONE_POLICIES)}, "
                             f"got {less_than_one!r}")
    censored = LESS_THAN_ONE_POLICIES[less_than_one]
    rows = _rows(text)
    for line_num, row in rows:
        first = row[0].strip()
        if first == "Month":
            break
        if _MONTH_RE.fullmatch(first):
            raise FormatError(f"data row {first!r} appeared before the 'Month' header",
                              row=line_num)
        # Otherwise a metadata line, e.g. "Category: ...".
    else:
        raise FormatError("no 'Month' header row found")
    header_term = row[1].strip() if len(row) > 1 else None
    periods: list[str] = []
    demands: list[float] = []
    for line_num, row in rows:
        if len(row) < 2:
            raise FormatError(f"expected 'YYYY-MM,value', got {row!r}", row=line_num)
        label = row[0].strip()
        if not _MONTH_RE.fullmatch(label):
            raise FormatError(f"month label {label!r} is not YYYY-MM", row=line_num)
        _check_ascending(label, periods[-1] if periods else None, line_num)
        cell = row[1].strip()
        if cell == "<1":
            value = censored
        else:
            value = _number(cell, line_num)
            if not 0.0 <= value <= 100.0:
                raise FormatError(f"trend value {cell!r} is outside 0-100", row=line_num)
        periods.append(label)
        demands.append(value)
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


def _split_series(text: str, date_column: str | int, value_column: str | int) -> TimeSeries | None:
    """The series in a generic CSV read with str.split, header included, or None.

    This is the whole-file path of parse_generic_csv. It takes only a text
    where str.split cuts the cells csv.reader would: no '"', no NUL (which
    csv.reader rejects before Python 3.11), every CR part of a CRLF, a first
    line that is the header (not blank), every line holding as many cells as
    the header, and no line longer than csv.field_size_limit(). It returns
    None for any other text, and for one whose cells do not convert or whose
    series does not validate; the row loop then reads the text and names the
    row at fault. It raises in one case only: a header that lacks a selected
    column raises the row loop's FormatError for row 1.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    text = text.rstrip("\n")  # blank lines at the end, which the row loop skips too
    end = text.find("\n")
    header = text[:end].split(",")
    if end < 0 or not "".join(header).strip():
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split("\n"))) > limit:
        return None
    # Line 1 is also the row loop's first row, with the same cells, so the error is the loop's.
    date_idx = _resolve_column(date_column, header, 1)
    value_idx = _resolve_column(value_column, header, 1)
    # Each cell holds at most one "\n", at its start. So every line has the header's cell count
    # exactly when the cells number that count per line and every step-th one starts a line.
    lines = text.count("\n") + 1
    cells = text.replace("\n", ",\n").split(",")
    step = len(header)
    if len(cells) != step * lines or "".join(cells[step::step]).count("\n") != lines - 1:
        return None
    try:
        # TimeSeries checks in C-level passes that the values are finite and the labels ascend.
        return TimeSeries(map(str.strip, cells[step + date_idx::step]),
                          list(map(float, cells[step + value_idx::step])),
                          unit=header[value_idx].strip() or "unitless")
    except (ValueError, ValidationError):
        return None


def parse_generic_csv(text: str, date_column: str | int = 0,
                      value_column: str | int = 1) -> TimeSeries:
    """Parse a CSV with one header row into a series of (period label, numeric demand).

    date_column and value_column select the two columns by header name or
    0-based index. A text _split_series reads is taken whole, with no copy
    into a StringIO (tests/test_ingest.py::test_split_path_builds_no_stringio);
    any other is read row by row, cell by cell (column count, label order, then
    value) as the Trends parser reads, so only a file the whole-file path
    refuses pays for the slower row loop. Both paths give the same series, or
    the same error class, message and row
    (tests/test_ingest.py::test_one_pass_parser_matches_row_by_row_reference).
    """
    series = _split_series(text, date_column, value_column)
    if series is not None:
        return series
    rows = _rows(text)
    for header_num, header in rows:
        break
    else:
        raise FormatError("no header row found; file has no data rows")
    date_idx = _resolve_column(date_column, header, header_num)
    value_idx = _resolve_column(value_column, header, header_num)
    need = max(date_idx, value_idx) + 1
    periods: list[str] = []
    demands: list[float] = []
    for line_num, row in rows:
        if len(row) < need:
            raise FormatError(f"row has {len(row)} columns, need {need}", row=line_num)
        label = row[date_idx].strip()
        _check_ascending(label, periods[-1] if periods else None, line_num)
        periods.append(label)
        demands.append(_number(row[value_idx].strip(), line_num))
    if not periods:
        raise EmptyInputError("no data rows after the header")
    return TimeSeries(periods, demands, unit=header[value_idx].strip() or "unitless")


# A timestamp: YYYY-MM-DD, then optionally any one character and HH[:MM[:SS[.fff|.ffffff]]],
# then optionally Z or ±HH:MM[:SS[.ffffff]]. That is the form Python 3.10, the oldest supported,
# documents for datetime.fromisoformat, plus Z. Later Pythons read more (basic and week dates,
# "," and other fraction lengths, "+HH" offsets), so each stamp is matched here first.
_STAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
                       r"(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?)?"
                       r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?", re.DOTALL)


def _month(cell: str) -> str | None:
    """The "YYYY-MM" month of a timestamp cell, or None for a cell that holds none.

    A timestamp matches _STAMP_RE, and datetime.fromisoformat then checks
    it against the calendar and the ranges of hours, minutes and offsets.
    """
    text = cell.strip()
    if not _STAMP_RE.fullmatch(text):
        return None
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        datetime.fromisoformat(text)
    except ValueError:
        return None
    return text[:7]


def _monthly_series(buckets: dict[str, float]) -> TimeSeries:
    """The month totals as a series, months with no transactions set to 0; a long span raises."""
    first, last = min(buckets), max(buckets)
    months = _month_number(last) - _month_number(first) + 1
    if months > MAX_TRANSACTION_MONTHS:
        raise ValidationError(f"transactions span {months} months, {first} to {last}; "
                              f"at most {MAX_TRANSACTION_MONTHS} are allowed")
    periods = monthly_periods(months, first)
    demands = [buckets.get(label, 0.0) for label in periods]
    return TimeSeries(periods, demands, unit="transactions/month")


def parse_transactions_csv(text: str) -> TimeSeries:
    """Parse a (timestamp, count) CSV, with or without a header row, and aggregate monthly.

    The first non-blank row is a header when its count cell is not a number
    and its timestamp cell is not a timestamp; otherwise it is data. Each
    row's finite, non-negative count is added to its month as it is read, so
    the first bad row in file order raises.
    """
    buckets: dict[str, float] = {}
    first = True
    for line_num, row in _rows(text):
        if len(row) < 2:
            raise FormatError(f"expected 'timestamp,count', got {row!r}", row=line_num)
        key = _month(row[0])
        if first:
            first = False
            if key is None:
                try:
                    float(row[1])
                except ValueError:
                    continue  # a header: neither a timestamp nor a count
        count = _number(row[1].strip(), line_num, "count")
        if key is None:
            raise FormatError(f"unparseable timestamp {row[0]!r}", row=line_num)
        if count < 0:
            raise ValidationError(f"negative count {count}", row=line_num)
        total = buckets.get(key, 0.0) + count
        if not math.isfinite(total):
            raise ValidationError(f"demand at period {key!r} is not finite", row=line_num)
        buckets[key] = total
    if not buckets:
        raise EmptyInputError("no data rows")
    return _monthly_series(buckets)


# A label holding one of these is quoted when written.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(label: str) -> str:
    return '"' + label.replace('"', '""') + '"' if _NEEDS_QUOTES.search(label) else label


def csv_text(header: Sequence[str], labels: Sequence[str], *columns: np.ndarray) -> str:
    """CSV text: the header, then one line per label with its value from each float64 column.

    Every CSV basscast writes comes from here: predictions.csv of evaluate and
    forecast, and to_generic_csv, which synth writes. A value cell is the repr
    of a Python float from ``tolist()``, or "" past the end of a shorter column
    (forecast's horizon rows); neither needs quoting, so the text is one
    C-level join of the cells. A column object given more than once is
    formatted once and its cells shared: 2n reprs for n rows of
    predictions.csv, not 3n, when classical wins
    (tests/test_cli.py::TestSharedCurveFormattedOnce). A label that holds ',',
    '"', CR or LF is quoted in RFC 4180 style (wrapped in '"', inner '"'
    doubled); one search over all the labels decides whether any label does.
    The bytes are those of csv.writer, kept in tests/oracles.py, wherever its
    file reads back as the table it was given
    (tests/test_cli.py::test_predictions_csv_bytes_match_csv_writer and
    tests/test_cli.py::test_generic_csv_bytes_match_csv_writer).
    """
    if _NEEDS_QUOTES.search("".join(labels)):
        labels = list(map(_quoted, labels))
    keys = [id(column) for column in columns]
    # One map per distinct column, tee'd to its slots; zip_longest reads them in step.
    cells = {key: iter(itertools.tee(map(repr, column.tolist()), keys.count(key)))
             for key, column in dict(zip(keys, columns)).items()}
    rows = itertools.chain((header,), itertools.zip_longest(
        labels, *(next(cells[key]) for key in keys), fillvalue=""))
    return "\n".join(map(",".join, rows)) + "\n"


def to_generic_csv(series: TimeSeries) -> str:
    """Serialise a series as generic CSV that parse_generic_csv round-trips.

    The reader strips each cell, so a label with outer whitespace raises ParameterError.
    """
    for label in series.periods:
        if label != label.strip():
            raise ParameterError(f"period label {label!r} has leading or trailing whitespace")
    return csv_text(("period", "demand"), series.periods, series.demands)
