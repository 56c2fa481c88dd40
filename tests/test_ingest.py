import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from basscast import (
    BasscastError,
    EmptyInputError,
    FormatError,
    MonoPeakSpec,
    ParameterError,
    ValidationError,
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
    TimeSeries,
    generate_mono_peak,
    ingest,
    monthly_periods,
)
from basscast.ingest import MAX_TRANSACTION_MONTHS, _split_series
from basscast.synthetic import SplitMix64
from oracles import compensated_sum, group_by_month, row_by_row_parse_generic_csv

TRENDS_HEADER = "Category: All categories\n\nMonth,kingston ram ddr2: (Worldwide)\n"


class TestLessThanOnePolicy:
    def test_defaults(self):
        series = parse_google_trends_csv(TRENDS_HEADER + "2010-01,<1\n")
        assert series.demands[0] == 0.5

    @pytest.mark.parametrize(
        "policy,value", [("as_half", 0.5), ("as_zero", 0.0), ("as_one", 1.0)]
    )
    def test_policy_mapping(self, policy, value):
        series = parse_google_trends_csv(TRENDS_HEADER + "2010-01,<1\n", less_than_one=policy)
        assert series.demands[0] == value
        assert 0.0 <= value <= 1.0

    def test_unknown_policy_rejected(self):
        # The policy is checked before the text is read, so even an empty file raises it.
        for text in (TRENDS_HEADER + "2010-01,<1\n", ""):
            with pytest.raises(ParameterError):
                parse_google_trends_csv(text, less_than_one="as_two")


class TestParseGoogleTrends:
    def test_basic_export(self):
        text = TRENDS_HEADER + "2010-01,3\n2010-02,100\n2010-03,<1\n"
        series = parse_google_trends_csv(text)
        assert series.periods == ("2010-01", "2010-02", "2010-03")
        assert np.array_equal(series.demands, [3.0, 100.0, 0.5])
        assert series.unit.startswith("trend-index")
        assert "kingston ram ddr2" in series.unit

    @pytest.mark.parametrize(
        "policy,mapped", [("as_half", 0.5), ("as_zero", 0.0), ("as_one", 1.0)]
    )
    def test_less_than_one_policies(self, policy, mapped):
        text = TRENDS_HEADER + "2010-01,<1\n2010-02,5\n"
        series = parse_google_trends_csv(text, less_than_one=policy)
        assert series.demands[0] == mapped

    def test_no_data_rows(self):
        with pytest.raises(EmptyInputError):
            parse_google_trends_csv(TRENDS_HEADER)

    def test_missing_header(self):
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv("2010-01,3\n2010-02,5\n")
        assert "header" in str(err.value)
        assert err.value.row == 1

    def test_header_never_found(self):
        with pytest.raises(FormatError):
            parse_google_trends_csv("Category: All categories\n\n")

    def test_duplicate_months_rejected(self):
        text = TRENDS_HEADER + "2010-01,3\n2010-01,5\n"
        with pytest.raises(ValidationError):
            parse_google_trends_csv(text)

    def test_descending_months_rejected(self):
        text = TRENDS_HEADER + "2010-02,3\n2010-01,5\n"
        with pytest.raises(ValidationError):
            parse_google_trends_csv(text)

    def test_unparseable_value_names_row(self):
        text = TRENDS_HEADER + "2010-01,3\n2010-02,banana\n"
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv(text)
        assert err.value.row == 5  # metadata + blank + header are rows 1-3

    @pytest.mark.parametrize("cell", ["-7", "250", "100.5", "nan", "inf", "-inf"])
    def test_out_of_range_or_nonfinite_value_names_row(self, cell):
        text = TRENDS_HEADER + f"2010-01,3\n2010-02,{cell}\n"
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv(text)
        assert err.value.row == 5

    def test_range_bounds_accepted(self):
        series = parse_google_trends_csv(TRENDS_HEADER + "2010-01,0\n2010-02,100\n")
        assert np.array_equal(series.demands, [0.0, 100.0])

    def test_non_ascii_digits_in_a_month_label_name_row(self):
        # int() reads these Arabic-Indic digits as 2004 and 01; a label needs ASCII digits.
        label = "\u0662\u0660\u0660\u0664-\u0660\u0661"
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv(f"Month,x\n{label},5\n")
        assert err.value.row == 2
        assert str(err.value) == f"row 2: month label {label!r} is not YYYY-MM"

    @pytest.mark.parametrize("label", ["2010-00", "2010-13", "2010-99"])
    def test_month_number_outside_01_to_12_names_row(self, label):
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv(f"Month,x\n2009-12,5\n{label},3\n")
        assert str(err.value) == f"row 3: month label {label!r} is not YYYY-MM"

    def test_crlf_accepted(self):
        text = TRENDS_HEADER.replace("\n", "\r\n") + "2010-01,3\r\n2010-02,4\r\n"
        series = parse_google_trends_csv(text)
        assert len(series) == 2

    def test_228_row_export_sum_matches_independent_total(self):
        rng = SplitMix64(2004)
        values = [float(int(100 * rng.next_float())) for _ in range(228)]
        rows = "".join(
            f"{label},{int(v)}\n" for label, v in zip(monthly_periods(228), values)
        )
        series = parse_google_trends_csv(TRENDS_HEADER + rows)
        assert len(series) == 228
        assert float(np.sum(series.demands)) == pytest.approx(
            compensated_sum(values), rel=1e-12
        )


class TestParseGenericCsv:
    def test_basic(self):
        series = parse_generic_csv("month,sales\n2020-01,10\n2020-02,20\n")
        assert np.array_equal(series.demands, [10.0, 20.0])
        assert series.unit == "sales"

    def test_bad_value_names_row(self):
        with pytest.raises(FormatError) as err:
            parse_generic_csv("month,sales\n2020-01,abc\n")
        assert err.value.row == 2

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_nonfinite_value_names_row(self, cell):
        with pytest.raises(FormatError) as err:
            parse_generic_csv(f"month,sales\n2020-01,1\n2020-02,{cell}\n")
        assert err.value.row == 3

    def test_by_index_equals_by_name(self):
        text = "month,sales\n2020-01,10\n2020-02,20\n"
        by_index = parse_generic_csv(text, date_column=0, value_column=1)
        by_name = parse_generic_csv(text, date_column="month", value_column="sales")
        assert by_index == by_name

    def test_column_selection_from_wider_file(self):
        text = "region,month,sales\nus,2020-01,10\nus,2020-02,20\n"
        series = parse_generic_csv(text, date_column="month", value_column="sales")
        assert series.periods == ("2020-01", "2020-02")

    def test_missing_column_name(self):
        with pytest.raises(FormatError):
            parse_generic_csv("month,sales\n2020-01,1\n", value_column="revenue")

    def test_quoted_cells(self):
        text = 'period,"unit, sales"\n"2020-01","10"\n"2020-02","20"\n'
        series = parse_generic_csv(text)
        assert series.unit == "unit, sales"
        assert np.array_equal(series.demands, [10.0, 20.0])

    def test_empty_file(self):
        with pytest.raises(FormatError) as err:
            parse_generic_csv("")
        assert "no data rows" in str(err.value)

    def test_header_only(self):
        with pytest.raises(EmptyInputError) as err:
            parse_generic_csv("month,sales\n")
        assert "no data rows" in str(err.value)

    def test_unordered_periods_rejected(self):
        with pytest.raises(ValidationError):
            parse_generic_csv("month,sales\n2020-02,1\n2020-01,2\n")

    def test_row_with_too_few_columns(self):
        with pytest.raises(FormatError) as err:
            parse_generic_csv("month,sales\n2020-01,1\n2020-02\n")
        assert err.value.row == 3

    def test_column_index_out_of_range(self):
        with pytest.raises(FormatError):
            parse_generic_csv("month,sales\n2020-01,1\n", value_column=5)


# Cells a generic CSV may hold: numbers as written by people and programs,
# non-finite and non-numeric text, whitespace float() does not skip (\x1c) and
# does (\u2003), and cells that need quoting (commas, quotes, line breaks).
_ODD_VALUE_CELLS = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "abc", "", " ", " 2.5 ", "\x1c1.5", "\u20037\u2003",
    "1_0", "1,5", 'a"b', "x\ny", "\r",
])
_NUMBER_CELLS = st.one_of(st.floats(min_value=-1e12, max_value=1e12).map(repr),
                          st.integers(min_value=-10**6, max_value=10**6).map(str))
_NOISE_CELLS = st.text(alphabet=' \t,"\n\r\x1cab0123456789.-e', max_size=6)


def _selector(draw, columns, name):
    """Mostly the column's index or name; now and then any index or name at all."""
    choices = [columns.index(name), name] if name in columns else []
    return draw(st.sampled_from(choices * 12 + [0, 1, 3, "note", "missing"]))


@st.composite
def generic_csv_inputs(draw):
    """(text, date_column, value_column) for a CSV with period/demand/note columns
    and rows that are mostly well formed: ascending, equal or descending labels,
    short rows, blank and whitespace-only rows, odd cells and raw unquoted lines."""
    columns = draw(st.permutations(["period", "demand", "note"]))
    columns = columns[:draw(st.sampled_from([1, 2, 3, 3, 3, 3]))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        buf.write(draw(st.sampled_from(["", " ", ",\t"])) + "\n")
    writer.writerow([draw(st.sampled_from([c] * 6 + [f" {c} ", ""])) for c in columns])
    label = 100
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "raw"]))
        if kind == "blank":
            buf.write(draw(st.sampled_from(["", " ", " , ", "\t,,"])) + "\n")
            continue
        if kind == "raw":
            buf.write(draw(_NOISE_CELLS) + "\n")
            continue
        label += draw(st.sampled_from([1] * 12 + [0, -1]))
        cells = {
            "period": draw(st.sampled_from([f"p{label}"] * 4 + [f" p{label} ", f"p{label},x"])),
            "demand": draw(_ODD_VALUE_CELLS if draw(st.integers(0, 15)) == 0 else _NUMBER_CELLS),
            "note": draw(_NOISE_CELLS),
        }
        row = [cells[c] for c in columns]
        if draw(st.integers(min_value=0, max_value=15)) == 0:
            row = row[:draw(st.integers(min_value=0, max_value=len(row)))]
        writer.writerow(row)
    return (buf.getvalue(), _selector(draw, columns, "period"),
            _selector(draw, columns, "demand"))


# Value cells without a comma, quote or line break, so a row stays one line of
# as many commas as the header.
_UNQUOTED_ODD_VALUE_CELLS = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "abc", "", " ", " 2.5 ", "\x1c1.5", "\u20037\u2003",
    "1_0",
])


def _move_a_comma(draw, lines):
    """The lines with one comma moved from one line to another: the cell count is kept."""
    loser = draw(st.sampled_from([i for i, line in enumerate(lines) if "," in line]))
    gainer = draw(st.sampled_from([i for i in range(len(lines)) if i != loser]))
    lines[loser] = lines[loser].replace(",", "", 1)
    lines[gainer] = "," + lines[gainer]
    return lines


@st.composite
def split_path_csv_inputs(draw):
    """(text, date_column, value_column) for a file parse_generic_csv may take whole:
    no quotes, every line as wide as the header, one line end throughout. One
    flaw in four makes it a file the split path must hand to the row loop: a
    NUL, a bare CR, CR and CRLF ends mixed, or a comma moved between lines."""
    columns = draw(st.permutations(["period", "demand", "note"]))
    columns = columns[:draw(st.sampled_from([1, 2, 3, 3, 3, 3]))]
    lines = [",".join(columns)]
    label = 100
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        label += draw(st.sampled_from([1] * 60 + [0, -1]))
        cells = {
            "period": draw(st.sampled_from([f"p{label}"] * 6 + [f" p{label} ", f"\tp{label}"])),
            "demand": draw(_UNQUOTED_ODD_VALUE_CELLS if draw(st.integers(0, 40)) == 0
                           else _NUMBER_CELLS),
            "note": draw(st.text(alphabet=" \tab0123456789.-e", max_size=6)),
        }
        lines.append(",".join(cells[c] for c in columns))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    flaw = draw(st.sampled_from(["none"] * 12 + ["nul", "bare cr", "mixed", "moved comma"]))
    if flaw == "moved comma" and len(lines) > 2 and "," in lines[1]:
        lines[1:] = _move_a_comma(draw, lines[1:])
    text = end.join(lines) + draw(st.sampled_from([end, end, end, ""]))
    if flaw == "mixed" and len(lines) > 2:
        text = text.replace("\r\n", "\n").replace("\n", "\r", 1).replace("\n", "\r\n")
    elif flaw in ("nul", "bare cr") and len(lines) > 1:
        at = draw(st.integers(min_value=len(lines[0]) + 1, max_value=len(text)))
        text = text[:at] + {"nul": "\0", "bare cr": "\r"}[flaw] + text[at:]
    return (text, _selector(draw, columns, "period"), _selector(draw, columns, "demand"))


def _outcome(parse, text, date_column, value_column):
    """A parsed series as plain values, or the error as (class, message, row)."""
    try:
        series = parse(text, date_column, value_column)
    except Exception as exc:  # every error must match the reference's, whatever its class
        return type(exc), str(exc), getattr(exc, "row", None)
    return series.periods, series.unit, series.demands.tobytes()


@settings(max_examples=600)
@given(generic_csv_inputs() | split_path_csv_inputs())
# A comma moved between lines that leaves every cell converting and ascending,
# and a body narrower than two selectors naming the same column.
@example(("period,demand,note\n10,1,7\n11,2,7,13\n14,3\n", 0, 1))
@example(("a,b,c\n1\n2\n3\n4\n", 2, 2))
# Files that parse but that the split path refuses, so the row loop reads them.
@example(('period,demand\n"a,1",1.5\n"b""2",2\n"c\r\n3", 4e-3 \n', 0, 1))
@example(("period,demand\np1,1\n\n \np2,2\n", "period", "demand"))
# A quoted header, leading blank lines, and a header wider than its body.
@example(('"period","demand"\np1,1\np2,2\n', "period", "demand"))
@example(("\n , \t\nperiod,demand\np1,1\np2,2\n", 0, 1))
@example(("period,demand,note\np1,1\np2,2\n", 0, 1))
def test_one_pass_parser_matches_row_by_row_reference(inputs):
    assert _outcome(parse_generic_csv, *inputs) == _outcome(row_by_row_parse_generic_csv, *inputs)


@given(split_path_csv_inputs(), st.integers(min_value=1, max_value=12))
def test_split_path_changes_no_outcome_under_a_low_field_size_limit(inputs, limit):
    # The reference raises a bare csv.Error for a long cell, so the parser is
    # compared with itself reading every file through the row loop.
    old = csv.field_size_limit(limit)
    try:
        outcome = _outcome(parse_generic_csv, *inputs)
        with mock.patch.object(ingest, "_split_series", lambda *args: None):
            assert outcome == _outcome(parse_generic_csv, *inputs)
    finally:
        csv.field_size_limit(old)


def _watch_split_series(monkeypatch):
    """The list that each later _split_series call appends its result to."""
    taken = []

    def split_series(*args):
        taken.append(_split_series(*args))
        return taken[-1]

    monkeypatch.setattr(ingest, "_split_series", split_series)
    return taken


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_split_path_takes_a_written_generic_csv(monkeypatch, end):
    # The whole-file path must take what basscast writes, or it is dead code.
    series = generate_mono_peak(MonoPeakSpec(n=120, peak_time=18))
    taken = _watch_split_series(monkeypatch)
    parsed = parse_generic_csv(to_generic_csv(series).replace("\n", end))
    assert len(taken) == 1 and taken[0] is parsed
    assert parsed.periods == series.periods and parsed.unit == "demand"
    assert parsed.demands.tobytes() == series.demands.tobytes()


def test_split_path_builds_no_stringio():
    # The whole-file path reads its own header, so a clean file is never copied
    # into a StringIO, which holds 4 bytes per character; the row loop builds one.
    series = generate_mono_peak(MonoPeakSpec(n=120, peak_time=18))
    text = to_generic_csv(series)
    with mock.patch.object(ingest.io, "StringIO", side_effect=AssertionError("StringIO built")):
        assert parse_generic_csv(text).demands.tobytes() == series.demands.tobytes()
        with pytest.raises(AssertionError, match="StringIO built"):
            parse_generic_csv('"period",demand\n' + text.split("\n", 1)[1])


def test_split_path_raises_a_missing_column_without_the_row_loop():
    # The row loop copies the text into a StringIO; the split path reads the header itself.
    with mock.patch.object(ingest.io, "StringIO", side_effect=AssertionError("StringIO built")):
        with pytest.raises(FormatError, match="column 'missing' not found") as err:
            parse_generic_csv("period,demand\np1,1\np2,2\n", "period", "missing")
    assert err.value.row == 1


@pytest.mark.parametrize("flaw", ["quoted labels", "blank line"])
def test_row_loop_reads_a_written_generic_csv_the_split_path_refuses(monkeypatch, flaw):
    mono = generate_mono_peak(MonoPeakSpec(n=120, peak_time=18))
    labels = [f"{p},x" for p in mono.periods] if flaw == "quoted labels" else mono.periods
    series = TimeSeries(labels, mono.demands, unit="demand")
    lines = to_generic_csv(series).split("\n")
    if flaw == "blank line":
        lines.insert(60, "")
    taken = _watch_split_series(monkeypatch)
    assert parse_generic_csv("\n".join(lines)) == series
    assert taken == [None]


@pytest.mark.parametrize("text", [
    "p,d\n2020-01,1,9\n2020-02\n",  # one line too wide, one too narrow: the total still fits
    "p,d\n1,2,3\n4\n",              # the same, with cells that would convert and ascend
    "p,d\n2020-01,1\n2020-02\n",    # the last line too narrow
    "p,d\n2020-01\n2020-02,1,9\n",
])
def test_split_path_refuses_lines_of_other_widths(text):
    assert _split_series(text, 0, 1) is None


def transactions_log(rows):
    """A transactions CSV of (timestamp, count) rows under a header, which is line 1."""
    return "timestamp,count\n" + "".join(f"{stamp},{count}\n" for stamp, count in rows)


class TestParseTransactionsCsv:
    def test_single_month(self):
        series = parse_transactions_csv(transactions_log(
            [("2016-01-03", 1), ("2016-01-10", 2), ("2016-01-28", 3)]
        ))
        assert series.periods == ("2016-01",)
        assert series.demands[0] == 6.0

    def test_gap_months_zero_filled(self):
        series = parse_transactions_csv(transactions_log([("2016-01-03", 1), ("2016-03-10", 2)]))
        assert series.periods == ("2016-01", "2016-02", "2016-03")
        assert np.array_equal(series.demands, [1.0, 0.0, 2.0])

    def test_datetime_and_zulu_timestamps(self):
        series = parse_transactions_csv(transactions_log(
            [("2016-01-03T12:30:00", 1), ("2016-01-05 08:00:00", 2), ("2016-01-09T00:00:00Z", 4)]
        ))
        assert series.demands[0] == 7.0

    def test_conservation_on_random_log(self):
        rng = SplitMix64(508932)
        rows = []
        for _ in range(10_000):
            year = 2016 + int(rng.next_float() * 7)
            month = 1 + int(rng.next_float() * 12)
            day = 1 + int(rng.next_float() * 28)
            count = int(rng.next_float() * 20)
            rows.append((f"{year:04d}-{month:02d}-{day:02d}", count))
        series = parse_transactions_csv(transactions_log(rows))
        oracle = group_by_month(rows)
        assert float(np.sum(series.demands)) == sum(oracle.values())
        for label, value in zip(series.periods, series.demands):
            assert value == oracle.get(label, 0.0)

    def test_bad_timestamp_names_row(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv(transactions_log([("2016-01-03", 1), ("someday", 2)]))
        assert err.value.row == 3

    # Python 3.11's date.fromisoformat reads these as 2020-01, 2020-01 and 2188-02.
    @pytest.mark.parametrize("stamp", ["20200115ab", "2020011599", "21880203Z+"])
    def test_trailing_junk_after_a_basic_date_names_row(self, stamp):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv(transactions_log([("2020-01-01", 1), (stamp, 2)]))
        assert err.value.row == 3
        assert str(err.value) == f"row 3: unparseable timestamp {stamp!r}"

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            parse_transactions_csv(transactions_log([("2016-01-03", -1)]))

    def test_unparseable_count_names_row(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv(transactions_log([("2016-01-03", "abc")]))
        assert err.value.row == 2
        assert str(err.value) == "row 2: unparseable count cell 'abc'"

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_transactions_csv("")

    # The first row is a header only when it holds neither a count nor a timestamp.
    @pytest.mark.parametrize("text,row", [
        ("2020-01-01,many\n2020-02-01,3\n", 1),
        ("2020-01-01,\n2020-02-01,3\n", 1),
        ("\n 2020-01-01T10:00Z , many \n2020-02-01,3\n", 2),
    ])
    def test_headerless_log_with_a_bad_first_count_names_its_row(self, text, row):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv(text)
        assert err.value.row == row
        cell = text.splitlines()[row - 1].split(",")[1].strip()
        assert str(err.value) == f"row {row}: unparseable count cell {cell!r}"

    def test_with_header(self):
        series = parse_transactions_csv("timestamp,count\n2016-01-03,2\n2016-02-01,3\n")
        assert series.periods == ("2016-01", "2016-02")
        assert np.array_equal(series.demands, [2.0, 3.0])

    def test_without_header(self):
        series = parse_transactions_csv("2016-01-03,2\n2016-02-01,3\n")
        assert np.array_equal(series.demands, [2.0, 3.0])

    def test_error_rows_count_physical_lines(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv("timestamp,count\n2016-01-03,2\nnot-a-date,3\n")
        assert err.value.row == 3

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            parse_transactions_csv("timestamp,count\n")

    def test_bad_count_cell_names_row(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv("timestamp,count\n2016-01-03,2\n2016-01-04,many\n")
        assert err.value.row == 3

    def test_short_row_rejected(self):
        with pytest.raises(FormatError):
            parse_transactions_csv("timestamp,count\n2016-01-03\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_count_names_row(self, cell):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv(f"timestamp,count\n2016-01-03,2\n2016-01-04,{cell}\n")
        assert err.value.row == 3


    def test_span_past_the_month_limit_rejected(self):
        # One mistyped year would otherwise zero-fill 21,841 months.
        with pytest.raises(ValidationError) as err:
            parse_transactions_csv("ts,count\n0201-01-01,1\n2021-01-01,5\n")
        assert err.value.row is None
        assert err.value.exit_code == 2
        assert str(err.value) == (
            "transactions span 21841 months, 0201-01 to 2021-01; at most 1200 are allowed")

    def test_span_of_exactly_the_month_limit_parses(self):
        assert MAX_TRANSACTION_MONTHS == 1200
        series = parse_transactions_csv("ts,count\n1921-02-01,1\n2021-01-31,5\n")
        assert len(series) == 1200
        assert series.periods[0] == "1921-02" and series.periods[-1] == "2021-01"
        with pytest.raises(ValidationError, match="span 1201 months"):
            parse_transactions_csv("ts,count\n1921-01-01,1\n2021-01-31,5\n")


# Each stamp with the month Python 3.10.13's datetime.fromisoformat gives it ("Z" read as
# "+00:00"), or None where it raises. Later Pythons read the last fifteen too (basic and week
# dates, other fraction lengths and separators, short offsets); the grammar does not.
_STAMPS_AS_PYTHON_310_READS = [
    ("2020-01-01", "2020-01"), ("0001-01-01", "0001-01"), ("9999-12-31", "9999-12"),
    ("2020-02-29", "2020-02"), (" 2020-03-04 ", "2020-03"), ("2020-01-01T10", "2020-01"),
    ("2020-01-01T10:00", "2020-01"), ("2020-01-01T10:00:00", "2020-01"),
    ("2020-01-01T10:00:00.123", "2020-01"), ("2020-01-01T10:00:00.123456", "2020-01"),
    ("1999-12-31T23:59:59.999999", "1999-12"), ("2020-01-01 10:00:00", "2020-01"),
    ("2020-01-01x10:00", "2020-01"), ("2020-01-01é10:00", "2020-01"),
    ("2020-01-01\n10:00", "2020-01"), ("2020-01-01510:00", "2020-01"),
    ("2020-01-01Z10:00", "2020-01"), ("2020-01-01T10:00Z", "2020-01"), ("2020-01-01Z", "2020-01"),
    ("2020-01-01T10:00:00.123456Z", "2020-01"), ("2020-01-01T10:00+05:00", "2020-01"),
    ("2020-01-01T10:00-05:00", "2020-01"), ("2020-01-01T10:00:00-00:00", "2020-01"),
    ("2020-01-01T10:00+05:30:15", "2020-01"), ("2020-01-01T10:00+05:30:15.123456", "2020-01"),
    ("2020-01-01T10:00+23:59", "2020-01"), ("2020-01-01T10:00+05:60", "2020-01"),
    ("2020-01-01+05:00", "2020-01"), ("2020-01-01-05:00", "2020-01"), ("0000-01-01", None),
    ("2020-13-01", None), ("2020-00-10", None), ("2019-02-29", None), ("2020-02-30", None),
    ("2020-04-31", None), ("2020-01-01T24:00", None), ("2020-01-01T23:60", None),
    ("2020-01-01T23:59:60", None), ("2020-01-01T10:00+24:00", None), ("2020-01-01T", None),
    ("2020-01-01T1", None), ("2020-01-01T10:", None), ("2020-01-01T10:0", None),
    ("2020-01-01T10:00:00.", None), ("2020-01-01TZ", None), ("2020-01-01ZZ", None),
    ("2020-01-01T10:00+05:00Z", None), ("2020-01-01T-05:00", None), ("2020-01", None),
    ("2020-1-01", None), ("+2020-01-01", None), ("2020/01/01", None), ("２０２０-01-01", None),
    ("2020-01-01T１０:00", None), ("timestamp", None), ("", None), ("20200101", None),
    ("20200101T1000", None), ("2020-W01-1", None), ("2020-W01", None), ("2020W011", None),
    ("2020-01-01T10:00:00.12", None), ("2020-01-01T10:00:00.1234", None),
    ("2020-01-01T10:00:00.1234567", None), ("2020-01-01T10:00:00,5", None),
    ("2020-01-01T1000", None), ("2020-01-01T100000", None), ("2020-01-01T10:00+05", None),
    ("2020-01-01T10:00+0500", None), ("2020-01-01T10:00+05:30:15.123", None),
    ("2020-01-01T10:00+05:00.123456", None),
]

# Undocumented forms that CPython 3.10 reads, each as 2020-01, and later versions too but for
# the sixth: a fraction after HH or HH:MM, or after ":"; one stray character before the offset;
# an offset fraction after ":". None fits the grammar, so none is a timestamp on any Python.
_STAMPS_OUTSIDE_THE_GRAMMAR = [
    "2020-01-01T10.123", "2020-01-01T10:30.123456", "2020-01-01T10:00:00:123",
    "2020-01-01T10:00 +05:00", "2020-01-01T10:00xZ", "2020-01-01T10:00Z+05:00",
    "2020-01-01T10:00+05:00:00:123456",
]


@pytest.mark.parametrize("stamp,month", _STAMPS_AS_PYTHON_310_READS)
def test_timestamp_grammar_reads_what_python_310_reads(stamp, month):
    assert ingest._month(stamp) == month


@pytest.mark.parametrize("stamp", _STAMPS_OUTSIDE_THE_GRAMMAR)
def test_undocumented_fromisoformat_forms_are_not_timestamps(stamp):
    assert ingest._month(stamp) is None


@pytest.mark.parametrize("stamp", ["20200101", "2020-W01-1", "2020-01-01T10:00:00.12",
                                   "2020-01-01T10:00+05"])
def test_stamp_only_later_pythons_read_names_row(stamp):
    with pytest.raises(FormatError) as err:
        parse_transactions_csv(transactions_log([("2020-01-01", 1), (stamp, 2)]))
    assert str(err.value) == f"row 3: unparseable timestamp {stamp!r}"


class TestRowNumbers:
    def test_undecodable_byte_names_its_row_by_the_parsers_rule(self):
        # A BOM, then a CRLF, a bare CR and a CRLF before the bad byte on physical line 4.
        data = b"\xef\xbb\xbfperiod,demand\r\n2020-01,1\r2020-02,2\r\n2020-03,\xe93\n"
        with pytest.raises(FormatError) as err:
            ingest.decode_utf8(data)
        assert err.value.row == 4
        assert str(err.value) == "row 4: not UTF-8: invalid continuation byte (byte 0xe9)"
        text = ingest.decode_utf8(data.replace(b"\xe93", b"x"))
        assert text == "period,demand\r\n2020-01,1\r2020-02,2\r\n2020-03,x\n"
        with pytest.raises(FormatError) as err:
            parse_generic_csv(text)
        assert err.value.row == 4

    @pytest.mark.parametrize("text,cls,row", [
        ("ts,count\n2020-01-01,1\n\n\n2020-02-01,2\nbogus,3\n", FormatError, 6),
        ("ts,count\n2020-01-01,1e308\n2020-01-02,1e308\n", ValidationError, 3),
        ("ts,count\n2020-01-01,1\n\n2020-02-01,-2\n", ValidationError, 4),
    ])
    def test_transactions_errors_name_the_physical_line(self, text, cls, row):
        with pytest.raises(cls) as err:
            parse_transactions_csv(text)
        assert err.value.row == row
        assert str(err.value).startswith(f"row {row}: ")

    def test_transactions_fail_on_the_first_bad_row_in_file_order(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv("ts,count\nbogus,1\n2020-01-01,many\n")
        assert err.value.row == 2
        assert str(err.value) == "row 2: unparseable timestamp 'bogus'"

    def test_transactions_row_with_both_cells_bad_names_the_count(self):
        with pytest.raises(FormatError) as err:
            parse_transactions_csv("ts,count\nbogus,many\n")
        assert err.value.row == 2
        assert str(err.value) == "row 2: unparseable count cell 'many'"

    def test_transactions_error_messages(self):
        with pytest.raises(ValidationError) as err:
            parse_transactions_csv(
                transactions_log([("2016-01-03", 1e308), ("2016-01-04", 1e308)]))
        assert err.value.row == 3
        assert str(err.value) == "row 3: demand at period '2016-01' is not finite"
        with pytest.raises(ValidationError) as err:
            parse_transactions_csv(transactions_log([("2016-01-03", 1), ("2016-02-01", -1)]))
        assert err.value.row == 3
        assert str(err.value) == "row 3: negative count -1.0"

    @pytest.mark.parametrize("parse,text,row", [
        (parse_generic_csv, "month,sales\n2020-02,1\n\n2020-01,2\n", 4),
        (parse_google_trends_csv, TRENDS_HEADER + "2010-02,3\n2010-01,5\n", 5),
    ])
    def test_descending_label_error_carries_row(self, parse, text, row):
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.row == row
        assert str(err.value).startswith(f"row {row}: period ")

    def test_missing_trends_header_names_no_row(self):
        with pytest.raises(FormatError) as err:
            parse_google_trends_csv("Category: x\n\n\n")
        assert err.value.row is None
        assert str(err.value) == "no 'Month' header row found"

    _OVERSIZED = "1" * (csv.field_size_limit() + 1)

    @pytest.mark.parametrize("parse,text,row", [
        (parse_generic_csv, f"period,demand\n2020-01,1\n2020-02,{_OVERSIZED}\n", 3),
        (parse_google_trends_csv, TRENDS_HEADER + f"2010-01,3\n\n2010-02,{_OVERSIZED}\n", 6),
        (parse_transactions_csv, f"ts,count\n2020-01-01,{_OVERSIZED}\n", 2),
    ], ids=["generic", "trends", "transactions"])
    def test_oversized_cell_is_a_format_error_naming_its_line(self, parse, text, row):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.row == row
        assert str(err.value) == (
            f"row {row}: unreadable CSV: field larger than field limit "
            f"({csv.field_size_limit()})")


# Lines of hand-made files in each format: blank and whitespace lines, headers,
# and data rows with good, huge, negative, non-finite and unparseable cells and
# bad labels or timestamps. No line holds a quote, so each CSV record is one line.
_BLANK_LINES = st.sampled_from(["", " ", "\t", " , ", ",\t,"])
_COMMON_CELLS = ["", " ", "abc", "nan", "-inf", "1e400", "1e308", "-1", "\x1c2"]


def _trends_label(i):
    return f"{2000 + i // 12}-{i % 12 + 1:02d}"


_FORMATS = {
    "trends": (
        parse_google_trends_csv,
        "Month,term: (Worldwide)",
        st.sampled_from(["Month,term: (Worldwide)", "Month", "Category: All categories",
                         "2010-1,3", "Jan 2010,3", "2010-01"]),
        _trends_label,
        st.sampled_from(["0", "3", " 42 ", "100", "<1", "100.5", "250"] * 3 + _COMMON_CELLS),
    ),
    "generic": (
        parse_generic_csv,
        "period,demand",
        st.sampled_from(["period,demand", "period", ",demand", "p1,2,3"]),
        lambda i: f"p{i}",
        st.sampled_from(["0", "3", " 4.5 ", "1e12", "-2"] * 3 + _COMMON_CELLS),
    ),
    "transactions": (
        parse_transactions_csv,
        "ts,count",
        st.sampled_from(["ts,count", "ts", "bogus,1", "2010-13-01,1", "2010-02-30,1",
                         "2010-01-01T25:00,1", ",1"]),
        lambda i: _trends_label(i) + ["-01", "-15T10:00:00", "-28 23:59:59", "-09T00:00Z"][i % 4],
        st.sampled_from(["0", "3", " 4 ", "2.5"] * 3 + ["1e308"] * 3 + _COMMON_CELLS),
    ),
}


@st.composite
def ingest_files(draw):
    """(format, lines) of a file mostly made of a header and ascending data rows."""
    fmt = draw(st.sampled_from(sorted(_FORMATS)))
    _, header, odd_lines, label, values = _FORMATS[fmt]
    lines = draw(st.lists(_BLANK_LINES | odd_lines, max_size=2))
    if draw(st.integers(min_value=0, max_value=3)):
        lines.append(header)
    index = 120
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "odd", "odd"]))
        if kind == "blank":
            lines.append(draw(_BLANK_LINES))
        elif kind == "odd":
            lines.append(draw(odd_lines))
        else:
            index += draw(st.sampled_from([1, 1, 1, 0, 0, -1]))
            lines.append(f"{label(index)},{draw(values)}")
    return fmt, lines


def _error(parse, lines):
    """The error parsing the lines raises, or None; it must be a BasscastError."""
    try:
        parse("".join(line + "\n" for line in lines))
    except Exception as exc:  # any other class fails the test below
        assert isinstance(exc, BasscastError), repr(exc)
        return exc
    return None


def _at_end_of_file(exc):
    """True for an error the whole file raises rather than one of its lines."""
    return isinstance(exc, EmptyInputError) or "header row found" in str(exc)


@settings(max_examples=500)
@given(ingest_files())
def test_every_error_names_the_physical_line_that_raised_it(case):
    fmt, lines = case
    parse = _FORMATS[fmt][0]
    exc = _error(parse, lines)
    if exc is None:
        return
    if _at_end_of_file(exc):
        assert exc.row is None, exc
        return
    row = exc.row
    assert row is not None and 1 <= row <= len(lines), (exc, row)
    assert lines[row - 1].replace(",", "").strip(), "the named line is blank"
    # The lines up to the named one raise the same error, and the lines before
    # it raise none that a line raised.
    again = _error(parse, lines[:row])
    assert (type(again), str(again), again.row) == (type(exc), str(exc), row)
    earlier = _error(parse, lines[:row - 1])
    assert earlier is None or _at_end_of_file(earlier), earlier


class TestGenericCsvRoundTrip:
    def test_serialise_then_parse_is_identity(self):
        series = TimeSeries(monthly_periods(5), [1.5, 0.0, 3.25, 7.0, 2.125], unit="demand")
        parsed = parse_generic_csv(to_generic_csv(series))
        assert parsed.periods == series.periods
        assert np.array_equal(parsed.demands, series.demands)

    def test_bytes_are_stable(self):
        series = TimeSeries(monthly_periods(3), [1.0, 2.0, 3.0])
        assert to_generic_csv(series) == to_generic_csv(series)

    @pytest.mark.parametrize("labels,bad", [
        (["a", "a "], "a "),       # read back as "a" twice, which does not ascend
        ([" a"], " a"),
        (["a", "b\t", "c "], "b\t"),
        (["a\n"], "a\n"),         # quoted, yet stripped once read
    ])
    def test_label_with_outer_whitespace_is_refused(self, labels, bad):
        series = TimeSeries(labels, [1.0] * len(labels))
        with pytest.raises(ParameterError) as err:
            to_generic_csv(series)
        assert str(err.value) == f"period label {bad!r} has leading or trailing whitespace"

    # labels may contain the CSV metacharacters, line breaks included, away from
    # their ends (the parser strips those); quoting must round-trip them
    @given(
        st.lists(
            st.text(alphabet='ab,"x-7.\r\n', min_size=1, max_size=12).filter(
                lambda label: label == label.strip()),
            min_size=1,
            max_size=20,
            unique=True,
        ),
        st.data(),
    )
    def test_round_trip_with_hostile_labels(self, labels, data):
        labels = sorted(labels)
        values = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        series = TimeSeries(labels, values, unit="demand")
        parsed = parse_generic_csv(to_generic_csv(series))
        assert parsed.periods == series.periods
        assert np.array_equal(parsed.demands, series.demands)
