import numpy as np
import pytest
from hypothesis import given, strategies as st

from basscast import (
    EmptyInputError,
    FormatError,
    IngestOptions,
    ParameterError,
    SplitMix64,
    ValidationError,
    aggregate_transactions,
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
    TimeSeries,
    monthly_periods,
)
from oracles import compensated_sum, group_by_month

TRENDS_HEADER = "Category: All categories\n\nMonth,kingston ram ddr2: (Worldwide)\n"


class TestIngestOptions:
    def test_defaults(self):
        opts = IngestOptions()
        assert opts.less_than_one_policy == "as_half"
        assert opts.less_than_one_value == 0.5

    @pytest.mark.parametrize(
        "policy,value", [("as_half", 0.5), ("as_zero", 0.0), ("as_one", 1.0)]
    )
    def test_policy_mapping(self, policy, value):
        assert IngestOptions(less_than_one_policy=policy).less_than_one_value == value
        assert 0.0 <= value <= 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError):
            IngestOptions(less_than_one_policy="as_two")


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
        series = parse_google_trends_csv(text, IngestOptions(less_than_one_policy=policy))
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
        by_index = parse_generic_csv(text, IngestOptions(date_column=0, value_column=1))
        by_name = parse_generic_csv(
            text, IngestOptions(date_column="month", value_column="sales")
        )
        assert by_index == by_name

    def test_column_selection_from_wider_file(self):
        text = "region,month,sales\nus,2020-01,10\nus,2020-02,20\n"
        series = parse_generic_csv(
            text, IngestOptions(date_column="month", value_column="sales")
        )
        assert series.periods == ("2020-01", "2020-02")

    def test_missing_column_name(self):
        with pytest.raises(FormatError):
            parse_generic_csv("month,sales\n2020-01,1\n",
                              IngestOptions(value_column="revenue"))

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
            parse_generic_csv("month,sales\n2020-01,1\n", IngestOptions(value_column=5))


class TestAggregateTransactions:
    def test_single_month(self):
        series = aggregate_transactions(
            [("2016-01-03", 1), ("2016-01-10", 2), ("2016-01-28", 3)]
        )
        assert series.periods == ("2016-01",)
        assert series.demands[0] == 6.0

    def test_gap_months_zero_filled(self):
        series = aggregate_transactions([("2016-01-03", 1), ("2016-03-10", 2)])
        assert series.periods == ("2016-01", "2016-02", "2016-03")
        assert np.array_equal(series.demands, [1.0, 0.0, 2.0])

    def test_datetime_and_zulu_timestamps(self):
        series = aggregate_transactions(
            [("2016-01-03T12:30:00", 1), ("2016-01-05 08:00:00", 2), ("2016-01-09T00:00:00Z", 4)]
        )
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
        series = aggregate_transactions(rows)
        oracle = group_by_month(rows)
        assert float(np.sum(series.demands)) == pytest.approx(
            sum(oracle.values()), rel=1e-12
        )
        for label, value in zip(series.periods, series.demands):
            assert value == pytest.approx(oracle.get(label, 0.0), rel=1e-12)

    def test_bad_timestamp_names_row(self):
        with pytest.raises(FormatError) as err:
            aggregate_transactions([("2016-01-03", 1), ("someday", 2)])
        assert err.value.row == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_transactions([("2016-01-03", -1)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            aggregate_transactions([])


class TestParseTransactionsCsv:
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


class TestGenericCsvRoundTrip:
    def test_serialise_then_parse_is_identity(self):
        series = TimeSeries(monthly_periods(5), [1.5, 0.0, 3.25, 7.0, 2.125], unit="demand")
        parsed = parse_generic_csv(to_generic_csv(series))
        assert parsed.periods == series.periods
        assert np.array_equal(parsed.demands, series.demands)

    def test_bytes_are_stable(self):
        series = TimeSeries(monthly_periods(3), [1.0, 2.0, 3.0])
        assert to_generic_csv(series) == to_generic_csv(series)

    # labels may contain the CSV metacharacters; quoting must round-trip them
    @given(
        st.lists(
            st.text(alphabet='ab,"x-7.', min_size=1, max_size=12),
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
