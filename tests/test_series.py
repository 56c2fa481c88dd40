import numpy as np
import pytest
from hypothesis import given, strategies as st

from basscast import (
    EmptyInputError,
    SplitMix64,
    TimeSeries,
    ValidationError,
    cumulative,
    mean_demand,
    monthly_periods,
)
from oracles import compensated_sum, lagged_cumulative

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def make(demands, unit="u"):
    return TimeSeries(monthly_periods(len(demands)), demands, unit=unit)


class TestTimeSeries:
    def test_basic_construction(self):
        s = TimeSeries(["2015-01", "2015-02"], [1.0, 2.5], unit="trend-index")
        assert len(s) == 2
        assert s.periods == ("2015-01", "2015-02")
        assert s.unit == "trend-index"
        assert np.array_equal(s.demands, [1.0, 2.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            TimeSeries([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(["2015-01"], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValidationError):
            TimeSeries(["2015-01", "2015-02"], [1.0, bad])

    def test_duplicate_periods_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(["2015-01", "2015-01"], [1.0, 2.0])

    def test_descending_periods_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(["2015-02", "2015-01"], [1.0, 2.0])

    def test_demands_are_read_only(self):
        s = make([1.0, 2.0])
        with pytest.raises(ValueError):
            s.demands[0] = 5.0

    def test_multidimensional_demands_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeries(["2015-01", "2015-02"], [[1.0], [2.0]])

    def test_equality_semantics(self):
        assert make([1.0, 2.0]) == make([1.0, 2.0])
        assert make([1.0, 2.0]) != make([1.0, 3.0])
        assert make([1.0, 2.0]) != make([1.0, 2.0], unit="other")
        assert make([1.0]) != "not a series"


class TestCumulative:
    def test_three_points(self):
        assert np.array_equal(cumulative(make([1, 2, 3])), [0.0, 1.0, 3.0])

    def test_single_point(self):
        assert np.array_equal(cumulative(make([5])), [0.0])

    def test_matches_independent_accumulation_on_random_values(self):
        rng = SplitMix64(228)
        demands = [100.0 * rng.next_float() for _ in range(228)]
        got = cumulative(make(demands))
        assert got[-1] == pytest.approx(compensated_sum(demands[:227]), rel=1e-12)
        assert np.array_equal(got, lagged_cumulative(demands))

    @given(demand_lists)
    def test_step_identity_is_exact(self, demands):
        s = make(demands)
        values = cumulative(s)
        assert values[0] == 0.0
        for t in range(len(s) - 1):
            assert values[t] + s.demands[t] == values[t + 1]

    @given(demand_lists)
    def test_monotone_and_total(self, demands):
        s = make(demands)
        values = cumulative(s)
        assert np.all(np.diff(values) >= 0)
        assert values[-1] + s.demands[-1] == pytest.approx(
            compensated_sum(demands), rel=1e-12, abs=1e-9
        )

    def test_deterministic(self):
        demands = [3.0, 1.0, 4.0, 1.0, 5.0]
        first = cumulative(make(demands))
        second = cumulative(make(demands))
        assert np.array_equal(first, second)


class TestMeanDemand:
    def test_simple(self):
        assert mean_demand(make([2, 4, 6])) == 4.0

    def test_singleton(self):
        assert mean_demand(make([7])) == 7.0

    def test_matches_compensated_summation(self):
        rng = SplitMix64(1000)
        demands = [1000.0 * rng.next_float() for _ in range(1000)]
        expected = compensated_sum(demands) / len(demands)
        assert mean_demand(make(demands)) == pytest.approx(expected, rel=1e-9)

    @given(demand_lists)
    def test_mean_within_range(self, demands):
        value = mean_demand(make(demands))
        assert min(demands) - 1e-9 <= value <= max(demands) + 1e-9
