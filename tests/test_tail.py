import math

import pytest
from hypothesis import given, strategies as st

from basscast import (
    ParameterError,
    TimeSeries,
    compute_ratios,
    monthly_periods,
    profile,
)
from basscast.synthetic import SplitMix64
from basscast.tail import HEIGHT_FRACTION, RATIO_SCALE
from oracles import scan_argmax, scan_tail_start


def make(demands):
    return TimeSeries(monthly_periods(len(demands)), demands)


def peak(series):
    p = profile(series)
    return p.peak_index, p.peak_value


class TestProfilePeak:
    def test_simple(self):
        assert peak(make([1, 9, 3])) == (1, 9.0)

    def test_tie_goes_to_earliest(self):
        assert peak(make([4, 7, 7, 2])) == (1, 7.0)

    def test_matches_linear_scan_on_random_series(self):
        rng = SplitMix64(500)
        demands = [rng.next_float() * 100.0 for _ in range(500)]
        assert peak(make(demands)) == scan_argmax(demands)

    @given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=120))
    def test_equals_scan_argmax(self, demands):
        assert peak(make(demands)) == scan_argmax(demands)


class TestDetectTailStart:
    def test_hand_trace_mid_peak(self):
        # peak 10 at index 2, min 1, threshold 0.5*9 + 1 = 5.5, first crossing at 4
        s = make([1, 2, 10, 6, 4, 4, 4, 4, 4, 4])
        assert profile(s).tail_start_index == 4

    def test_monotone_series_has_empty_tail(self):
        assert profile(make([1, 2, 3, 4])).tail_start_index == 4

    def test_hand_trace_peak_at_start(self):
        assert profile(make([10, 1, 1, 1])).tail_start_index == 1

    def test_flat_series_crosses_immediately(self):
        assert profile(make([3, 3, 3])).tail_start_index == 1

    @given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=2, max_size=120))
    def test_equals_hand_enumeration(self, demands):
        assert profile(make(demands)).tail_start_index == scan_tail_start(demands, 0.5)

    # peak 10, min 0, threshold 0.5 * 10 = 5: a value at it is in the tail, one above is not.
    @pytest.mark.parametrize("last,start", [(5.0, 2), (math.nextafter(5.0, 6.0), 3)],
                             ids=["at", "above"])
    def test_value_at_the_threshold_starts_the_tail(self, last, start):
        assert profile(make([0.0, 10.0, last])).tail_start_index == start

    # The threshold is a fraction of the curve's own range, so units do not move the tail.
    # Values stay clear of subnormals, where halving a range rounds differently per scale.
    @given(st.lists(st.just(0.0) | st.floats(min_value=1e-3, max_value=1e4), min_size=2,
                    max_size=60),
           st.sampled_from([2.0, 1024.0]))
    def test_invariant_under_power_of_two_scaling(self, demands, factor):
        scaled = [d * factor for d in demands]
        assert profile(make(scaled)).tail_start_index == profile(make(demands)).tail_start_index


class TestComputeRatios:
    def test_reference_point(self):
        assert compute_ratios(0.5) == (0.0, 0.5)

    def test_three_quarters(self):
        r1, r2 = compute_ratios(0.75)
        assert r1 == pytest.approx(0.4, abs=1e-12)
        assert r2 == pytest.approx(0.1, abs=1e-12)

    def test_full_tail_goes_negative(self):
        r1, r2 = compute_ratios(1.0)
        assert r1 == pytest.approx(0.8, abs=1e-12)
        assert r2 == pytest.approx(-0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_range_check(self, bad):
        with pytest.raises(ParameterError):
            compute_ratios(bad)

    def test_sum_identity_exact_on_grid(self):
        for k in range(1001):
            r1, r2 = compute_ratios(k / 1000)
            assert r1 + r2 == 0.5

    def test_matches_formulas_on_grid(self):
        for k in range(1001):
            tail_per = k / 1000
            r1, r2 = compute_ratios(tail_per)
            assert abs(r1 - (tail_per - 0.5) * 1.6) < 1e-12
            assert abs(r2 - (0.5 - (tail_per - 0.5) * 1.6)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_sum_identity_exact_everywhere(self, tail_per):
        r1, r2 = compute_ratios(tail_per)
        assert r1 + r2 == 0.5

    # With the fixed 1.6, r1 stays in [-0.8, 0.8]: far inside what the 2**-52 snap can hold.
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_ratios_stay_within_the_end_points(self, tail_per):
        r1, r2 = compute_ratios(tail_per)
        assert compute_ratios(0.0)[0] <= r1 <= compute_ratios(1.0)[0]
        assert compute_ratios(1.0)[1] <= r2 <= compute_ratios(0.0)[1]
        assert abs(r1) <= 0.8

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_strictly_monotone(self, t1, t2):
        if abs(t1 - t2) < 1e-9:
            return
        lo, hi = sorted((t1, t2))
        assert compute_ratios(lo)[0] < compute_ratios(hi)[0]
        assert compute_ratios(lo)[1] > compute_ratios(hi)[1]


class TestProfile:
    def test_hand_trace_composition(self):
        p = profile(make([1, 2, 10, 6, 4, 4, 4, 4, 4, 4]))
        assert p.peak_index == 2
        assert p.peak_value == 10.0
        assert p.tail_start_index == 4
        assert p.tail_per == 0.6
        assert p.r1 == pytest.approx(0.16, abs=1e-12)
        assert p.r2 == pytest.approx(0.34, abs=1e-12)
        assert p.r1 + p.r2 == 0.5

    def test_singleton(self):
        p = profile(make([5]))
        assert p.peak_index == 0
        assert p.tail_start_index == 1
        assert p.tail_per == 0.0
        assert p.r1 == pytest.approx(-0.8, abs=1e-12)
        assert p.r2 == pytest.approx(1.3, abs=1e-12)

    def test_flat_series(self):
        p = profile(make([3, 3, 3]))
        assert p.peak_index == 0
        assert p.tail_start_index == 1
        assert p.tail_per == pytest.approx(2 / 3)

    @given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=80))
    def test_index_ordering_invariant(self, demands):
        p = profile(make(demands))
        n = len(demands)
        assert 0 <= p.peak_index <= p.tail_start_index <= n
        assert p.tail_per == (n - p.tail_start_index) / n
        assert 0.0 <= p.tail_per <= 1.0

    def test_tail_per_uses_point_count(self):
        # 6 of 10 points belong to the tail regardless of label spacing
        demands = [1, 2, 10, 6, 4, 4, 4, 4, 4, 4]
        labels = ["2004-01", "2004-02", "2004-07", "2005-01", "2006-06",
                  "2007-01", "2010-12", "2015-03", "2020-08", "2021-01"]
        p = profile(TimeSeries(labels, demands))
        assert p.tail_per == 0.6

    @given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=80))
    def test_ratios_are_those_of_tail_per(self, demands):
        p = profile(make(demands))
        assert (p.r1, p.r2) == compute_ratios(p.tail_per)


# The paper's 50% rule and 1.6 slope are constants, not keyword arguments.
@pytest.mark.parametrize("call", [
    lambda: profile(make([1, 2, 1]), height_fraction=0.5),
    lambda: profile(make([1, 2, 1]), ratio_scale=1.6),
    lambda: compute_ratios(0.75, scale=1.6),
], ids=["height_fraction", "ratio_scale", "scale"])
def test_tuning_keyword_is_a_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_rule_constants_are_the_papers():
    assert (HEIGHT_FRACTION, RATIO_SCALE) == (0.5, 1.6)


def test_ratio_grid_spacing_of_quantisation():
    # the 2**-52 snap never moves a ratio more than one grid step
    for k in range(0, 1001, 7):
        tail_per = k / 1000
        r1, _ = compute_ratios(tail_per)
        assert abs(r1 - (tail_per - 0.5) * 1.6) <= math.ldexp(1.0, -53)
