import math
import re

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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_height_fraction_range(self, fraction):
        message = re.escape("height_fraction must be in (0, 1)")
        with pytest.raises(ParameterError, match=message):
            profile(make([1, 2, 3]), fraction)
        # A singleton's tail is empty, but its fraction is checked too.
        with pytest.raises(ParameterError, match=message):
            profile(make([5]), fraction)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=2, max_size=120),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_equals_hand_enumeration(self, demands, fraction):
        start = profile(make(demands), fraction).tail_start_index
        assert start == scan_tail_start(demands, fraction)

    @given(st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=2, max_size=60))
    def test_monotone_in_height_fraction(self, demands):
        s = make(demands)
        starts = [profile(s, f).tail_start_index for f in (0.2, 0.4, 0.6, 0.8)]
        assert starts == sorted(starts, reverse=True)


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

    def test_custom_scale(self):
        r1, r2 = compute_ratios(0.75, scale=2.0)
        assert r1 == pytest.approx(0.5, abs=1e-12)
        assert r1 + r2 == 0.5

    @pytest.mark.parametrize("tail_per,scale", [
        (0.75, math.nan), (0.75, math.inf), (0.75, -math.inf), (0.5, math.inf), (0.5, math.nan),
        (0.75, 1e300), (0.0, 2.0**973),
    ])
    def test_scale_that_cannot_snap_raises(self, tail_per, scale):
        with pytest.raises(ParameterError,
                           match=rf"^ratio scale must be finite .* got {re.escape(str(scale))}$"):
            compute_ratios(tail_per, scale)

    def test_largest_snappable_r1_is_kept(self):
        # r1 = 0.5 * scale just below 2**972, the last value whose 2**52 multiple is finite.
        scale = math.nextafter(2.0**973, 0.0)
        assert compute_ratios(1.0, scale)[0] == 0.5 * scale


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


def test_ratio_grid_spacing_of_quantisation():
    # the 2**-52 snap never moves a ratio more than one grid step
    for k in range(0, 1001, 7):
        tail_per = k / 1000
        r1, _ = compute_ratios(tail_per)
        assert abs(r1 - (tail_per - 0.5) * 1.6) <= math.ldexp(1.0, -53)
