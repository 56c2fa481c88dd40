import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from basscast import (
    DivergenceError,
    ForecastConfig,
    ModelVariant,
    MonoPeakSpec,
    QuadraticCoefficients,
    ShapeError,
    SingularFitError,
    SplitMix64,
    TimeSeries,
    UndefinedBaselineError,
    compare_models,
    fit_quadratic,
    forecast,
    generate_mono_peak,
    improvement_percent,
    mape,
    monthly_periods,
    profile,
    sse,
)
from conftest import mono_peak_specs
from oracles import sse_fsum, two_call_compare_models


def make(demands):
    return TimeSeries(monthly_periods(len(demands)), demands)


class TestSse:
    def test_perfect_fit(self):
        s = make([1, 2, 3])
        assert sse(s, [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert sse(make([1, 2]), [0.0, 0.0]) == 5.0

    def test_matches_high_precision_summation(self):
        rng = SplitMix64(100)
        actual = [1000.0 * rng.next_float() for _ in range(100)]
        predicted = [1000.0 * rng.next_float() for _ in range(100)]
        assert sse(make(actual), predicted) == pytest.approx(
            sse_fsum(actual, predicted), rel=1e-9
        )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            sse(make([1, 2, 3]), [1.0, 2.0])

    def test_accepts_plain_sequences(self):
        assert sse([1.0, 2.0], [1.0, 1.0]) == 1.0


class TestImprovementPercent:
    # reference SSE reductions for the three recorded comparisons
    @pytest.mark.parametrize(
        "classical,modified,expected,tol",
        [
            (22_061.11, 14_041.68, 36.35, 0.01),
            (179_525.74, 37_197.51, 79.3, 0.05),
            (301_500_362.4, 180_145_992.2, 40.25, 0.01),
        ],
    )
    def test_reference_pairs(self, classical, modified, expected, tol):
        assert improvement_percent(classical, modified) == pytest.approx(expected, abs=tol)

    def test_no_change_is_zero(self):
        assert improvement_percent(123.4, 123.4) == 0.0

    def test_perfect_fix_is_hundred(self):
        assert improvement_percent(123.4, 0.0) == 100.0

    def test_worse_model_goes_negative(self):
        assert improvement_percent(100.0, 150.0) == -50.0

    @pytest.mark.parametrize("baseline", [0.0, -1.0])
    def test_nonpositive_baseline_rejected(self, baseline):
        with pytest.raises(UndefinedBaselineError):
            improvement_percent(baseline, 1.0)


class TestMape:
    def test_skips_zero_periods(self):
        value, skipped = mape([0.0, 10.0, 0.0, 20.0], [1.0, 11.0, 9.0, 18.0])
        assert skipped == 2
        assert value == pytest.approx((10.0 + 10.0) / 2)

    def test_all_zero_returns_none(self):
        value, skipped = mape([0.0, 0.0], [1.0, 2.0])
        assert value is None
        assert skipped == 2


class TestCompareModels:
    def test_noiseless_fixture_has_no_room_to_improve(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        report = compare_models(noiseless_series, exact_coeffs, tail)
        assert report.sse_classical == pytest.approx(0.0, abs=1e-12)
        assert report.variant_used is ModelVariant.CLASSICAL
        assert report.improvement_percent == 0.0

    def test_default_mono_peak_fixture_improves(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        report = compare_models(mono_peak_series, coeffs, tail)
        assert report.improvement_percent > 0.0
        assert report.sse_modified < report.sse_classical
        assert report.variant_used in (
            ModelVariant.MODIFIED_ADD, ModelVariant.MODIFIED_SUBTRACT
        )

    def test_zero_correction_collapse(self):
        series = make([1, 2, 10, 6, 6, 4, 4, 4, 4, 4])
        tail = profile(series)
        assert tail.r1 == 0.0
        coeffs = fit_quadratic(series)
        report = compare_models(series, coeffs, tail, variant=ModelVariant.MODIFIED_ADD)
        assert report.sse_classical == report.sse_modified
        assert report.improvement_percent == 0.0

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    def test_auto_improvement_never_negative(self, mode):
        for seed in range(8):
            series = generate_mono_peak(MonoPeakSpec(seed=seed))
            coeffs = fit_quadratic(series)
            tail = profile(series)
            report = compare_models(series, coeffs, tail, mode=mode)
            assert report.improvement_percent >= 0.0

    def test_forced_variant_can_hurt(self, noiseless_series, exact_coeffs):
        # on a nearly-reproduced series any sizeable correction makes things worse
        series = make(noiseless_series.demands + 0.001)
        tail = profile(series)
        assert tail.r1 != 0.0
        report = compare_models(series, exact_coeffs, tail, variant=ModelVariant.MODIFIED_ADD)
        assert report.sse_classical > 0.0
        assert report.improvement_percent < 0.0
        assert report.sse_modified > report.sse_classical

    def test_report_regeneration_is_identical(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        first = compare_models(mono_peak_series, coeffs, tail)
        second = compare_models(mono_peak_series, coeffs, tail)
        assert first == second
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_report_serialises_with_snake_case_fields(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        payload = compare_models(mono_peak_series, coeffs, tail).to_dict()
        expected_keys = {
            "sse_classical", "sse_modified", "variant_used", "improvement_percent",
            "mode", "tail_profile", "rmse", "mae", "mape", "mape_skipped",
        }
        assert set(payload) == expected_keys
        assert isinstance(payload["variant_used"], str)
        assert set(payload["tail_profile"]) == {
            "peak_index", "peak_value", "tail_start_index", "tail_per", "r1", "r2",
        }
        json.dumps(payload, allow_nan=False)

    def test_diagnostics_are_consistent(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        report = compare_models(mono_peak_series, coeffs, tail)
        n = len(mono_peak_series)
        assert report.rmse == pytest.approx((report.sse_modified / n) ** 0.5)
        assert report.mae >= 0.0
        assert report.mape is None or report.mape >= 0.0


def comparison(compare, *args):
    """Every report field and both curves' bytes, or the DivergenceError's period and message."""
    try:
        report = compare(*args)
    except DivergenceError as exc:
        return exc.period, str(exc)
    return (report.to_dict(), report.variant_used,
            report.classical_predicted.tobytes(), report.modified_predicted.tobytes())


class TestOneForecastPassMatchesTwoCallReference:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(list(ModelVariant)),
    )
    def test_reports_identical(self, spec, mode, clamp, variant):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        tail = profile(series)
        args = (series, coeffs, tail, mode, variant, clamp)
        assert comparison(compare_models, *args) == comparison(two_call_compare_models, *args)
        try:
            result = forecast(series, coeffs, tail, ForecastConfig(
                mode=mode, variant=variant, clamp_nonnegative=clamp))
        except DivergenceError:
            return
        assert result.candidates[result.variant_used] is result.predicted

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    @pytest.mark.parametrize("a,b,c", [
        (10.0, 2.0, 0.5),    # simulated: classical diverges at 6, modified_add at 5
        (1.0, 1.0, 1e-9),    # simulated: every variant diverges, each at its own period
        (0.0, 1.0, 0.0),     # simulated: classical survives, both modified variants diverge
        (5.0, 0.0, 1e306),   # one_step: c*D*D overflows on the observed data
    ])
    def test_diverging_coefficients(self, mono_peak_series, mode, variant, a, b, c):
        coeffs = QuadraticCoefficients(a=a, b=b, c=c, residual_sse=0.0,
                                       n_obs=len(mono_peak_series))
        args = (mono_peak_series, coeffs, profile(mono_peak_series), mode, variant, False)
        assert comparison(compare_models, *args) == comparison(two_call_compare_models, *args)
