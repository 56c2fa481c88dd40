import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from basscast import (
    DivergenceError,
    EmptyInputError,
    ModelVariant,
    MonoPeakSpec,
    ParameterError,
    QuadraticCoefficients,
    ShapeError,
    SingularFitError,
    TimeSeries,
    UndefinedBaselineError,
    ValidationError,
    compare_models,
    fit_quadratic,
    forecast,
    generate_mono_peak,
    improvement_percent,
    mae,
    mape,
    mean_demand,
    monthly_periods,
    profile,
    rmse,
    sse,
)
from basscast.synthetic import SplitMix64
from conftest import EXACT_COEFFS, generate_bass_series, mono_peak_specs
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

    @pytest.mark.parametrize("metric", [sse, mae, mape, rmse])
    def test_length_mismatch(self, metric):
        with pytest.raises(ShapeError, match="actual has length 3, predicted has length 2"):
            metric(make([1, 2, 3]), [1.0, 2.0])

    # A scalar or 2-D input has no per-period residual; it raised IndexError or TypeError.
    @pytest.mark.parametrize("metric", [sse, mae, mape, rmse])
    @pytest.mark.parametrize("actual,predicted,name,shape", [
        (1.0, 1.0, "actual", "()"),
        ([1.0, 2.0], 1.0, "predicted", "()"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "actual", "(2, 2)"),
        ([1.0, 2.0], [[1.0, 2.0]], "predicted", "(1, 2)"),
    ], ids=["scalars", "scalar-predicted", "2-D", "2-D-predicted"])
    def test_inputs_must_be_one_dimensional(self, metric, actual, predicted, name, shape):
        message = f"{name} must be one-dimensional, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            metric(actual, predicted)

    def test_accepts_plain_sequences(self):
        assert sse([1.0, 2.0], [1.0, 1.0]) == 1.0

    # One rule for all four metrics: empty input raises, and a residual past float64 is inf
    # (mape: None) with no numpy warning, which would fail the test.
    @pytest.mark.parametrize("metric,overflowed", [(sse, math.inf), (rmse, math.inf),
                                                   (mae, math.inf), (mape, (None, 0))],
                             ids=["sse", "rmse", "mae", "mape"])
    @pytest.mark.parametrize("actual,predicted", [([], []), ([1e308, 1.0], [-1e308, 2.0])],
                             ids=["empty", "overflowing"])
    def test_shared_input_and_overflow_rule(self, metric, overflowed, actual, predicted):
        if not actual:
            with pytest.raises(EmptyInputError, match="at least one observation"):
                metric(actual, predicted)
        else:
            assert metric(actual, predicted) == overflowed

    # A NaN or infinity has no SSE, error or percentage report.json could hold.
    @pytest.mark.parametrize("metric", [sse, rmse, mae, mape])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["actual", "predicted"])
    def test_non_finite_input_names_its_argument(self, metric, bad, name):
        values = {"actual": [1.0, 2.0, 3.0], "predicted": [1.0, 2.0, 3.0]}
        values[name][1] = bad
        with pytest.raises(ValidationError, match=f"^{name} value at index 1 is not finite"):
            metric(values["actual"], values["predicted"])


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

    def test_two_zero_sses_are_no_change(self):
        # An exact fit that the modified model matches; a zero baseline under a positive
        # modified SSE still raises (test_nonpositive_baseline_rejected).
        assert improvement_percent(0.0, 0.0) == 0.0

    def test_worse_model_goes_negative(self):
        assert improvement_percent(100.0, 150.0) == -50.0

    @pytest.mark.parametrize("baseline", [0.0, -1.0])
    def test_nonpositive_baseline_rejected(self, baseline):
        with pytest.raises(UndefinedBaselineError):
            improvement_percent(baseline, 1.0)

    @pytest.mark.parametrize("baseline", [math.inf, math.nan])
    def test_non_finite_baseline_rejected(self, baseline):
        # inf - x over inf is NaN, which report.json cannot write.
        with pytest.raises(UndefinedBaselineError):
            improvement_percent(baseline, 1.0)

    @pytest.mark.parametrize("modified", [math.nan, math.inf, -5.0])
    def test_bad_modified_sse_rejected(self, modified):
        # An SSE is a finite sum of squares; NaN, inf or a negative one is no improvement.
        with pytest.raises(UndefinedBaselineError, match=f"modified SSE {modified}"):
            improvement_percent(1.0, modified)

    @pytest.mark.parametrize("classical,modified", [(1e-300, 1e10), (5e-324, 1.0)])
    def test_overflowing_quotient_rejected(self, classical, modified):
        with pytest.raises(UndefinedBaselineError,
                           match=re.escape(f"improvement overflows float64 for baseline SSE "
                                           f"{classical} and modified SSE {modified}")):
            improvement_percent(classical, modified)

    @example(1e-300, 1e10)  # the quotient overflows to -inf
    @given(st.floats(min_value=0.0, allow_infinity=False),
           st.floats(min_value=0.0, allow_infinity=False))
    def test_finite_or_undefined_for_every_finite_pair(self, classical, modified):
        try:
            assert math.isfinite(improvement_percent(classical, modified))
        except UndefinedBaselineError:
            pass


class TestMape:
    def test_skips_zero_periods(self):
        value, skipped = mape([0.0, 10.0, 0.0, 20.0], [1.0, 11.0, 9.0, 18.0])
        assert skipped == 2
        assert value == pytest.approx((10.0 + 10.0) / 2)

    def test_all_zero_returns_none(self):
        value, skipped = mape([0.0, 0.0], [1.0, 2.0])
        assert value is None
        assert skipped == 2

    @pytest.mark.parametrize("actual,predicted", [
        ([5e-324, 1.0], [1.0, 1.0]),        # |a-p|/|a| overflows on a subnormal demand
        ([1e308, 1.0], [-1e308, 1.0]),      # |a-p| itself overflows
        ([0.0, 5e-324, 2.0], [1.0, 0.5, 2.0]),
    ])
    def test_overflowing_percentage_returns_none(self, actual, predicted):
        value, skipped = mape(actual, predicted)  # RuntimeWarnings fail the test
        assert value is None
        assert skipped == actual.count(0.0)


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

    @pytest.mark.parametrize("variant", [ModelVariant.AUTO, ModelVariant.MODIFIED_ADD])
    def test_overflowing_sse_is_a_divergence(self, variant):
        # Every curve is finite, but squaring its first ~1e200 residual overflows.
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=1e200, b=0.0, c=0.0, residual_sse=0.0, n_obs=4)
        with pytest.raises(DivergenceError, match="^prediction overflowed at period 1$"):
            compare_models(series, coeffs, profile(series), mode="one_step", variant=variant)

    def test_settings_are_keyword_only(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(TypeError):
            compare_models(mono_peak_series, coeffs, profile(mono_peak_series), "one_step")

    def test_unknown_variant_is_a_parameter_error(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(ParameterError,
                           match=r"variant must be one of \('classical', .*\), got 'bogus'"):
            compare_models(mono_peak_series, coeffs, profile(mono_peak_series), variant="bogus")

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


def comparison(compare, *args, **kwargs):
    """Every report field and both curves' bytes, the DivergenceError's period and message,
    or the UndefinedBaselineError's class and message."""
    try:
        report = compare(*args, **kwargs)
    except DivergenceError as exc:
        return exc.period, str(exc)
    except UndefinedBaselineError as exc:
        return type(exc), str(exc)
    return (report.to_dict(), report.variant_used,
            report.classical_predicted.tobytes(), report.modified_predicted.tobytes())


class TestOneForecastPassMatchesTwoCallReference:
    @settings(max_examples=80, deadline=None)
    # A subnormal first demand made mape overflow to inf with a RuntimeWarning.
    @example(spec=MonoPeakSpec(n=5, peak_time=1, peak_height=1.0, decay_rate=1.0,
                               plateau_level=0.0, rise_shape=1.0, noise_amplitude=5e-324,
                               seed=0),
             mode="one_step", clamp=False, variant=ModelVariant.CLASSICAL)
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
        args = (series, coeffs, tail)
        kwargs = {"mode": mode, "variant": variant, "clamp_nonnegative": clamp}
        # compare_models takes its SSEs from forecast's candidate records and its rmse
        # from sse_modified; the reference recomputes them with sse() and rmse().
        assert (comparison(compare_models, *args, **kwargs)
                == comparison(two_call_compare_models, *args, **kwargs))
        try:
            result = forecast(series, coeffs, tail,
                              mode=mode, variant=variant, clamp_nonnegative=clamp)
        except DivergenceError:
            return
        assert result.candidates[result.variant_used].curve is result.predicted

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
        args = (mono_peak_series, coeffs, profile(mono_peak_series))
        kwargs = {"mode": mode, "variant": variant}
        assert (comparison(compare_models, *args, **kwargs)
                == comparison(two_call_compare_models, *args, **kwargs))

    # The generating coefficients give classical a zero SSE: auto and classical report 0.0,
    # and both modified variants raise UndefinedBaselineError.
    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_zero_baseline(self, mode, variant):
        series = generate_bass_series(EXACT_COEFFS, 33)
        args = (series, EXACT_COEFFS, profile(series))
        kwargs = {"mode": mode, "variant": variant}
        assert (comparison(compare_models, *args, **kwargs)
                == comparison(two_call_compare_models, *args, **kwargs))


class TestForecastHoldsTheComparedCurves:
    """forecast puts classical first in every candidate set, so one call is all compare_models
    needs: it raises the same divergence, or holds the report's two curves."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(list(ModelVariant)),
    )
    def test_same_divergence_or_same_curves(self, spec, mode, clamp, variant):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        args = (series, coeffs, profile(series))
        kwargs = {"mode": mode, "variant": variant, "clamp_nonnegative": clamp}
        try:
            result = forecast(*args, **kwargs)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as err:
                compare_models(*args, **kwargs)
            assert (err.value.period, str(err.value)) == (exc.period, str(exc))
            return
        try:
            report = compare_models(*args, **kwargs)
        except UndefinedBaselineError:
            assume(False)  # improvement_percent's rule, tested on its own
        assert (result.candidates[ModelVariant.CLASSICAL].curve.tobytes()
                == report.classical_predicted.tobytes())
        assert result.predicted.tobytes() == report.modified_predicted.tobytes()


def assert_one_improvement_rule(series, coeffs, tail, **kwargs):
    """compare_models reports improvement_percent of its own SSE pair, or both raise."""
    shared = {k: v for k, v in kwargs.items() if k != "variant"}
    try:
        classical = forecast(series, coeffs, tail, variant=ModelVariant.CLASSICAL, **shared)
        chosen = forecast(series, coeffs, tail, **kwargs)
    except DivergenceError:
        with pytest.raises(DivergenceError):
            compare_models(series, coeffs, tail, **kwargs)
        return
    pair = (classical.candidates[ModelVariant.CLASSICAL].sse,
            chosen.candidates[chosen.variant_used].sse)
    try:
        expected = improvement_percent(*pair)
    except UndefinedBaselineError:
        with pytest.raises(UndefinedBaselineError):
            compare_models(series, coeffs, tail, **kwargs)
        return
    report = compare_models(series, coeffs, tail, **kwargs)
    assert (report.sse_classical, report.sse_modified) == pair
    assert report.improvement_percent == expected


class TestOneImprovementRule:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(list(ModelVariant)),
    )
    def test_report_improvement_is_improvement_percent(self, spec, mode, clamp, variant):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        assert_one_improvement_rule(series, coeffs, profile(series), mode=mode,
                                    clamp_nonnegative=clamp, variant=variant)

    # The exact series gives a zero classical SSE, which a forced correction cannot match;
    # random specs do not reach one. A candidate whose SSE overflows diverged, so none is inf.
    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_zero_baseline(self, mode, clamp, variant):
        series = generate_bass_series(EXACT_COEFFS, 33)
        assert_one_improvement_rule(series, EXACT_COEFFS, profile(series), mode=mode,
                                    clamp_nonnegative=clamp, variant=variant)

    # The recursion reproduces its own series exactly under the coefficients that made it, so
    # classical's SSE is 0.0 at every length, whatever the fit's rounding does with that series.
    @pytest.mark.parametrize("n", [6, 10, 33, 60, 120, 228])
    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_zero_baseline_with_the_generating_coefficients(self, n, mode, variant):
        series = generate_bass_series(EXACT_COEFFS, n)
        args = (series, EXACT_COEFFS, profile(series))
        if variant in (ModelVariant.MODIFIED_ADD, ModelVariant.MODIFIED_SUBTRACT):
            with pytest.raises(UndefinedBaselineError, match="baseline SSE 0.0$"):
                compare_models(*args, mode=mode, variant=variant)
            return
        report = compare_models(*args, mode=mode, variant=variant)
        assert (report.sse_classical, report.sse_modified) == (0.0, 0.0)
        assert report.improvement_percent == 0.0
        assert report.variant_used is ModelVariant.CLASSICAL


class TestScaleFree:
    """Counting demand in another unit changes no answer, only the numbers that carry the unit.

    Scaling the demands by 2**k is exact in float64, and so is every step that follows: the
    fit, the tail rule, the recursion, the SSEs and the metrics. So the one limit left is
    float64's own range, which curves and totals within 2**400 keep clear of for |k| <= 60.
    """

    @settings(max_examples=60, deadline=None)
    # From k = 39 the default spec's simulated total passes 1e15, where an absolute guard trips.
    @example(spec=MonoPeakSpec(), k=39, mode="simulated", clamp=False, variant=ModelVariant.AUTO)
    @example(spec=MonoPeakSpec(), k=40, mode="simulated", clamp=False,
             variant=ModelVariant.CLASSICAL)
    @given(
        spec=mono_peak_specs(),
        k=st.integers(min_value=-60, max_value=60),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(list(ModelVariant)),
    )
    def test_power_of_two_rescale_is_exact(self, spec, k, mode, clamp, variant):
        series = generate_mono_peak(spec)
        kwargs = {"mode": mode, "clamp_nonnegative": clamp, "variant": variant}
        try:
            coeffs = fit_quadratic(series)
            base = compare_models(series, coeffs, profile(series), **kwargs)
        except (SingularFitError, DivergenceError, UndefinedBaselineError):
            assume(False)
        largest = max(float(np.abs(r.curve).max()) for r in base.result.candidates.values())
        assume(max(largest, abs(mean_demand(series)) * len(series)) <= 2.0**400)
        scale = 2.0**k
        scaled_series = TimeSeries(series.periods, series.demands * scale, unit=series.unit)
        scaled_coeffs = fit_quadratic(scaled_series)
        scaled = compare_models(scaled_series, scaled_coeffs, profile(scaled_series), **kwargs)

        assert (scaled_coeffs.a, scaled_coeffs.b, scaled_coeffs.c, scaled_coeffs.residual_sse) == (
            coeffs.a * scale, coeffs.b, coeffs.c / scale, coeffs.residual_sse * scale * scale)
        assert scaled.tail_profile == dataclasses.replace(
            base.tail_profile, peak_value=base.tail_profile.peak_value * scale)
        assert scaled.variant_used is base.variant_used
        assert tuple(scaled.result.candidates) == tuple(base.result.candidates)
        for v, record in base.result.candidates.items():
            other = scaled.result.candidates[v]
            assert np.array_equal(other.curve, record.curve * scale)
            assert (other.sse, other.correction) == (record.sse * scale * scale,
                                                     record.correction * scale)
        assert (scaled.improvement_percent, scaled.mape, scaled.mape_skipped) == (
            base.improvement_percent, base.mape, base.mape_skipped)
        assert (scaled.rmse, scaled.mae) == (base.rmse * scale, base.mae * scale)
