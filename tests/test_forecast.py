import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from basscast import (
    DivergenceError,
    ForecastConfig,
    ModelVariant,
    MonoPeakSpec,
    ParameterError,
    QuadraticCoefficients,
    SingularFitError,
    TimeSeries,
    cumulative,
    fit_quadratic,
    forecast,
    generate_mono_peak,
    mean_demand,
    monthly_periods,
    predict_classical,
    predict_modified,
    profile,
    sse,
)
from basscast.forecast import _generate
from conftest import mono_peak_specs
from oracles import per_step_generate

# The package rebinds the name "forecast" to the function, so fetch the module by path.
forecast_module = importlib.import_module("basscast.forecast")

COEFFS = QuadraticCoefficients(a=10.0, b=0.5, c=-0.001, residual_sse=0.0, n_obs=20)


def make(demands):
    return TimeSeries(monthly_periods(len(demands)), demands)


class TestPointPredictions:
    def test_intercept_at_zero_cumulative(self):
        assert predict_classical(COEFFS, 0.0) == 10.0

    def test_direct_arithmetic(self):
        assert predict_classical(COEFFS, 100.0) == pytest.approx(50.0)

    def test_reproduces_noiseless_fixture(self, noiseless_series, exact_coeffs):
        lagged = cumulative(noiseless_series)
        for d, demand in zip(lagged, noiseless_series.demands):
            assert predict_classical(exact_coeffs, float(d)) == pytest.approx(demand, abs=1e-9)

    def test_zero_correction_collapses_to_classical(self):
        assert predict_modified(COEFFS, 100.0, 0.0) == predict_classical(COEFFS, 100.0)

    def test_positive_correction(self):
        assert predict_modified(COEFFS, 100.0, 0.16 * 20.0) == pytest.approx(53.2)

    def test_negative_correction(self):
        assert predict_modified(COEFFS, 100.0, -0.34 * 20.0) == pytest.approx(43.2)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ParameterError):
            predict_classical(COEFFS, float("nan"))
        with pytest.raises(ParameterError):
            predict_modified(COEFFS, 1.0, float("inf"))


class TestForecastConfig:
    def test_defaults(self):
        config = ForecastConfig()
        assert config.mode == "simulated"
        assert config.horizon == 0
        assert config.variant is ModelVariant.AUTO
        assert not config.clamp_nonnegative

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            ForecastConfig(mode="backwards")

    def test_bad_horizon(self):
        with pytest.raises(ParameterError):
            ForecastConfig(horizon=-1)

    def test_variant_coerced_from_string(self):
        assert ForecastConfig(variant="classical").variant is ModelVariant.CLASSICAL


class TestSimulatedMode:
    def test_noiseless_fixture_reproduced(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        result = forecast(
            noiseless_series, exact_coeffs, tail,
            ForecastConfig(variant=ModelVariant.CLASSICAL),
        )
        assert result.variant_used is ModelVariant.CLASSICAL
        assert result.correction_term == 0.0
        np.testing.assert_allclose(result.predicted, noiseless_series.demands, atol=1e-9)
        assert sse(noiseless_series, result.predicted) < 1e-12

    def test_deterministic_bit_for_bit(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        one = forecast(mono_peak_series, coeffs, tail)
        two = forecast(mono_peak_series, coeffs, tail)
        assert np.array_equal(one.predicted, two.predicted)
        assert one.variant_used is two.variant_used

    def test_horizon_extends_length(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        result = forecast(
            noiseless_series, exact_coeffs, tail,
            ForecastConfig(variant=ModelVariant.CLASSICAL, horizon=12),
        )
        assert len(result.predicted) == len(noiseless_series) + 12

    def test_clamp_floors_at_zero(self):
        # strongly negative intercept forces negative raw predictions
        series = make([5, 4, 3, 2, 1])
        coeffs = QuadraticCoefficients(a=-5.0, b=0.1, c=-0.01, residual_sse=0.0, n_obs=5)
        tail = profile(series)
        result = forecast(
            series, coeffs, tail,
            ForecastConfig(variant=ModelVariant.CLASSICAL, clamp_nonnegative=True),
        )
        assert result.predicted.min() >= 0.0
        raw = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.CLASSICAL))
        assert raw.predicted.min() < 0.0

    def test_divergence_guard_names_period(self):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=10.0, b=2.0, c=0.5, residual_sse=0.0, n_obs=4)
        tail = profile(series)
        with pytest.raises(DivergenceError) as err:
            forecast(series, coeffs, tail,
                     ForecastConfig(variant=ModelVariant.CLASSICAL, horizon=40))
        assert err.value.period is not None
        assert str(err.value.period) in str(err.value)


class TestOneStepMode:
    def test_constant_offset_invariant(self):
        rng_seeds = range(10)
        for seed in rng_seeds:
            series = generate_mono_peak(MonoPeakSpec(seed=seed))
            coeffs = fit_quadratic(series)
            tail = profile(series)
            mean = mean_demand(series)
            classical = forecast(series, coeffs, tail,
                                 ForecastConfig(mode="one_step", variant=ModelVariant.CLASSICAL))
            for variant, corr in (
                (ModelVariant.MODIFIED_ADD, tail.r1 * mean),
                (ModelVariant.MODIFIED_SUBTRACT, -(tail.r2 * mean)),
            ):
                modified = forecast(series, coeffs, tail,
                                    ForecastConfig(mode="one_step", variant=variant))
                assert modified.correction_term == corr
                gap = np.abs(modified.predicted - classical.predicted - corr)
                assert gap.max() < 1e-12

    def test_zero_correction_is_bitwise_classical(self):
        # tail_per exactly 0.5 makes r1 = 0, so the additive variant IS classical
        series = make([1, 2, 10, 6, 6, 4, 4, 4, 4, 4])
        tail = profile(series)
        assert tail.tail_per == 0.5
        assert tail.r1 == 0.0
        coeffs = fit_quadratic(series)
        for mode in ("one_step", "simulated"):
            classical = forecast(series, coeffs, tail,
                                 ForecastConfig(mode=mode, variant=ModelVariant.CLASSICAL))
            added = forecast(series, coeffs, tail,
                             ForecastConfig(mode=mode, variant=ModelVariant.MODIFIED_ADD))
            assert np.array_equal(classical.predicted, added.predicted)

    def test_horizon_divergence_guard(self):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=10.0, b=2.0, c=0.5, residual_sse=0.0, n_obs=4)
        tail = profile(series)
        with pytest.raises(DivergenceError) as err:
            forecast(series, coeffs, tail,
                     ForecastConfig(mode="one_step", variant=ModelVariant.CLASSICAL,
                                    horizon=40))
        assert err.value.period is not None and err.value.period > len(series)

    def test_horizon_switches_to_simulated_cumulative(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        result = forecast(
            noiseless_series, exact_coeffs, tail,
            ForecastConfig(mode="one_step", variant=ModelVariant.CLASSICAL, horizon=3),
        )
        n = len(noiseless_series)
        total = float(np.sum(noiseless_series.demands))
        expected = []
        running = total
        for _ in range(3):
            value = predict_classical(exact_coeffs, running)
            expected.append(value)
            running += value
        np.testing.assert_allclose(result.predicted[n:], expected, rtol=1e-15)


class TestAutoSelection:
    def test_auto_never_worse_than_any_candidate(self):
        for seed in range(6):
            series = generate_mono_peak(MonoPeakSpec(seed=seed))
            coeffs = fit_quadratic(series)
            tail = profile(series)
            for mode in ("one_step", "simulated"):
                auto = forecast(series, coeffs, tail,
                                ForecastConfig(mode=mode, variant=ModelVariant.AUTO))
                auto_sse = sse(series, auto.predicted)
                assert auto.variant_used is not ModelVariant.AUTO
                for variant in (ModelVariant.CLASSICAL, ModelVariant.MODIFIED_ADD,
                                ModelVariant.MODIFIED_SUBTRACT):
                    other = forecast(series, coeffs, tail,
                                     ForecastConfig(mode=mode, variant=variant))
                    assert auto_sse <= sse(series, other.predicted) + 1e-9

    def test_modified_wins_on_default_mono_peak_family(self):
        series = generate_mono_peak(MonoPeakSpec(seed=0))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        assert tail.tail_per >= 0.6
        auto = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.AUTO))
        classical = forecast(series, coeffs, tail,
                             ForecastConfig(variant=ModelVariant.CLASSICAL))
        assert auto.variant_used in (ModelVariant.MODIFIED_ADD, ModelVariant.MODIFIED_SUBTRACT)
        assert sse(series, auto.predicted) < sse(series, classical.predicted)

    @pytest.mark.parametrize("variant,horizon,curves", [
        (ModelVariant.AUTO, 0, 3),
        (ModelVariant.AUTO, 12, 4),                 # the winner is rerun through the horizon
        (ModelVariant.MODIFIED_SUBTRACT, 0, 1),
        (ModelVariant.MODIFIED_SUBTRACT, 12, 1),
    ])
    def test_candidates_are_the_curves_generated(self, monkeypatch, mono_peak_series,
                                                 variant, horizon, curves):
        calls = []
        monkeypatch.setattr(forecast_module, "_generate",
                            lambda *args: calls.append(args) or _generate(*args))
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        result = forecast(mono_peak_series, coeffs, tail,
                          ForecastConfig(variant=variant, horizon=horizon))
        assert len(calls) == curves
        expected = ((ModelVariant.CLASSICAL, ModelVariant.MODIFIED_ADD,
                     ModelVariant.MODIFIED_SUBTRACT) if variant is ModelVariant.AUTO
                    else (variant,))
        assert tuple(result.candidates) == expected
        n = len(mono_peak_series)
        for curve in result.candidates.values():
            assert len(curve) == n and not curve.flags.writeable
        winner = result.candidates[result.variant_used]
        assert winner.tobytes() == result.predicted[:n].tobytes()
        with pytest.raises(TypeError):
            result.candidates[ModelVariant.AUTO] = winner

    def test_tie_breaks_to_classical(self, noiseless_series, exact_coeffs):
        # tail_per = 0.5 zeroes r1, so the additive variant ties classical exactly
        series = make([1, 2, 10, 6, 6, 4, 4, 4, 4, 4])
        tail = profile(series)
        coeffs = fit_quadratic(series)
        result = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.AUTO))
        if result.correction_term == 0.0:
            assert result.variant_used is not ModelVariant.MODIFIED_ADD


def outcome(generate, *args):
    """The curve's bytes, or the period and message of the DivergenceError it raised."""
    try:
        return generate(*args).tobytes()
    except DivergenceError as exc:
        return exc.period, str(exc)


class TestKernelMatchesPerStepReference:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        horizon=st.integers(min_value=0, max_value=60),
    )
    def test_fitted_curves_bit_identical(self, spec, mode, clamp, horizon):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        tail = profile(series)
        mean = mean_demand(series)
        for correction in (0.0, tail.r1 * mean, -(tail.r2 * mean)):
            args = (series, coeffs, correction, mode, horizon, clamp)
            assert outcome(_generate, *args) == outcome(per_step_generate, *args)

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("horizon", [0, 40])
    @pytest.mark.parametrize("a,b,c,correction", [
        (10.0, 2.0, 0.5, 0.0),             # running total passes the guard
        (1e308, 0.0, 0.0, 1e308),          # the first value overflows
        (-1e308, 0.0, 0.0, -1e308),        # overflows to -inf, which a clamp floors
        (5.0, 0.0, 1e306, 0.0),            # c*D*D overflows on the observed data
        (float("nan"), 0.0, 0.0, 0.0),     # NaN from the first period on
        (-0.0, -1.0, -1.0, 0.0),           # signed zeros
    ])
    def test_pathological_coefficients(self, mode, clamp, horizon, a, b, c, correction):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=a, b=b, c=c, residual_sse=0.0, n_obs=4)
        args = (series, coeffs, correction, mode, horizon, clamp)
        assert outcome(_generate, *args) == outcome(per_step_generate, *args)

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    def test_auto_returns_the_winning_candidate_curve(self, mode):
        series = generate_mono_peak(MonoPeakSpec(seed=3))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        auto = forecast(series, coeffs, tail, ForecastConfig(mode=mode))
        direct = forecast(series, coeffs, tail,
                          ForecastConfig(mode=mode, variant=auto.variant_used))
        assert auto.predicted.tobytes() == direct.predicted.tobytes()
        assert not auto.predicted.flags.writeable
