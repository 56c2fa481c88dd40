import dataclasses
import gc
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from basscast import (
    DivergenceError,
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
    profile,
    sse,
)
from basscast.forecast import _candidate, simulate
from conftest import mono_peak_specs
from oracles import per_step_generate

# The package rebinds the name "forecast" to the function, so fetch the module by path.
forecast_module = importlib.import_module("basscast.forecast")


def make(demands):
    return TimeSeries(monthly_periods(len(demands)), demands)


class TestForecastSettings:
    def test_defaults(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        default = forecast(mono_peak_series, coeffs, tail)
        spelled = forecast(mono_peak_series, coeffs, tail, mode="simulated",
                           variant=ModelVariant.AUTO, clamp_nonnegative=False, horizon=0)
        assert default.predicted.tobytes() == spelled.predicted.tobytes()
        assert len(default.candidates) == 3
        assert len(default.predicted) == len(mono_peak_series)

    def test_settings_are_keyword_only(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(TypeError):
            forecast(mono_peak_series, coeffs, profile(mono_peak_series), "simulated")

    def test_bad_mode(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(ParameterError, match="mode must be one of .* got 'backwards'"):
            forecast(mono_peak_series, coeffs, profile(mono_peak_series), mode="backwards")

    def test_bad_horizon(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(ParameterError, match="horizon must be >= 0, got -1"):
            forecast(mono_peak_series, coeffs, profile(mono_peak_series), horizon=-1)

    @pytest.mark.parametrize("horizon", [2.5, "3", None], ids=["float", "str", "None"])
    def test_horizon_must_be_an_integer(self, mono_peak_series, horizon):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(ParameterError, match=f"^horizon must be an integer, got {horizon!r}$"):
            forecast(mono_peak_series, coeffs, profile(mono_peak_series), horizon=horizon)

    def test_horizon_takes_any_index(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        assert (forecast(mono_peak_series, coeffs, tail, horizon=np.int64(3)).predicted.tobytes()
                == forecast(mono_peak_series, coeffs, tail, horizon=3).predicted.tobytes())

    def test_unknown_variant(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        with pytest.raises(ParameterError, match=r"variant must be one of \('classical', "
                           r"'modified_add', 'modified_subtract', 'auto'\), got 'bogus'"):
            forecast(mono_peak_series, coeffs, profile(mono_peak_series), variant="bogus")

    def test_variant_coerced_from_string(self, mono_peak_series):
        coeffs = fit_quadratic(mono_peak_series)
        result = forecast(mono_peak_series, coeffs, profile(mono_peak_series), variant="classical")
        assert result.variant_used is ModelVariant.CLASSICAL
        assert tuple(result.candidates) == (ModelVariant.CLASSICAL,)


class TestSimulatedMode:
    def test_noiseless_fixture_reproduced(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        result = forecast(
            noiseless_series, exact_coeffs, tail,
            variant=ModelVariant.CLASSICAL,
        )
        assert result.variant_used is ModelVariant.CLASSICAL
        assert result.candidates[result.variant_used].correction == 0.0
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
            variant=ModelVariant.CLASSICAL, horizon=12,
        )
        assert len(result.predicted) == len(noiseless_series) + 12

    def test_clamp_floors_at_zero(self):
        # strongly negative intercept forces negative raw predictions
        series = make([5, 4, 3, 2, 1])
        coeffs = QuadraticCoefficients(a=-5.0, b=0.1, c=-0.01, residual_sse=0.0, n_obs=5)
        tail = profile(series)
        result = forecast(
            series, coeffs, tail,
            variant=ModelVariant.CLASSICAL, clamp_nonnegative=True,
        )
        assert result.predicted.min() >= 0.0
        raw = forecast(series, coeffs, tail, variant=ModelVariant.CLASSICAL)
        assert raw.predicted.min() < 0.0

    def test_divergence_guard_names_period(self):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=10.0, b=2.0, c=0.5, residual_sse=0.0, n_obs=4)
        tail = profile(series)
        with pytest.raises(DivergenceError) as err:
            forecast(series, coeffs, tail,
                     variant=ModelVariant.CLASSICAL, horizon=40)
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
                                 mode="one_step", variant=ModelVariant.CLASSICAL)
            for variant, corr in (
                (ModelVariant.MODIFIED_ADD, tail.r1 * mean),
                (ModelVariant.MODIFIED_SUBTRACT, -(tail.r2 * mean)),
            ):
                modified = forecast(series, coeffs, tail,
                                    mode="one_step", variant=variant)
                assert modified.candidates[modified.variant_used].correction == corr
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
                                 mode=mode, variant=ModelVariant.CLASSICAL)
            added = forecast(series, coeffs, tail,
                             mode=mode, variant=ModelVariant.MODIFIED_ADD)
            assert np.array_equal(classical.predicted, added.predicted)

    def test_horizon_divergence_guard(self):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=10.0, b=2.0, c=0.5, residual_sse=0.0, n_obs=4)
        tail = profile(series)
        with pytest.raises(DivergenceError) as err:
            forecast(series, coeffs, tail,
                     mode="one_step", variant=ModelVariant.CLASSICAL, horizon=40)
        assert err.value.period is not None and err.value.period > len(series)

    def test_horizon_switches_to_simulated_cumulative(self, noiseless_series, exact_coeffs):
        tail = profile(noiseless_series)
        result = forecast(
            noiseless_series, exact_coeffs, tail,
            mode="one_step", variant=ModelVariant.CLASSICAL, horizon=3,
        )
        n = len(noiseless_series)
        total = float(np.sum(noiseless_series.demands))
        a, b, c = exact_coeffs.a, exact_coeffs.b, exact_coeffs.c
        expected = []
        running = total
        for _ in range(3):
            value = a + b * running + c * running * running
            expected.append(value)
            running += value
        np.testing.assert_allclose(result.predicted[n:], expected, rtol=1e-15)

    # fitting._one_step is the one array form of the step: the fit residual and the unclamped
    # one-step classical curve are the same array, so their SSEs share every bit.
    @settings(max_examples=60, deadline=None)
    @given(spec=mono_peak_specs())
    def test_classical_sse_is_the_fit_residual_sse(self, spec):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        candidate = _candidate(series, coeffs, 0.0, False, cumulative(series))
        assert np.float64(candidate.sse).tobytes() == np.float64(coeffs.residual_sse).tobytes()


class TestAutoSelection:
    def test_auto_never_worse_than_any_candidate(self):
        for seed in range(6):
            series = generate_mono_peak(MonoPeakSpec(seed=seed))
            coeffs = fit_quadratic(series)
            tail = profile(series)
            for mode in ("one_step", "simulated"):
                auto = forecast(series, coeffs, tail,
                                mode=mode, variant=ModelVariant.AUTO)
                auto_sse = sse(series, auto.predicted)
                assert auto.variant_used is not ModelVariant.AUTO
                for variant in (ModelVariant.CLASSICAL, ModelVariant.MODIFIED_ADD,
                                ModelVariant.MODIFIED_SUBTRACT):
                    other = forecast(series, coeffs, tail,
                                     mode=mode, variant=variant)
                    assert auto_sse <= sse(series, other.predicted) + 1e-9

    def test_modified_wins_on_default_mono_peak_family(self):
        series = generate_mono_peak(MonoPeakSpec(seed=0))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        assert tail.tail_per >= 0.6
        auto = forecast(series, coeffs, tail, variant=ModelVariant.AUTO)
        classical = forecast(series, coeffs, tail,
                             variant=ModelVariant.CLASSICAL)
        assert auto.variant_used in (ModelVariant.MODIFIED_ADD, ModelVariant.MODIFIED_SUBTRACT)
        assert sse(series, auto.predicted) < sse(series, classical.predicted)

    @pytest.mark.parametrize("variant,horizon,curves", [
        (ModelVariant.AUTO, 0, 3),
        (ModelVariant.AUTO, 12, 3),                 # the winner is extended, not rerun
        (ModelVariant.MODIFIED_SUBTRACT, 0, 2),     # classical, then the requested variant
        (ModelVariant.MODIFIED_SUBTRACT, 12, 2),
    ])
    def test_candidates_are_the_curves_generated(self, monkeypatch, mono_peak_series,
                                                 variant, horizon, curves):
        calls = []
        monkeypatch.setattr(forecast_module, "_candidate",
                            lambda *args: calls.append(args) or _candidate(*args))
        coeffs = fit_quadratic(mono_peak_series)
        tail = profile(mono_peak_series)
        result = forecast(mono_peak_series, coeffs, tail,
                          variant=variant, horizon=horizon)
        assert len(calls) == curves
        expected = ((ModelVariant.CLASSICAL, ModelVariant.MODIFIED_ADD,
                     ModelVariant.MODIFIED_SUBTRACT) if variant is ModelVariant.AUTO
                    else (ModelVariant.CLASSICAL, variant))
        assert tuple(result.candidates) == expected
        n = len(mono_peak_series)
        for candidate in result.candidates.values():
            assert len(candidate.curve) == n
        winner = result.candidates[result.variant_used]
        assert winner.curve.tobytes() == result.predicted[:n].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(list(ModelVariant)),
    )
    def test_each_record_is_read_only_and_holds_its_curves_sse(self, spec, mode, clamp,
                                                               variant):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        try:
            result = forecast(series, coeffs, profile(series), mode=mode,
                              clamp_nonnegative=clamp, variant=variant)
        except DivergenceError:
            return
        for candidate in result.candidates.values():
            assert candidate.sse == sse(series, candidate.curve)
            assert not candidate.curve.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                candidate.sse = 0.0
        assert ModelVariant.CLASSICAL in result.candidates
        if variant is ModelVariant.AUTO:
            best = min(candidate.sse for candidate in result.candidates.values())
            assert result.candidates[result.variant_used].sse == best
        else:
            assert result.variant_used is variant
        with pytest.raises(TypeError):
            result.candidates[ModelVariant.AUTO] = result.candidates[result.variant_used]

    def test_overflowing_sse_is_a_divergence(self):
        # Every candidate is finite, but squaring its first ~1e200 residual overflows.
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=1e200, b=0.0, c=0.0, residual_sse=0.0, n_obs=4)
        with pytest.raises(DivergenceError, match="^prediction overflowed at period 1$") as info:
            forecast(series, coeffs, profile(series), mode="one_step")
        assert info.value.period == 1

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    def test_sse_overflowing_only_pairwise_names_the_last_period(self, mode):
        # The zero curve leaves the demands as residuals. Their squares' left-to-right sum
        # rounds each small square away and stays finite; the pairwise sum adds two of them
        # first, and that pair tips the total past float64.
        series = make([1.3407807929942596e154] + [8.651243356162858e145] * 7)
        coeffs = QuadraticCoefficients(a=0.0, b=0.0, c=0.0, residual_sse=0.0, n_obs=8)
        with pytest.raises(DivergenceError, match="^prediction overflowed at period 8$"):
            forecast(series, coeffs, profile(series), mode=mode)

    def test_tie_breaks_to_classical(self, noiseless_series, exact_coeffs):
        # tail_per = 0.5 zeroes r1, so the additive variant ties classical exactly
        series = make([1, 2, 10, 6, 6, 4, 4, 4, 4, 4])
        tail = profile(series)
        coeffs = fit_quadratic(series)
        result = forecast(series, coeffs, tail, variant=ModelVariant.AUTO)
        if result.candidates[result.variant_used].correction == 0.0:
            assert result.variant_used is not ModelVariant.MODIFIED_ADD


def outcome(generate, *args):
    """The curve's bytes, or the period and message of the DivergenceError it raised."""
    try:
        return generate(*args).tobytes()
    except DivergenceError as exc:
        return exc.period, str(exc)


def forecast_curve(series, coeffs, tail, variant, mode, horizon, clamp):
    return forecast(series, coeffs, tail, mode=mode, horizon=horizon, clamp_nonnegative=clamp,
                    variant=variant).predicted


def simulated(a, b, c, correction, clamp, running, periods):
    """simulate's values as bytes and final running total as hex, or the period it diverged at."""
    try:
        values, running = simulate(a, b, c, correction, clamp, running, periods)
    except DivergenceError as exc:
        return exc.period
    return np.array(values, dtype=float).tobytes(), running.hex()


# Finite moderate coefficients keep most runs alive; the extremes exercise the guard.
kernel_floats = st.one_of(st.floats(min_value=-10, max_value=10),
                          st.floats(allow_nan=True, allow_infinity=True))


class TestKernelMatchesPerStepReference:
    @settings(max_examples=80, deadline=None)
    # Simulated classical diverges at period 12; on their own, modified_add would at 10 and
    # modified_subtract at 9.
    @example(spec=MonoPeakSpec(n=12, peak_time=9, peak_height=1.0, decay_rate=2.0,
                               plateau_level=0.0, rise_shape=3.0, noise_amplitude=0.02, seed=0),
             mode="simulated", clamp=False, horizon=0)
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
        corrections = {ModelVariant.CLASSICAL: 0.0, ModelVariant.MODIFIED_ADD: tail.r1 * mean,
                       ModelVariant.MODIFIED_SUBTRACT: -(tail.r2 * mean)}
        # forecast generates classical over the observed range first, so its divergence there
        # is what every variant raises.
        classical = outcome(per_step_generate, series, coeffs, 0.0, mode, 0, clamp)
        for variant, correction in corrections.items():
            curve = outcome(forecast_curve, series, coeffs, tail, variant, mode, horizon, clamp)
            expected = outcome(per_step_generate, series, coeffs, correction, mode, horizon, clamp)
            assert curve == (classical if isinstance(classical, tuple) else expected)

    @settings(max_examples=80, deadline=None)
    @example(spec=MonoPeakSpec(n=12, peak_time=9, peak_height=1.0, decay_rate=2.0,
                               plateau_level=0.0, rise_shape=3.0, noise_amplitude=0.02, seed=0),
             mode="simulated", clamp=False, variant=ModelVariant.MODIFIED_ADD)
    @given(
        spec=mono_peak_specs(),
        mode=st.sampled_from(["one_step", "simulated"]),
        clamp=st.booleans(),
        variant=st.sampled_from(forecast_module._AUTO_CANDIDATES),
    )
    def test_each_record_holds_the_divergence_the_reference_raises(self, spec, mode, clamp,
                                                                   variant):
        series = generate_mono_peak(spec)
        try:
            coeffs = fit_quadratic(series)
        except SingularFitError:
            assume(False)
        correction = forecast_module._correction_for(variant, profile(series),
                                                     mean_demand(series))
        lagged = cumulative(series) if mode == "one_step" else None
        record = _candidate(series, coeffs, correction, clamp, lagged)
        expected = outcome(per_step_generate, series, coeffs, correction, mode, 0, clamp)
        if isinstance(expected, tuple):
            assert (record.divergence.period, str(record.divergence)) == expected
            assert record.curve is None and record.sse == math.inf
        else:
            assert record.divergence is None
            assert record.curve.tobytes() == expected

    # Under auto, modified_subtract is never generated.
    @pytest.mark.parametrize("variant", [ModelVariant.AUTO, ModelVariant.MODIFIED_ADD])
    def test_generation_stops_at_the_first_diverged_candidate(self, monkeypatch, variant):
        # Classical stays finite; modified_add alone diverges, at period 270.
        series = generate_mono_peak(MonoPeakSpec(n=360, peak_time=6, seed=0))
        calls = []
        monkeypatch.setattr(forecast_module, "_candidate",
                            lambda *args: calls.append(args) or _candidate(*args))
        with pytest.raises(DivergenceError, match="at period 270$") as info:
            forecast(series, fit_quadratic(series), profile(series), variant=variant)
        assert info.value.period == 270
        assert len(calls) == 2

    def test_a_raised_divergence_leaves_no_reference_cycle(self):
        # A cycle through the raising frame would keep its arrays alive until a GC pass.
        series = generate_mono_peak(MonoPeakSpec(n=360, peak_time=6, seed=0))
        coeffs, tail = fit_quadratic(series), profile(series)
        gc.collect()
        gc.disable()
        try:
            try:
                forecast(series, coeffs, tail)
            except DivergenceError:
                pass
            else:
                pytest.fail("forecast did not diverge")
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("horizon", [0, 40])
    @pytest.mark.parametrize("a,b,c,correction", [
        (10.0, 2.0, 0.5, 0.0),             # the running total overflows
        (1e308, 0.0, 0.0, 1e308),          # the first value overflows
        (-1e308, 0.0, 0.0, -1e308),        # overflows to -inf, which a clamp floors
        (5.0, 0.0, 1e306, 0.0),            # c*D*D overflows on the observed data
        (float("nan"), 0.0, 0.0, 0.0),     # NaN from the first period on
        (-0.0, -1.0, -1.0, 0.0),           # signed zeros
    ])
    def test_pathological_coefficients(self, monkeypatch, mode, clamp, horizon,
                                       a, b, c, correction):
        series = make([10, 80, 400, 2000])
        coeffs = QuadraticCoefficients(a=a, b=b, c=c, residual_sse=0.0, n_obs=4)
        # The correction goes in exactly as given, not as a ratio of the mean.
        monkeypatch.setattr(forecast_module, "_correction_for", lambda *_: correction)
        curve = outcome(forecast_curve, series, coeffs, profile(series),
                        ModelVariant.CLASSICAL, mode, horizon, clamp)
        assert curve == outcome(per_step_generate, series, coeffs, correction, mode,
                                horizon, clamp)

    @settings(max_examples=200, deadline=None)
    @given(a=kernel_floats, b=kernel_floats, c=kernel_floats, correction=kernel_floats,
           clamp=st.booleans(), n=st.integers(min_value=0, max_value=30),
           horizon=st.integers(min_value=0, max_value=30))
    def test_continuing_from_the_running_total_is_one_run(self, a, b, c, correction, clamp,
                                                         n, horizon):
        whole = simulated(a, b, c, correction, clamp, 0.0, range(1, n + horizon + 1))
        head = simulated(a, b, c, correction, clamp, 0.0, range(1, n + 1))
        if isinstance(head, int):
            assert whole == head
            return
        values, running = head
        tail = simulated(a, b, c, correction, clamp, float.fromhex(running),
                         range(n + 1, n + horizon + 1))
        if isinstance(tail, int):
            assert whole == tail
        else:
            assert whole == (values + tail[0], tail[1])

    @pytest.mark.parametrize("mode", ["one_step", "simulated"])
    @pytest.mark.parametrize("horizon", [0, 12])
    def test_auto_returns_the_winning_candidate_curve(self, mode, horizon):
        series = generate_mono_peak(MonoPeakSpec(seed=3))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        auto = forecast(series, coeffs, tail, mode=mode, horizon=horizon)
        direct = forecast(series, coeffs, tail,
                          mode=mode, horizon=horizon, variant=auto.variant_used)
        assert len(auto.predicted) == len(series) + horizon
        assert auto.predicted.tobytes() == direct.predicted.tobytes()
        assert not auto.predicted.flags.writeable
