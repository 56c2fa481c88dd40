import math

import numpy as np
import pytest

from basscast import (
    DivergenceError,
    MonoPeakSpec,
    ParameterError,
    QuadraticCoefficients,
    SplitMix64,
    detect_tail_start,
    fit_quadratic,
    generate_bass_series,
    generate_mono_peak,
    mono_peak_value,
    monthly_periods,
    parse_generic_csv,
    to_generic_csv,
)


class TestSplitMix64:
    def test_reference_vector_seed_1234567(self):
        # published outputs of the reference splitmix64 implementation
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(4)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
        ]

    def test_reference_vector_seed_0(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(42)
        values = [rng.next_float() for _ in range(10_000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_uniform_bounds(self):
        rng = SplitMix64(7)
        assert all(-3.0 <= rng.uniform(-3.0, 5.0) <= 5.0 for _ in range(1000))


class TestMonthlyPeriods:
    def test_year_rollover(self):
        assert monthly_periods(3, "2004-11") == ("2004-11", "2004-12", "2005-01")

    def test_lexicographically_ascending(self):
        labels = monthly_periods(250, "2004-01")
        assert list(labels) == sorted(labels)


class TestGenerateBassSeries:
    def test_hand_recursion_trace(self, exact_coeffs):
        series = generate_bass_series(exact_coeffs, 3)
        # d1 = 10; d2 = 10 + 0.5*10 - 0.001*100; d3 follows from D2 = 24.9
        d2 = 10 + 0.5 * 10 - 0.001 * 10**2
        d3 = 10 + 0.5 * 24.9 - 0.001 * 24.9**2
        assert series.demands == pytest.approx([10.0, 14.9, 21.82999], abs=1e-9)
        assert series.demands[1] == d2
        assert series.demands[2] == d3

    def test_constant_model(self):
        coeffs = QuadraticCoefficients(a=5.0, b=0.0, c=0.0, residual_sse=0.0, n_obs=0)
        assert np.array_equal(generate_bass_series(coeffs, 4).demands, [5.0] * 4)

    def test_refit_round_trip(self, exact_coeffs):
        series = generate_bass_series(exact_coeffs, 30)
        fit = fit_quadratic(series)
        assert fit.a == pytest.approx(exact_coeffs.a, rel=1e-6)
        assert fit.b == pytest.approx(exact_coeffs.b, rel=1e-6)
        assert fit.c == pytest.approx(exact_coeffs.c, rel=1e-6)

    def test_divergence_guard(self):
        coeffs = QuadraticCoefficients(a=10.0, b=2.0, c=0.5, residual_sse=0.0, n_obs=0)
        with pytest.raises(DivergenceError) as err:
            generate_bass_series(coeffs, 100)
        assert err.value.period is not None

    def test_negative_zero_demand_kept(self):
        # d = -0.0 + (-1)*0.0 + (-1)*0.0*0.0 is -0.0 at every step of this recursion
        coeffs = QuadraticCoefficients(a=-0.0, b=-1.0, c=-1.0, residual_sse=0.0, n_obs=0)
        demands = generate_bass_series(coeffs, 3).demands
        assert np.array_equal(demands, [0.0] * 3) and np.signbit(demands).all()

    def test_length_validated(self, exact_coeffs):
        with pytest.raises(ParameterError):
            generate_bass_series(exact_coeffs, 0)

    def test_deterministic(self, exact_coeffs):
        a = generate_bass_series(exact_coeffs, 25)
        b = generate_bass_series(exact_coeffs, 25)
        assert a == b

    def test_simulated_forecast_is_exact_inverse(self, exact_coeffs):
        # the generator and the simulated-mode forecaster share the recursion,
        # so reproduction is bit-for-bit, not merely close
        from basscast import ForecastConfig, ModelVariant, forecast, profile

        series = generate_bass_series(exact_coeffs, 40)
        result = forecast(
            series, exact_coeffs, profile(series),
            ForecastConfig(variant=ModelVariant.CLASSICAL),
        )
        assert np.array_equal(result.predicted, series.demands)


class TestMonoPeakSpec:
    def test_default_noise_is_two_percent_of_peak(self):
        assert MonoPeakSpec().noise_amplitude == pytest.approx(2.0)
        assert MonoPeakSpec(peak_height=50.0).noise_amplitude == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(peak_time=0),
            dict(peak_time=180),
            dict(decay_rate=0.0),
            dict(plateau_level=-1.0),
            dict(plateau_level=100.0),
            dict(rise_shape=0.0),
            dict(noise_amplitude=-0.5),
            dict(peak_height=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            MonoPeakSpec(**kwargs)


class TestGenerateMonoPeak:
    def test_peak_value_exact_without_noise(self):
        spec = MonoPeakSpec(noise_amplitude=0.0, seed=3)
        series = generate_mono_peak(spec)
        assert series.demands[spec.peak_time] == spec.peak_height
        assert int(series.demands.argmax()) == spec.peak_time

    def test_noiseless_tail_matches_analytic_crossing(self):
        spec = MonoPeakSpec(noise_amplitude=0.0)
        series = generate_mono_peak(spec)
        # closed-form crossing of plateau + (peak-plateau)*exp(-decay*dt) = peak/2
        ratio = (0.5 * spec.peak_height - spec.plateau_level) / (
            spec.peak_height - spec.plateau_level
        )
        analytic = spec.peak_time + math.ceil(-math.log(ratio) / spec.decay_rate)
        assert abs(detect_tail_start(series) - analytic) <= 1

    def test_noiseless_tail_approaches_plateau(self):
        spec = MonoPeakSpec(noise_amplitude=0.0, decay_rate=1.5)
        series = generate_mono_peak(spec)
        assert series.demands[-1] == pytest.approx(spec.plateau_level, rel=1e-6)

    def test_same_seed_identical(self):
        assert generate_mono_peak(MonoPeakSpec(seed=5)) == generate_mono_peak(
            MonoPeakSpec(seed=5)
        )

    def test_different_seeds_differ(self):
        a = generate_mono_peak(MonoPeakSpec(seed=1))
        b = generate_mono_peak(MonoPeakSpec(seed=2))
        assert not np.array_equal(a.demands, b.demands)

    def test_non_negative_everywhere(self):
        for seed in range(10):
            spec = MonoPeakSpec(noise_amplitude=10.0, plateau_level=1.0, seed=seed)
            assert generate_mono_peak(spec).demands.min() >= 0.0

    def test_noise_is_bounded(self):
        spec = MonoPeakSpec(seed=11)
        series = generate_mono_peak(spec)
        base = np.array([mono_peak_value(spec, t) for t in range(spec.n)])
        clipped = np.maximum(base - spec.noise_amplitude, 0.0)
        assert np.all(series.demands >= clipped - 1e-12)
        assert np.all(series.demands <= base + spec.noise_amplitude + 1e-12)

    def test_round_trips_through_generic_csv(self):
        series = generate_mono_peak(MonoPeakSpec(seed=4))
        parsed = parse_generic_csv(to_generic_csv(series))
        assert parsed.periods == series.periods
        assert np.array_equal(parsed.demands, series.demands)
