import numpy as np
import pytest

from basscast import (
    InsufficientDataError,
    NoRealMarketSizeError,
    NonDiffusionShapeError,
    QuadraticCoefficients,
    SingularFitError,
    SplitMix64,
    TimeSeries,
    cumulative,
    derive_bass_parameters,
    fit_quadratic,
    generate_bass_series,
    monthly_periods,
)
from oracles import normal_equations_fit, quadratic_sse


def make(demands):
    return TimeSeries(monthly_periods(len(demands)), demands)


def random_diffusion_series(rng, n=50, noise=0.1):
    """A noisy diffusion-shaped series with well-determined coefficients."""
    a = 5.0 + 45.0 * rng.next_float()
    q = 0.2 + 0.4 * rng.next_float()
    m = 300.0 + 3000.0 * rng.next_float()
    coeffs = QuadraticCoefficients(a=a, b=q - a / m, c=-q / m, residual_sse=0.0, n_obs=0)
    base = generate_bass_series(coeffs, n)
    mean = float(np.mean(base.demands))
    noisy = [v + (rng.next_float() - 0.5) * noise * mean for v in base.demands]
    return make(noisy)


class TestFitQuadratic:
    def test_recovers_noiseless_recursion(self, noiseless_series, exact_coeffs):
        # 20-point version of the fixture per the tightest stated tolerance
        short = make(noiseless_series.demands[:20])
        fit = fit_quadratic(short)
        assert fit.a == pytest.approx(exact_coeffs.a, rel=1e-6)
        assert fit.b == pytest.approx(exact_coeffs.b, rel=1e-6)
        assert fit.c == pytest.approx(exact_coeffs.c, rel=1e-6)
        assert fit.residual_sse < 1e-12
        assert fit.n_obs == 20

    def test_constant_series_is_full_rank_and_exact(self):
        # cumulative column [0,5,10,15,20] keeps the design full rank
        fit = fit_quadratic(make([5, 5, 5, 5, 5]))
        oracle = normal_equations_fit([5.0] * 5)
        assert fit.a == pytest.approx(oracle[0], abs=1e-9)
        assert fit.b == pytest.approx(oracle[1], abs=1e-12)
        assert fit.c == pytest.approx(oracle[2], abs=1e-14)
        assert fit.residual_sse == pytest.approx(0.0, abs=1e-18)

    def test_matches_exact_normal_equations_on_random_series(self):
        rng = SplitMix64(1234)
        for _ in range(25):
            series = random_diffusion_series(rng)
            fit = fit_quadratic(series)
            a, b, c, sse = normal_equations_fit(series.demands)
            assert fit.a == pytest.approx(a, rel=1e-8)
            assert fit.b == pytest.approx(b, rel=1e-8)
            assert fit.c == pytest.approx(c, rel=1e-8)
            assert fit.residual_sse == pytest.approx(sse, rel=1e-6, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_quadratic(make([1, 2, 3]))

    def test_all_zero_demands_is_singular(self):
        with pytest.raises(SingularFitError) as err:
            fit_quadratic(make([0, 0, 0, 0, 0]))
        assert "cumulative" in str(err.value)

    def test_residuals_orthogonal_to_design(self):
        rng = SplitMix64(777)
        series = random_diffusion_series(rng)
        fit = fit_quadratic(series)
        D = cumulative(series)
        resid = series.demands - (fit.a + fit.b * D + fit.c * D * D)
        rnorm = float(np.linalg.norm(resid))
        for col in (np.ones(len(series)), D, D * D):
            bound = 1e-6 * float(np.linalg.norm(col)) * max(rnorm, 1e-30)
            assert abs(float(col @ resid)) <= bound

    def test_no_hand_picked_coefficients_beat_the_minimum(self):
        rng = SplitMix64(31337)
        series = random_diffusion_series(rng)
        fit = fit_quadratic(series)
        exact_min = quadratic_sse(series.demands, fit.a, fit.b, fit.c)
        for _ in range(100):
            a = fit.a * (1.0 + (rng.next_float() - 0.5) * 0.2)
            b = fit.b * (1.0 + (rng.next_float() - 0.5) * 0.2)
            c = fit.c * (1.0 + (rng.next_float() - 0.5) * 0.2)
            hand_picked = quadratic_sse(series.demands, a, b, c)
            assert hand_picked >= exact_min
            assert fit.residual_sse <= hand_picked

    def test_labels_never_enter_the_math(self, noiseless_series):
        relabeled = TimeSeries(
            [f"x{i:04d}" for i in range(len(noiseless_series))],
            noiseless_series.demands,
        )
        fit1 = fit_quadratic(noiseless_series)
        fit2 = fit_quadratic(relabeled)
        assert (fit1.a, fit1.b, fit1.c) == (fit2.a, fit2.b, fit2.c)


class TestDeriveBassParameters:
    def test_worked_root(self):
        params = derive_bass_parameters(
            QuadraticCoefficients(a=10.0, b=0.5, c=-0.001, residual_sse=0.0, n_obs=20)
        )
        # quadratic-formula evaluation: m = (-0.5 - sqrt(0.25 + 0.04)) / -0.002
        expected_m = (-0.5 - (0.25 + 0.04) ** 0.5) / (-0.002)
        assert params.m == pytest.approx(expected_m, rel=1e-12)
        assert params.m == pytest.approx(519.2582403567252, rel=1e-9)
        assert params.q == pytest.approx(0.5192582403567253, rel=1e-9)
        assert params.p == pytest.approx(0.0192582403567253, rel=1e-9)

    def test_round_trip_from_known_parameters(self):
        p, q, m = 0.03, 0.38, 1000.0
        coeffs = QuadraticCoefficients(
            a=p * m, b=q - p, c=-q / m, residual_sse=0.0, n_obs=0
        )
        params = derive_bass_parameters(coeffs)
        assert params.p == pytest.approx(p, rel=1e-9)
        assert params.q == pytest.approx(q, rel=1e-9)
        assert params.m == pytest.approx(m, rel=1e-9)

    def test_round_trip_reconstruction_identity(self):
        rng = SplitMix64(99)
        for _ in range(50):
            p = 0.005 + 0.05 * rng.next_float()
            q = 0.1 + 0.5 * rng.next_float()
            m = 100.0 + 5000.0 * rng.next_float()
            coeffs = QuadraticCoefficients(
                a=p * m, b=q - p, c=-q / m, residual_sse=0.0, n_obs=0
            )
            params = derive_bass_parameters(coeffs)
            assert params.m == pytest.approx(m, rel=1e-9)
            assert coeffs.a == pytest.approx(params.p * params.m, rel=1e-9)
            assert coeffs.b == pytest.approx(params.q - params.p, rel=1e-9)
            assert coeffs.c == pytest.approx(-params.q / params.m, rel=1e-9)

    def test_positive_curvature_rejected(self):
        with pytest.raises(NonDiffusionShapeError):
            derive_bass_parameters(
                QuadraticCoefficients(a=10.0, b=0.5, c=0.001, residual_sse=0.0, n_obs=0)
            )

    def test_negative_discriminant_rejected(self):
        # a < 0 makes the discriminant negative while c < 0 passes the first gate
        with pytest.raises(NoRealMarketSizeError):
            derive_bass_parameters(
                QuadraticCoefficients(a=-10.0, b=0.1, c=-0.001, residual_sse=0.0, n_obs=0)
            )

    def test_nonpositive_intercept_rejected(self):
        with pytest.raises(NonDiffusionShapeError):
            derive_bass_parameters(
                QuadraticCoefficients(a=-10.0, b=0.5, c=-0.001, residual_sse=0.0, n_obs=0)
            )
