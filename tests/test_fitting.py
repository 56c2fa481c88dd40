import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import basscast
from basscast import (
    InsufficientDataError,
    NoRealMarketSizeError,
    NonDiffusionShapeError,
    QuadraticCoefficients,
    SingularFitError,
    TimeSeries,
    cumulative,
    derive_bass_parameters,
    fit_quadratic,
    generate_mono_peak,
    monthly_periods,
)
from basscast.errors import NumericError
from basscast.fitting import _one_step
from basscast.synthetic import SplitMix64
from conftest import generate_bass_series, mono_peak_specs
from oracles import normal_equations_fit, quadratic_sse, sse_fsum


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

    # 10**120 overflows the fitted intercept and SSE; 10**160 overflows D.std() itself,
    # which used to zero the scaled column and be misreported as collinear.
    @pytest.mark.parametrize("scale", [1e120, 1e160])
    def test_float64_overflow_is_singular(self, scale):
        with pytest.raises(SingularFitError, match="overflows float64") as err:
            fit_quadratic(make([(i + 1) * scale for i in range(30)]))
        assert err.value.columns == ()

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


def full_rank_series(spec):
    """The spec's series, assumed to have three distinct cumulative values, which [1, D, D**2]
    needs for full rank; n=5 with a spike then zeros has two and is rightly singular."""
    series = generate_mono_peak(spec)
    assume(len(set(cumulative(series).tolist())) >= 3)
    return series


class TestAgainstExactArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(spec=mono_peak_specs())
    def test_fit_matches_the_exact_normal_equations(self, spec):
        # Each coefficient's error is weighted by the largest size its term reaches, |D|**k,
        # and compared with the fitted curve's: a coefficient near zero has no meaningful
        # relative error of its own. The worst seen, over thousands of specs, was 1e-13.
        series = full_rank_series(spec)
        fit = fit_quadratic(series)
        exact = normal_equations_fit(series.demands)[:3]
        top = float(np.abs(cumulative(series)).max())
        weights = (1.0, top, top * top)
        got = (fit.a, fit.b, fit.c)
        error = sum(w * abs(g - e) for w, g, e in zip(weights, got, exact))
        assert error <= 1e-12 * sum(w * abs(want) for w, want in zip(weights, exact))

    @settings(max_examples=100, deadline=None)
    @given(spec=mono_peak_specs())
    def test_sse_is_within_the_summation_bound_of_fsum(self, spec):
        # Pairwise summation of n nonnegative terms is within (n - 1) rounding errors of their
        # exact sum; the oracle's squares by ** and its final rounding add at most 3 more.
        series = full_rank_series(spec)
        fit = fit_quadratic(series)
        predicted = _one_step(fit.a, fit.b, fit.c, 0.0, cumulative(series))
        exact = sse_fsum(series.demands, predicted)
        assert abs(fit.residual_sse - exact) <= (len(series) + 2) * 2.0**-53 * exact


# Attributes that reach BLAS or LAPACK: np.dot and ndarray.dot, np.linalg and the rest.
BLAS_ATTRIBUTES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg",
                   "polyfit", "cov", "corrcoef"}


def blas_uses(source):
    """'line: form' of each '@', BLAS-reaching attribute or numpy.linalg import in source."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
            uses.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            uses += [(node.lineno, f"import {name}") for name in names
                     if name.startswith("numpy.") and BLAS_ATTRIBUTES & set(name.split("."))]
    return [f"{line}: {form}" for line, form in sorted(uses)]


class TestNoBlasOrLapack:
    # The fit and every SSE stay off BLAS and LAPACK: the kernel OpenBLAS runs depends on the
    # CPU, and with it the payload bytes, and LAPACK's first call faults ~1.1 MiB of library
    # pages into the process.
    def test_no_source_file_reaches_blas(self):
        sources = sorted(Path(basscast.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        assert [f"{path.name}:{use}" for path in sources
                for use in blas_uses(path.read_text(encoding="utf-8"))] == []

    def test_the_scan_sees_each_form(self):
        source = ("import numpy.linalg\nfrom numpy import dot\nx @ y\nx @= y\n"
                  "np.linalg.svd(x)\nx.dot(y)\nnp.einsum('i,i', x, y)\nnp.add.reduce(x * y)\n")
        assert blas_uses(source) == ["1: import numpy.linalg", "2: import numpy.dot", "3: @",
                                     "4: @", "5: .linalg", "6: .dot", "7: .einsum"]


# Finite values of either sign, log-uniform over 1e-300 to 1e300, and zero.
_SPREAD = st.just(0.0) | st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299),
)


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

    # Each sign of b takes its own form of the root; both solve c*m**2 + b*m + a = 0.
    @pytest.mark.parametrize("b", [-0.5, 0.5])
    def test_root_solves_the_quadratic_for_either_sign_of_b(self, b):
        a, c = 10.0, -0.001
        m = derive_bass_parameters(
            QuadraticCoefficients(a=a, b=b, c=c, residual_sse=0.0, n_obs=0)).m
        assert m > 0.0
        assert c * m * m + b * m + a == pytest.approx(0.0, abs=1e-9 * a)

    def test_root_of_a_small_4ac_under_negative_b_does_not_cancel(self):
        params = derive_bass_parameters(
            QuadraticCoefficients(a=0.5, b=-0.5000000000000001, c=-1.4e-159,
                                  residual_sse=0.0, n_obs=0))
        assert params.m == pytest.approx(1.0, rel=1e-12)
        assert params.p == pytest.approx(0.5, rel=1e-12)

    def test_overflowing_discriminant_still_gives_the_root(self):
        # b*b overflows, but m = 1e200, p = 1e-200 and q = 1e200 are representable.
        params = derive_bass_parameters(
            QuadraticCoefficients(a=1.0, b=1e200, c=-1.0, residual_sse=0.0, n_obs=0))
        assert (params.p, params.q, params.m) == (1e-200, 1e200, 1e200)

    def test_market_size_past_float64_rejected(self):
        # b*b overflows, and the root m, about b / -c = 1e600, does too.
        with pytest.raises(NoRealMarketSizeError, match="overflow float64"):
            derive_bass_parameters(
                QuadraticCoefficients(a=1.0, b=1e300, c=-1e-300, residual_sse=0.0, n_obs=0))

    # The fits of two CSVs: b < 0 with 4ac far below b*b, and b*b past float64.
    @example(0.5, -0.5000000000000001, -1.4e-159)
    @example(2.438866054934369e+142, 1.999999001982389e+159, -1.999999001782389e+159)
    @given(_SPREAD, _SPREAD, _SPREAD)
    def test_finite_parameters_or_numeric_error(self, a, b, c):
        try:
            params = derive_bass_parameters(
                QuadraticCoefficients(a=a, b=b, c=c, residual_sse=0.0, n_obs=0))
        except NumericError:
            return
        assert math.isfinite(params.p) and math.isfinite(params.q)
        assert 0.0 < params.m < math.inf
