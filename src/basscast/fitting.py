"""Least-squares estimation of the discrete diffusion recursion d(t) = a + b*D + c*D**2.

The regression of period demand on lagged cumulative demand and its square is
solved through an SVD of the centred-and-scaled design matrix rather than the
raw normal equations: on long series D**2 spans many orders of magnitude and
the normal equations lose roughly half the available precision. Coefficients
are mapped back to the raw scale, so (a, b, c) always refer to the unscaled
recursion.

Every SSE basscast reports (residual_sse, each forecast candidate's, evaluation.sse) is _sse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    NonDiffusionShapeError,
    NoRealMarketSizeError,
    SingularFitError,
)
from .series import TimeSeries, cumulative

# Columns of the design matrix, in order.
_DESIGN_COLUMNS = ("intercept", "cumulative", "cumulative_squared")

# Smallest-to-largest singular value ratio below which the fit is declared singular.
_RANK_TOLERANCE = 1e-10

MIN_OBSERVATIONS = 4


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Fitted (a, b, c) of the demand recursion plus fit diagnostics."""

    a: float
    b: float
    c: float
    residual_sse: float
    n_obs: int


@dataclass(frozen=True)
class BassParameters:
    """Classical diffusion parameters derived from the quadratic coefficients.

    p: propensity to adopt independently of prior adopters.
    q: propensity to adopt driven by the installed base.
    m: market potential, in units of cumulative demand.
    """

    p: float
    q: float
    m: float


def _sse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Sum of squared residuals of two equal-length float64 arrays; inf, unwarned, past float64."""
    with np.errstate(over="ignore"):
        resid = actual - predicted
        return float(resid @ resid)


def _one_step(a: float, b: float, c: float, correction: float, D: np.ndarray) -> np.ndarray:
    """forecast.simulate's step over an array D, in its operation order; inf or nan unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a + b * D + c * D * D + correction


def fit_quadratic(series: TimeSeries) -> QuadraticCoefficients:
    """Ordinary least-squares fit of demand on lagged cumulative demand and its square.

    Returns the (a, b, c) minimising sum_t (d_t - a - b*D(t-1) - c*D(t-1)**2)**2
    together with that minimum as residual_sse.

    Raises InsufficientDataError for fewer than four observations and
    SingularFitError when the design matrix is rank deficient (for example a
    series whose cumulative values are all equal), naming the collinear columns,
    or when demands so large that float64 overflows leave no finite fit.
    """
    n = len(series)
    if n < MIN_OBSERVATIONS:
        raise InsufficientDataError(
            f"quadratic fit needs at least {MIN_OBSERVATIONS} observations, got {n}"
        )
    d = series.demands
    D = cumulative(series)

    # Centre and scale the cumulative column before solving; D**2 on long
    # series would otherwise dominate the conditioning.
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported just below
        mu = float(D.mean())
        s = float(D.std())
    if not (math.isfinite(mu) and math.isfinite(s)):
        raise SingularFitError(
            f"cumulative demand overflows float64 (mean {mu}, std {s}); rescale the demands"
        )
    if s == 0.0:
        s = 1.0
    z = (D - mu) / s
    X = np.column_stack([np.ones(n), z, z * z])

    U, sing, Vt = np.linalg.svd(X, full_matrices=False)
    if sing[-1] < _RANK_TOLERANCE * sing[0]:
        null = Vt[-1]
        involved = tuple(
            name for name, v in zip(_DESIGN_COLUMNS, null) if abs(v) > 1e-3 * abs(null).max()
        )
        raise SingularFitError(
            f"design matrix is rank deficient; collinear columns: {', '.join(involved)}",
            columns=involved,
        )
    beta = Vt.T @ ((U.T @ d) / sing)

    # Map the scaled-basis solution back to raw coefficients:
    # d = a' + b'*(D-mu)/s + c'*((D-mu)/s)**2  expands to the raw quadratic.
    a_s, b_s, c_s = (float(v) for v in beta)
    c = c_s / (s * s)
    b = b_s / s - 2.0 * c_s * mu / (s * s)
    a = a_s - b_s * mu / s + c_s * mu * mu / (s * s)

    residual_sse = _sse(d, _one_step(a, b, c, 0.0, D))
    if not all(map(math.isfinite, (a, b, c, residual_sse))):
        raise SingularFitError(
            f"fit overflows float64 (a={a}, b={b}, c={c}, residual_sse={residual_sse}); "
            "rescale the demands"
        )
    return QuadraticCoefficients(a=a, b=b, c=c, residual_sse=residual_sse, n_obs=n)


def derive_bass_parameters(coeffs: QuadraticCoefficients) -> BassParameters:
    """Diffusion parameters (p, q, m) from the quadratic coefficients.

    Uses the standard mapping a = p*m, b = q - p, c = -q/m: m is the positive
    root of c*m**2 + b*m + a = 0, then q = -c*m and p = a/m. Raises
    NonDiffusionShapeError when c >= 0 or a <= 0 (the curve does not decay
    into a finite market) and NoRealMarketSizeError when the discriminant is
    negative. These are diagnostics; fitting itself never depends on them.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if c >= 0.0:
        raise NonDiffusionShapeError(
            f"quadratic coefficient must be negative for a diffusion curve, got c={c}"
        )
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoRealMarketSizeError(
            f"no real market size: discriminant {disc} < 0 for (a={a}, b={b}, c={c})"
        )
    if a <= 0.0:
        raise NonDiffusionShapeError(
            f"intercept must be positive for a diffusion curve, got a={a}"
        )
    m = (-b - math.sqrt(disc)) / (2.0 * c)
    return BassParameters(p=a / m, q=-c * m, m=m)
