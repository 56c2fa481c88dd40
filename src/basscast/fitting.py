"""Least-squares estimation of the discrete diffusion recursion d(t) = a + b*D + c*D**2.

The regression of period demand on lagged cumulative demand and its square is
solved on the centred-and-scaled design X = [1, z, z**2], z = (D - mean)/std,
rather than through the raw normal equations: on long series D**2 spans many
orders of magnitude, and a Gram matrix X'X squares the conditioning, losing
roughly half the available precision. Modified Gram-Schmidt factors X = QR
column by column, and R beta = Q'd is back-substituted in Python floats.
Coefficients are mapped back to the raw scale, so (a, b, c) always refer to
the unscaled recursion.

Every inner product and sum of squares is numpy's pairwise add reduction over
elementwise products (_inner). No BLAS or LAPACK routine runs, so the fit and
its SSE, and with them the payload bytes, are the same on every CPU and for
every BLAS kernel numpy may be linked against.

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

# The fit is declared singular when some column x_j of X keeps at most this share of its norm
# once the columns before it are projected out: r_jj <= _RANK_TOLERANCE * |x_j|, the sine of
# the angle between x_j and their span. That share is at least sigma_min/sigma_max of X, the
# ratio the same 1e-10 bounded while the fit used an SVD, so no design refused now was
# accepted then. Centring and scaling make the columns 1 and z orthogonal with equal norms,
# which bounds the ratio from below too: sigma_min/sigma_max >= share / (sqrt(3) * (2 + k)),
# k = mean(z**4) being the kurtosis of the lagged cumulative demand.
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


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product of two equal-length float64 arrays by numpy's pairwise add reduction.

    That is np.sum's reduction, without its wrapper's cost. Its summation order is fixed
    by numpy's own loop, whatever the CPU or BLAS kernel.
    """
    return float(np.add.reduce(x * y))


def _sse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Sum of squared residuals of two equal-length float64 arrays; inf, unwarned, past float64.

    Summed by _inner, not math.fsum: pairwise summation is within O(log n) rounding
    errors of the exact sum, its order is as fixed as fsum's result, and it costs a
    tenth of fsum at n=1500. Its overflow rule is every metric's: rmse and mae are
    inf where it is, and mape is None
    (tests/test_evaluation.py::TestSse::test_shared_input_and_overflow_rule). A
    forecast candidate whose SSE is inf has diverged (forecast._candidate).
    """
    with np.errstate(over="ignore"):
        resid = actual - predicted
        return _inner(resid, resid)


def _one_step(a: float, b: float, c: float, correction: float, D: np.ndarray) -> np.ndarray:
    """forecast.simulate's step over an array D, in its operation order; inf or nan unwarned.

    It gives the fit's residual and the in-sample one-step curves, so the
    unclamped one-step classical curve is the fit's residual array and its SSE
    is residual_sse bit for bit
    (tests/test_forecast.py::TestOneStepMode::test_classical_sse_is_the_fit_residual_sse).
    """
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

    # Modified Gram-Schmidt: each column loses its projections on the orthonormal
    # columns before it, one at a time; R[i][j] records them.
    R = [[0.0] * 3 for _ in range(3)]
    Q: list[np.ndarray] = []
    for j, x in enumerate((np.ones(n), z, z * z)):
        norm = math.sqrt(_inner(x, x))
        for i, q in enumerate(Q):
            R[i][j] = _inner(q, x)
            x = x - R[i][j] * q
        R[j][j] = math.sqrt(_inner(x, x))
        if not R[j][j] > _RANK_TOLERANCE * norm:
            # x_j is a combination w of the columns before it: X times (w, -1) is about zero.
            null = [*_back_substitute(R, [R[i][j] for i in range(j)]), -1.0]
            largest = max(map(abs, null))
            involved = tuple(
                name for name, v in zip(_DESIGN_COLUMNS, null) if abs(v) > 1e-3 * largest
            )
            raise SingularFitError(
                f"design matrix is rank deficient; collinear columns: {', '.join(involved)}",
                columns=involved,
            )
        Q.append(x / R[j][j])

    # Q'd is taken against d itself: Q is orthonormal to rounding for these three columns, so
    # projecting d out column by column, as X's columns were, measured no more accurate.
    # Mapping the scaled-basis solution back to raw coefficients:
    # d = a' + b'*(D-mu)/s + c'*((D-mu)/s)**2  expands to the raw quadratic.
    a_s, b_s, c_s = _back_substitute(R, [_inner(q, d) for q in Q])
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


def _back_substitute(R: list[list[float]], rhs: list[float]) -> list[float]:
    """The x solving R[:k][:k] x = rhs for upper-triangular R, k = len(rhs), in Python floats."""
    k = len(rhs)
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (rhs[i] - sum(R[i][m] * x[m] for m in range(i + 1, k))) / R[i][i]
    return x


def derive_bass_parameters(coeffs: QuadraticCoefficients) -> BassParameters:
    """Diffusion parameters (p, q, m) from the quadratic coefficients.

    Uses the standard mapping a = p*m, b = q - p, c = -q/m: m is the positive
    root of c*m**2 + b*m + a = 0, then q = -c*m and p = a/m. Raises
    NonDiffusionShapeError when c >= 0 or a <= 0 (the curve does not decay
    into a finite market) and NoRealMarketSizeError when the discriminant is
    negative or float64 cannot hold a positive m and finite p and q. These
    are diagnostics; fitting itself never depends on them.
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
    # Where b*b or 4ac overflows (c < 0 < a here), hypot reaches sqrt(b*b - 4ac) without them.
    root = (math.sqrt(disc) if disc < math.inf
            else math.hypot(b, 2.0 * math.sqrt(a) * math.sqrt(-c)))
    # The two forms of the positive root are equal; each adds terms of one sign, so
    # neither cancels to 0 when 4ac is small beside b*b.
    m = (-b - root) / (2.0 * c) if b >= 0.0 else 2.0 * a / (root - b)
    # A root past float64 makes m inf, or 0 through 2a / inf.
    if 0.0 < m < math.inf:
        params = BassParameters(p=a / m, q=-c * m, m=m)
        if math.isfinite(params.p) and math.isfinite(params.q):
            return params
    raise NoRealMarketSizeError(
        f"market size and parameters overflow float64: m={m} for (a={a}, b={b}, c={c})"
    )
