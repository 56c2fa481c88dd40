"""SSE-based comparison of the classical and mean-corrected forecast variants.

The four metrics take two one-dimensional sequences of one length, or a
TimeSeries and a sequence. Empty input raises EmptyInputError and unequal
lengths raise ShapeError. An argument that is not one-dimensional, or that
holds a NaN or infinity, raises ValidationError naming it (and the index),
because no metric of it could be written to report.json. A residual past
float64 makes sse, rmse and mae inf and mape None, with no numpy warning
(tests/test_evaluation.py::TestSse).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, ShapeError, UndefinedBaselineError, ValidationError
from .fitting import QuadraticCoefficients, _sse
from .forecast import ForecastResult, ModelVariant, forecast
from .series import TimeSeries
from .tail import TailProfile


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """One input's comparison in one mode, with the series, fit, tail profile and forecast it read.

    sse_classical, sse_modified, variant_used, classical_predicted and
    modified_predicted (the two compared curves over the observed range) are
    reads of ``result``. rmse/mae/mape describe the selected variant's
    predictions; mape skips zero-demand periods (mape_skipped counts them)
    and is None when every period is zero or the percentage overflows
    float64. Two reports are equal when their to_dict() payloads are.
    """

    series: TimeSeries = field(repr=False)
    coefficients: QuadraticCoefficients
    tail_profile: TailProfile
    result: ForecastResult = field(repr=False)
    mode: str
    improvement_percent: float
    rmse: float
    mae: float
    mape: float | None
    mape_skipped: int

    variant_used = property(lambda self: self.result.variant_used)
    sse_classical = property(lambda self: self.result.candidates[ModelVariant.CLASSICAL].sse)
    sse_modified = property(lambda self: self.result.candidates[self.variant_used].sse)
    classical_predicted = property(
        lambda self: self.result.candidates[ModelVariant.CLASSICAL].curve)
    modified_predicted = property(lambda self: self.result.predicted)

    def to_dict(self) -> dict:
        return {"sse_classical": self.sse_classical, "sse_modified": self.sse_modified,
                "variant_used": self.variant_used.value,
                "improvement_percent": self.improvement_percent, "mode": self.mode,
                "tail_profile": asdict(self.tail_profile), "rmse": self.rmse, "mae": self.mae,
                "mape": self.mape, "mape_skipped": self.mape_skipped}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EvaluationReport) and self.to_dict() == other.to_dict()


def _aligned(
    actual: TimeSeries | Sequence[float], predicted: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Both value arrays, a series read as its demands.

    Raises ShapeError, EmptyInputError, or ValidationError naming the argument
    that is not one-dimensional or holds a NaN or infinity, which no metric
    can report.
    """
    a, p = (x.demands if isinstance(x, TimeSeries) else np.asarray(x, dtype=np.float64)
            for x in (actual, predicted))
    for name, values in (("actual", a), ("predicted", p)):
        if values.ndim != 1:
            raise ValidationError(f"{name} must be one-dimensional, got shape {values.shape}")
    if a.shape != p.shape:
        raise ShapeError(f"actual has length {a.size}, predicted has length {p.size}")
    if not a.size:
        raise EmptyInputError("metrics need at least one observation")
    for name, values in (("actual", a), ("predicted", p)):
        i = int(np.isfinite(values).argmin())  # the first non-finite value, if there is one
        if not math.isfinite(values[i]):
            raise ValidationError(f"{name} value at index {i} is not finite: {values[i]}")
    return a, p


def sse(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    """Sum of squared errors between two equal-length sequences."""
    return _sse(*_aligned(actual, predicted))


def improvement_percent(sse_classical: float, sse_modified: float) -> float:
    """Relative SSE reduction of the modified model, in percent of the classical SSE.

    Two zero SSEs give 0.0. Otherwise the baseline must be positive and
    finite, the modified SSE, a sum of squares, non-negative and finite, and
    the percentage within float64. An SSE that overflowed float64 is inf;
    inf - inf or x / inf gives NaN and x - inf gives -inf, and a tiny
    baseline under a large modified SSE overflows the quotient to -inf, none
    of which report.json can hold.
    """
    if sse_classical == 0.0 == sse_modified:
        return 0.0
    if not 0.0 < sse_classical < math.inf:
        raise UndefinedBaselineError(
            f"improvement is undefined for baseline SSE {sse_classical}"
        )
    if not 0.0 <= sse_modified < math.inf:
        raise UndefinedBaselineError(
            f"improvement is undefined for modified SSE {sse_modified}"
        )
    percent = (sse_classical - sse_modified) / sse_classical * 100.0
    if not math.isfinite(percent):
        raise UndefinedBaselineError(
            f"improvement overflows float64 for baseline SSE {sse_classical} "
            f"and modified SSE {sse_modified}"
        )
    return percent


def rmse(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    return math.sqrt(sse(actual, predicted) / len(actual))


def mae(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    a, p = _aligned(actual, predicted)
    with np.errstate(over="ignore"):
        return float(np.abs(a - p).mean())


def mape(
    actual: TimeSeries | Sequence[float], predicted: Sequence[float]
) -> tuple[float | None, int]:
    """Mean absolute percentage error, skipping zero-demand periods.

    Returns (value, skipped) where skipped counts the zero periods; the value
    is None when no non-zero period exists, or when the percentage overflows
    float64 (a subnormal demand such as 5e-324 can do that).
    """
    a, p = _aligned(actual, predicted)
    mask = a != 0.0
    skipped = int(a.size - mask.sum())
    if not mask.any():
        return None, skipped
    with np.errstate(over="ignore"):
        value = float((np.abs(a[mask] - p[mask]) / np.abs(a[mask])).mean() * 100.0)
    return (value if math.isfinite(value) else None), skipped


def compare_models(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    tail: TailProfile,
    *,
    mode: str = "simulated",
    variant: ModelVariant = ModelVariant.AUTO,
    clamp_nonnegative: bool = False,
) -> EvaluationReport:
    """Compare the classical curve with the (auto- or explicitly) chosen one, from one forecast.

    Comparison covers the observed range only. The baseline is the classical
    record every forecast holds. With the default auto variant classical is
    also a choice, so the improvement can never be negative; forcing a
    specific modified variant can make it negative when the correction hurts.
    The improvement and its UndefinedBaselineError are improvement_percent's.
    It makes one forecast call for every variant
    (tests/test_cli.py::TestOneCandidateSet::test_one_forecast_call_per_comparison).
    """
    result = forecast(series, coeffs, tail, mode=mode, variant=variant,
                      clamp_nonnegative=clamp_nonnegative)
    # forecast's candidate records already hold each curve's SSE.
    chosen = result.candidates[result.variant_used]
    mape_value, mape_skipped = mape(series, result.predicted)
    return EvaluationReport(
        series, coeffs, tail, result, mode,
        improvement_percent=improvement_percent(result.candidates[ModelVariant.CLASSICAL].sse,
                                                chosen.sse),
        rmse=math.sqrt(chosen.sse / len(series)),
        mae=mae(series, result.predicted),
        mape=mape_value,
        mape_skipped=mape_skipped,
    )
