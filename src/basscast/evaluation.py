"""SSE-based comparison of the classical and mean-corrected forecast variants.

The four metrics take two equal-length, non-empty sequences of finite values;
a NaN or infinity in either raises ValidationError naming that argument. A
residual past float64 makes sse, rmse and mae inf and mape None, with no numpy
warning.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, ShapeError, UndefinedBaselineError, ValidationError
from .fitting import QuadraticCoefficients, _sse
from .forecast import ModelVariant, forecast
from .series import TimeSeries
from .tail import TailProfile


@dataclass(frozen=True)
class EvaluationReport:
    """Per-variant SSE, the selected variant, and the improvement over classical.

    rmse/mae/mape describe the selected variant's predictions; mape skips
    zero-demand periods (mape_skipped counts them) and is None when every
    period is zero or the percentage overflows float64. classical_predicted
    and modified_predicted are the two compared curves over the observed
    range; to_dict() leaves them out.
    """

    sse_classical: float
    sse_modified: float
    variant_used: ModelVariant
    improvement_percent: float
    mode: str
    tail_profile: TailProfile
    rmse: float
    mae: float
    mape: float | None
    mape_skipped: int
    classical_predicted: np.ndarray = field(repr=False, compare=False)
    modified_predicted: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        # The curves are the fields that take no part in comparison.
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        payload["variant_used"] = self.variant_used.value
        payload["tail_profile"] = asdict(self.tail_profile)
        return payload


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
    """
    result = forecast(series, coeffs, tail, mode=mode, variant=variant,
                      clamp_nonnegative=clamp_nonnegative)
    # forecast's candidate records already hold each curve's SSE.
    baseline = result.candidates[ModelVariant.CLASSICAL]
    sse_classical, sse_modified = baseline.sse, result.candidates[result.variant_used].sse
    mape_value, mape_skipped = mape(series, result.predicted)
    return EvaluationReport(
        sse_classical=sse_classical,
        sse_modified=sse_modified,
        variant_used=result.variant_used,
        improvement_percent=improvement_percent(sse_classical, sse_modified),
        mode=mode,
        tail_profile=tail,
        rmse=math.sqrt(sse_modified / len(series)),
        mae=mae(series, result.predicted),
        mape=mape_value,
        mape_skipped=mape_skipped,
        classical_predicted=baseline.curve,
        modified_predicted=result.predicted,
    )
