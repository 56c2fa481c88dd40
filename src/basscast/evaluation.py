"""SSE-based comparison of the classical and mean-corrected forecast variants."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .errors import ShapeError, UndefinedBaselineError
from .fitting import QuadraticCoefficients
from .forecast import ForecastConfig, ModelVariant, forecast
from .series import TimeSeries
from .tail import TailProfile


@dataclass(frozen=True)
class EvaluationReport:
    """Per-variant SSE, the selected variant, and the improvement over classical.

    rmse/mae/mape describe the selected variant's predictions; mape skips
    zero-demand periods (mape_skipped counts them) and is None when every
    period is zero. classical_predicted and modified_predicted are the two
    compared curves over the observed range; to_dict() leaves them out.
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


def _values(x: TimeSeries | Sequence[float] | np.ndarray) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.demands
    return np.asarray(x, dtype=np.float64)


def sse(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    """Sum of squared errors between two equal-length sequences."""
    a = _values(actual)
    p = _values(predicted)
    if a.shape != p.shape:
        raise ShapeError(f"actual has length {a.size}, predicted has length {p.size}")
    resid = a - p
    return float(resid @ resid)


def improvement_percent(sse_classical: float, sse_modified: float) -> float:
    """Relative SSE reduction of the modified model, in percent of the classical SSE."""
    if sse_classical <= 0.0:
        raise UndefinedBaselineError(
            f"improvement is undefined for baseline SSE {sse_classical}"
        )
    return (sse_classical - sse_modified) / sse_classical * 100.0


def rmse(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    a = _values(actual)
    return math.sqrt(sse(actual, predicted) / a.size)


def mae(actual: TimeSeries | Sequence[float], predicted: Sequence[float]) -> float:
    a = _values(actual)
    p = _values(predicted)
    if a.shape != p.shape:
        raise ShapeError(f"actual has length {a.size}, predicted has length {p.size}")
    return float(np.abs(a - p).mean())


def mape(
    actual: TimeSeries | Sequence[float], predicted: Sequence[float]
) -> tuple[float | None, int]:
    """Mean absolute percentage error, skipping zero-demand periods.

    Returns (value, skipped) where skipped counts the zero periods; the value
    is None when no non-zero period exists.
    """
    a = _values(actual)
    p = _values(predicted)
    if a.shape != p.shape:
        raise ShapeError(f"actual has length {a.size}, predicted has length {p.size}")
    mask = a != 0.0
    skipped = int(a.size - mask.sum())
    if not mask.any():
        return None, skipped
    value = float((np.abs(a[mask] - p[mask]) / np.abs(a[mask])).mean() * 100.0)
    return value, skipped


def compare_models(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    tail: TailProfile,
    mode: str = "simulated",
    variant: ModelVariant = ModelVariant.AUTO,
    clamp_nonnegative: bool = False,
) -> EvaluationReport:
    """Run the classical and the (auto- or explicitly) modified forecast and compare.

    Comparison covers the observed range only. With the default auto variant
    classical is in the candidate set, so the improvement can never be
    negative; forcing a specific modified variant can make it negative when
    the correction hurts.
    """
    config = ForecastConfig(mode=mode, variant=variant, clamp_nonnegative=clamp_nonnegative)
    classical = None
    if config.variant not in (ModelVariant.AUTO, ModelVariant.CLASSICAL):
        # Classical runs first, as in auto, so its divergence is the one raised.
        classical = forecast(
            series, coeffs, tail, replace(config, variant=ModelVariant.CLASSICAL)
        ).predicted
    modified = forecast(series, coeffs, tail, config)
    if classical is None:
        classical = modified.candidates[ModelVariant.CLASSICAL]
    sse_classical = sse(series, classical)
    sse_modified = sse(series, modified.predicted)
    improvement = (
        0.0 if sse_classical == 0.0 else improvement_percent(sse_classical, sse_modified)
    )
    mape_value, mape_skipped = mape(series, modified.predicted)
    return EvaluationReport(
        sse_classical=sse_classical,
        sse_modified=sse_modified,
        variant_used=modified.variant_used,
        improvement_percent=improvement,
        mode=mode,
        tail_profile=tail,
        rmse=rmse(series, modified.predicted),
        mae=mae(series, modified.predicted),
        mape=mape_value,
        mape_skipped=mape_skipped,
        classical_predicted=classical,
        modified_predicted=modified.predicted,
    )
