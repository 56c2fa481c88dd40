"""Demand prediction under the classical recursion and its mean-corrected variants.

Two generation modes exist. In one-step mode each in-sample prediction uses
the actual lagged cumulative demand, so prediction errors never compound; in
simulated mode the recursion accumulates its own output from D(0) = 0 and
produces a fully self-contained curve. Simulated mode is the default because
it is the honest end-to-end test of the model shape.

The modified variants add a constant correction to every prediction:
+r1 * mean demand for the additive variant, -r2 * mean demand for the
subtractive one, with r1/r2 taken from the tail profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DivergenceError, ParameterError
from .fitting import QuadraticCoefficients
from .series import TimeSeries, cumulative, mean_demand
from .tail import TailProfile

# Simulated cumulative demand beyond this magnitude is treated as divergence.
DIVERGENCE_GUARD = 1e15


class ModelVariant(str, Enum):
    CLASSICAL = "classical"
    MODIFIED_ADD = "modified_add"
    MODIFIED_SUBTRACT = "modified_subtract"
    AUTO = "auto"


# Candidate order doubles as the tie-break order for auto selection.
_AUTO_CANDIDATES = (
    ModelVariant.CLASSICAL,
    ModelVariant.MODIFIED_ADD,
    ModelVariant.MODIFIED_SUBTRACT,
)

_MODES = ("one_step", "simulated")


@dataclass(frozen=True)
class ForecastConfig:
    mode: str = "simulated"
    horizon: int = 0
    clamp_nonnegative: bool = False
    variant: ModelVariant = ModelVariant.AUTO

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.horizon < 0:
            raise ParameterError(f"horizon must be >= 0, got {self.horizon}")
        if not isinstance(self.variant, ModelVariant):
            object.__setattr__(self, "variant", ModelVariant(self.variant))


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Predicted demand sequence, the variant that produced it, and the curves it chose from.

    ``candidates`` maps each variant this call generated to its read-only
    in-sample curve: all three for ``auto``, else only the requested one.
    """

    predicted: np.ndarray = field(repr=False)
    variant_used: ModelVariant
    correction_term: float
    candidates: Mapping[ModelVariant, np.ndarray] = field(repr=False)


def predict_classical(coeffs: QuadraticCoefficients, cumulative_value: float) -> float:
    """Predicted demand a + b*D + c*D**2 at lagged cumulative demand D."""
    if not np.isfinite(cumulative_value):
        raise ParameterError(f"cumulative value must be finite, got {cumulative_value}")
    D = cumulative_value
    return coeffs.a + coeffs.b * D + coeffs.c * D * D


def predict_modified(
    coeffs: QuadraticCoefficients, cumulative_value: float, correction: float
) -> float:
    """Classical prediction plus a signed constant correction term."""
    if not np.isfinite(correction):
        raise ParameterError(f"correction must be finite, got {correction}")
    return predict_classical(coeffs, cumulative_value) + correction


def _correction_for(variant: ModelVariant, tail: TailProfile, mean: float) -> float:
    if variant is ModelVariant.CLASSICAL:
        return 0.0
    if variant is ModelVariant.MODIFIED_ADD:
        return tail.r1 * mean
    if variant is ModelVariant.MODIFIED_SUBTRACT:
        return -(tail.r2 * mean)
    raise ParameterError(f"no correction defined for variant {variant}")


def simulate(
    a: float, b: float, c: float, correction: float, clamp: bool, running: float, periods: range
) -> list[float]:
    """Demand of each period in ``periods`` under the recursion fed by its own output.

    Each value is ``a + b*D + c*D*D + correction`` at running cumulative demand
    D, starting from ``running``, floored at zero when ``clamp`` is set, and
    then added to D. Plain Python floats in this exact expression order keep
    the output bit-identical to a per-step numpy evaluation; a rearranged form
    (Horner) changes the last digits. Raises DivergenceError naming the first
    period whose value is not finite or whose running total passes
    DIVERGENCE_GUARD.
    """
    out = []
    append = out.append
    for t in periods:
        value = a + b * running + c * running * running + correction
        if clamp and value < 0.0:
            value = 0.0
        append(value)
        running += value
        # A non-finite value makes the running total non-finite too, so this
        # one comparison also catches overflow; NaN fails every comparison.
        if not abs(running) <= DIVERGENCE_GUARD:
            raise _divergence(value, t)
    return out


def _divergence(value: float, period: int) -> DivergenceError:
    if not math.isfinite(value):
        return DivergenceError(f"prediction overflowed at period {period}", period=period)
    return DivergenceError(
        f"simulated cumulative demand exceeded {DIVERGENCE_GUARD:g} at period {period}",
        period=period,
    )


def _generate(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    correction: float,
    mode: str,
    horizon: int,
    clamp: bool,
    lagged: np.ndarray | None = None,
) -> np.ndarray:
    """One variant's curve over the observed range plus ``horizon`` periods.

    ``lagged`` is the series' lagged cumulative demand, for one-step mode;
    it is computed here when the caller has not already done so.
    """
    n = len(series)
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if mode != "one_step":
        return np.array(simulate(a, b, c, correction, clamp, 0.0, range(1, n + horizon + 1)))
    if lagged is None:
        lagged = cumulative(series)
    # Element-wise float64 operations in the kernel's order give the kernel's bits.
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = a + b * lagged + c * lagged * lagged + correction
    if clamp:
        fitted = np.where(fitted < 0.0, 0.0, fitted)
    finite = np.isfinite(fitted)
    if not finite.all():
        first = int(finite.argmin())
        raise _divergence(float(fitted[first]), first + 1)
    if horizon == 0:
        return fitted
    # Beyond the data the recursion has to feed on its own output.
    running = float(lagged[-1]) + float(series.demands[-1])
    beyond = simulate(a, b, c, correction, clamp, running, range(n + 1, n + horizon + 1))
    return np.concatenate((fitted, beyond))


def _in_sample_sse(series: TimeSeries, predicted: np.ndarray) -> float:
    resid = series.demands - predicted
    return float(resid @ resid)


def forecast(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    tail: TailProfile,
    config: ForecastConfig = ForecastConfig(),
) -> ForecastResult:
    """Generate the predicted demand sequence for the observed range plus horizon.

    With variant ``auto`` the in-sample SSE of all three variants is computed
    in the configured mode and the minimiser wins; ties break in the order
    classical, modified_add, modified_subtract, so the correction is only
    applied when it strictly helps. The mean demand entering the correction is
    computed once from the observed series and frozen for the whole horizon.
    """
    mean = mean_demand(series)
    lagged = cumulative(series) if config.mode == "one_step" else None

    def curve(variant: ModelVariant, horizon: int) -> np.ndarray:
        predicted = _generate(series, coeffs, _correction_for(variant, tail, mean),
                              config.mode, horizon, config.clamp_nonnegative, lagged)
        predicted.flags.writeable = False
        return predicted

    n = len(series)
    if config.variant is ModelVariant.AUTO:
        curves = {variant: curve(variant, 0) for variant in _AUTO_CANDIDATES}
    else:
        # The one requested curve runs straight through the horizon.
        curves = {config.variant: curve(config.variant, config.horizon)}
    candidates = {v: c[:n] if len(c) > n else c for v, c in curves.items()}
    # min keeps the first of equal SSEs, so candidate order is the tie-break order.
    variant = min(candidates, key=lambda v: _in_sample_sse(series, candidates[v]))
    predicted = curves[variant]
    if len(predicted) < n + config.horizon:
        # auto compared in-sample curves only; the winner is rerun through the horizon.
        predicted = curve(variant, config.horizon)
    return ForecastResult(
        predicted=predicted,
        variant_used=variant,
        correction_term=_correction_for(variant, tail, mean),
        candidates=MappingProxyType(candidates),
    )
