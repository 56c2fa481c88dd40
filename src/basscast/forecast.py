"""Demand prediction under the classical recursion and its mean-corrected variants.

Two generation modes exist. In one-step mode each in-sample prediction uses
the actual lagged cumulative demand, so prediction errors never compound; in
simulated mode the recursion accumulates its own output from D(0) = 0 and
produces a fully self-contained curve. Simulated mode is the default because
it is the honest end-to-end test of the model shape.

Each candidate curve is generated once, over the observed range only; the
chosen one is then extended through the horizon by one more ``simulate``
call that starts from the cumulative demand its curve ends on, in both modes.

The modified variants add a constant correction to every prediction:
+r1 * mean demand for the additive variant, -r2 * mean demand for the
subtractive one, with r1/r2 taken from the tail profile.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DivergenceError, ParameterError
from .fitting import QuadraticCoefficients, _one_step, _sse
from .series import TimeSeries, cumulative, mean_demand
from .tail import TailProfile


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


@dataclass(frozen=True, eq=False)
class Candidate:
    """One variant's read-only in-sample curve, with what selection and the horizon need of it.

    ``sse`` is the curve's in-sample SSE. ``running`` is the cumulative demand
    the curve ends on: the kernel's own running total in simulated mode, the
    observed total in one-step mode. The horizon continues from it with
    ``correction``. A curve that diverged (see _candidate) records its
    DivergenceError in ``divergence``, and has no curve, an SSE of ``inf`` and
    a ``running`` of NaN.
    """

    curve: np.ndarray | None = field(repr=False)
    sse: float
    correction: float
    running: float
    divergence: DivergenceError | None = None


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Predicted demand sequence, the variant that produced it, and the candidates it chose from.

    ``candidates`` maps each variant this call generated to its record, in
    generation order: all three for ``auto``, else classical and the requested
    variant, so every result holds the classical baseline.
    """

    predicted: np.ndarray = field(repr=False)
    variant_used: ModelVariant
    candidates: Mapping[ModelVariant, Candidate]


def _correction_for(variant: ModelVariant, tail: TailProfile, mean: float) -> float:
    """The constant added to each prediction of one of the three candidate variants."""
    if variant is ModelVariant.CLASSICAL:
        return 0.0
    if variant is ModelVariant.MODIFIED_ADD:
        return tail.r1 * mean
    return -(tail.r2 * mean)


def simulate(
    a: float, b: float, c: float, correction: float, clamp: bool, running: float, periods: range
) -> tuple[list[float], float]:
    """Demand of each period in ``periods`` under the recursion fed by its own output.

    Each value is ``a + b*D + c*D*D + correction`` at running cumulative demand
    D, starting from ``running``, floored at zero when ``clamp`` is set, and
    then added to D. Plain Python floats in this exact expression order keep
    the output bit-identical to its array form ``fitting._one_step``; Horner's
    rearrangement changes the last digits. Returns the values and D after the
    last of them, so a later call started from that D continues the same curve.
    Raises DivergenceError naming the first period whose value or running
    total is not finite.
    """
    out = []
    append = out.append
    inf = math.inf
    for t in periods:
        value = a + b * running + c * running * running + correction
        if clamp and value < 0.0:
            value = 0.0
        append(value)
        running += value
        # A non-finite value makes the running total non-finite too, so this
        # one comparison checks both; NaN fails every comparison.
        if not abs(running) < inf:
            raise _divergence(t)
    return out, running


def _divergence(period: int) -> DivergenceError:
    return DivergenceError(f"prediction overflowed at period {period}", period=period)


def _candidate(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    correction: float,
    clamp: bool,
    lagged: np.ndarray | None,
) -> Candidate:
    """One variant's record, its curve generated over the observed range only.

    ``lagged`` is the series' lagged cumulative demand in one-step mode and
    None in simulated mode. A curve diverged where simulate stopped it, or,
    whatever the demands' scale, where its SSE is not finite: at the first
    period whose left-to-right running sum of squared residuals is not
    finite, else at the last. That clause also catches a one-step value that
    is not finite. A divergence is recorded, not raised.
    """
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if lagged is not None:
        curve = _one_step(a, b, c, correction, lagged)
        if clamp:
            curve = np.where(curve < 0.0, 0.0, curve)
        running = float(lagged[-1]) + float(series.demands[-1])
    else:
        try:
            values, running = simulate(a, b, c, correction, clamp, 0.0, range(1, len(series) + 1))
        except DivergenceError as exc:
            return Candidate(None, math.inf, correction, math.nan, exc)
        curve = np.array(values)
    sse = _sse(series.demands, curve)
    if not math.isfinite(sse):
        with np.errstate(over="ignore"):
            totals = np.cumsum(np.square(series.demands - curve))
        # Squares are not negative, so the totals stay non-finite from the first that is.
        period = min(int(np.isfinite(totals).sum()) + 1, len(series))
        return Candidate(None, math.inf, correction, math.nan, _divergence(period))
    curve.flags.writeable = False
    return Candidate(curve, sse, correction, running)


def forecast(
    series: TimeSeries,
    coeffs: QuadraticCoefficients,
    tail: TailProfile,
    *,
    mode: str = "simulated",
    variant: ModelVariant = ModelVariant.AUTO,
    clamp_nonnegative: bool = False,
    horizon: int = 0,
) -> ForecastResult:
    """Generate the predicted demand sequence for the observed range plus horizon.

    Classical is generated first for every variant, so its DivergenceError is
    the one raised when it diverges. With variant ``auto`` the in-sample SSE of
    all three variants is computed in the given mode and the minimiser wins;
    ties break in the order classical, modified_add, modified_subtract, so the
    correction is only applied when it strictly helps. The mean demand entering
    the correction is computed once from the observed series and frozen for the
    whole horizon.
    """
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    try:
        horizon = operator.index(horizon)
    except TypeError:
        raise ParameterError(f"horizon must be an integer, got {horizon!r}") from None
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    try:
        variant = ModelVariant(variant)
    except ValueError:
        raise ParameterError(f"variant must be one of {tuple(v.value for v in ModelVariant)}, "
                             f"got {variant!r}") from None
    mean = mean_demand(series)
    lagged = cumulative(series) if mode == "one_step" else None
    auto = variant is ModelVariant.AUTO
    variants = _AUTO_CANDIDATES if auto else dict.fromkeys((ModelVariant.CLASSICAL, variant))
    candidates = {}
    for v in variants:  # up to the first that diverges, whose error is raised
        candidates[v] = _candidate(series, coeffs, _correction_for(v, tail, mean),
                                   clamp_nonnegative, lagged)
        if candidates[v].divergence:
            # Popped, so that this frame, which the traceback keeps, holds no path back to
            # the error: a reference cycle would keep the frame's arrays until a GC pass.
            raise candidates.pop(v).divergence
    # min keeps the first of equal SSEs, so candidate order is the tie-break order.
    chosen = min(candidates, key=lambda v: candidates[v].sse) if auto else variant
    winner = candidates[chosen]
    predicted = winner.curve
    if horizon:
        # Beyond the data the winner's recursion feeds on its own output.
        n = len(series)
        beyond, _ = simulate(float(coeffs.a), float(coeffs.b), float(coeffs.c), winner.correction,
                             clamp_nonnegative, winner.running, range(n + 1, n + horizon + 1))
        predicted = np.concatenate((predicted, beyond))
        predicted.flags.writeable = False
    return ForecastResult(predicted, chosen, MappingProxyType(candidates))
