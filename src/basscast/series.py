"""Core time-series types, their cumulative/average primitives, and every period-label rule."""
from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInputError, ParameterError, ValidationError

DEFAULT_START_PERIOD = "2004-01"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An ordered sequence of (period label, demand value) observations.

    Period labels are opaque strings that must be unique and strictly
    ascending lexicographically (ISO-style labels such as "2015-03" sort
    correctly by construction). Demand values are real numbers per period;
    they are normally non-negative, but negativity is not enforced so that
    model-generated curves with slightly negative tails remain representable.
    """

    periods: tuple[str, ...]
    demands: np.ndarray
    unit: str = "unitless"

    def __init__(self, periods: Iterable[str], demands: Sequence[float], unit: str = "unitless"):
        periods = tuple(map(str, periods))
        values = np.array(demands, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError(f"demands must be one-dimensional, got shape {values.shape}")
        if len(periods) == 0 and values.size == 0:
            raise EmptyInputError("time series must contain at least one observation")
        if len(periods) != values.size:
            raise ValidationError(
                f"periods ({len(periods)}) and demands ({values.size}) differ in length"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"demand at period {periods[bad]!r} is not finite")
        if not all(map(operator.lt, periods, periods[1:])):
            i = next(i for i in range(1, len(periods)) if periods[i] <= periods[i - 1])
            raise ValidationError(
                f"period labels must be strictly ascending: "
                f"{periods[i]!r} follows {periods[i - 1]!r}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "demands", values)
        object.__setattr__(self, "unit", str(unit))

    def __len__(self) -> int:
        return len(self.periods)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.periods == other.periods
            and self.unit == other.unit
            and np.array_equal(self.demands, other.demands)
        )

    @functools.cached_property  # cumulative's array; not a field, so repr and == ignore it
    def _lagged(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # fit_quadratic reports the overflow as SingularFitError
            running = np.cumsum(self.demands)
        values = np.concatenate(([0.0], running[:-1]))
        values.flags.writeable = False
        return values


def cumulative(series: TimeSeries) -> np.ndarray:
    """Lagged cumulative demand of a series, as a read-only array.

    Element t holds the total demand of periods 0..t-1, so the first element
    is exactly 0 and the last element plus the final demand equals the total.
    Summation is left-to-right, which makes values[t] + demands[t] ==
    values[t+1] hold exactly in floating point. The sum runs once per TimeSeries.
    """
    return series._lagged


def mean_demand(series: TimeSeries) -> float:
    """Arithmetic mean of all demand values: cumulative's left-to-right total, inf past float64."""
    return (float(cumulative(series)[-1]) + float(series.demands[-1])) / len(series)


# A calendar-month period label, "YYYY-MM" in ASCII digits with MM 01-12; use with fullmatch.
_MONTH_RE = re.compile(r"\d{4}-(?:0[1-9]|1[0-2])", re.ASCII)


def _month_number(label: str) -> int:
    """Months from 0000-01 to a "YYYY-MM" label that _MONTH_RE matches."""
    return int(label[:4]) * 12 + int(label[5:]) - 1


def monthly_periods(n: int, start: str = DEFAULT_START_PERIOD) -> tuple[str, ...]:
    """n consecutive \"YYYY-MM\" labels starting at ``start``, which must be one.

    The labels stop at 9999-12, the last month with a four-digit year.
    """
    if not _MONTH_RE.fullmatch(start):
        raise ParameterError(f"start period {start!r} is not a YYYY-MM month")
    first = _month_number(start)
    if first + n > 10000 * 12:  # months 0 (0000-01) to 119999 (9999-12) have four-digit years
        raise ParameterError(f"month labels stop at 9999-12; {n} from {start} would pass it")
    return tuple(f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(first, first + n))


def extend_period_labels(periods: tuple[str, ...], horizon: int) -> list[str]:
    """Labels for horizon periods: calendar months when labels are YYYY-MM, else suffixes."""
    if horizon == 0:
        return []
    last = periods[-1]
    if all(_MONTH_RE.fullmatch(p) for p in periods):
        return list(monthly_periods(horizon + 1, last)[1:])
    if horizon > 9999:  # a five-digit suffix would sort below +9999
        raise ParameterError(f"suffix labels stop at +9999; {horizon} after {last!r} "
                             "would pass it")
    return [f"{last}+{k:04d}" for k in range(1, horizon + 1)]
