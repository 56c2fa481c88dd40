"""Core time-series types and the cumulative/average primitives built on them."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInputError, ValidationError

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
        periods = tuple(str(p) for p in periods)
        values = np.asarray(demands, dtype=np.float64).copy()
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
        for i in range(1, len(periods)):
            if periods[i] <= periods[i - 1]:
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


def cumulative(series: TimeSeries) -> np.ndarray:
    """Lagged cumulative demand of a series, as a read-only array.

    Element t holds the total demand of periods 0..t-1, so the first element
    is exactly 0 and the last element plus the final demand equals the total.
    Summation is left-to-right, which makes values[t] + demands[t] ==
    values[t+1] hold exactly in floating point.
    """
    if len(series) == 0:  # pragma: no cover - constructor forbids this
        raise EmptyInputError("cannot accumulate an empty series")
    running = np.cumsum(series.demands)
    values = np.concatenate(([0.0], running[:-1]))
    values.flags.writeable = False
    return values


def mean_demand(series: TimeSeries) -> float:
    """Arithmetic mean of all demand values, summed left-to-right."""
    if len(series) == 0:  # pragma: no cover - constructor forbids this
        raise EmptyInputError("cannot average an empty series")
    total = float(np.cumsum(series.demands)[-1])
    return total / len(series)


# A calendar-month period label, "YYYY-MM".
_MONTH_RE = re.compile(r"^\d{4}-\d{2}$")


def monthly_periods(n: int, start: str = DEFAULT_START_PERIOD) -> tuple[str, ...]:
    """n consecutive \"YYYY-MM\" labels starting at ``start``."""
    year, month = (int(part) for part in start.split("-"))
    labels = []
    for _ in range(n):
        labels.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            month = 1
            year += 1
    return tuple(labels)
