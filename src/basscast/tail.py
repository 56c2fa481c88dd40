"""Peak detection, tail location by the 50%-of-height rule, and the r1/r2 ratios."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .series import TimeSeries

# The paper's rule: the tail starts where demand falls to half the curve's height, and
# r1 = (tail_per - 0.5) * 1.6. Neither number is a setting.
HEIGHT_FRACTION = 0.5
RATIO_SCALE = 1.6


@dataclass(frozen=True)
class TailProfile:
    """Where the curve peaks, where its tail begins, and the derived correction ratios.

    tail_per is the tail length divided by the series length, in [0, 1].
    r1 grows and r2 shrinks linearly with tail_per; at tail_per = 0.5 the
    reference values are r1 = 0 and r2 = 0.5. Neither ratio is clamped, so a
    very long tail can push r2 negative.
    """

    peak_index: int
    peak_value: float
    tail_start_index: int
    tail_per: float
    r1: float
    r2: float


def compute_ratios(tail_per: float) -> tuple[float, float]:
    """Correction ratios (r1, r2) for a given tail proportion.

    r1 = (tail_per - 0.5) * RATIO_SCALE and r2 = 0.5 - r1. r1 is snapped to the
    2**-52 grid so that the complementary subtraction is exact and
    r1 + r2 == 0.5 holds bit-for-bit for every input; the snap moves r1 by
    at most 2**-53 from the raw product. Values are not clamped.
    """
    if not 0.0 <= tail_per <= 1.0:
        raise ParameterError(f"tail_per must be in [0, 1], got {tail_per}")
    raw = (tail_per - 0.5) * RATIO_SCALE
    r1 = math.ldexp(round(math.ldexp(raw, 52)), -52)
    r2 = 0.5 - r1
    return r1, r2


def profile(series: TimeSeries) -> TailProfile:
    """Compose the peak (the first global maximum), tail start, tail_per, and the ratio formulas.

    The tail starts at the first post-peak index where demand drops to the
    threshold HEIGHT_FRACTION * (peak - min) + min, measured over the curve's
    actual range; it is n when no post-peak value crosses it (empty tail).
    """
    n = len(series)
    peak_index = int(series.demands.argmax())
    peak_value = float(series.demands[peak_index])
    min_value = float(series.demands.min())
    threshold = HEIGHT_FRACTION * (peak_value - min_value) + min_value
    crossed = series.demands[peak_index + 1:] <= threshold
    tail_start = peak_index + 1 + int(crossed.argmax()) if crossed.any() else n
    tail_per = (n - tail_start) / n
    r1, r2 = compute_ratios(tail_per)
    return TailProfile(peak_index, peak_value, tail_start, tail_per, r1, r2)
