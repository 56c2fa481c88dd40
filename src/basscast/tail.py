"""Peak detection, tail location by the 50%-of-height rule, and the r1/r2 ratios."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .series import TimeSeries

DEFAULT_HEIGHT_FRACTION = 0.5
DEFAULT_RATIO_SCALE = 1.6


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


def detect_peak(series: TimeSeries) -> tuple[int, float]:
    """Index and value of the global maximum demand; ties go to the earliest index."""
    idx = int(series.demands.argmax())
    return idx, float(series.demands[idx])


def detect_tail_start(series: TimeSeries, height_fraction: float = DEFAULT_HEIGHT_FRACTION) -> int:
    """First post-peak index where demand drops to the height-fraction threshold.

    The threshold is measured over the curve's actual range:
    height_fraction * (peak - min) + min. Returns n when no post-peak value
    crosses it (empty tail).
    """
    n = len(series)
    if n < 2:
        raise ParameterError(f"tail detection needs at least 2 points, got {n}")
    return _tail_start(series, height_fraction, *detect_peak(series))


def _tail_start(series: TimeSeries, height_fraction: float, peak_index: int, peak: float) -> int:
    """detect_tail_start from a known peak, for any length: a singleton's tail is empty (n)."""
    if not 0.0 < height_fraction < 1.0:
        raise ParameterError(f"height_fraction must be in (0, 1), got {height_fraction}")
    min_value = float(series.demands.min())
    threshold = height_fraction * (peak - min_value) + min_value
    n = len(series)
    for i in range(peak_index + 1, n):
        if series.demands[i] <= threshold:
            return i
    return n


def compute_ratios(tail_per: float, scale: float = DEFAULT_RATIO_SCALE) -> tuple[float, float]:
    """Correction ratios (r1, r2) for a given tail proportion.

    r1 = (tail_per - 0.5) * scale and r2 = 0.5 - r1. r1 is snapped to the
    2**-52 grid so that the complementary subtraction is exact and
    r1 + r2 == 0.5 holds bit-for-bit for every input; the snap moves r1 by
    at most 2**-53 from the raw product. Values are not clamped.
    """
    if not 0.0 <= tail_per <= 1.0:
        raise ParameterError(f"tail_per must be in [0, 1], got {tail_per}")
    raw = (tail_per - 0.5) * scale
    # The snap scales r1 by 2**52, which overflows from 2**972 on; a NaN or infinite
    # r1, from any non-finite scale, fails this test too.
    if not abs(raw) < 2.0**972:
        raise ParameterError(
            f"ratio scale must be finite and small enough for r1 to snap to the 2**-52 grid, "
            f"got {scale}"
        )
    r1 = math.ldexp(round(math.ldexp(raw, 52)), -52)
    r2 = 0.5 - r1
    return r1, r2


def profile(
    series: TimeSeries,
    height_fraction: float = DEFAULT_HEIGHT_FRACTION,
    ratio_scale: float = DEFAULT_RATIO_SCALE,
) -> TailProfile:
    """Compose peak detection, tail start, tail_per, and the ratio formulas."""
    n = len(series)
    peak_index, peak_value = detect_peak(series)
    tail_start = _tail_start(series, height_fraction, peak_index, peak_value)
    tail_per = (n - tail_start) / n
    r1, r2 = compute_ratios(tail_per, ratio_scale)
    return TailProfile(
        peak_index=peak_index,
        peak_value=peak_value,
        tail_start_index=tail_start,
        tail_per=tail_per,
        r1=r1,
        r2=r2,
    )
