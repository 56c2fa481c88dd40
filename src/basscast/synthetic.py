"""Seeded mono-peak fixture curves and the portable generator that makes their noise."""
from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import ParameterError
from .series import DEFAULT_START_PERIOD, TimeSeries, monthly_periods


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).

    Fixed 64-bit constants, so seeded streams are identical on every platform:
    state advances by 0x9E3779B97F4A7C15; the output mix multiplies by
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB with xor-shifts 30/27/31.
    Statistical quality is plenty for bounded fixture noise.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()


@dataclass(frozen=True)
class MonoPeakSpec:
    """Shape parameters for a single-peak curve with an exponential fall to a plateau.

    The curve rises as peak_height * (t/peak_time)**rise_shape, then falls as
    plateau_level + (peak_height - plateau_level) * exp(-decay_rate * (t - peak_time)),
    plus uniform noise in [-noise_amplitude, +noise_amplitude], floored at 0.
    noise_amplitude defaults to 2% of peak_height.
    """

    n: int = 180
    peak_time: int = 24
    peak_height: float = 100.0
    decay_rate: float = 0.2
    plateau_level: float = 4.0
    rise_shape: float = 1.0
    noise_amplitude: float | None = None
    seed: int = 0

    def __post_init__(self):
        # NaN fails every range comparison below, so non-finite floats are caught first.
        for name in ("peak_height", "decay_rate", "plateau_level", "rise_shape", "noise_amplitude"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0 < self.peak_time < self.n:
            raise ParameterError(
                f"peak_time must lie strictly inside the series: 0 < {self.peak_time} < {self.n}"
            )
        if self.peak_height <= 0.0:
            raise ParameterError(f"peak_height must be positive, got {self.peak_height}")
        if self.decay_rate <= 0.0:
            raise ParameterError(f"decay_rate must be positive, got {self.decay_rate}")
        if self.plateau_level < 0.0 or self.plateau_level >= self.peak_height:
            raise ParameterError(
                f"plateau_level must be in [0, peak_height), got {self.plateau_level}"
            )
        if self.rise_shape <= 0.0:
            raise ParameterError(f"rise_shape must be positive, got {self.rise_shape}")
        if self.noise_amplitude is None:
            object.__setattr__(self, "noise_amplitude", 0.02 * self.peak_height)
        elif self.noise_amplitude < 0.0:
            raise ParameterError(
                f"noise_amplitude must be >= 0, got {self.noise_amplitude}"
            )
        amp, peak = self.noise_amplitude, self.peak_height  # the noise range is 2 * amp
        if not math.isfinite(2.0 * amp):
            raise ParameterError(f"2 * noise_amplitude must be finite, got 2 * {amp}")
        if not math.isfinite(peak + amp):
            raise ParameterError(
                f"peak_height + noise_amplitude must be finite, got {peak} + {amp}")


def mono_peak_value(spec: MonoPeakSpec, t: int) -> float:
    """Noise-free curve value at integer time t."""
    if t <= spec.peak_time:
        return spec.peak_height * (t / spec.peak_time) ** spec.rise_shape
    return spec.plateau_level + (spec.peak_height - spec.plateau_level) * math.exp(
        -spec.decay_rate * (t - spec.peak_time)
    )


def generate_mono_peak(spec: MonoPeakSpec, start_period: str = DEFAULT_START_PERIOD) -> TimeSeries:
    """Seeded mono-peak fixture series in unit "synthetic".

    An identical spec (seed included) gives identical output.
    """
    periods = monthly_periods(spec.n, start_period)  # raises before the n-step loop, not after
    rng = SplitMix64(spec.seed)
    amp = spec.noise_amplitude
    demands = []
    for t in range(spec.n):
        value = mono_peak_value(spec, t) + rng.uniform(-amp, amp)
        demands.append(max(value, 0.0))
    return TimeSeries(periods, demands, unit="synthetic")
