import pytest
from hypothesis import strategies as st

from basscast import (
    MonoPeakSpec,
    ParameterError,
    QuadraticCoefficients,
    TimeSeries,
    generate_mono_peak,
    monthly_periods,
)
from basscast.forecast import simulate
from basscast.series import DEFAULT_START_PERIOD

# Coefficients of the noiseless recursion fixture used across modules.
EXACT_COEFFS = QuadraticCoefficients(a=10.0, b=0.5, c=-0.001, residual_sse=0.0, n_obs=0)


def generate_bass_series(
    coeffs: QuadraticCoefficients,
    n: int,
    start_period: str = DEFAULT_START_PERIOD,
    unit: str = "synthetic",
) -> TimeSeries:
    """Forward-simulate the recursion d(t) = a + b*D(t-1) + c*D(t-1)**2 for n periods.

    D accumulates the generated demands themselves, so refitting the output
    recovers the coefficients exactly up to float rounding. Deterministic.
    """
    if n < 1:
        raise ParameterError(f"series length must be >= 1, got {n}")
    # Adding -0.0 leaves every value, signed zeros included, exactly as it was.
    demands, _ = simulate(float(coeffs.a), float(coeffs.b), float(coeffs.c), -0.0, False, 0.0,
                          range(1, n + 1))
    return TimeSeries(monthly_periods(n, start_period), demands, unit=unit)


@pytest.fixture
def exact_coeffs():
    return EXACT_COEFFS


@pytest.fixture
def noiseless_series():
    """30 points generated exactly by the recursion with EXACT_COEFFS."""
    return generate_bass_series(EXACT_COEFFS, 30)


@pytest.fixture
def mono_peak_series():
    """One default-family mono-peak fixture."""
    return generate_mono_peak(MonoPeakSpec(seed=7))


def mono_peak_family(count=20, **overrides):
    """The default fixture family: seeds 0..count-1 of the default spec."""
    return [generate_mono_peak(MonoPeakSpec(seed=seed, **overrides)) for seed in range(count)]


@st.composite
def mono_peak_specs(draw):
    """Valid mono-peak specs over lengths, peak times, shapes, noise and seeds."""
    n = draw(st.integers(min_value=5, max_value=400))
    peak_height = draw(st.floats(min_value=1.0, max_value=1000.0))
    return MonoPeakSpec(
        n=n,
        peak_time=draw(st.integers(min_value=1, max_value=n - 1)),
        peak_height=peak_height,
        decay_rate=draw(st.floats(min_value=0.01, max_value=2.0)),
        plateau_level=draw(st.floats(min_value=0.0, max_value=0.9)) * peak_height,
        rise_shape=draw(st.floats(min_value=0.2, max_value=3.0)),
        noise_amplitude=draw(st.none() | st.floats(min_value=0.0, max_value=50.0)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
