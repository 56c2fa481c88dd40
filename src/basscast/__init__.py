"""basscast: diffusion-curve demand forecasting with a tail-corrected variant.

Fits the discrete recursion d(t) = a + b*D(t-1) + c*D(t-1)**2 to an observed
demand series, locates mono-peak/long-tail shapes, and applies a constant
mean-demand correction scaled by the tail proportion when that lowers the
in-sample SSE.
"""

__version__ = "0.1.0"

from .errors import (
    BasscastError,
    DegeneratePlotError,
    DivergenceError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
    NonDiffusionShapeError,
    NoRealMarketSizeError,
    ParameterError,
    ShapeError,
    SingularFitError,
    UndefinedBaselineError,
    ValidationError,
)
from .evaluation import EvaluationReport, compare_models, improvement_percent, mae, mape, rmse, sse
from .fitting import BassParameters, QuadraticCoefficients, derive_bass_parameters, fit_quadratic
from .forecast import (
    DIVERGENCE_GUARD,
    ForecastConfig,
    ForecastResult,
    ModelVariant,
    forecast,
    predict_classical,
    predict_modified,
)
from .ingest import (
    IngestOptions,
    aggregate_transactions,
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
)
from .series import TimeSeries, cumulative, mean_demand
from .svgplot import render_comparison_svg
from .synthetic import (
    MonoPeakSpec,
    SplitMix64,
    generate_bass_series,
    generate_mono_peak,
    mono_peak_value,
    monthly_periods,
)
from .tail import TailProfile, compute_ratios, detect_peak, detect_tail_start, profile

__all__ = [
    "BassParameters",
    "BasscastError",
    "DIVERGENCE_GUARD",
    "DegeneratePlotError",
    "DivergenceError",
    "EmptyInputError",
    "EvaluationReport",
    "ForecastConfig",
    "ForecastResult",
    "FormatError",
    "IngestOptions",
    "InsufficientDataError",
    "ModelVariant",
    "MonoPeakSpec",
    "NoRealMarketSizeError",
    "NonDiffusionShapeError",
    "ParameterError",
    "QuadraticCoefficients",
    "ShapeError",
    "SingularFitError",
    "SplitMix64",
    "TailProfile",
    "TimeSeries",
    "UndefinedBaselineError",
    "ValidationError",
    "aggregate_transactions",
    "compare_models",
    "compute_ratios",
    "cumulative",
    "derive_bass_parameters",
    "detect_peak",
    "detect_tail_start",
    "fit_quadratic",
    "forecast",
    "generate_bass_series",
    "generate_mono_peak",
    "improvement_percent",
    "mae",
    "mape",
    "mean_demand",
    "mono_peak_value",
    "monthly_periods",
    "parse_generic_csv",
    "parse_google_trends_csv",
    "parse_transactions_csv",
    "predict_classical",
    "predict_modified",
    "profile",
    "render_comparison_svg",
    "rmse",
    "sse",
    "to_generic_csv",
]
