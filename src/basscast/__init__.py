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
from .forecast import ForecastResult, ModelVariant, forecast
from .ingest import (
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
)
from .series import TimeSeries, cumulative, mean_demand, monthly_periods
from .svgplot import render_comparison_svg
from .synthetic import MonoPeakSpec, generate_mono_peak
from .tail import TailProfile, compute_ratios, profile

__all__ = [
    "BassParameters",
    "BasscastError",
    "DegeneratePlotError",
    "DivergenceError",
    "EmptyInputError",
    "EvaluationReport",
    "ForecastResult",
    "FormatError",
    "InsufficientDataError",
    "ModelVariant",
    "MonoPeakSpec",
    "NoRealMarketSizeError",
    "NonDiffusionShapeError",
    "ParameterError",
    "QuadraticCoefficients",
    "ShapeError",
    "SingularFitError",
    "TailProfile",
    "TimeSeries",
    "UndefinedBaselineError",
    "ValidationError",
    "compare_models",
    "compute_ratios",
    "cumulative",
    "derive_bass_parameters",
    "fit_quadratic",
    "forecast",
    "generate_mono_peak",
    "improvement_percent",
    "mae",
    "mape",
    "mean_demand",
    "monthly_periods",
    "parse_generic_csv",
    "parse_google_trends_csv",
    "parse_transactions_csv",
    "profile",
    "render_comparison_svg",
    "rmse",
    "sse",
    "to_generic_csv",
]
