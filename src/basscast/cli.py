"""Command-line front end: ingest, fit, analyse the tail, forecast, evaluate, plot.

Subcommands
    fit        fit the demand recursion and write fit.json
    forecast   write forecast.json and a predictions CSV (optionally beyond the data)
    evaluate   compare classical vs modified and write report.json + predictions.csv
    plot       write a compare.svg chart of actual vs both predictions
    synth      generate a seeded mono-peak fixture CSV (+ sidecar spec JSON)
    batch      run the evaluate+plot pipeline over many inputs

Exit codes: 0 success, 2 input/format problem, 3 numeric/fit problem, 4 I/O problem.
All payload files are deterministic: identical inputs and flags give identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import (
    BasscastError,
    DegeneratePlotError,
    NonDiffusionShapeError,
    NoRealMarketSizeError,
)
from .evaluation import EvaluationReport, compare_models, improvement_percent
from .fitting import derive_bass_parameters, fit_quadratic
from .forecast import ForecastConfig, ModelVariant, forecast
from .ingest import (
    IngestOptions,
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
)
from .series import _MONTH_RE, TimeSeries, monthly_periods
from .svgplot import render_comparison_svg
from .synthetic import MonoPeakSpec, generate_mono_peak
from .tail import profile

EXIT_OK = 0
EXIT_IO = 4

_FORMATS = ("generic", "trends", "transactions")


@dataclass
class RunManifest:
    """Everything one pipeline run needs, as parsed from the command line."""

    inputs: list[str] = field(default_factory=list)
    fmt: str = "generic"
    variant: ModelVariant = ModelVariant.AUTO
    mode: str = "simulated"
    horizon: int = 0
    height_fraction: float = 0.5
    ratio_scale: float = 1.6
    less_than_one_policy: str = "as_half"
    date_column: str | int = 0
    value_column: str | int = 1
    clamp_nonnegative: bool = False
    output_dir: str = "."

    @property
    def ingest_options(self) -> IngestOptions:
        return IngestOptions(
            less_than_one_policy=self.less_than_one_policy,
            date_column=self.date_column,
            value_column=self.value_column,
        )


def load_series(path: str | Path, manifest: RunManifest) -> TimeSeries:
    text = Path(path).read_text(encoding="utf-8-sig")
    opts = manifest.ingest_options
    if manifest.fmt == "trends":
        return parse_google_trends_csv(text, opts)
    if manifest.fmt == "transactions":
        return parse_transactions_csv(text, opts)
    return parse_generic_csv(text, opts)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def extend_period_labels(periods: tuple[str, ...], horizon: int) -> list[str]:
    """Labels for horizon periods: calendar months when labels are YYYY-MM, else suffixes."""
    if horizon == 0:
        return []
    last = periods[-1]
    if all(_MONTH_RE.match(p) for p in periods):
        return list(monthly_periods(horizon + 1, last)[1:])
    return [f"{last}+{k:04d}" for k in range(1, horizon + 1)]


def _fit_payload(series: TimeSeries) -> dict:
    coeffs = fit_quadratic(series)
    payload = {
        "a": coeffs.a,
        "b": coeffs.b,
        "c": coeffs.c,
        "residual_sse": coeffs.residual_sse,
        "n_obs": coeffs.n_obs,
        "bass_parameters": None,
        "derivation_error": None,
    }
    try:
        params = derive_bass_parameters(coeffs)
    except NonDiffusionShapeError:
        payload["derivation_error"] = "non_diffusion_shape"
    except NoRealMarketSizeError:
        payload["derivation_error"] = "no_real_market_size"
    else:
        payload["bass_parameters"] = {"p": params.p, "q": params.q, "m": params.m}
    return payload


def cmd_fit(manifest: RunManifest) -> int:
    series = load_series(manifest.inputs[0], manifest)
    out = Path(manifest.output_dir)
    _write_json(out / "fit.json", _fit_payload(series))
    return EXIT_OK


def cmd_forecast(manifest: RunManifest) -> int:
    series = load_series(manifest.inputs[0], manifest)
    coeffs = fit_quadratic(series)
    tail = profile(series, manifest.height_fraction, manifest.ratio_scale)
    result = forecast(
        series,
        coeffs,
        tail,
        ForecastConfig(
            mode=manifest.mode,
            horizon=manifest.horizon,
            clamp_nonnegative=manifest.clamp_nonnegative,
            variant=manifest.variant,
        ),
    )
    out = Path(manifest.output_dir)
    _write_json(
        out / "forecast.json",
        {
            "variant_used": result.variant_used.value,
            "correction_term": result.correction_term,
            "mode": manifest.mode,
            "horizon": manifest.horizon,
            "clamp_nonnegative": manifest.clamp_nonnegative,
            "n_observed": len(series),
            "predicted": [float(v) for v in result.predicted],
        },
    )
    labels = list(series.periods) + extend_period_labels(series.periods, manifest.horizon)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["period", "actual", "predicted"])
    for i, label in enumerate(labels):
        actual = repr(float(series.demands[i])) if i < len(series) else ""
        writer.writerow([label, actual, repr(float(result.predicted[i]))])
    _write_text(out / "predictions.csv", buf.getvalue())
    return EXIT_OK


def _compare(
    series: TimeSeries, manifest: RunManifest, modes: tuple[str, ...]
) -> dict[str, EvaluationReport]:
    """Fit and profile the series once, then compare the models in each mode."""
    coeffs = fit_quadratic(series)
    tail = profile(series, manifest.height_fraction, manifest.ratio_scale)
    return {
        mode: compare_models(series, coeffs, tail, mode=mode, variant=manifest.variant,
                             clamp_nonnegative=manifest.clamp_nonnegative)
        for mode in modes
    }


def _write_evaluation(out: Path, series: TimeSeries, reports: dict[str, EvaluationReport]) -> None:
    """report.json (one object per mode when there are two) and predictions.csv."""
    if len(reports) > 1:
        _write_json(out / "report.json", {mode: r.to_dict() for mode, r in reports.items()})
        report = reports["simulated"]
    else:
        (report,) = reports.values()
        _write_json(out / "report.json", report.to_dict())
        print(f"improvement_percent {report.improvement_percent!r} "
              f"(variant {report.variant_used.value})")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["period", "actual", "classical", "modified"])
    for label, actual, classical, modified in zip(
        series.periods,
        series.demands.tolist(),
        report.classical_predicted.tolist(),
        report.modified_predicted.tolist(),
    ):
        writer.writerow([label, repr(actual), repr(classical), repr(modified)])
    _write_text(out / "predictions.csv", buf.getvalue())


def _write_plot(out: Path, series: TimeSeries, report: EvaluationReport) -> None:
    svg = render_comparison_svg(
        series, report.classical_predicted, report.modified_predicted, report
    )
    _write_text(out / "compare.svg", svg)


def cmd_evaluate(manifest: RunManifest, sse_pairs: list[list[float]] | None = None) -> int:
    if sse_pairs:
        for pair in sse_pairs:
            value = improvement_percent(pair[0], pair[1])
            print(f"improvement_percent {value!r}")
        return EXIT_OK
    series = load_series(manifest.inputs[0], manifest)
    modes = ("one_step", "simulated") if manifest.mode == "both" else (manifest.mode,)
    _write_evaluation(Path(manifest.output_dir), series, _compare(series, manifest, modes))
    return EXIT_OK


def cmd_plot(manifest: RunManifest) -> int:
    series = load_series(manifest.inputs[0], manifest)
    if len(series) < 2:
        raise DegeneratePlotError(
            "series has 1 point; at least 2 are needed to draw comparison curves - "
            "provide more data"
        )
    report = _compare(series, manifest, (manifest.mode,))[manifest.mode]
    _write_plot(Path(manifest.output_dir), series, report)
    return EXIT_OK


def cmd_synth(spec: MonoPeakSpec, start_period: str, output: Path) -> int:
    series = generate_mono_peak(spec, start_period=start_period)
    _write_text(output, to_generic_csv(series))
    sidecar = output.with_suffix(".spec.json")
    _write_json(
        sidecar,
        {
            "n": spec.n,
            "peak_time": spec.peak_time,
            "peak_height": spec.peak_height,
            "decay_rate": spec.decay_rate,
            "plateau_level": spec.plateau_level,
            "rise_shape": spec.rise_shape,
            "noise_amplitude": spec.noise_amplitude,
            "seed": spec.seed,
            "start_period": start_period,
        },
    )
    return EXIT_OK


def _batch_one(manifest: RunManifest, path: str, out_dir: Path) -> tuple[str, int, str]:
    """evaluate and plot as one pass: one parse, one fit, one profile, one comparison."""
    try:
        series = load_series(path, manifest)
        report = _compare(series, manifest, (manifest.mode,))[manifest.mode]
        _write_evaluation(out_dir, series, {manifest.mode: report})
        _write_plot(out_dir, series, report)
    except (BasscastError, OSError) as exc:
        return path, _exit_code_for(exc), str(exc)
    return path, EXIT_OK, "ok"


def _output_names(inputs: list[str]) -> list[str]:
    """One distinct directory name per input: its stem, or stem_k for the k-th repeat.

    The k is raised past any name already taken, so a.csv, a.csv, a_2.csv
    give a, a_2 and a_2_2 rather than two inputs sharing a_2.
    """
    taken: set[str] = set()
    names = []
    for path in inputs:
        stem = Path(path).stem or "input"
        name, k = stem, 1
        while name in taken:
            k += 1
            name = f"{stem}_{k}"
        taken.add(name)
        names.append(name)
    return names


def cmd_batch(manifest: RunManifest) -> int:
    out = Path(manifest.output_dir)
    results = [_batch_one(manifest, path, out / name)
               for path, name in zip(manifest.inputs, _output_names(manifest.inputs))]
    exit_code = EXIT_OK
    for path, code, message in results:
        status = "ok" if code == EXIT_OK else f"failed: {message}"
        print(f"{path}: {status}")
        if code != EXIT_OK and exit_code == EXIT_OK:
            exit_code = code
    return exit_code


def _exit_code_for(exc: BasscastError | OSError) -> int:
    return exc.exit_code if isinstance(exc, BasscastError) else EXIT_IO


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="generic",
                        help="input file format (default: generic)")
    parser.add_argument("--less-than-one", choices=("as_half", "as_zero", "as_one"),
                        default="as_half",
                        help="mapping for censored '<1' trend cells (default: as_half)")
    parser.add_argument("--date-column", default="0",
                        help="generic CSV period column, name or 0-based index (default: 0)")
    parser.add_argument("--value-column", default="1",
                        help="generic CSV demand column, name or 0-based index (default: 1)")
    parser.add_argument("--variant",
                        choices=[v.value for v in ModelVariant], default="auto",
                        help="forecast variant (default: auto = lowest in-sample SSE)")
    parser.add_argument("--mode", choices=("one_step", "simulated", "both"),
                        default="simulated",
                        help="prediction mode; 'both' is accepted by evaluate (default: simulated)")
    parser.add_argument("--horizon", type=int, default=0,
                        help="periods to predict beyond the data (default: 0)")
    parser.add_argument("--height-fraction", type=float, default=0.5,
                        help="fraction of curve height where the tail starts (default: 0.5)")
    parser.add_argument("--tail-constant", type=float, default=1.6,
                        help="slope of the r1/r2 ratio formulas (default: 1.6)")
    parser.add_argument("--clamp-nonnegative", action="store_true",
                        help="floor predictions at zero before accumulation")
    parser.add_argument("--output-dir", default=".", help="directory for output files")


def _column_selector(raw: str) -> str | int:
    return int(raw) if raw.lstrip("+-").isdigit() else raw


def _manifest_from(args: argparse.Namespace, inputs: list[str]) -> RunManifest:
    return RunManifest(
        inputs=inputs,
        fmt=args.format,
        variant=ModelVariant(args.variant),
        mode=args.mode,
        horizon=args.horizon,
        height_fraction=args.height_fraction,
        ratio_scale=args.tail_constant,
        less_than_one_policy=args.less_than_one,
        date_column=_column_selector(args.date_column),
        value_column=_column_selector(args.value_column),
        clamp_nonnegative=args.clamp_nonnegative,
        output_dir=args.output_dir,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basscast",
        description="Demand-curve fitting and forecasting with tail-corrected "
                    "diffusion variants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fit", "fit the demand recursion and write fit.json"),
        ("forecast", "write forecast.json and predictions.csv"),
        ("plot", "write compare.svg for actual vs predictions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input CSV file")
        _add_common_flags(p)

    p = sub.add_parser("evaluate", help="compare classical vs modified, write report.json")
    p.add_argument("input", nargs="?", help="input CSV file (omit with --sse-pair)")
    p.add_argument("--sse-pair", nargs=2, type=float, action="append",
                   metavar=("CLASSICAL", "MODIFIED"),
                   help="print the improvement percentage for a raw SSE pair and exit")
    _add_common_flags(p)

    p = sub.add_parser("synth", help="generate a seeded mono-peak fixture CSV")
    p.add_argument("--n", type=int, default=180, help="series length (default: 180)")
    p.add_argument("--peak-time", type=int, default=24, help="peak index (default: 24)")
    p.add_argument("--peak-height", type=float, default=100.0,
                   help="demand at the peak (default: 100)")
    p.add_argument("--decay-rate", type=float, default=0.2,
                   help="exponential fall rate after the peak (default: 0.2)")
    p.add_argument("--plateau-level", type=float, default=4.0,
                   help="tail asymptote (default: 4)")
    p.add_argument("--rise-shape", type=float, default=1.0,
                   help="pre-peak power-curve exponent (default: 1)")
    p.add_argument("--noise-amplitude", type=float, default=None,
                   help="uniform noise half-width (default: 2%% of peak height)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--start-period", default="2004-01",
                   help="first YYYY-MM label (default: 2004-01)")
    p.add_argument("--output", default="mono_peak.csv", help="output CSV path")

    p = sub.add_parser("batch", help="evaluate + plot many inputs, one subdirectory each")
    p.add_argument("inputs", nargs="+", help="input CSV files")
    _add_common_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(_manifest_from(args, [args.input]))
        if args.command == "forecast":
            return cmd_forecast(_manifest_from(args, [args.input]))
        if args.command == "plot":
            return cmd_plot(_manifest_from(args, [args.input]))
        if args.command == "evaluate":
            if not args.sse_pair and args.input is None:
                parser.error("evaluate needs an input file or --sse-pair")
            inputs = [args.input] if args.input else []
            return cmd_evaluate(_manifest_from(args, inputs), args.sse_pair)
        if args.command == "synth":
            spec = MonoPeakSpec(
                n=args.n,
                peak_time=args.peak_time,
                peak_height=args.peak_height,
                decay_rate=args.decay_rate,
                plateau_level=args.plateau_level,
                rise_shape=args.rise_shape,
                noise_amplitude=args.noise_amplitude,
                seed=args.seed,
            )
            return cmd_synth(spec, args.start_period, Path(args.output))
        if args.command == "batch":
            if args.mode == "both":
                parser.error("batch does not accept --mode both")
            return cmd_batch(_manifest_from(args, list(args.inputs)))
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except (BasscastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    return EXIT_OK  # pragma: no cover


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
