"""Command-line front end: ingest, fit, analyse the tail, forecast, evaluate, plot.

Subcommands
    fit        fit the demand recursion and write fit.json
    forecast   write forecast.json and a predictions CSV (optionally beyond the data)
    evaluate   compare classical vs modified and write report.json + predictions.csv
    plot       write a compare.svg chart of actual vs both predictions
    synth      generate a seeded mono-peak fixture CSV (+ sidecar spec JSON)
    batch      run the evaluate+plot pipeline over many inputs

Each subcommand takes only the flags it reads: fit takes the input flags,
forecast, evaluate, plot and batch add the model flags, forecast adds
--horizon, and only evaluate accepts --mode both.

Exit codes: 0 success, 2 input/format problem, 3 numeric/fit problem, 4 I/O problem.
All payload files are deterministic: identical inputs and flags give identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .errors import BasscastError, NonDiffusionShapeError, NoRealMarketSizeError
from .evaluation import EvaluationReport, compare_models, improvement_percent
from .fitting import QuadraticCoefficients, derive_bass_parameters, fit_quadratic
from .forecast import _MODES, ModelVariant, forecast
from .ingest import (
    LESS_THAN_ONE_POLICIES,
    csv_text,
    decode_utf8,
    parse_generic_csv,
    parse_google_trends_csv,
    parse_transactions_csv,
    to_generic_csv,
)
from .series import DEFAULT_START_PERIOD, TimeSeries, extend_period_labels
from .svgplot import _check_points, render_comparison_svg
from .synthetic import MonoPeakSpec, generate_mono_peak
from .tail import TailProfile, profile

EXIT_OK = 0
EXIT_IO = 4

_FORMATS = ("generic", "trends", "transactions")


def load_series(path: str | Path, args: argparse.Namespace) -> TimeSeries:
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read())
    if args.format == "trends":
        return parse_google_trends_csv(text, args.less_than_one)
    if args.format == "transactions":
        return parse_transactions_csv(text)
    return parse_generic_csv(text, args.date_column, args.value_column)


def _write(out: Path, payloads: dict[str, str]) -> None:
    """Make the directory ``out`` once, then write each {file name: text} payload in order."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in payloads.items():
        path = out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _fit_payload(series: TimeSeries) -> dict:
    coeffs = fit_quadratic(series)
    payload = {**asdict(coeffs), "bass_parameters": None, "derivation_error": None}
    try:
        payload["bass_parameters"] = asdict(derive_bass_parameters(coeffs))
    except NonDiffusionShapeError:
        payload["derivation_error"] = "non_diffusion_shape"
    except NoRealMarketSizeError:
        payload["derivation_error"] = "no_real_market_size"
    return payload


def cmd_fit(args: argparse.Namespace) -> int:
    series = load_series(args.input, args)
    _write(args.output_dir, {"fit.json": _json(_fit_payload(series))})
    return EXIT_OK


def _fitted(series: TimeSeries) -> tuple[QuadraticCoefficients, TailProfile]:
    """The coefficients and tail profile that forecast and compare_models take after the series."""
    return fit_quadratic(series), profile(series)


def cmd_forecast(args: argparse.Namespace) -> int:
    series = load_series(args.input, args)
    coeffs, tail = _fitted(series)
    # The labels can fail (past 9999-12 or +9999), so they come before the horizon is generated.
    labels = list(series.periods) + extend_period_labels(series.periods, args.horizon)
    result = forecast(series, coeffs, tail, mode=args.mode, variant=args.variant,
                      clamp_nonnegative=args.clamp_nonnegative, horizon=args.horizon)
    _write(args.output_dir, {
        "forecast.json": _json({
            "variant_used": result.variant_used.value,
            "correction_term": result.candidates[result.variant_used].correction,
            "mode": args.mode,
            "horizon": args.horizon,
            "clamp_nonnegative": args.clamp_nonnegative,
            "n_observed": len(series),
            "predicted": result.predicted.tolist(),
        }),
        "predictions.csv": csv_text(("period", "actual", "predicted"), labels,
                                    series.demands, result.predicted),
    })
    return EXIT_OK


def _compare(series: TimeSeries, args: argparse.Namespace,
             modes: tuple[str, ...]) -> list[EvaluationReport]:
    """Fit and profile the series once, then compare the models in each mode."""
    coeffs, tail = _fitted(series)
    return [compare_models(series, coeffs, tail, mode=mode, variant=args.variant,
                           clamp_nonnegative=args.clamp_nonnegative) for mode in modes]


def _evaluation_files(*reports: EvaluationReport) -> dict[str, str]:
    """report.json (one object per mode when there are two) and predictions.csv, from the reports.

    With one mode, the report's improvement line is printed here, before any file is written.
    """
    report = reports[-1]  # whose curves predictions.csv holds: simulated's, with --mode both
    if len(reports) > 1:
        payload = {r.mode: r.to_dict() for r in reports}
    else:
        payload = report.to_dict()
        print(f"improvement_percent {report.improvement_percent!r} "
              f"(variant {report.variant_used.value})")
    return {"report.json": _json(payload), "predictions.csv": csv_text(
        ("period", "actual", "classical", "modified"), report.series.periods,
        report.series.demands, report.classical_predicted, report.modified_predicted)}


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.sse_pair:
        for classical, modified in args.sse_pair:
            print(f"improvement_percent {improvement_percent(classical, modified)!r}")
        return EXIT_OK
    series = load_series(args.input, args)
    modes = _MODES if args.mode == "both" else (args.mode,)
    _write(args.output_dir, _evaluation_files(*_compare(series, args, modes)))
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    series = load_series(args.input, args)
    _check_points(series)  # before the fit, whose length rule would exit 3
    (report,) = _compare(series, args, (args.mode,))
    _write(args.output_dir, {"compare.svg": render_comparison_svg(report)})
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = MonoPeakSpec(**{f.name: getattr(args, f.name) for f in fields(MonoPeakSpec)})
    series = generate_mono_peak(spec, start_period=args.start_period)
    # parent / name is the path as given; a name-less "", "." or "/" then fails to open (exit 4).
    _write(args.output.parent, {
        args.output.name: to_generic_csv(series),
        f"{args.output.stem}.spec.json": _json({**asdict(spec), "start_period": args.start_period}),
    })
    return EXIT_OK


def _batch_one(args: argparse.Namespace, path: str, out_dir: Path) -> tuple[int, str]:
    """evaluate and plot as one pass (one parse, fit, profile, comparison): (code, status)."""
    try:
        (report,) = _compare(load_series(path, args), args, (args.mode,))
        _write(out_dir, {**_evaluation_files(report),
                         "compare.svg": render_comparison_svg(report)})
    except (BasscastError, OSError) as exc:
        return _exit_code_for(exc), f"failed: {exc}"
    return EXIT_OK, "ok"


def _output_names(inputs: list[str]) -> list[str]:
    """One distinct directory name per input: its stem, or stem_k for the k-th repeat.

    A stem that is empty, "." or ".." (as of "...csv", which would name the
    output directory's parent) is "input". The k is raised past any name
    already taken, so a.csv, a.csv, a_2.csv give a, a_2 and a_2_2 rather
    than two inputs sharing a_2.
    """
    taken: set[str] = set()
    names = []
    for path in inputs:
        stem = Path(path).stem
        if stem in ("", ".", ".."):
            stem = "input"
        name, k = stem, 1
        while name in taken:
            k += 1
            name = f"{stem}_{k}"
        taken.add(name)
        names.append(name)
    return names


def cmd_batch(args: argparse.Namespace) -> int:
    results = [_batch_one(args, path, args.output_dir / name)
               for path, name in zip(args.inputs, _output_names(args.inputs))]
    exit_code = EXIT_OK
    for path, (code, status) in zip(args.inputs, results):
        print(f"{path}: {status}")
        exit_code = exit_code or code  # the first failing input's code
    return exit_code


def _exit_code_for(exc: BasscastError | OSError) -> int:
    return exc.exit_code if isinstance(exc, BasscastError) else EXIT_IO


def _column_selector(raw: str) -> str | int:
    return int(raw) if re.fullmatch(r"[+-]?[0-9]+", raw) else raw


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="generic",
                        help="input file format (default: generic)")
    parser.add_argument("--less-than-one", choices=LESS_THAN_ONE_POLICIES, default="as_half",
                        help="mapping for censored '<1' trend cells (default: as_half)")
    parser.add_argument("--date-column", type=_column_selector, default="0",
                        help="generic CSV period column, name or 0-based index (default: 0)")
    parser.add_argument("--value-column", type=_column_selector, default="1",
                        help="generic CSV demand column, name or 0-based index (default: 1)")
    parser.add_argument("--output-dir", type=Path, default=".", help="directory for output files")


def _add_model_flags(parser: argparse.ArgumentParser, modes: tuple[str, ...]) -> None:
    parser.add_argument("--variant",
                        choices=[v.value for v in ModelVariant], default="auto",
                        help="forecast variant (default: auto = lowest in-sample SSE)")
    parser.add_argument("--mode", choices=modes, default="simulated",
                        help="prediction mode (default: simulated)")
    parser.add_argument("--clamp-nonnegative", action="store_true",
                        help="floor predictions at zero before accumulation")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree, built on the first call and shared by every later one.

    Parsing reads the tree and never changes it, so one tree serves every
    ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="basscast",
        description="Demand-curve fitting and forecasting with tail-corrected "
                    "diffusion variants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the demand recursion and write fit.json")
    p.add_argument("input", help="input CSV file")
    _add_input_flags(p)
    p.set_defaults(run=cmd_fit)

    p = sub.add_parser("forecast", help="write forecast.json and predictions.csv")
    p.add_argument("input", help="input CSV file")
    _add_input_flags(p)
    _add_model_flags(p, _MODES)
    p.add_argument("--horizon", type=int, default=0,
                   help="periods to predict beyond the data (default: 0)")
    p.set_defaults(run=cmd_forecast)

    p = sub.add_parser("evaluate", help="compare classical vs modified, write report.json")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="input CSV file (omit with --sse-pair)")
    source.add_argument("--sse-pair", nargs=2, type=float, action="append",
                        metavar=("CLASSICAL", "MODIFIED"),
                        help="print the improvement percentage for a raw SSE pair and exit")
    _add_input_flags(p)
    _add_model_flags(p, (*_MODES, "both"))
    p.set_defaults(run=cmd_evaluate)

    p = sub.add_parser("plot", help="write compare.svg for actual vs predictions")
    p.add_argument("input", help="input CSV file")
    _add_input_flags(p)
    _add_model_flags(p, _MODES)
    p.set_defaults(run=cmd_plot)

    p = sub.add_parser("synth", help="generate a seeded mono-peak fixture CSV")
    p.add_argument("--n", type=int, help="series length (default: %(default)s)")
    p.add_argument("--peak-time", type=int, help="peak index (default: %(default)s)")
    p.add_argument("--peak-height", type=float, help="demand at the peak (default: %(default)g)")
    p.add_argument("--decay-rate", type=float,
                   help="exponential fall rate after the peak (default: %(default)g)")
    p.add_argument("--plateau-level", type=float, help="tail asymptote (default: %(default)g)")
    p.add_argument("--rise-shape", type=float,
                   help="pre-peak power-curve exponent (default: %(default)g)")
    p.add_argument("--noise-amplitude", type=float,
                   help="uniform noise half-width (default: 2%% of peak height)")
    p.add_argument("--seed", type=int, help="generator seed (default: %(default)s)")
    p.add_argument("--start-period", help="first YYYY-MM label (default: %(default)s)")
    p.add_argument("--output", type=Path, default="mono_peak.csv", help="output CSV path")
    # The spec's own field defaults are the flags' defaults.
    p.set_defaults(run=cmd_synth, start_period=DEFAULT_START_PERIOD,
                   **{f.name: f.default for f in fields(MonoPeakSpec)})

    p = sub.add_parser("batch", help="evaluate + plot many inputs, one subdirectory each")
    p.add_argument("inputs", nargs="+", help="input CSV files")
    _add_input_flags(p)
    _add_model_flags(p, _MODES)
    p.set_defaults(run=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (BasscastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
