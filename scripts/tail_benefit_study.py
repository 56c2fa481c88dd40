#!/usr/bin/env python3
"""Measure how much the tail-corrected variant helps on the default fixture family.

For each seed a mono-peak/plateau series is generated, the quadratic recursion
is fitted, and the auto-selected modified forecast is compared against the
classical one in simulated mode. Prints a per-seed table and a win summary.

Usage:
    python scripts/tail_benefit_study.py
    python scripts/tail_benefit_study.py --seeds 50 --svg-dir study_out
"""
import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from basscast import (
    MonoPeakSpec,
    compare_models,
    fit_quadratic,
    generate_mono_peak,
    profile,
    render_comparison_svg,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded instances")
    parser.add_argument("--mode", choices=("one_step", "simulated"), default="simulated")
    parser.add_argument("--svg-dir", default=None, help="also write a comparison SVG per seed")
    args = parser.parse_args()

    wins = 0
    improvements = []
    print(f"{'seed':>4} {'tail_per':>8} {'variant':>18} {'sse_classical':>14} "
          f"{'sse_modified':>14} {'improvement%':>12}")
    for seed in range(args.seeds):
        series = generate_mono_peak(MonoPeakSpec(seed=seed))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        report = compare_models(series, coeffs, tail, mode=args.mode)
        win = report.sse_modified < report.sse_classical
        wins += win
        improvements.append(report.improvement_percent)
        print(f"{seed:>4} {tail.tail_per:>8.3f} {report.variant_used.value:>18} "
              f"{report.sse_classical:>14.1f} {report.sse_modified:>14.1f} "
              f"{report.improvement_percent:>12.2f}")
        if args.svg_dir:
            out = Path(args.svg_dir)
            out.mkdir(parents=True, exist_ok=True)
            svg = render_comparison_svg(series, report.classical_predicted,
                                        report.modified_predicted, report)
            (out / f"seed_{seed:03d}.svg").write_text(svg, encoding="utf-8")

    print(f"\nstrict wins: {wins}/{args.seeds}")
    print(f"improvement: median {statistics.median(improvements):.2f}%  "
          f"min {min(improvements):.2f}%  max {max(improvements):.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
