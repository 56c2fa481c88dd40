"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline). Every tolerance is pinned here; nothing is deferred to calibration.
"""
import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from basscast import (
    ModelVariant,
    MonoPeakSpec,
    QuadraticCoefficients,
    TimeSeries,
    compare_models,
    compute_ratios,
    fit_quadratic,
    forecast,
    generate_mono_peak,
    improvement_percent,
    mean_demand,
    profile,
    parse_google_trends_csv,
    parse_transactions_csv,
)
from basscast.synthetic import SplitMix64
from basscast.cli import main
from conftest import generate_bass_series
from oracles import group_by_month, normal_equations_fit, scan_tail_start


def ok(cid: str, message: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS - {message}")


def test_c1_improvement_percentage_reproduction():
    """The three reference SSE pairs reproduce their recorded reductions to +/-0.05pp."""
    pairs = [
        (22_061.11, 14_041.68, 36.35),
        (179_525.74, 37_197.51, 79.3),
        (301_500_362.4, 180_145_992.2, 40.25),
    ]
    for classical, modified, expected in pairs:
        got = improvement_percent(classical, modified)
        assert got == pytest.approx(expected, abs=0.05), (classical, modified)
    ok("C1", "improvement percentages 36.35 / 79.3 / 40.25 reproduced within 0.05pp")


def test_c2_absolute_sse_reproduction_is_out_of_scope():
    """Absolute SSE magnitudes from the source datasets are not reproducible here.

    The underlying Trends extracts and the transaction-log preprocessing are
    not available, so no test asserts absolute SSE values; criteria C3-C9 are
    the substituted property-based checks.
    """
    ok("C2", "absolute SSE reproduction intentionally substituted by C3-C9")


def test_c3_ols_exactness_against_extended_precision_oracle():
    start = time.perf_counter()
    coeffs = QuadraticCoefficients(a=10.0, b=0.5, c=-0.001, residual_sse=0.0, n_obs=0)
    series = generate_bass_series(coeffs, 30)
    fit = fit_quadratic(series)
    for got, want in ((fit.a, 10.0), (fit.b, 0.5), (fit.c, -0.001)):
        assert abs(got - want) / abs(want) < 1e-6
    assert fit.residual_sse < 1e-12

    rng = SplitMix64(20240809)
    for _ in range(100):
        a = 5.0 + 45.0 * rng.next_float()
        q = 0.2 + 0.4 * rng.next_float()
        m = 300.0 + 3000.0 * rng.next_float()
        base = generate_bass_series(
            QuadraticCoefficients(a=a, b=q - a / m, c=-q / m, residual_sse=0.0, n_obs=0), 50
        )
        mean = float(np.mean(base.demands))
        noisy = TimeSeries(
            base.periods,
            [v + (rng.next_float() - 0.5) * 0.1 * mean for v in base.demands],
        )
        got = fit_quadratic(noisy)
        ea, eb, ec, _ = normal_equations_fit(noisy.demands)
        for g, e in ((got.a, ea), (got.b, eb), (got.c, ec)):
            assert abs(g - e) / abs(e) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion budget exceeded: {elapsed:.2f}s"
    ok("C3", f"noiseless refit to 1e-6 and 100 oracle comparisons to 1e-8 in {elapsed:.2f}s")


def test_c4_ratio_formula_exactness_on_grid():
    for k in range(1001):
        tail_per = k / 1000
        r1, r2 = compute_ratios(tail_per)
        assert abs(r1 - (tail_per - 0.5) * 1.6) < 1e-12
        assert abs(r2 - (0.5 - (tail_per - 0.5) * 1.6)) < 1e-12
        assert r1 + r2 == 0.5
    ok("C4", "ratios match the formulas to 1e-12 and r1 + r2 == 0.5 on all 1001 grid points")


def test_c5_tail_detection_matches_oracle_and_closed_form():
    rng = SplitMix64(5)
    for trial in range(200):
        n = 60 + int(rng.next_float() * 100)
        peak_time = 8 + int(rng.next_float() * 22)
        peak_height = 50.0 + 100.0 * rng.next_float()
        spec = MonoPeakSpec(
            n=n,
            peak_time=peak_time,
            peak_height=peak_height,
            decay_rate=0.15 + 0.75 * rng.next_float(),
            plateau_level=0.4 * peak_height * rng.next_float(),
            rise_shape=1.0 + 2.0 * rng.next_float(),
            noise_amplitude=0.02 * peak_height * rng.next_float(),
            seed=trial,
        )
        series = generate_mono_peak(spec)
        assert profile(series).tail_start_index == scan_tail_start(series.demands, 0.5), spec

        quiet = generate_mono_peak(
            MonoPeakSpec(**{**spec.__dict__, "noise_amplitude": 0.0})
        )
        ratio = (0.5 * spec.peak_height - spec.plateau_level) / (
            spec.peak_height - spec.plateau_level
        )
        analytic = min(spec.peak_time + math.ceil(-math.log(ratio) / spec.decay_rate), spec.n)
        assert abs(profile(quiet).tail_start_index - analytic) <= 1, spec
    ok("C5", "200 randomized fixtures match the scan oracle exactly; noiseless within 1 period")


def test_c6_modified_model_benefit_on_default_family():
    start = time.perf_counter()
    strict_wins = 0
    for seed in range(20):
        series = generate_mono_peak(MonoPeakSpec(seed=seed))
        coeffs = fit_quadratic(series)
        tail = profile(series)
        assert tail.tail_per >= 0.6
        report = compare_models(series, coeffs, tail, mode="simulated")
        assert report.improvement_percent >= 0.0, seed
        if (
            report.variant_used is not ModelVariant.CLASSICAL
            and report.sse_modified < report.sse_classical
        ):
            strict_wins += 1
    elapsed = time.perf_counter() - start
    assert strict_wins >= 18, f"only {strict_wins}/20 strict wins"
    assert elapsed < 5.0, f"criterion budget exceeded: {elapsed:.2f}s"
    ok("C6", f"modified variant strictly beat classical on {strict_wins}/20 seeds "
             f"in {elapsed:.2f}s")


def test_c7_one_step_constant_offset_invariant():
    rng = SplitMix64(7)
    for trial in range(10):
        spec = MonoPeakSpec(
            peak_time=10 + int(rng.next_float() * 30),
            decay_rate=0.2 + 0.6 * rng.next_float(),
            plateau_level=5.0 + 20.0 * rng.next_float(),
            seed=trial,
        )
        series = generate_mono_peak(spec)
        coeffs = fit_quadratic(series)
        tail = profile(series)
        mean = mean_demand(series)
        classical = forecast(series, coeffs, tail,
                             mode="one_step", variant=ModelVariant.CLASSICAL)
        for variant, corr in (
            (ModelVariant.MODIFIED_ADD, tail.r1 * mean),
            (ModelVariant.MODIFIED_SUBTRACT, -(tail.r2 * mean)),
        ):
            modified = forecast(series, coeffs, tail,
                                mode="one_step", variant=variant)
            gap = np.abs(modified.predicted - classical.predicted - corr).max()
            assert gap < 1e-12, (trial, variant)

    # tail_per exactly 0.5 makes r1 zero: the additive variant IS classical, bitwise
    series = TimeSeries(
        tuple(f"2020-{m:02d}" for m in range(1, 11)),
        [1, 2, 10, 6, 6, 4, 4, 4, 4, 4],
    )
    tail = profile(series)
    assert tail.tail_per == 0.5 and tail.r1 == 0.0
    coeffs = fit_quadratic(series)
    classical = forecast(series, coeffs, tail,
                         mode="one_step", variant=ModelVariant.CLASSICAL)
    added = forecast(series, coeffs, tail,
                     mode="one_step", variant=ModelVariant.MODIFIED_ADD)
    assert np.array_equal(classical.predicted, added.predicted)
    ok("C7", "one-step offsets exact to 1e-12; zero-correction collapse is bitwise")


def test_c8_pipeline_round_trip_and_determinism(tmp_path):
    fixture = tmp_path / "fixture.csv"
    out = tmp_path / "out"
    assert main(["synth", "--n", "228", "--seed", "42", "--output", str(fixture)]) == 0

    start = time.perf_counter()
    assert main(["fit", str(fixture), "--output-dir", str(out)]) == 0
    assert main(["evaluate", str(fixture), "--output-dir", str(out)]) == 0
    assert main(["plot", str(fixture), "--output-dir", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"228-point pipeline took {elapsed:.2f}s"

    first = {
        name: (out / name).read_bytes()
        for name in ("fit.json", "report.json", "predictions.csv", "compare.svg")
    }
    assert main(["fit", str(fixture), "--output-dir", str(out)]) == 0
    assert main(["evaluate", str(fixture), "--output-dir", str(out)]) == 0
    assert main(["plot", str(fixture), "--output-dir", str(out)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name

    fixture2 = tmp_path / "fixture2.csv"
    assert main(["synth", "--n", "228", "--seed", "42", "--output", str(fixture2)]) == 0
    assert fixture2.read_bytes() == fixture.read_bytes()

    report = json.loads((out / "report.json").read_text())
    assert report["improvement_percent"] >= 0.0
    svg_root = ET.fromstring((out / "compare.svg").read_text())
    assert len(svg_root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3
    ok("C8", f"synth/ingest/fit/evaluate/plot deterministic; 228-point run in {elapsed:.2f}s")


def test_c9_ingestion_conservation_and_policy_mapping():
    rng = SplitMix64(9)
    rows = []
    for _ in range(10_000):
        year = 2016 + int(rng.next_float() * 7)
        month = 1 + int(rng.next_float() * 12)
        day = 1 + int(rng.next_float() * 28)
        rows.append((f"{year:04d}-{month:02d}-{day:02d}", int(rng.next_float() * 25)))
    text = "timestamp,count\n" + "".join(f"{stamp},{count}\n" for stamp, count in rows)
    series = parse_transactions_csv(text)
    total_in = sum(count for _, count in rows)
    assert float(np.sum(series.demands)) == total_in
    oracle = group_by_month(rows)
    for label, value in zip(series.periods, series.demands):
        assert value == oracle.get(label, 0.0)

    header = "Month,thing: (Worldwide)\n"
    for policy, mapped in (("as_half", 0.5), ("as_zero", 0.0), ("as_one", 1.0)):
        parsed = parse_google_trends_csv(header + "2010-01,<1\n2010-02,7\n", less_than_one=policy)
        assert parsed.demands[0] == mapped
        assert 0.0 <= parsed.demands[0] <= 1.0
    ok("C9", "10k-row aggregation conserves totals; '<1' policies map to 0.5 / 0 / 1")
