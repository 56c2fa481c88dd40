import json
import xml.etree.ElementTree as ET

import pytest

from basscast import (
    BasscastError,
    DegeneratePlotError,
    DivergenceError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
    MonoPeakSpec,
    NonDiffusionShapeError,
    NoRealMarketSizeError,
    ParameterError,
    ShapeError,
    SingularFitError,
    UndefinedBaselineError,
    ValidationError,
    errors,
    generate_bass_series,
    generate_mono_peak,
    to_generic_csv,
)
from basscast.cli import _exit_code_for, main
from conftest import EXACT_COEFFS


def write_noiseless(path, n=30):
    path.write_text(to_generic_csv(generate_bass_series(EXACT_COEFFS, n)), encoding="utf-8")
    return path


def write_mono_peak(path, seed=0):
    path.write_text(
        to_generic_csv(generate_mono_peak(MonoPeakSpec(seed=seed))), encoding="utf-8"
    )
    return path


class TestFitCommand:
    def test_noiseless_fixture(self, tmp_path):
        csv_path = write_noiseless(tmp_path / "series.csv")
        code = main(["fit", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["a"] == pytest.approx(10.0, rel=1e-6)
        assert payload["b"] == pytest.approx(0.5, rel=1e-6)
        assert payload["c"] == pytest.approx(-0.001, rel=1e-6)
        assert payload["residual_sse"] < 1e-12
        assert payload["n_obs"] == 30
        assert payload["bass_parameters"]["m"] == pytest.approx(519.258, rel=1e-4)
        assert payload["derivation_error"] is None

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("period,demand\n", encoding="utf-8")
        code = main(["fit", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "no data rows" in capsys.readouterr().err

    def test_constant_demand_succeeds_with_flat_coefficients(self, tmp_path):
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text(
            "period,demand\n" + "".join(f"2020-{m:02d},5\n" for m in range(1, 6)),
            encoding="utf-8",
        )
        code = main(["fit", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["a"] == pytest.approx(5.0, abs=1e-9)
        assert payload["b"] == pytest.approx(0.0, abs=1e-12)
        assert payload["c"] == pytest.approx(0.0, abs=1e-14)
        assert payload["residual_sse"] == pytest.approx(0.0, abs=1e-18)
        # c lands within float noise of zero, so the diagnostic derivation may
        # land either side of the c < 0 gate; both outcomes are documented
        assert (payload["bass_parameters"] is None) == (
            payload["derivation_error"] is not None
        )

    def test_too_few_rows_exits_3(self, tmp_path):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("period,demand\n2020-01,1\n2020-02,2\n2020-03,3\n", encoding="utf-8")
        assert main(["fit", str(csv_path), "--output-dir", str(tmp_path)]) == 3

    def test_missing_input_exits_4(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path)]) == 4

    def test_utf8_bom_header_is_stripped(self, tmp_path):
        csv_path = write_noiseless(tmp_path / "series.csv")
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        code = main(["fit", str(csv_path), "--date-column", "period",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "fit.json").read_text())["n_obs"] == 30


class TestEvaluateCommand:
    def test_mono_peak_report(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        code = main(["evaluate", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["improvement_percent"] > 0.0
        assert report["mode"] == "simulated"
        assert report["variant_used"] in ("modified_add", "modified_subtract")
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "period,actual,classical,modified"
        assert len(lines) == 1 + 180

    def test_sse_pair_diagnostic(self, capsys):
        code = main([
            "evaluate",
            "--sse-pair", "22061.11", "14041.68",
            "--sse-pair", "179525.74", "37197.51",
            "--sse-pair", "301500362.4", "180145992.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        values = [float(line.split()[-1]) for line in out.strip().splitlines()]
        assert values[0] == pytest.approx(36.35, abs=0.01)
        assert values[1] == pytest.approx(79.3, abs=0.05)
        assert values[2] == pytest.approx(40.25, abs=0.01)

    def test_mode_both_reports_twice(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        code = main(["evaluate", str(csv_path), "--mode", "both",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"one_step", "simulated"}
        assert report["one_step"]["mode"] == "one_step"
        assert report["simulated"]["mode"] == "simulated"

    def test_forced_variant_flag(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        code = main(["evaluate", str(csv_path), "--variant", "modified_subtract",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["variant_used"] == "modified_subtract"

    def test_rerun_is_byte_identical(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        args = ["evaluate", str(csv_path), "--output-dir", str(tmp_path)]
        assert main(args) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("report.json", "predictions.csv")
        }
        assert main(args) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_input_required_without_sse_pair(self):
        with pytest.raises(SystemExit) as err:
            main(["evaluate"])
        assert err.value.code == 2


class TestForecastCommand:
    def test_horizon_extends_predictions(self, tmp_path):
        csv_path = write_noiseless(tmp_path / "series.csv")
        code = main(["forecast", str(csv_path), "--horizon", "12",
                     "--variant", "classical", "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "forecast.json").read_text())
        assert payload["variant_used"] == "classical"
        assert payload["correction_term"] == 0.0
        assert payload["horizon"] == 12
        assert payload["n_observed"] == 30
        assert len(payload["predicted"]) == 42
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "period,actual,predicted"
        assert len(lines) == 1 + 42
        # horizon rows have no actual value and continue the monthly calendar
        last_observed = lines[30].split(",")
        first_horizon = lines[31].split(",")
        assert last_observed[1] != ""
        assert first_horizon[1] == ""
        assert last_observed[0] == "2006-06"
        assert first_horizon[0] == "2006-07"

    def test_auto_variant_recorded(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        code = main(["forecast", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "forecast.json").read_text())
        assert payload["variant_used"] in ("classical", "modified_add", "modified_subtract")

    def test_non_month_labels_get_suffixes(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        rows = "".join(f"t{i:03d},{v}\n" for i, v in enumerate(
            [float(x) for x in range(1, 11)] + [5.0, 4.0, 3.0, 2.0]))
        csv_path.write_text("period,demand\n" + rows, encoding="utf-8")
        code = main(["forecast", str(csv_path), "--horizon", "2",
                     "--variant", "classical", "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[-2].startswith("t013+0001,")
        assert lines[-1].startswith("t013+0002,")


class TestPlotCommand:
    def test_writes_wellformed_svg(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        code = main(["plot", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / "compare.svg").read_text()
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3
        for line in polylines:
            assert len(line.get("points").split()) == 180

    def test_single_point_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("period,demand\n2020-01,5\n", encoding="utf-8")
        code = main(["plot", str(csv_path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "more data" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        csv_path = write_mono_peak(tmp_path / "series.csv")
        args = ["plot", str(csv_path), "--output-dir", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "compare.svg").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "compare.svg").read_bytes() == first


class TestSynthCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["synth", "--seed", "42", "--output", str(out1)]) == 0
        assert main(["synth", "--seed", "42", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sidecar_spec_json(self, tmp_path):
        out = tmp_path / "fixture.csv"
        assert main(["synth", "--seed", "9", "--peak-time", "30", "--n", "90",
                     "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "fixture.spec.json").read_text())
        assert sidecar["seed"] == 9
        assert sidecar["peak_time"] == 30
        assert sidecar["n"] == 90

    def test_generated_file_fits_cleanly(self, tmp_path):
        out = tmp_path / "fixture.csv"
        assert main(["synth", "--output", str(out)]) == 0
        assert main(["fit", str(out), "--output-dir", str(tmp_path)]) == 0

    def test_invalid_spec_exits_2(self, tmp_path):
        assert main(["synth", "--peak-time", "0",
                     "--output", str(tmp_path / "x.csv")]) == 2


class TestTrendsAndTransactionsFormats:
    def test_trends_format(self, tmp_path):
        rows = "".join(
            f"20{10 + i // 12:02d}-{i % 12 + 1:02d},{(i * 13) % 100}\n" for i in range(30)
        )
        csv_path = tmp_path / "trends.csv"
        csv_path.write_text(
            "Category: All categories\n\nMonth,widget: (Worldwide)\n" + rows,
            encoding="utf-8",
        )
        assert main(["fit", str(csv_path), "--format", "trends",
                     "--output-dir", str(tmp_path)]) == 0

    def test_transactions_format(self, tmp_path):
        rows = "timestamp,count\n" + "".join(
            f"201{6 + i % 3}-{i % 12 + 1:02d}-15,{i % 7}\n" for i in range(60)
        )
        csv_path = tmp_path / "tx.csv"
        csv_path.write_text(rows, encoding="utf-8")
        assert main(["fit", str(csv_path), "--format", "transactions",
                     "--output-dir", str(tmp_path)]) == 0


class TestBatchCommand:
    def test_batch_writes_one_directory_per_input(self, tmp_path, capsys):
        inputs = [str(write_mono_peak(tmp_path / f"s{i}.csv", seed=i)) for i in range(3)]
        code = main(["batch", *inputs, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        for i in range(3):
            report = json.loads((tmp_path / "out" / f"s{i}" / "report.json").read_text())
            assert report["improvement_percent"] >= 0.0
            assert (tmp_path / "out" / f"s{i}" / "compare.svg").exists()

    def test_batch_failure_propagates_code(self, tmp_path, capsys):
        good = str(write_mono_peak(tmp_path / "good.csv"))
        bad = tmp_path / "bad.csv"
        bad.write_text("period,demand\n2020-01,1\n", encoding="utf-8")
        code = main(["batch", good, str(bad), "--output-dir", str(tmp_path / "out")])
        assert code == 3  # too few observations to fit
        out = capsys.readouterr().out
        assert "good.csv: ok" in out
        assert "bad.csv: failed" in out

    @pytest.mark.parametrize("flags", [[], ["--mode", "one_step"], ["--clamp-nonnegative"],
                                       ["--variant", "modified_subtract"]])
    def test_payloads_match_separate_evaluate_and_plot(self, tmp_path, flags):
        inputs = [write_mono_peak(tmp_path / f"s{i}.csv", seed=i) for i in range(2)]
        assert main(["batch", *map(str, inputs), *flags,
                     "--output-dir", str(tmp_path / "batch")]) == 0
        for path in inputs:
            single = tmp_path / "single" / path.stem
            assert main(["evaluate", str(path), *flags, "--output-dir", str(single)]) == 0
            assert main(["plot", str(path), *flags, "--output-dir", str(single)]) == 0
            for name in ("report.json", "predictions.csv", "compare.svg"):
                assert (tmp_path / "batch" / path.stem / name).read_bytes() == (
                    single / name).read_bytes()

    def test_duplicate_stems_get_distinct_directories(self, tmp_path):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        a = write_mono_peak(d1 / "series.csv", seed=1)
        b = write_mono_peak(d2 / "series.csv", seed=2)
        code = main(["batch", str(a), str(b), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "series" / "report.json").exists()
        assert (tmp_path / "out" / "series_2" / "report.json").exists()

    def test_suffixed_stem_does_not_collide_with_a_repeat(self, tmp_path, capsys):
        inputs = []
        for directory, name, seed in (("a", "series", 1), ("b", "series", 2),
                                      ("c", "series_2", 3)):
            (tmp_path / directory).mkdir()
            inputs.append(write_mono_peak(tmp_path / directory / f"{name}.csv", seed=seed))
        out = tmp_path / "out"
        assert main(["batch", *map(str, inputs), "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["series", "series_2", "series_2_2"]
        for path, name in zip(inputs, ("series", "series_2", "series_2_2")):
            single = tmp_path / "single" / name
            assert main(["evaluate", str(path), "--output-dir", str(single)]) == 0
            assert (out / name / "report.json").read_bytes() == (
                single / "report.json").read_bytes()

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        path = str(write_mono_peak(tmp_path / "s.csv"))
        with pytest.raises(SystemExit) as err:
            main(["batch", path, "--jobs", "2", "--output-dir", str(tmp_path / "out")])
        assert err.value.code == 2


# The exit status each error maps to, pinned apart from the classes' own exit_code.
EXIT_CODES = {
    BasscastError: 2,
    FormatError: 2,
    ValidationError: 2,
    EmptyInputError: 2,
    ParameterError: 2,
    ShapeError: 2,
    DegeneratePlotError: 2,
    InsufficientDataError: 3,
    SingularFitError: 3,
    DivergenceError: 3,
    UndefinedBaselineError: 3,
    NonDiffusionShapeError: 3,
    NoRealMarketSizeError: 3,
    OSError: 4,
    FileNotFoundError: 4,
}


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_error_class_exit_code(cls):
    assert _exit_code_for(cls("boom")) == EXIT_CODES[cls]


def test_every_error_class_has_a_pinned_exit_code():
    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, BasscastError)}
    assert classes <= set(EXIT_CODES)


def test_help_smoke():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
