"""Tests of the benchmark itself: tracer hygiene, self-time arithmetic, exact counts, smoke runs."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import LAYERS, Span, Tracer, covered_ns, self_times_ns, _basscast_modules  # noqa: E402

COUNTS = ("cli.bytes_written", "ingest.calls", "series.calls", "fitting.calls",
          "fitting.useful_ratio", "tail.calls", "forecast.calls", "forecast.failed",
          "evaluation.calls", "svgplot.calls", "svgplot.bytes")


def _bindings():
    return {(m.__name__, attr): value
            for m in _basscast_modules() for attr, value in vars(m).items() if callable(value)}


def test_tracer_restores_every_patched_name():
    import basscast.cli
    import basscast.fitting

    before = _bindings()
    tracer = Tracer()
    with tracer.active(0):
        patched = {(m.__name__, attr) for m, attr, _ in tracer._patched}
        assert {("basscast.cli", "fit_quadratic"), ("basscast.fitting", "fit_quadratic"),
                ("basscast", "fit_quadratic"), ("basscast.evaluation", "forecast"),
                ("basscast.forecast", "mean_demand")} <= patched
        assert basscast.cli.fit_quadratic is not before[("basscast.cli", "fit_quadratic")]
        assert basscast.cli.fit_quadratic.__wrapped__ is basscast.fitting.fit_quadratic.__wrapped__
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not tracer._patched


def test_tracer_restores_after_an_exception():
    import basscast.tail

    original = basscast.tail.profile
    with pytest.raises(ZeroDivisionError):
        with Tracer().active(0):
            1 / 0
    assert basscast.tail.profile is original


def test_covered_ns_takes_the_union_clipped_to_the_span():
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(10, 30), (20, 50)], 0, 100) == 40
    assert covered_ns([(90, 120), (-5, 5)], 0, 100) == 15
    assert covered_ns([(40, 60), (10, 20), (45, 50)], 0, 100) == 30


def test_self_time_is_span_minus_children():
    spans = [
        Span(0, "cli", "main", 0, None, 0, 100),
        Span(1, "evaluation", "compare_models", 0, 0, 10, 60),
        Span(2, "forecast", "forecast", 0, 1, 20, 50),
        Span(3, "series", "mean_demand", 0, 2, 20, 25),
        Span(4, "tail", "profile", 0, 0, 70, 80),
    ]
    assert self_times_ns(spans) == {0: 40, 1: 20, 2: 25, 3: 5, 4: 10}


def test_layers_name_real_functions():
    import importlib

    for layer, names in LAYERS.items():
        module = importlib.import_module(f"basscast.{layer}")
        assert all(callable(getattr(module, name)) for name in names)


def _traced(workload, tmp_path, seed=3):
    return run.run_workload(workload, seed, 0, True, tmp_path)


def test_layer_counts_repeat_exactly_between_traced_runs(tmp_path):
    first = _traced("batch-mixed", tmp_path / "a")
    second = _traced("batch-mixed", tmp_path / "b")
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    assert {k: first["per_layer"][k] for k in COUNTS} == {k: second["per_layer"][k] for k in COUNTS}
    assert first["payload_sha256"] == second["payload_sha256"]
    # The auto divergence bug must show in this workload.
    assert first["failed"] > 0 and first["per_layer"]["forecast.failed"] > 0


@pytest.mark.parametrize("workload", ["interactive", "long-series"])
def test_traced_smoke_run(workload, tmp_path):
    record = _traced(workload, tmp_path)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["per_layer"]["svgplot.calls"] == 0
    assert Path(record["spans_file"]).stat().st_size > 0


def test_command_line_prints_the_declared_metrics(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "interactive", "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert [m for m in result["metrics"]] == [m["name"] for m in declared[section]]
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
