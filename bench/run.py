"""Benchmark of the basscast command line, driven in-process on seeded fixtures.

    python3 bench/run.py --workload interactive --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each op is one ``basscast.cli.main([...])`` call on fixtures made from
``--seed``; its payload files are checked after every op. With ``--trace 0``
the last line of standard output carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run and the spans go to a side file. ``--workload all`` runs every
workload, each in its own process. See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fixtures, payloads, bytecode and side files; inside the checkout, git-ignored.
OUT = ROOT / ".bench_out"
WORKLOADS = ("interactive", "batch-mixed", "long-series")

# At least 100 timed ops, so that 10 op times lie beyond op_ms_p90.
MIN_OPS = 100
SETUP_SPAWNS = 11
SETUP_CODE = "import basscast.cli as cli; cli.build_parser()"
EXIT_NUMERIC = 3


@dataclass
class Input:
    path: Path
    n: int
    # mode -> (sse_classical, sse_modified) from a direct compare_models call,
    # or None when that call raised DivergenceError.
    expected: dict[str, tuple[float, float] | None]

    @property
    def diverges(self) -> bool:
        return None in self.expected.values()


@dataclass
class Op:
    argv: list[str]
    inputs: list[Input]
    batch: bool = False


@dataclass
class OpResult:
    seconds: float
    ok: int
    failed: int
    problems: list[str]
    digest: str
    payload_bytes: int


@dataclass
class Measurement:
    reference: list[OpResult]
    plain: list[OpResult] = field(default_factory=list)
    traced: list[OpResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _fixture(directory: Path, name: str, spec, modes: tuple[str, ...]) -> Input:
    from basscast import (DivergenceError, compare_models, fit_quadratic, generate_mono_peak,
                          parse_generic_csv, profile, to_generic_csv)

    text = to_generic_csv(generate_mono_peak(spec))
    path = directory / f"{name}.csv"
    path.write_text(text, encoding="utf-8")
    series = parse_generic_csv(text)
    coeffs, tail = fit_quadratic(series), profile(series)
    expected = {}
    for mode in modes:
        try:
            report = compare_models(series, coeffs, tail, mode=mode)
        except DivergenceError:
            expected[mode] = None
        else:
            expected[mode] = (report.sse_classical, report.sse_modified)
    return Input(path, len(series), expected)


def build_pool(workload: str, seed: int, directory: Path) -> list[Op]:
    """The ops of one pass; op k uses fixture seed ``seed * 1000 + k``."""
    from basscast import MonoPeakSpec

    directory.mkdir(parents=True, exist_ok=True)
    base = seed * 1000
    if workload == "interactive":
        # The analyst's one-series command on the paper-like default family.
        return [
            Op(["evaluate", str(inp.path)], [inp])
            for k in range(32)
            for inp in [_fixture(directory, f"i{k}", MonoPeakSpec(seed=base + k), ("simulated",))]
        ]
    if workload == "batch-mixed":
        # Half of this grid hits the auto divergence bug today; it is kept so that shows.
        ops = []
        for k in range(4):
            inputs = [
                _fixture(directory, f"g{k}_n{n}_p{peak}",
                         MonoPeakSpec(n=n, peak_time=peak, seed=base + k), ("simulated",))
                for n in (180, 360, 720, 1500) for peak in (12, 24, 60)
            ]
            ops.append(Op(["batch", *(str(i.path) for i in inputs)], inputs, batch=True))
        return ops
    if workload == "long-series":
        # The default shape stretched in time to n points. One length for every
        # op keeps the op times of a run unimodal, so their median is steadier.
        d, n = MonoPeakSpec(), 2000
        ops = []
        for k in range(6):
            spec = MonoPeakSpec(n=n, peak_time=n * d.peak_time // d.n,
                                decay_rate=d.decay_rate * d.n / n, seed=base + k)
            inp = _fixture(directory, f"l{k}", spec, ("one_step", "simulated"))
            ops.append(Op(["evaluate", str(inp.path), "--mode", "both"], [inp]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _check_payload(inp: Input, where: Path, batch: bool) -> list[str]:
    problems = []
    name = inp.path.name
    report = json.loads((where / "report.json").read_text(encoding="utf-8"))
    by_mode = report if len(inp.expected) > 1 else {next(iter(inp.expected)): report}
    for mode, want in inp.expected.items():
        got = by_mode.get(mode, {})
        sse = (got.get("sse_classical"), got.get("sse_modified"))
        if sse != want:
            problems.append(f"{name} {mode}: report SSEs {sse} differ from compare_models {want}")
        elif sse[1] > sse[0]:
            problems.append(f"{name} {mode}: auto kept sse_modified {sse[1]} > classical {sse[0]}")
    rows = (where / "predictions.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) != inp.n + 1:
        problems.append(f"{name}: predictions.csv has {len(rows)} rows, expected {inp.n + 1}")
    if batch:
        try:
            ET.fromstring((where / "compare.svg").read_bytes())
        except ET.ParseError as exc:
            problems.append(f"{name}: compare.svg is not XML: {exc}")
    return problems


def check_outputs(op: Op, out: Path, code: int) -> tuple[int, int, list[str]]:
    """(inputs ok, inputs failed, problems). A known DivergenceError is a failure, not a problem."""
    ok = failed = 0
    problems: list[str] = []
    names = ("report.json", "predictions.csv") + (("compare.svg",) if op.batch else ())
    for inp in op.inputs:
        where = out / inp.path.stem if op.batch else out
        if not all((where / name).is_file() for name in names):
            failed += 1
            if not inp.diverges:
                problems.append(f"{inp.path.name}: payload missing")
            continue
        found = _check_payload(inp, where, op.batch)
        if inp.diverges:
            found.append(f"{inp.path.name}: payload written although compare_models diverges")
        problems += found
        if found:
            failed += 1
        else:
            ok += 1
    want = EXIT_NUMERIC if any(inp.diverges for inp in op.inputs) else 0
    if code != want:
        problems.append(f"exit code {code}, expected {want}")
    return ok, failed, problems


def payload_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every payload file (relative path, length, bytes) and their total size."""
    digest = hashlib.sha256()
    size = 0
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    for path in files:
        data = path.read_bytes()
        size += len(data)
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest(), size


def run_op(cli, op: Op, out: Path, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
    shutil.rmtree(out, ignore_errors=True)
    argv = [*op.argv, "--output-dir", str(out)]
    trace = tracer.active(op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), trace:
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    ok, failed, problems = check_outputs(op, out, code)
    digest, size = payload_digest(out)
    return OpResult(seconds, ok, failed, problems, digest, size)


def measure(cli, pool: list[Op], out: Path, seconds: float, tracer: Tracer | None) -> Measurement:
    """One untimed pass, then whole passes until ``seconds`` have gone by.

    With a tracer every op runs twice in a row, untraced then traced, so the
    two op-time samples see the same inputs and the same machine state.
    """
    m = Measurement(reference=[run_op(cli, op, out) for op in pool])
    m.problems += [p for r in m.reference for p in r.problems]
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        for k, op in enumerate(pool):
            for results, t in [(m.plain, None)] + ([(m.traced, tracer)] if tracer else []):
                r = run_op(cli, op, out, t, op_id)
                op_id += 1
                if r.digest != m.reference[k].digest:
                    r.problems.append(f"op {k}: payload bytes differ from the first pass")
                m.problems += r.problems
                results.append(r)
        if time.perf_counter() >= deadline and (tracer or len(m.plain) >= MIN_OPS):
            return m


def measure_setup(out: Path) -> float:
    """Median wall time for a fresh interpreter to import basscast.cli and build its parser."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(out / "pycache"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    quiet = dict(env=env, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **quiet)  # fills the bytecode cache; users run with theirs warm
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, **quiet)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _op_times(results: list[OpResult]) -> tuple[float, float]:
    ms = sorted(r.seconds * 1e3 for r in results)
    return statistics.median(ms), ms[math.ceil(0.9 * len(ms)) - 1]


def end_to_end(results: list[OpResult]) -> dict[str, float]:
    p50, p90 = _op_times(results)
    ok = sum(r.ok for r in results)
    attempted = ok + sum(r.failed for r in results)
    return {
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ok_per_s": ok / sum(r.seconds for r in results),
        "failed_frac": 1 - ok / attempted,
    }


def per_layer(tracer: Tracer, traced: list[OpResult]) -> dict[str, float]:
    """Every layer total divided by the number of traced ops."""
    ops = len(traced)
    totals = layer_totals(tracer.spans)
    metrics = {f"{layer}.{key}": value / ops
               for layer, t in totals.items() for key, value in t.items()}
    metrics["cli.bytes_written"] = sum(r.payload_bytes for r in traced) / ops
    fits = totals["fitting"]["calls"]
    inputs = sum(r.ok + r.failed for r in traced)
    metrics["fitting.useful_ratio"] = inputs / fits if fits else 0.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measure one workload in this process and return everything it found."""
    import numpy
    import basscast
    from basscast import cli

    record: dict = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seed": seed,
            "basscast_file": basscast.__file__,
        },
    }
    setup_s = None if trace else measure_setup(out)
    pool = build_pool(workload, seed, out / workload / "inputs")
    tracer = Tracer() if trace else None
    m = measure(cli, pool, out / workload / "payload", seconds, tracer)
    measured = m.plain + m.traced
    record["ops"] = len(m.plain)
    record["attempted"] = sum(r.ok + r.failed for r in measured)
    record["failed"] = sum(r.failed for r in measured)
    record["payload_sha256"] = hashlib.sha256(
        "".join(r.digest for r in m.reference).encode()).hexdigest()
    record["end_to_end"] = end_to_end(m.plain)
    if trace:
        record["traced_ops"] = len(m.traced)
        record["per_layer"] = per_layer(tracer, m.traced)
        untraced, traced = record["end_to_end"]["op_ms_p50"], _op_times(m.traced)[0]
        record["tracing"] = {"untraced_op_ms_p50": untraced, "traced_op_ms_p50": traced,
                             "overhead_frac": traced / untraced - 1}
        record["spans_file"] = str(out / f"{workload}-spans.jsonl")
        with open(record["spans_file"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    else:
        record["end_to_end"]["setup_s"] = setup_s
        record["end_to_end"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    record["problems"] = m.problems
    record["correct"] = not m.problems
    return record


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(record: dict) -> dict:
    """Print the record for a reader; return the result line for BENCHMARK.json's metrics."""
    declared = _declared()
    trace = record["trace"]
    specs = declared["per_layer"] if trace else declared["end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    env = record["env"]
    print(f"# workload {record['workload']}  seed {env['seed']}  trace {trace}  "
          f"ops {record['ops']}  inputs {record['attempted']}  failed {record['failed']}")
    print(f"# nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"basscast {env['basscast_file']}")
    print(f"# payload sha256 {record['payload_sha256']}")
    shown = [(s["name"], s["unit"], s["better"]) for s in specs]
    if not trace:
        shown.append(("failed_frac", "1", "lower"))
    for name, unit, better in shown:
        print(f"{name:<22} {values[name]:>14.6g} {unit:<6} {better} is better")
    if trace:
        t = record["tracing"]
        print(f"# tracing overhead: op_ms_p50 {t['traced_op_ms_p50']:.4g} traced vs "
              f"{t['untraced_op_ms_p50']:.4g} untraced ({t['overhead_frac']:+.1%})")
        print(f"# spans: {record['spans_file']}")
    for problem in record["problems"][:20]:
        print(f"# check failed: {problem}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        traces = (0, 1) if args.trace else (0,)
        for workload in WORKLOADS:
            for trace in traces:
                code = subprocess.run([
                    sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]).returncode
                if code:
                    return code
        return 0

    if not (SRC / "basscast" / "__init__.py").is_file():
        print(f"error: no basscast sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import basscast

    if Path(basscast.__file__).resolve() != (SRC / "basscast" / "__init__.py").resolve():
        print(f"error: basscast imported from {basscast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    result = report(record)
    side = OUT / f"{args.workload}-trace{args.trace}.json"
    side.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# record: {side}")
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # Cached bytecode goes to the benchmark's own directory, not under src/, and is
    # written even where PYTHONDONTWRITEBYTECODE is set, as the spawns in measure_setup do.
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    sys.exit(main())
