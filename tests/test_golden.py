"""Golden payloads: the CLI's output bytes and exit codes over a small seeded matrix.

Each case runs ``basscast.cli.main`` in-process on seeded mono-peak fixtures,
written as generic CSV or, for the ingest cases, as a transactions log, a
Trends export, a CSV with named columns, or generic CSVs with CRLF line
ends, quoted labels or blank lines. It compares the SHA-256 of every
payload file it writes, its exit code and its stderr to the constants below.
Regenerate the constants only in a change that states why the bytes change.
The fit goes through LAPACK's SVD, so another BLAS build may change last
digits and with them these digests.
"""
import contextlib
import hashlib
import io

import pytest

from basscast import MonoPeakSpec, generate_mono_peak, to_generic_csv
from basscast.cli import main
from basscast.synthetic import SplitMix64

# n=360 with peak 12 makes a modified candidate diverge, so auto exits 3 on it.
FIXTURES = {
    "n180": MonoPeakSpec(n=180, peak_time=24),
    "n360": MonoPeakSpec(n=360, peak_time=12),
}

COMMANDS = {
    "evaluate": ["evaluate"],
    "evaluate_both": ["evaluate", "--mode", "both"],
    "evaluate_subtract_clamped": ["evaluate", "--variant", "modified_subtract",
                                  "--clamp-nonnegative"],
    "forecast_h24": ["forecast", "--horizon", "24"],
    "forecast_one_step_add_h5": ["forecast", "--mode", "one_step", "--variant", "modified_add",
                                 "--horizon", "5"],
    "plot": ["plot"],
}

CASES = [(command, fixture) for command in COMMANDS for fixture in FIXTURES] + [("batch", None)]


def run_case(tmp_path, command, fixture):
    """Exit code, stderr and {relative path: SHA-256} of every file the case writes."""
    inputs = []
    for name, spec in FIXTURES.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(to_generic_csv(generate_mono_peak(spec)), encoding="utf-8")
        inputs.append(str(path))
    if command == "batch":
        argv = ["batch", *inputs]
    else:
        argv = [*COMMANDS[command], str(tmp_path / f"{fixture}.csv")]
    return run_main(argv, tmp_path / "out")


def run_main(argv, out):
    """Exit code, stderr and {path relative to out: SHA-256} of one main call writing to out."""
    stderr = io.StringIO()
    # stdout names the output paths, which differ per run; stderr does not.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--output-dir", str(out)])
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return code, stderr.getvalue(), digests


# auto's error on n360: its modified_add candidate passes the divergence guard at period 293.
DIVERGED = "error: simulated cumulative demand exceeded 1e+15 at period 293\n"

GOLDEN = {
    ("evaluate", "n180"): (0, "", {
        "predictions.csv": "36c7aae652b3c4a592677d20a85eff22856fd5d3d15a6278cf4d8afed9fe489e",
        "report.json": "cf28aab07bbce7e2a0e23dbb9560b9c7d4ba6de4b4338e8e7d66f63ba8f549db",
    }),
    ("evaluate", "n360"): (3, DIVERGED, {}),
    ("evaluate_both", "n180"): (0, "", {
        "predictions.csv": "36c7aae652b3c4a592677d20a85eff22856fd5d3d15a6278cf4d8afed9fe489e",
        "report.json": "2a9b7a8725a48c68fef94646a2db0c61e90f41d60d1d9548a7be4d04d6c3073a",
    }),
    ("evaluate_both", "n360"): (3, DIVERGED, {}),
    ("evaluate_subtract_clamped", "n180"): (0, "", {
        "predictions.csv": "66c1364f5e9158c6c1fe3931b5b03f4c361477480e92934274cba44ba58414f9",
        "report.json": "0d986fa6cbf65ff044313b0307069e1c22bd06d3abb477b053c655ff03eaebf0",
    }),
    ("evaluate_subtract_clamped", "n360"): (0, "", {
        "predictions.csv": "cb4ef09870b6aac0863d60dff799fab9c36bf43f37b9a5a973a013d9b09b22c6",
        "report.json": "487a4f032e7c4f3b5914a554300f7c6cf82130cecc10e442c5f338ecadbdac99",
    }),
    ("forecast_h24", "n180"): (0, "", {
        "forecast.json": "5688cc79af4b4dba9da1db15e994118837fc78021fae154987cbcf00ae737ef6",
        "predictions.csv": "04a3b98363ac05d944f4738ac48a973ff60cdcca76672f2a2b7df25c7fd5a656",
    }),
    ("forecast_h24", "n360"): (3, DIVERGED, {}),
    ("forecast_one_step_add_h5", "n180"): (0, "", {
        "forecast.json": "0daad10e2734b9d0bd793eaeb25db41b90907a3373db3ab5e88e5e98393e47f6",
        "predictions.csv": "ae5dc4e37b9dd67e283dbc80595eaec6a186f417eb180abcf20400f0e4588f37",
    }),
    ("forecast_one_step_add_h5", "n360"): (0, "", {
        "forecast.json": "6e50f18bc099c90e67dd31a4f1f268d522d394019dee9d24804236786e1a78e6",
        "predictions.csv": "00cb5584596039e0528c373c94c8065cdf7b80c62cb037abfed07646b9a1de69",
    }),
    ("plot", "n180"): (0, "", {
        "compare.svg": "a71abab91dabff2593169565c268fc4734f69b768d0559ec833370b2439e4602",
    }),
    ("plot", "n360"): (3, DIVERGED, {}),
    ("batch", None): (3, "", {
        "n180/compare.svg": "a71abab91dabff2593169565c268fc4734f69b768d0559ec833370b2439e4602",
        "n180/predictions.csv": "36c7aae652b3c4a592677d20a85eff22856fd5d3d15a6278cf4d8afed9fe489e",
        "n180/report.json": "cf28aab07bbce7e2a0e23dbb9560b9c7d4ba6de4b4338e8e7d66f63ba8f549db",
    }),
}


@pytest.mark.parametrize("command,fixture", CASES)
def test_payload_bytes_and_exit_code_are_golden(tmp_path, command, fixture):
    assert run_case(tmp_path, command, fixture) == GOLDEN[command, fixture]


def transactions_log():
    """A seeded log: each month of a mono-peak curve split over three rows.

    Month 30 has no rows, so the parser zero-fills it. Each month has a date
    stamp, a datetime stamp ending in Z and a datetime stamp with a space.
    """
    series = generate_mono_peak(MonoPeakSpec(n=48, peak_time=10))
    rng = SplitMix64(12)
    lines = ["timestamp,count"]
    for i, (label, demand) in enumerate(zip(series.periods, series.demands.tolist())):
        if i == 30:
            continue
        share = rng.next_float()
        lines += [f"{label}-03,{demand * share!r}",
                  f"{label}-14T08:30:00Z,{demand * (1 - share) / 2!r}",
                  f"{label}-27 23:59:59,{demand * (1 - share) / 2!r}"]
    return "\n".join(lines) + "\n"


def trends_export():
    """A Trends export of a mono-peak curve whose tail falls below 1, written as "<1"."""
    series = generate_mono_peak(MonoPeakSpec(n=60, peak_time=12, plateau_level=0.4,
                                             noise_amplitude=0.3))
    rows = [f"{label},{'<1' if value < 1 else min(100, round(value))}"
            for label, value in zip(series.periods, series.demands.tolist())]
    return "Category: All categories\n\nMonth,thing: (Worldwide)\n" + "\n".join(rows) + "\n"


def named_columns_csv():
    """A generic CSV whose period and demand columns are the last two of three."""
    series = generate_mono_peak(MonoPeakSpec())
    rows = [f"n{i},{value!r},{label}"
            for i, (label, value) in enumerate(zip(series.periods, series.demands.tolist()))]
    return "note,sales,month\n" + "\n".join(rows) + "\n"


def crlf_csv():
    """The n=180 fixture as generic CSV with CRLF line ends."""
    return to_generic_csv(generate_mono_peak(FIXTURES["n180"])).replace("\n", "\r\n")


def quoted_labels_csv():
    """A generic CSV whose header cells and period labels are all quoted."""
    series = generate_mono_peak(MonoPeakSpec(n=120, peak_time=18, seed=5))
    rows = [f'"{label}",{value!r}' for label, value in zip(series.periods, series.demands.tolist())]
    return '"period","demand"\n' + "\n".join(rows) + "\n"


def blank_lines_csv():
    """A generic CSV with blank and whitespace-only lines before, inside and after the rows."""
    series = generate_mono_peak(MonoPeakSpec(n=96, peak_time=30, seed=9))
    lines = ["", "period,demand"]
    for i, (label, value) in enumerate(zip(series.periods, series.demands.tolist())):
        if i % 17 == 5:
            lines.append(["", " ", "\t,"][i % 3])
        lines.append(f"{label},{value!r}")
    return "\n".join(lines) + "\n\n \n"


# Each case: the input text and the command run on it.
INGEST_CASES = {
    "transactions": (transactions_log, ["evaluate", "--format", "transactions"]),
    "trends_as_zero": (trends_export, ["evaluate", "--format", "trends",
                                       "--less-than-one", "as_zero"]),
    "fit_named_columns": (named_columns_csv, ["fit", "--date-column", "month",
                                              "--value-column", "sales"]),
    "generic_crlf": (crlf_csv, ["evaluate"]),
    "generic_quoted_labels": (quoted_labels_csv, ["evaluate"]),
    "generic_blank_lines": (blank_lines_csv, ["evaluate"]),
}

INGEST_GOLDEN = {
    "transactions": (0, "", {
        "predictions.csv": "7499c10e02fca7f86c6ce331edc63df7752c0140435aba35724289ea99293554",
        "report.json": "6af18b7eac0a397420c7dcaa0b292dbdc9604d04446bf88c2afeb683b9f73b1d",
    }),
    "trends_as_zero": (0, "", {
        "predictions.csv": "37f86e61db7621429abf4304976675877fe13bae6ae6fd5a87bfc7f9ba16c643",
        "report.json": "02019a6103fe1c1f3baf47f04fbf73e5ba3f15f3042d4b904cfd3c69cfd077a8",
    }),
    "fit_named_columns": (0, "", {
        "fit.json": "5dbd7028a0f4c2ce2c5459bd7aa03af8ab4697816e090f840b972c3defc9a43e",
    }),
    # The parser splits CRLF line ends itself, so this equals ("evaluate", "n180").
    "generic_crlf": (0, "", {
        "predictions.csv": "36c7aae652b3c4a592677d20a85eff22856fd5d3d15a6278cf4d8afed9fe489e",
        "report.json": "cf28aab07bbce7e2a0e23dbb9560b9c7d4ba6de4b4338e8e7d66f63ba8f549db",
    }),
    "generic_quoted_labels": (0, "", {
        "predictions.csv": "9cd4f00eceeb33fa92afa92fd02a17eeb2bf5c921171483d21a5e48a689f95f1",
        "report.json": "572c51b20bcbf2e9b5063ffe766c1f46aab68c27902f06b52f4170a3b07dece0",
    }),
    "generic_blank_lines": (0, "", {
        "predictions.csv": "5821a346abdb5a7bade984c9ab3c0a58449b1b3bf30b4f24f8c7821d339e502e",
        "report.json": "70b0c4cd1a24349249e5649fe5fdb427745057a05a6344e6ea1c534f32c8de6c",
    }),
}


@pytest.mark.parametrize("case", INGEST_CASES)
def test_ingest_payload_bytes_and_exit_code_are_golden(tmp_path, case):
    text, command = INGEST_CASES[case]
    path = tmp_path / "input.csv"
    path.write_bytes(text().encode("utf-8"))
    assert run_main([*command, str(path)], tmp_path / "out") == INGEST_GOLDEN[case]
