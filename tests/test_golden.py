"""Golden payloads: the CLI's output bytes and exit codes over a small seeded matrix.

Each case runs ``basscast.cli.main`` in-process on seeded mono-peak fixtures,
written as generic CSV or, for the ingest cases, as a transactions log, a
Trends export, a CSV with named columns, or generic CSVs with CRLF line
ends, quoted labels or blank lines. It compares the SHA-256 of every
payload file it writes, its exit code and its stderr to the constants below.
Regenerate the constants only in a change that states why the bytes change;
``python tests/test_golden.py`` prints the whole matrix as JSON.

The fit and every SSE use numpy elementwise ops and its pairwise add
reduction, never BLAS or LAPACK, so the digests are the same on every CPU and
BLAS kernel. test_digests_do_not_depend_on_the_blas_kernel reruns the matrix
under several OpenBLAS kernels to keep it so.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import basscast
from basscast import MonoPeakSpec, generate_mono_peak, to_generic_csv
from basscast.cli import main
from basscast.synthetic import SplitMix64

# n=360 with peak 12 makes a modified candidate diverge, so auto exits 3 on it.
FIXTURES = {
    "n180": MonoPeakSpec(n=180, peak_time=24),
    "n360": MonoPeakSpec(n=360, peak_time=12),
}

COMMANDS = {
    "fit": ["fit"],
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


# auto's error on n360: its modified_add candidate diverges at period 297.
DIVERGED = "error: prediction overflowed at period 297\n"

GOLDEN = {
    ("fit", "n180"): (0, "", {
        "fit.json": "068b162422c2657d33430894df4a1f5b0096f63c1f657dd7bd3b3e5ac64d206b",
    }),
    # n360's fitted c is positive, so its fit.json holds derivation_error non_diffusion_shape.
    ("fit", "n360"): (0, "", {
        "fit.json": "ab053f1b839f64eedf41468800a1afb8b7f85509a4abd5f346c857ff92b84e79",
    }),
    ("evaluate", "n180"): (0, "", {
        "predictions.csv": "da7dee160df206bcae598f800bfa69dbafddc9893eba0788fe1c5de29036dae0",
        "report.json": "1bc05e2205f91fcf3dcf0f910c64efd606c8079c58923c1af815665311422515",
    }),
    ("evaluate", "n360"): (3, DIVERGED, {}),
    ("evaluate_both", "n180"): (0, "", {
        "predictions.csv": "da7dee160df206bcae598f800bfa69dbafddc9893eba0788fe1c5de29036dae0",
        "report.json": "056e2b7f780b28da3015077acc5e069286c5747937730013f22a9b524da91064",
    }),
    ("evaluate_both", "n360"): (3, DIVERGED, {}),
    ("evaluate_subtract_clamped", "n180"): (0, "", {
        "predictions.csv": "a3e108f2f529bde5c2bdd4ba870f7e4bea720c1108bf40cba31af857da1b9714",
        "report.json": "478929bac6e511ddf28d31db67b366f7fb143130cd718dd57b4d795b583e6193",
    }),
    ("evaluate_subtract_clamped", "n360"): (0, "", {
        "predictions.csv": "d55ff1192fed97a0e435e88d3e8ab2eedb1c33889e657b697035c2d68d439531",
        "report.json": "72cba941d64a283bcae7139c1212f08326bb88c2d0a811e2af89cc0522fb37a8",
    }),
    ("forecast_h24", "n180"): (0, "", {
        "forecast.json": "78cef36b3207237db6b9c480e8d047d3e2e7e5954261a2240406c12cd857981e",
        "predictions.csv": "ec36deae39513a64057c81a879cb417d26ef59b72b6e760143e4ddd67cbeeff8",
    }),
    ("forecast_h24", "n360"): (3, DIVERGED, {}),
    ("forecast_one_step_add_h5", "n180"): (0, "", {
        "forecast.json": "69758458bfadb01ab8329a521fc3b92fce15d01c7d2d60af540b1edddf1f219b",
        "predictions.csv": "d226b8bb915da44b807281be6aad744bdc1f6a2b3c983af511bddc1dd117701d",
    }),
    ("forecast_one_step_add_h5", "n360"): (0, "", {
        "forecast.json": "2488c5d29184bf315320411a1a275fd624cf8a52ba882e7b7822d7ce63dbab2d",
        "predictions.csv": "9edbb0613c2c27d6dc6bc193cc60141b811e0f7ae73442935410fec7d48de01a",
    }),
    ("plot", "n180"): (0, "", {
        "compare.svg": "a71abab91dabff2593169565c268fc4734f69b768d0559ec833370b2439e4602",
    }),
    ("plot", "n360"): (3, DIVERGED, {}),
    ("batch", None): (3, "", {
        "n180/compare.svg": "a71abab91dabff2593169565c268fc4734f69b768d0559ec833370b2439e4602",
        "n180/predictions.csv": "da7dee160df206bcae598f800bfa69dbafddc9893eba0788fe1c5de29036dae0",
        "n180/report.json": "1bc05e2205f91fcf3dcf0f910c64efd606c8079c58923c1af815665311422515",
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
        "predictions.csv": "62246b330adc8d103705c8a558f289518bc5fa0421cc92f363f89d76fc0420f7",
        "report.json": "8c05f39486714db2c624502b364c3cd274f1f56db412ae6a56525849dca44322",
    }),
    "trends_as_zero": (0, "", {
        "predictions.csv": "6e254df9a200353042accf787ebb288c4b8bc2057422aa6fdd30d59bb654b96f",
        "report.json": "92bcfbc1004e49164f4d3a7057ef8bc8a9ad4661f689f3ce78a390d7ca99b687",
    }),
    "fit_named_columns": (0, "", {
        "fit.json": "068b162422c2657d33430894df4a1f5b0096f63c1f657dd7bd3b3e5ac64d206b",
    }),
    # The parser splits CRLF line ends itself, so this equals ("evaluate", "n180").
    "generic_crlf": (0, "", {
        "predictions.csv": "da7dee160df206bcae598f800bfa69dbafddc9893eba0788fe1c5de29036dae0",
        "report.json": "1bc05e2205f91fcf3dcf0f910c64efd606c8079c58923c1af815665311422515",
    }),
    "generic_quoted_labels": (0, "", {
        "predictions.csv": "dff03fd81faa2d671739abe8854f289c6c0413a91494fbaceada30361d48681d",
        "report.json": "2eb0348064026f4ec742ef23c8f05844fb0b7808ba4ca824726ddbbbdb235340",
    }),
    "generic_blank_lines": (0, "", {
        "predictions.csv": "92b4fef5ff1a8166a2eab15d0afa5a9f74a7d68580410b4561537dc04464b976",
        "report.json": "f79545f029ea472db57ed5e0efa479b3f3922e2a18aa53c08f03dc5f89d4e318",
    }),
}


def run_ingest_case(tmp_path, case):
    """Exit code, stderr and digests of one ingest case, run in the existing tmp_path."""
    text, command = INGEST_CASES[case]
    path = tmp_path / "input.csv"
    path.write_bytes(text().encode("utf-8"))
    return run_main([*command, str(path)], tmp_path / "out")


@pytest.mark.parametrize("case", INGEST_CASES)
def test_ingest_payload_bytes_and_exit_code_are_golden(tmp_path, case):
    assert run_ingest_case(tmp_path, case) == INGEST_GOLDEN[case]


def golden_matrix(root):
    """Every case above run under root, as JSON-shaped {case: [exit code, stderr, digests]}."""
    matrix = {}
    for command, fixture in CASES:
        case_dir = Path(root, f"{command}-{fixture}")
        case_dir.mkdir()
        matrix[f"{command}/{fixture}"] = list(run_case(case_dir, command, fixture))
    for case in INGEST_CASES:
        case_dir = Path(root, f"ingest-{case}")
        case_dir.mkdir()
        matrix[f"ingest/{case}"] = list(run_ingest_case(case_dir, case))
    return matrix


def golden_constants():
    """GOLDEN and INGEST_GOLDEN in golden_matrix's shape."""
    matrix = {f"{command}/{fixture}": list(GOLDEN[command, fixture]) for command, fixture in CASES}
    matrix.update({f"ingest/{case}": list(INGEST_GOLDEN[case]) for case in INGEST_CASES})
    return matrix


def openblas_configuration():
    """The "openblas configuration" numpy reports for its BLAS, or "" if it reports none."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 takes no mode and returns nothing
        return ""
    return blas.get("openblas configuration", "")


# The generic x86-64, AVX2 and AVX-512 kernels. The variable only picks the kernels BLAS calls
# would run, so a matrix that makes none completes even on a CPU without AVX-512.
BLAS_KERNELS = ("Prescott", "Haswell", "SkylakeX")


@pytest.mark.skipif(
    "DYNAMIC_ARCH" not in openblas_configuration().split(),
    reason="numpy is not linked to an OpenBLAS DYNAMIC_ARCH build, so OPENBLAS_CORETYPE "
           "selects no kernel",
)
def test_digests_do_not_depend_on_the_blas_kernel():
    env = {**os.environ, "PYTHONPATH": str(Path(basscast.__file__).resolve().parents[1])}
    runs = {}
    for kernel in BLAS_KERNELS:
        done = subprocess.run([sys.executable, __file__], env={**env, "OPENBLAS_CORETYPE": kernel},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[kernel] = json.loads(done.stdout)
    assert runs == {kernel: golden_constants() for kernel in BLAS_KERNELS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        print(json.dumps(golden_matrix(root), indent=1))
