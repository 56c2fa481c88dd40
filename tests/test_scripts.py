"""The example scripts and the basscast entry point run end to end against this checkout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("name,args,outputs", [
    ("demo_pipeline.py", ["--outdir", "demo"],
     ["demo/fit.json", "demo/report.json", "demo/predictions.csv", "demo/compare.svg"]),
    ("tail_benefit_study.py", ["--seeds", "3", "--svg-dir", "study"],
     ["study/seed_000.svg", "study/seed_001.svg", "study/seed_002.svg"]),
])
def test_script_exits_zero(tmp_path, name, args, outputs):
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0


def _overflow_csv(path):
    """30 rows of (i+1) * 10**120: the fitted intercept and SSE overflow float64."""
    path.write_text("period,demand\n" + "".join(f"t{i:03d},{(i + 1) * 10**120}\n"
                                                  for i in range(30)), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv,code,stderr", [
    (["fit", "missing.csv"], 4, "error:"),
    (["fit", "overflow.csv"], 3, "error: fit overflows float64"),
    (["fit", "overflow.csv", "--variant", "classical"], 2, "unrecognized arguments"),
], ids=["missing-input", "overflow", "unread-flag"])
def test_cli_entry_point_exit_codes(tmp_path, argv, code, stderr):
    _overflow_csv(tmp_path / "overflow.csv")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-m", "basscast.cli", *argv], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == code, result.stderr
    assert stderr in result.stderr
    assert "Traceback" not in result.stderr
