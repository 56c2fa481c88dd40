"""The example scripts run end to end against the package in this checkout."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
