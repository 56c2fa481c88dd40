"""The example scripts and the basscast entry point run end to end against this checkout."""
import ast
import os
import re
import shlex
import shutil
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
    # The suite's own warning rule: a numpy RuntimeWarning in a script is a failure.
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name),
                             *args], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0


def test_readme_quotes_the_tail_study_summary():
    """The README's "Experiment scripts" section holds the summary lines of a 200-seed study."""
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                             str(SCRIPTS / "tail_benefit_study.py"), "--seeds", "200"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    summary = result.stdout.splitlines()[-2:]
    assert summary[0].startswith("strict wins: ") and summary[1].startswith("improvement: ")
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Experiment scripts\n")[1]
    for line in summary:
        assert f"\n{line}\n" in section, line


# tests/<file>.py, then optionally ::<Name> and ::<name> inside it.
_TEST_REFERENCE = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def test_tests_named_in_the_readme_and_the_source_exist():
    """Each test file, class or function that the README or a module under src/ names exists."""
    documents = [ROOT / "README.md", *sorted((ROOT / "src" / "basscast").glob("*.py"))]
    references = {match.groups() for document in documents
                  for match in _TEST_REFERENCE.finditer(document.read_text(encoding="utf-8"))}
    assert references
    missing = []
    for file, names in sorted(references):
        path = ROOT / "tests" / file
        if not path.is_file():
            missing.append(f"tests/{file}")
            continue
        scope = ast.parse(path.read_text(encoding="utf-8")).body
        for name in names.split("::")[1:]:
            found = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name]
            if not found:
                missing.append(f"tests/{file}{names}")
                break
            scope = found[0].body
    assert not missing, missing


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


def test_cumulative_overflow_is_one_error_line_under_warnings_as_errors(tmp_path):
    # Demands near float64's maximum: their running sum passes it by the second row.
    (tmp_path / "huge.csv").write_text(
        "period,demand\n" + "".join(f"t{i:03d},{(i + 1) * 1e306!r}\n" for i in range(30)),
        encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-W", "error", "-m", "basscast.cli", "fit",
                             "huge.csv"], cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: cumulative demand overflows float64")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_readme_library_use_block_runs(capsys):
    """The README's ``Library use`` example runs as printed against this checkout."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_line_block_runs(tmp_path):
    """Each line of the README's ``Command line`` block exits 0 and writes the files it names.

    A line's comment names its files (``a/`` a directory) under its ``--output-dir``, or
    under the working directory. a.csv and b.csv, which batch reads, are copies of fixture.csv.
    """
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Command line\n")[1]
    lines = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    assert len(lines) == 7
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "basscast", line
        if argv[0] == "batch":
            for name in ("a.csv", "b.csv"):
                shutil.copyfile(tmp_path / "fixture.csv", tmp_path / name)
        result = subprocess.run([sys.executable, "-m", "basscast.cli", *argv], cwd=tmp_path,
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (line, result.stderr)
        out = tmp_path / (argv[argv.index("--output-dir") + 1] if "--output-dir" in argv else "")
        for name in re.findall(r"[\w.]+(?:\.(?:csv|json|svg)|/)", comment):
            assert (out / name).exists(), (line, name)
