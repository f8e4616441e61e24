import json
import subprocess
import sys
from pathlib import Path

import pytest

from report_diff import directory_differences, directory_summary

SCRIPT = Path(__file__).with_name("report_diff.py")
REPORT = {"task": "resolvent-check", "seed": None,
          "results": {"schmidt_norm": 0.5, "r0_constant_value": [[0.25, -1.0]]}}
SWEEP = ("parameter,value,headline,headline_value,status,wall_time_s\n"
         "eta,4.0,block_q_norm,0.33,ok,0.01\n"
         "eta,16.0,block_q_norm,,failed: singular,0.02\n")


def write_outputs(directory: Path, report: dict, sweep: str) -> Path:
    (directory / "sub").mkdir(parents=True)
    (directory / "sub" / "res.report.json").write_text(json.dumps(report))
    (directory / "eta.sweep.csv").write_text(sweep)
    (directory / "exit.txt").write_text("ignored")
    return directory


def run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)


def test_directories_differing_in_one_float_and_one_string(tmp_path):
    a = write_outputs(tmp_path / "a", REPORT, SWEEP)
    moved = json.loads(json.dumps(REPORT))
    moved["results"]["r0_constant_value"][0][1] = -1.0 + 2**-40
    b = write_outputs(tmp_path / "b", moved, SWEEP.replace("0.33,ok,0.01", "0.3300001,ok,0.5"))
    diffs = directory_differences(a, b)
    assert diffs == {"eta.sweep.csv": {"headline_value": pytest.approx(1e-7)},
                     "sub/res.report.json": {"report.results.schmidt_norm": 0.0,
                                             "report.results.r0_constant_value": 2**-40}}
    done = run(a, b)
    assert done.returncode == 0
    assert "sub/res.report.json" in done.stdout and "9.095e-13  report.results.r0_constant_value" \
        in done.stdout

    renamed = write_outputs(tmp_path / "c", {**REPORT, "task": "monodromy"},
                            SWEEP.replace("failed: singular", "failed: other"))
    for other in (renamed, tmp_path / "b" / "sub"):
        with pytest.raises(AssertionError):
            directory_differences(a, other)
        done = run(a, other)
        assert done.returncode == 1 and "mismatch" in done.stderr


def test_sweep_string_column_mismatch_named(tmp_path):
    a = write_outputs(tmp_path / "a", REPORT, SWEEP)
    b = write_outputs(tmp_path / "b", REPORT, SWEEP.replace("failed: singular", "failed: other"))
    with pytest.raises(AssertionError, match=r"eta.sweep.csv: sweep\[1\].status"):
        directory_differences(a, b)


def test_directory_summary(tmp_path):
    # res.report.json byte-identical; eta.sweep.csv equal in every float but its
    # wall time; other.report.json off by 2^-40 in one field
    a = write_outputs(tmp_path / "a", REPORT, SWEEP)
    b = write_outputs(tmp_path / "b", REPORT, SWEEP.replace("0.33,ok,0.01", "0.33,ok,0.5"))
    moved = json.loads(json.dumps(REPORT))
    moved["results"]["schmidt_norm"] += 2**-40
    (a / "other.report.json").write_text(json.dumps(REPORT))
    (b / "other.report.json").write_text(json.dumps(moved))
    summary = directory_summary(a, b, directory_differences(a, b))
    assert summary == {"compared": 3, "byte_identical": 1, "float_equal": 2,
                       "fields": {"headline_value": 0.0, "report.results.schmidt_norm": 2**-40,
                                  "report.results.r0_constant_value": 0.0}}
    done = run(a, b)
    assert done.returncode == 0
    tail = done.stdout.split("summary: ")[1].splitlines()
    assert tail[0] == ("3 files compared, 1 byte-identical, 2 equal in every float; "
                       "largest difference per field over all files:")
    assert tail[1] == "  9.095e-13  report.results.schmidt_norm"
