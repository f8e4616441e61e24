"""Every report of tests/report_set.py against tests/reference/, the set written
from a committed tree: the configs and the benchmark's scenarios rerun here in
fresh interpreters at one BLAS thread and compared by
report_diff.directory_differences.  Every exit code, int, bool and string is
equal, every float within REFERENCE_FLOAT_BOUND; a sweep's wall_time_s is not
compared.  A change that moves a report writes the reference again (the command
in report_set.py) and states the largest move per field."""

from pathlib import Path

import report_set
from report_diff import directory_differences

REFERENCE = Path(__file__).with_name("reference")
# as tests/test_thread_counts.py's bound: over these reports the largest float move
# between one and two BLAS threads was 6.6e-13 (s_matrix)
REFERENCE_FLOAT_BOUND = 1e-12


def test_reports_match_the_reference(tmp_path):
    report_set.main(["--src", str(report_set.ROOT), "--out", str(tmp_path)])
    diffs = directory_differences(REFERENCE, tmp_path)
    moved = {f"{name}: {field}": d for name, fields in diffs.items()
             for field, d in fields.items() if not d <= REFERENCE_FLOAT_BOUND}
    assert not moved, moved
