import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


def test_a_failing_git_call_is_one_error_line_and_exit_2():
    # no object has the all-zero name; outside a checkout, rev-parse fails first
    done = subprocess.run(
        [sys.executable, str(TOOL), "0" * 40], cwd=TOOL.parent, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: git ") and " failed: fatal: " in line
