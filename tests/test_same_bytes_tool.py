import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

from imputebench.cli import build_parser

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


def test_every_command_is_checked():
    """The tool runs each subcommand of the CLI, so every one that writes files."""
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    run = {argv[0] for argv in tool.commands(Path("recipe.json"), Path("out"))}
    assert run == set(sub.choices)
