"""Shared test plumbing: collects acceptance verdict lines for the summary,
and runs code in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_LINES: list[str] = []

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def run_python():
    """run_python(code): stdout of code run by a fresh interpreter on this src/.

    The interpreter must exit 0 within the timeout.
    """

    def run(code: str, timeout: float = 120) -> str:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=timeout,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
