import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def cli_env():
    """Environment for ``python -m preqscore`` subprocesses: this tree's ``src`` first on PYTHONPATH."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.fixture
def criterion_line(capsys):
    """Context manager that prints one PASS/FAIL line per acceptance criterion.

    The line is emitted with capture disabled so it is visible in normal
    pytest output, and it is printed even when the body raises.
    """

    @contextmanager
    def report(label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}", flush=True)

    return report
