"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CHILD_ENV

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
