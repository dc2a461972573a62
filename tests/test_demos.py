"""Every narrative demo runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=subprocess_env(),
                          timeout=300)
    assert done.returncode == 0, done.stderr
