"""Every script in ``demos/`` runs to completion (exit 0)."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
