"""Smoke test of the narrative demos: each script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from support import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
