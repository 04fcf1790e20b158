"""Smoke test of the benchmark runner: a short untraced run of a workload
checks every answer against its oracle, so a broken oracle or kernel shows
here before a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from support import child_env

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["study-3x3", "select-4x4", "fine-trials", "mc-validate"])
def test_a_short_run_answers_every_call_correctly(workload, tmp_path):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), done.stderr
