"""CLI artifacts against golden files: stdout and CSV byte for byte.

Each case runs one command in-process from a fresh working directory, with
a relative ``--out`` name so the JSON ``out`` field is the same on every
machine.  The golden files live in ``tests/golden/``; rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` only when a change means to
alter the output, and say why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from v2xdelivery.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
RECIPE = "recipe.yaml"  # trial_time 0.05, route_filter 6
# Recipes where the scan grid refines or the search meets other shapes:
# a binding cellular cap, fast traffic, and a 4x4 grid at one-second trials.
RECIPES = {"cap": "recipe_cap.yaml", "fast": "recipe_fast.yaml", "4x4": "recipe_4x4.yaml"}

CASES = {
    "analyze": ["analyze", "--out", "analyze.csv"],
    "analyze_t0": ["analyze", "--t", "0", "--out", "analyze_t0.csv"],
    "analyze_t20": ["analyze", "--t", "20", "--out", "analyze_t20.csv"],
    "optimize_global": ["optimize-global", "--out", "optimize_global.csv"],
    "optimize_distributed": ["optimize-distributed", "--out", "optimize_distributed.csv"],
    "simulate": ["simulate", "--snapshots", "4000", "--out", "simulate.csv"],
    "simulate_backhaul": [
        "simulate", "--t", "2", "--snapshots", "4000", "--seed", "3", "--backhaul",
        "--out", "simulate_backhaul.csv",
    ],
    "compare": ["compare", "--out", "compare.csv"],
    "compare_max_hops": ["compare", "--max-hops", "4", "--alpha", "0.8", "--out", "compare_max_hops.csv"],
    "sweep_t": [
        "sweep", "--variable", "t", "--points", "9", "--snapshots", "300", "--seed", "7",
        "--out", "sweep_t.csv",
    ],
    "sweep_alpha": ["sweep", "--variable", "alpha", "--grid", "0,0.5,1", "--out", "sweep_alpha.csv"],
    "sweep_lambda_scale": [
        "sweep", "--variable", "lambda_scale", "--grid", "0.5,1,1.5", "--out", "sweep_lambda_scale.csv",
    ],
    "sweep_scheme_beams": [
        "sweep", "--variable", "scheme_beams", "--grid", "1,2,4", "--out", "sweep_scheme_beams.csv",
    ],
    "recipe_global": ["optimize-global", "--scenario", RECIPE, "--out", "recipe_global.csv"],
    "recipe_compare": ["compare", "--scenario", RECIPE, "--alpha", "0.25", "--out", "recipe_compare.csv"],
}
for _tag, _recipe in RECIPES.items():
    CASES[f"{_tag}_global"] = ["optimize-global", "--scenario", _recipe, "--out", f"{_tag}_global.csv"]
    CASES[f"{_tag}_distributed"] = [
        "optimize-distributed", "--scenario", _recipe, "--out", f"{_tag}_distributed.csv",
    ]
    CASES[f"{_tag}_sweep_alpha"] = [
        "sweep", "--variable", "alpha", "--grid", "0,0.5,1", "--scenario", _recipe,
        "--out", f"{_tag}_sweep_alpha.csv",
    ]


def _run(name: str, workdir: Path) -> tuple[int, str, str, bytes]:
    """Run one case in ``workdir``; return exit code, stdout, stderr, CSV."""
    for recipe in (RECIPE, *RECIPES.values()):
        shutil.copy(GOLDEN / recipe, workdir / recipe)
    argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        os.chdir(cwd)
    csv = (workdir / argv[argv.index("--out") + 1]).read_bytes()
    return code, out.getvalue(), err.getvalue(), csv


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_golden_files(name, tmp_path):
    # Once from no joint-outcome totals or scan kept (each test starts cold),
    # and once more on those the first run kept.
    for start in ("empty", "kept"):
        code, stdout, stderr, csv = _run(name, tmp_path)
        assert (code, stderr) == (0, ""), start
        assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"), start
        assert csv == (GOLDEN / f"{name}.csv").read_bytes(), start


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, stderr, csv = _run(name, Path(tmp))
        if code != 0 or stderr:
            sys.exit(f"{name}: exit {code}: {stderr}")
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        (GOLDEN / f"{name}.csv").write_bytes(csv)
        print(f"wrote {name}")
