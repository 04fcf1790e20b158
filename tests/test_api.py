"""The public surface other code relies on: README quick start and benchmark.

The README's quick start and the benchmark's workloads reach the package
only through names on ``v2xdelivery``, and the benchmark's tracer patches
entry points and ``RouteEvaluator`` methods by name.  A rename or an
``__all__`` cut that breaks either should fail here.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import v2xdelivery
import v2xdelivery.cli  # noqa: F401  (binds v2xdelivery.cli, as the benchmark does)

ROOT = Path(__file__).resolve().parents[1]


def _quick_start_imports() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module == "v2xdelivery":
            names.update(alias.name for alias in node.names)
    return names


def _workload_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "v2x"
    }


def test_quick_start_names_resolve():
    names = _quick_start_imports()
    assert names, "no v2xdelivery import found in the README quick start"
    missing = sorted(n for n in names if not hasattr(v2xdelivery, n))
    assert not missing


def test_benchmark_workload_names_resolve():
    names = _workload_names()
    assert "solve_global" in names
    missing = sorted(n for n in names if not hasattr(v2xdelivery, n))
    assert not missing


def _surface() -> dict:
    modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "v2xdelivery"}
    snapshot = {key: dict(vars(module)) for key, module in modules.items()}
    snapshot["RouteEvaluator"] = dict(vars(v2xdelivery.RouteEvaluator))
    return snapshot


def test_tracer_installs_and_restores_every_attribute(monkeypatch, params):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = _surface()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert v2xdelivery.RouteEvaluator.__dict__["series"] is not before["RouteEvaluator"]["series"]
        route = v2xdelivery.Route(hops=(v2xdelivery.Hop(0.1, 2, rsu_id="a"), v2xdelivery.Hop(0.2, 3, rsu_id="b")))
        v2xdelivery.solve_global([route], params)
        v2xdelivery.RouteEvaluator(route, params).latency(1.0)
    after = _surface()
    assert after.keys() == before.keys()
    for key in before:
        changed = sorted(n for n in before[key] if after[key].get(n) is not before[key][n])
        assert not changed, f"{key}: {changed} not restored"
    assert {span[1] for span in tracer.spans} >= {"optimize.solve", "closedform.series", "closedform.scalar"}


_SCIPY_FREE_RUN = """
import contextlib, io, json, sys
import v2xdelivery
from v2xdelivery.cli import run_command

commands = [
    ["analyze"], ["optimize-global"], ["optimize-distributed"], ["compare"], ["simulate"],
    ["sweep", "--variable", "alpha"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run_command(argv + ["--out", argv[0] + ".csv"]) for argv in commands]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
params = v2xdelivery.SystemParams()
route = v2xdelivery.Route(hops=(v2xdelivery.Hop(0.15, 3, rsu_id="A"), v2xdelivery.Hop(0.25, 4, rsu_id="B")))
oracle = v2xdelivery.e2e_rate_closed(route, 8.0, params)
kernel = v2xdelivery.RouteEvaluator(route, params).rate_closed(8.0)
print(json.dumps({"codes": codes, "loaded": loaded, "oracle": oracle, "kernel": kernel,
                  "scipy_after": "scipy" in sys.modules}))
"""


def test_runtime_never_loads_scipy(tmp_path):
    """The package, the CLI, both solvers and the simulator run without
    scipy; only the quadrature oracles import it, on first call."""
    package_root = str(Path(v2xdelivery.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["loaded"] == []
    assert result["scipy_after"]
    assert abs(result["oracle"] - result["kernel"]) <= 1e-9 * abs(result["kernel"])
