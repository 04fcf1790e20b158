"""The public surface other code relies on: README quick start and benchmark.

The README's quick start and the benchmark's workloads reach the package
only through names on ``v2xdelivery``, and the benchmark's tracer patches
entry points and ``RouteEvaluator`` methods by name.  A rename or an
``__all__`` cut that breaks either should fail here, and so should a public
name that none of the quick start, the demos, the CLI and the benchmark
reads.  The declared runtime dependencies are checked against what runs.
"""

import ast
import importlib
import importlib.metadata
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import v2xdelivery
import v2xdelivery.cli  # noqa: F401  (binds v2xdelivery.cli, as the benchmark does)
from support import child_env

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _package_names(code: str) -> set[str]:
    """Names ``code`` imports from the package or its modules, or reads as
    attributes of a name bound to the package."""
    tree = ast.parse(code)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "v2xdelivery"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or "v2xdelivery" for a in node.names if a.name.split(".")[0] == "v2xdelivery")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return names


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _tracer_entry_points() -> dict:
    """``tracing.FUNCTION_LAYERS``, read from the source as a literal."""
    tree = ast.parse(_read(ROOT / "perfbench" / "tracing.py"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTION_LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no FUNCTION_LAYERS in perfbench/tracing.py")


def test_quick_start_names_resolve():
    names = _package_names(_quick_start())
    assert names, "no v2xdelivery import found in the README quick start"
    missing = sorted(n for n in names if not hasattr(v2xdelivery, n))
    assert not missing


def test_benchmark_workload_names_resolve():
    names = _package_names(_read(ROOT / "perfbench" / "workloads.py"))
    assert "solve_global" in names
    missing = sorted(n for n in names if not hasattr(v2xdelivery, n))
    assert not missing


def test_tracer_entry_points_resolve():
    names = _tracer_entry_points()
    assert "solve_global" in names and "run_command" in names
    missing = sorted(n for n in names if not (hasattr(v2xdelivery, n) or hasattr(v2xdelivery.cli, n)))
    assert not missing


def test_every_public_name_has_a_caller():
    """Each name in ``__all__`` is read by the README quick start, a demo,
    the CLI, or the benchmark: its workloads and the entry points its tracer
    patches by name."""
    sources = [
        _quick_start(),
        _read(ROOT / "src" / "v2xdelivery" / "cli.py"),
        *map(_read, sorted((ROOT / "demos").glob("*.py"))),
        *map(_read, sorted((ROOT / "perfbench").glob("*.py"))),
    ]
    used = set(_tracer_entry_points()).union(*map(_package_names, sources))
    assert sorted(set(v2xdelivery.__all__) - used) == []


def _root_name(node: ast.AST) -> str | None:
    """The name an attribute chain such as ``np.maximum.at`` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_only_closedform_reads_the_route_layout():
    """A route stack's layout, its ``at`` columns and ``coef`` rows with
    their padding (``pad``), is read inside ``closedform`` alone; every
    other module takes rows along routes through ``_RouteStack.fold`` and
    ``gather``.  NumPy's own attributes (``np.add.at``, ``np.pad``) are
    not the layout."""
    package = ROOT / "src" / "v2xdelivery"
    readers = sorted(
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in package.glob("*.py")
        if path.name != "closedform.py"
        for node in ast.walk(ast.parse(_read(path)))
        if isinstance(node, ast.Attribute) and node.attr in {"at", "pad", "coef"} and _root_name(node) != "np"
    )
    assert readers == []


def test_public_surface_size():
    assert len(v2xdelivery.__all__) == len(set(v2xdelivery.__all__)) == 45


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quick_start_runs_without_scipy(tmp_path):
    """The quick start needs only the runtime dependencies."""
    proc = _python('import sys\nsys.modules["scipy"] = None\n' + _quick_start(), tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_solves_never_load_masked_arrays(tmp_path):
    """No solve imports numpy.ma, which ``np.unique`` loads on first use,
    so the first solve of a process does not pay for that import; nor does
    a solve that looks up the tasks a kept scan holds."""
    code = (
        "import sys\n"
        "from v2xdelivery import build_grid_scenario, enumerate_routes, solve_distributed, solve_global\n"
        "scenario = build_grid_scenario()\n"
        "routes = enumerate_routes(scenario.topology, scenario.source, scenario.destination)\n"
        "solve_global(routes, scenario.params)\n"
        "solve_distributed(routes, scenario.params)\n"
        "solve_global(routes, scenario.params, weight=0.3)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
        evaluator = v2xdelivery.RouteEvaluator(route, params)
        evaluator.latency(1.0)
        evaluator.series([1.0])
    after = _surface()
    assert after.keys() == before.keys()
    for key in before:
        changed = sorted(n for n in before[key] if after[key].get(n) is not before[key][n])
        assert not changed, f"{key}: {changed} not restored"
    assert {span[1] for span in tracer.spans} >= {"optimize.solve", "closedform.series", "closedform.scalar"}


_SCIPY_FREE_RUN = """
import contextlib, io, json, sys
startup = {name.split(".")[0] for name in sys.modules}
import v2xdelivery
from v2xdelivery.cli import run_command

commands = [
    ["analyze"], ["optimize-global"], ["optimize-distributed"], ["compare"], ["simulate"],
    ["sweep", "--variable", "alpha"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run_command(argv + ["--out", argv[0] + ".csv"]) for argv in commands]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
# Top-level modules the run imported through a finder, outside the
# standard library; extension-made shims such as cython_runtime have no spec.
imported = sorted(
    name for name, module in sys.modules.items()
    if "." not in name and name not in startup and name not in sys.stdlib_module_names
    and name != "v2xdelivery" and getattr(module, "__spec__", None) is not None
)
params = v2xdelivery.SystemParams()
route = v2xdelivery.Route(hops=(v2xdelivery.Hop(0.15, 3, rsu_id="A"), v2xdelivery.Hop(0.25, 4, rsu_id="B")))
oracle = v2xdelivery.e2e_rate_closed(route, 8.0, params)
kernel = v2xdelivery.RouteEvaluator(route, params).rate_closed(8.0)
print(json.dumps({"codes": codes, "loaded": loaded, "oracle": oracle, "kernel": kernel,
                  "scipy_after": "scipy" in sys.modules, "imported": imported}))
"""


def _dist_key(name: str) -> str:
    """A distribution name in its normalized form (PEP 503)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_runtime_never_loads_scipy(tmp_path):
    """The package, the CLI, both solvers and the simulator run without
    scipy; only the quadrature oracles import it, on first call."""
    proc = _python(_SCIPY_FREE_RUN, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["loaded"] == []
    assert result["scipy_after"]
    assert abs(result["oracle"] - result["kernel"]) <= 1e-9 * abs(result["kernel"])
    # The third-party modules the runtime loads are declared dependencies.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_dist_key(re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]) for dep in project["dependencies"]}
    dists = importlib.metadata.packages_distributions()
    runtime = {_dist_key(d) for name in result["imported"] for d in dists.get(name, [name])}
    assert runtime <= declared, sorted(runtime - declared)
