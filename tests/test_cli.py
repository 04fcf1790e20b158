"""End-to-end tests of the command-line interface."""

import json

import pytest

from v2xdelivery import SystemParams, build_grid_scenario, save_scenario
from v2xdelivery.cli import build_parser, run_command


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.yaml"
    sc = build_grid_scenario(
        rows=2,
        cols=3,
        params=SystemParams(weight=0.5),
        seed=3,
        route_filter=5,
    )
    save_scenario(sc, path)
    return str(path)


def _run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


class TestAnalyze:
    def test_stock_scenario_summary(self, capsys):
        record = _run_json(capsys, ["analyze", "--t", "8"])
        assert record["command"] == "analyze"
        assert record["t"] == 8
        assert len(record["routes"]) == 12
        first = record["routes"][0]
        assert set(first) == {"route", "nodes", "hops", "latency", "rate", "rate_min_means"}
        assert first["nodes"].startswith("0-") and first["nodes"].endswith("-8")
        assert 0 <= record["best_rate_route"] < 12

    def test_csv_artifact(self, capsys, tmp_path):
        out = tmp_path / "analysis.csv"
        record = _run_json(capsys, ["analyze", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "route,nodes,hops,latency,rate,rate_min_means"
        assert len(lines) == 1 + len(record["routes"])

    def test_scenario_file_and_hop_cap(self, capsys, scenario_file):
        record = _run_json(capsys, ["analyze", "--scenario", scenario_file])
        assert all(r["hops"] <= 5 for r in record["routes"])
        capped = _run_json(capsys, ["analyze", "--scenario", scenario_file, "--max-hops", "3"])
        assert all(r["hops"] <= 3 for r in capped["routes"])
        assert len(capped["routes"]) < len(record["routes"])


class TestOptimizeCommands:
    def test_global_summary(self, capsys):
        record = _run_json(capsys, ["optimize-global", "--alpha", "0.5"])
        assert record["alpha"] == 0.5
        assert 0.0 <= record["t_star"] <= 20.0
        assert record["stationarity_ok"] is True
        assert -1.0 <= record["objective"] <= 1.0

    def test_global_pure_latency_sits_at_the_dwell(self, capsys):
        record = _run_json(capsys, ["optimize-global", "--alpha", "0"])
        assert record["t_star"] == pytest.approx(20.0, abs=1e-6)

    def test_global_csv(self, capsys, tmp_path):
        out = tmp_path / "global.csv"
        _run_json(capsys, ["optimize-global", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "route,nodes,t_star,objective"
        assert len(lines) == 13

    def test_distributed_summary(self, capsys):
        record = _run_json(capsys, ["optimize-distributed", "--alpha", "0.5"])
        assert record["command"] == "optimize-distributed"
        assert len(record["windows"]) == record["nodes"].count("-")
        assert record["rate"] > 0.0

    def test_distributed_beats_or_ties_global(self, capsys):
        g = _run_json(capsys, ["optimize-global", "--alpha", "0.5"])
        d = _run_json(capsys, ["optimize-distributed", "--alpha", "0.5"])
        assert d["objective"] >= g["objective"] - 1e-9


class TestSimulateCommand:
    def test_summary_shape(self, capsys):
        record = _run_json(
            capsys,
            ["simulate", "--t", "8", "--snapshots", "4000", "--seed", "9", "--mode", "analytic"],
        )
        assert record["snapshots"] == 4000
        assert record["mode"] == "analytic"
        assert record["relative_error"]["latency"] < 0.05
        assert set(record["empirical"]) == {"latency", "se_latency", "rate", "se_rate", "rate_mean_subst"}

    def test_a_zero_analytic_reading_has_no_relative_error(self, capsys, tmp_path):
        # JSON has no infinity: stdout stays strict JSON when every rate is 0.
        path = tmp_path / "zero.yaml"
        path.write_text("params: {rate_v2v: 0.0, rate_v2i: 0.0, rate_cell: 0.0}\n", encoding="utf-8")
        code, out, err = _run(capsys, ["simulate", "--scenario", str(path), "--snapshots", "200"])
        assert (code, err) == (0, "")

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        record = json.loads(out, parse_constant=reject)
        assert record["analytic"]["rate"] == 0.0
        assert record["relative_error"]["rate"] is None
        assert record["relative_error"]["rate_mean_subst_vs_min_means"] is None
        assert record["relative_error"]["latency"] >= 0.0

    def test_backhaul_flag_reported(self, capsys):
        record = _run_json(capsys, ["simulate", "--t", "2", "--snapshots", "500", "--backhaul"])
        assert record["backhaul"] is True

    def test_scheme_changes_the_trial_duration(self, capsys):
        # A 0.12 s window fits one stock 0.1 s trial but zero SD@8 trials
        # (0.14 s each), so discovery dies and the latency rises.
        base = _run_json(capsys, ["simulate", "--t", "0.12", "--snapshots", "500", "--seed", "1"])
        sd = _run_json(
            capsys,
            ["simulate", "--t", "0.12", "--snapshots", "500", "--seed", "1", "--scheme", "SD", "--beams", "8"],
        )
        assert sd["analytic"]["latency"] > base["analytic"]["latency"]


class TestCompareCommand:
    def test_strategies_and_ordering(self, capsys, tmp_path):
        out = tmp_path / "compare.csv"
        record = _run_json(capsys, ["compare", "--alpha", "0.5", "--out", str(out)])
        by_name = {entry["strategy"]: entry for entry in record["strategies"]}
        assert set(by_name) == {"global", "spr", "gpsr"}
        assert by_name["global"]["objective"] >= by_name["spr"]["objective"] - 1e-12
        assert by_name["global"]["objective"] >= by_name["gpsr"]["objective"] - 1e-12
        assert by_name["spr"]["nodes"] == "0-1-2-5-8"
        assert by_name["gpsr"]["nodes"] == "0-1-4-5-8"
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "strategy,nodes,hops,t_star,objective,latency,rate"
        assert len(lines) == 4


class TestSweepCommand:
    def test_window_sweep_row_count_and_header(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        record = _run_json(
            capsys,
            ["sweep", "--variable", "t", "--points", "9", "--snapshots", "300", "--out", str(out)],
        )
        assert record["rows"] == 9
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,mean_latency,se_latency,mean_rate,se_rate,p_fwd,p_succ,p_fail,objective"
        assert len(lines) == 10
        assert lines[1].startswith("0,")

    def test_explicit_grid(self, capsys, tmp_path):
        out = tmp_path / "sweep_grid.csv"
        record = _run_json(
            capsys,
            ["sweep", "--variable", "t", "--grid", "0,5,10,20", "--snapshots", "200", "--out", str(out)],
        )
        assert record["rows"] == 4
        first_col = [line.split(",")[0] for line in out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        assert first_col == ["0", "5", "10", "20"]

    def test_alpha_sweep(self, capsys, tmp_path):
        out = tmp_path / "alpha.csv"
        record = _run_json(
            capsys,
            ["sweep", "--variable", "alpha", "--grid", "0,0.5,1", "--out", str(out)],
        )
        assert record["rows"] == 3
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("alpha,t_star_global,objective_global")

    def test_scheme_beams_sweep(self, capsys, scenario_file):
        record = _run_json(
            capsys,
            ["sweep", "--variable", "scheme_beams", "--grid", "1,2", "--scenario", scenario_file],
        )
        # TD contributes a single row; SD, FD, CD contribute one per beam count.
        assert record["rows"] == 1 + 3 * 2

    def test_lambda_scale_sweep(self, capsys, scenario_file):
        record = _run_json(
            capsys,
            ["sweep", "--variable", "lambda_scale", "--grid", "0.5,1.5", "--scenario", scenario_file],
        )
        assert record["rows"] > 0


class TestDeterminism:
    def test_byte_identical_output_across_runs(self, capsys, tmp_path):
        argv = ["sweep", "--variable", "t", "--points", "5", "--snapshots", "400", "--seed", "7"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, stdout_a, _ = _run(capsys, argv + ["--out", str(out_a)])
        _, stdout_b, _ = _run(capsys, argv + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        assert stdout_a.replace(str(out_a), "X") == stdout_b.replace(str(out_b), "X")

    def test_simulate_stdout_reproducible(self, capsys):
        argv = ["simulate", "--t", "4", "--snapshots", "800", "--seed", "5"]
        _, a, _ = _run(capsys, argv)
        _, b, _ = _run(capsys, argv)
        assert a == b


class TestIntegerRecipes:
    COMMANDS = [
        ["analyze"],
        ["optimize-global"],
        ["optimize-distributed"],
        ["simulate", "--snapshots", "300"],
        ["compare"],
        ["sweep", "--variable", "t", "--points", "3", "--snapshots", "200"],
        ["sweep", "--variable", "alpha", "--grid", "0,1"],
        ["sweep", "--variable", "lambda_scale", "--grid", "1"],
        ["sweep", "--variable", "scheme_beams", "--grid", "1,2"],
    ]

    def test_integer_params_read_as_their_floats(self, capsys, tmp_path):
        # An integer-valued parameter once reached the simulator as an int.
        floats = tmp_path / "floats.yaml"
        save_scenario(build_grid_scenario(rows=2, cols=3, seed=3, route_filter=5), floats)
        text = floats.read_text(encoding="utf-8")
        ints = tmp_path / "ints.yaml"
        for name, value in (("hop_dwell", "20"), ("rate_v2v", "2"), ("rate_cell", "1")):
            assert f"{name}: {value}.0\n" in text
            text = text.replace(f"{name}: {value}.0\n", f"{name}: {value}\n")
        ints.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        for command in self.COMMANDS:
            runs = []
            for recipe in (floats, ints):
                code, stdout, err = _run(capsys, [*command, "--scenario", str(recipe), "--out", str(out)])
                assert (code, err) == (0, ""), command
                runs.append((stdout, out.read_bytes()))
            assert runs[0] == runs[1], command


class TestOutputPath:
    """Every command's CSV is written before its one JSON line, only with
    ``--out``."""

    @pytest.mark.parametrize("command", TestIntegerRecipes.COMMANDS, ids=" ".join)
    def test_a_failed_write_prints_no_record(self, capsys, tmp_path, scenario_file, command):
        out = tmp_path / "missing" / "out.csv"
        code, stdout, err = _run(capsys, [*command, "--scenario", scenario_file, "--out", str(out)])
        assert (code, stdout) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    @pytest.mark.parametrize("command", TestIntegerRecipes.COMMANDS, ids=" ".join)
    def test_without_out_no_file_is_written(self, capsys, tmp_path, monkeypatch, scenario_file, command):
        monkeypatch.chdir(tmp_path)
        record = _run_json(capsys, [*command, "--scenario", scenario_file])
        assert "out" in record and record["out"] is None
        assert list(tmp_path.iterdir()) == []


class TestWindowRule:
    @pytest.mark.parametrize(
        "argv, at, past",
        [
            (["analyze", "--t"], "20", "20.00000000001"),
            (["sweep", "--variable", "t", "--snapshots", "200", "--grid"], "0,20", "0,20.00000000001"),
        ],
    )
    def test_a_window_just_past_the_dwell_reads_the_dwell(self, capsys, tmp_path, argv, at, past):
        # The stock dwell is 20; a window up to 20(1 + 1e-12) reads as 20.
        runs = []
        for name, value in (("at", at), ("past", past)):
            out = tmp_path / f"{name}.csv"
            code, stdout, err = _run(capsys, [*argv, value, "--out", str(out)])
            assert (code, err) == (0, "")
            runs.append((stdout.replace(str(out), "X"), out.read_bytes()))
        assert runs[0] == runs[1]


class TestErrorHandling:
    def test_missing_scenario_file(self, capsys):
        code, out, err = _run(capsys, ["analyze", "--scenario", "/nonexistent/path.yaml"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_alpha_out_of_range(self, capsys):
        code, _, err = _run(capsys, ["optimize-global", "--alpha", "1.5"])
        assert code == 1
        assert "alpha" in err

    def test_malformed_sweep_grid(self, capsys):
        code, _, err = _run(capsys, ["sweep", "--variable", "t", "--grid", "5,1"])
        assert code == 1
        assert "ascending" in err

    def test_window_grid_outside_the_dwell(self, capsys):
        code, _, err = _run(capsys, ["sweep", "--variable", "t", "--grid", "0,25"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "variable, grid",
        [
            ("scheme_beams", "1e400"),
            ("t", "0,nan"),
            ("t", "inf"),
            ("alpha", "0,nan,1"),
            ("lambda_scale", "1,1e400"),
        ],
    )
    def test_non_finite_sweep_grid(self, capsys, variable, grid):
        code, out, err = _run(capsys, ["sweep", "--variable", variable, "--grid", grid])
        assert (code, out) == (1, "")
        assert err == "error: sweep grid values must be finite\n"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_window_sweep_needs_a_point(self, capsys, points):
        code, out, err = _run(capsys, ["sweep", "--variable", "t", "--points", points])
        assert (code, out) == (1, "")
        assert err == "error: --points must be at least 1\n"

    @pytest.mark.parametrize(
        "recipe",
        [
            "params: {rate_v2v: .nan}",
            "params: {hop_dwell: .inf}",
            "arrival: {high: .inf}",
            "grid: {block_length: .inf}",
            "grid: {rows: .inf}",
            "grid: {rows: 2.7}",
            "seed: 1.9",
            "route_filter: abc",
            "route_filter: 2.5",
            "route_filter: true",
            "route_filter: 0",
            "grid: [1, 2]",
            "endpoints: 5",
            "arrival: x",
            "params: [1]",
            "endpoints: {source: true}",
            "endpoints: {destination: 2.5}",
            "params: {weight: true}",
            "grid: {row: 4, cols: 4}",
            "sed: 3",
            "endpoints: {destinaton: 5}",
            "grid: {block_length: true}",
            "arrival: {low: true, high: true}",
        ],
    )
    def test_non_finite_recipe_values(self, capsys, tmp_path, recipe):
        path = tmp_path / "bad.yaml"
        path.write_text(recipe + "\n", encoding="utf-8")
        for command in ("optimize-global", "compare"):
            code, out, err = _run(capsys, [command, "--scenario", str(path)])
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1

    def test_a_hop_cap_below_one_is_named(self, capsys):
        code, out, err = _run(capsys, ["analyze", "--max-hops", "0"])
        assert (code, out) == (1, "")
        assert err == "error: max_hops must be at least 1, got 0\n"

    def test_td_with_multiple_beams(self, capsys):
        code, _, err = _run(capsys, ["analyze", "--scheme", "TD", "--beams", "4"])
        assert code == 1
        assert "beams" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["optimize-global", "--beams", "7"], "--beams"),
            (["sweep", "--variable", "alpha", "--backhaul"], "--backhaul"),
            (["sweep", "--variable", "alpha", "--mode", "analytic"], "--mode"),
            (["sweep", "--variable", "lambda_scale", "--snapshots", "5"], "--snapshots"),
            (["sweep", "--variable", "scheme_beams", "--seed", "0"], "--seed"),
            (["sweep", "--variable", "alpha", "--points", "3"], "--points"),
            (["sweep", "--variable", "t", "--grid", "0,10", "--points", "5"], "--points"),
            (["sweep", "--variable", "t", "--grid", "0,10", "--points", "0"], "--points"),
            (["sweep", "--variable", "alpha", "--alpha", "0.9"], "--alpha"),
            (["sweep", "--variable", "scheme_beams", "--scheme", "SD"], "--scheme"),
        ],
    )
    def test_a_flag_that_changes_nothing_is_an_error(self, capsys, argv, flag):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_analyze_takes_no_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["analyze", "--t", "8", "--alpha", "0.9"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_window_sweep_flags_given_at_their_defaults_change_nothing(self, capsys, tmp_path):
        argv = ["sweep", "--variable", "t", "--grid", "0,8,20", "--snapshots", "200"]
        stock, given = tmp_path / "stock.csv", tmp_path / "given.csv"
        _run_json(capsys, [*argv, "--out", str(stock)])
        _run_json(capsys, [*argv, "--seed", "0", "--mode", "physical", "--out", str(given)])
        assert given.read_bytes() == stock.read_bytes()
        # --points sizes the grid only when --grid is omitted.
        _run_json(capsys, [*argv[:3], "--snapshots", "200", "--out", str(stock)])
        _run_json(capsys, [*argv[:3], "--snapshots", "200", "--points", "41", "--out", str(given)])
        assert given.read_bytes() == stock.read_bytes()
        other = tmp_path / "other.csv"
        _run_json(capsys, [*argv, "--seed", "1", "--out", str(other)])
        assert other.read_bytes() != stock.read_bytes()


class TestParser:
    def test_parser_is_importable_and_complete(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {
            "analyze",
            "optimize-global",
            "optimize-distributed",
            "simulate",
            "compare",
            "sweep",
        }

    def test_twelve_digit_float_formatting(self, capsys, tmp_path):
        out = tmp_path / "fmt.csv"
        _run_json(capsys, ["analyze", "--t", "8.125", "--out", str(out)])
        rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        for row in rows:
            lat = row.split(",")[3]
            assert len(lat.replace(".", "").replace("-", "").lstrip("0")) <= 12
