"""Tests of grid scenario construction and YAML recipe round-trips."""

import dataclasses
import math

import pytest

from v2xdelivery import (
    SystemParams,
    build_grid_scenario,
    default_scenario,
    load_scenario,
    save_scenario,
)


class TestGridConstruction:
    def test_stock_grid_shape(self, scenario):
        topo = scenario.topology
        assert len(topo.positions) == 9
        assert len(topo.edges) == 12
        assert len(topo.directed_edges()) == 24
        assert len(topo.arrival_rates) == 24
        assert scenario.source == 0 and scenario.destination == 8

    def test_ids_run_row_major_with_block_spacing(self):
        sc = build_grid_scenario(rows=2, cols=3, block_length=100.0)
        assert sc.topology.positions[0] == (0.0, 0.0)
        assert sc.topology.positions[2] == (200.0, 0.0)
        assert sc.topology.positions[3] == (0.0, 100.0)
        assert sc.topology.positions[5] == (200.0, 100.0)
        assert sc.destination == 5

    def test_two_by_two_grid(self):
        sc = build_grid_scenario(rows=2, cols=2)
        assert len(sc.topology.positions) == 4
        assert len(sc.topology.directed_edges()) == 8

    def test_rates_stay_inside_the_interval(self, scenario):
        low, high = scenario.arrival_interval
        for rate in scenario.topology.arrival_rates.values():
            assert low <= rate <= high

    def test_seeded_rates_are_reproducible(self):
        a = build_grid_scenario(seed=7)
        b = build_grid_scenario(seed=7)
        c = build_grid_scenario(seed=8)
        assert a.topology.arrival_rates == b.topology.arrival_rates
        assert a.topology.arrival_rates != c.topology.arrival_rates

    def test_default_scenario_is_the_stock_recipe(self, scenario):
        again = default_scenario()
        assert again == scenario

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=1, cols=3),
            dict(rows=3, cols=1),
            dict(block_length=0.0),
            dict(block_length=math.inf),
            dict(block_length=math.nan),
            dict(arrival_interval=(0.0, 0.3)),
            dict(arrival_interval=(0.4, 0.3)),
            dict(arrival_interval=(0.05, math.inf)),
            dict(arrival_interval=(math.nan, 0.3)),
            dict(arrival_interval=(0.05, math.nan)),
            dict(source=5, destination=5),
            dict(destination=99),
            dict(rows=2.7),
            dict(cols=True),
            dict(seed=1.9),
            dict(seed=math.nan),
            dict(route_filter="abc"),
            dict(route_filter=2.5),
            dict(route_filter=True),
            dict(route_filter=0),
        ],
    )
    def test_bad_recipes_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_grid_scenario(**kwargs)

    @pytest.mark.parametrize(
        "recipe, key",
        [
            ("grid: {rows: 2.7}", "rows"),
            ("grid: {cols: true}", "cols"),
            ("seed: 1.9", "seed"),
            ("route_filter: abc", "route_filter"),
            ("route_filter: 2.5", "route_filter"),
            ("route_filter: true", "route_filter"),
            ("route_filter: 0", "route_filter"),
        ],
    )
    def test_recipe_integers_are_checked_by_name(self, tmp_path, recipe, key):
        path = tmp_path / "bad.yaml"
        path.write_text(recipe + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=key):
            load_scenario(path)

    def test_integral_floats_are_whole_numbers(self):
        sc = build_grid_scenario(rows=3.0, cols=4, seed=2.0, route_filter=5.0)
        assert (sc.rows, sc.cols, sc.seed, sc.route_filter) == (3, 4, 2, 5)
        assert all(type(v) is int for v in (sc.rows, sc.seed, sc.route_filter))


class TestYamlRoundTrip:
    def test_save_and_load_reproduce_the_scenario(self, tmp_path):
        sc = build_grid_scenario(
            rows=4,
            cols=3,
            block_length=180.0,
            params=SystemParams(hop_dwell=15.0, weight=0.7),
            seed=42,
            arrival_interval=(0.1, 0.25),
            source=2,
            destination=9,
            route_filter=6,
        )
        path = tmp_path / "scenario.yaml"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again == sc
        assert again.topology.arrival_rates == sc.topology.arrival_rates

    def test_missing_sections_fall_back_to_stock_values(self, tmp_path, scenario):
        path = tmp_path / "bare.yaml"
        path.write_text("{}\n", encoding="utf-8")
        assert load_scenario(path) == scenario

    def test_non_mapping_file_is_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mapping"):
            load_scenario(path)

    def test_unknown_parameter_keys_are_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("params:\n  not_a_field: 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_invalid_recipe_values_are_rejected(self, tmp_path):
        path = tmp_path / "bad2.yaml"
        path.write_text("grid:\n  rows: 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_params_survive_the_trip(self, tmp_path):
        sc = build_grid_scenario(params=SystemParams(decode_error=0.02, rate_v2v=3.5))
        path = tmp_path / "p.yaml"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert loaded.params == sc.params
        assert dataclasses.asdict(loaded.params)["decode_error"] == 0.02
