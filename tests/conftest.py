"""Shared fixtures: stock parameters, the default scenario, and its routes;
and a cold start for every test."""

import pytest

from support import start_cold
from v2xdelivery import SystemParams, default_scenario, enumerate_routes


@pytest.fixture(autouse=True)
def _cold():
    # Every test starts with neither process memo filled, so that what it
    # counts or compares does not depend on the tests run before it.
    start_cold()


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def coarse_params():
    # Half-second trials keep the breakpoint count small enough that a
    # 100-point grid can contain every one of them.
    return SystemParams(trial_time=0.5)


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def grid_routes(scenario):
    return enumerate_routes(scenario.topology, scenario.source, scenario.destination)
