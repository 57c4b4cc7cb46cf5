"""Fixtures shared by the test modules."""

import time

import pytest

from nomalink.scenario import ScenarioConfig, run_v2x_scenario


@pytest.fixture(scope="session")
def default_replay():
    """The default scenario's replay and its wall time, run once per session."""
    start = time.perf_counter()
    series = run_v2x_scenario(ScenarioConfig())
    return series, time.perf_counter() - start
