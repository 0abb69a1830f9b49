"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import tomllib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.graphs import (
    path_graph,
    random_connected_graph,
    random_tree,
    ring_graph,
    star_graph,
)

# Simulation-backed property tests are slower than hypothesis' default
# expectations; register profiles once for the whole suite.
settings.register_profile(
    "sim",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sim")


@pytest.fixture
def small_ring():
    return ring_graph(8, seed=1)


@pytest.fixture
def small_path():
    return path_graph(7, seed=2)


@pytest.fixture
def small_star():
    return star_graph(9, seed=3)


@pytest.fixture
def small_tree():
    return random_tree(10, seed=4)


@pytest.fixture
def small_random_graph():
    return random_connected_graph(16, extra_edge_prob=0.2, seed=5)


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (larger n)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: larger, slower scaling tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def shrunk_campaign():
    """Factory: a committed campaign spec's payload on smaller grids.

    ``shrink(name, sizes, seeds, **overrides)`` loads
    ``examples/campaigns/<name>.toml`` and gives every grid the sizes,
    seeds, and overrides (a ``None`` override deletes the key), so tests
    exercise the committed fits and checks at test-suite cost.
    """
    campaigns = Path(__file__).resolve().parent.parent / "examples" / "campaigns"

    def shrink(name, sizes, seeds, **overrides):
        with open(campaigns / f"{name}.toml", "rb") as handle:
            payload = tomllib.load(handle)
        for section in payload["grids"]:
            section.update(sizes=list(sizes), seeds=seeds)
            for key, value in overrides.items():
                if value is None:
                    section.pop(key, None)
                else:
                    section[key] = value
        return payload

    return shrink
