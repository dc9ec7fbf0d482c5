"""Shared fixtures: small canonical graphs used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.graph.generators import (
    barbell_graph,
    cycle_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    ring_of_cliques,
    roach_graph,
)
from repro.graph.random_generators import (
    planted_partition_graph,
    random_regular_graph,
    whiskered_expander,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: engine-speed smoke check (numpy vs the scalar loop; "
        "writes no file)",
    )


@pytest.fixture
def triangle():
    """The 3-cycle: smallest nontrivial connected graph."""
    return cycle_graph(3)


@pytest.fixture
def small_path():
    """Path on 6 nodes."""
    return path_graph(6)


@pytest.fixture
def barbell():
    """Two K_8 cliques joined by one edge."""
    return barbell_graph(8)


@pytest.fixture
def lollipop():
    """K_8 with a 12-node tail."""
    return lollipop_graph(8, 12)


@pytest.fixture
def ring():
    """Ring of 5 cliques of size 6."""
    return ring_of_cliques(5, 6)


@pytest.fixture
def grid():
    """8x8 grid."""
    return grid_graph(8, 8)


@pytest.fixture
def roach():
    """Guattery-Miller roach with body 6 and antennae 6."""
    return roach_graph(6, 6)


@pytest.fixture
def expander():
    """Random 4-regular graph on 60 nodes (fixed seed)."""
    return random_regular_graph(60, 4, seed=7)


@pytest.fixture
def whiskered():
    """Expander core with whiskers (fixed seed)."""
    return whiskered_expander(40, 4, 6, 5, seed=11)


@pytest.fixture
def planted():
    """Planted partition: 4 blocks of 16, dense inside."""
    return planted_partition_graph(4, 16, 0.5, 0.02, seed=5)


@pytest.fixture
def weighted_triangle():
    """Triangle with weights 1, 2, 3."""
    return from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
