"""Shared fixtures: small canonical graphs used across the test suite,
and the scalar parity oracles the numpy kernels are checked against."""

from __future__ import annotations

import contextlib
import shutil
import tempfile

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # a docs-only environment installs no hypothesis
    settings = None

from repro.diffusion import truncated_walk
from repro.diffusion.hk_push import heat_kernel_push
from repro.diffusion.push import approximate_ppr_push
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.dynamics import PPR, HeatKernel
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
from repro.partition import sweep

# One profile for the whole suite.  No example database: a test run
# leaves nothing behind in the checkout.
if settings is not None:
    settings.register_profile(
        "repro",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        database=None,
    )
    settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: engine-speed smoke check (numpy vs the scalar oracles; "
        "writes no file)",
    )
    if settings is None:
        return
    # Hypothesis also caches source constants on disk, at collection
    # time; give it a home outside the checkout for this run only.
    home = tempfile.mkdtemp(prefix="repro-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


def _scalar_ppr_columns(spec, graph, seed_nodes, *, epsilons):
    """PPR grid columns, one single-column FIFO push at a time."""
    for seed_node in seed_nodes:
        vector = degree_weighted_indicator_seed(graph, [int(seed_node)])
        for alpha in spec.alpha:
            for epsilon in epsilons:
                yield approximate_ppr_push(
                    graph, vector, alpha=alpha, epsilon=epsilon
                ).approximation


def _scalar_hk_columns(spec, graph, seed_nodes, *, epsilons):
    """Heat-kernel grid columns, one single-column series at a time."""
    for seed_node in seed_nodes:
        vector = degree_weighted_indicator_seed(graph, [int(seed_node)])
        for t in spec.t:
            for epsilon in epsilons:
                yield heat_kernel_push(
                    graph, vector, t, epsilon=epsilon
                ).approximation


@contextlib.contextmanager
def _scalar_oracles():
    """Run the scalar parity oracles in place of the numpy kernels.

    Inside the block, PPR and heat-kernel grids are drained one push at a
    time, the truncated walk spreads one node at a time, and every sweep
    runs the node-at-a-time prefix scan — the same column order and
    tie-breaking as the numpy path, so whole pipelines can be compared.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PPR, "iter_columns", _scalar_ppr_columns)
        patch.setattr(HeatKernel, "iter_columns", _scalar_hk_columns)
        patch.setattr(
            truncated_walk, "_walk_step", truncated_walk._walk_step_scalar
        )
        patch.setattr(sweep, "_prefix_scan", sweep._prefix_scan_scalar)
        yield


@pytest.fixture(scope="session")
def scalar_oracles():
    """Context manager swapping the numpy kernels for the scalar oracles."""
    return _scalar_oracles


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
