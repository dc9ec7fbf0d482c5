"""Shared benchmark fixtures.

The three Figure 1 panels (E1–E3) share one expensive computation: the
spectral and flow cluster ensembles on the AtP-DBLP stand-in. The first
bench that needs it computes it and caches it here for the other panels,
which then do only their own panel's work (the niceness measurements).
"""

from __future__ import annotations

import os

import pytest

FOCUS_MIN_SIZE = 30  # the paper studies "reasonably good clusters" of
# sizes well above the tiny end; on our ~1.3k-node stand-in this means
# buckets from ~30 nodes up.


@pytest.fixture(scope="session")
def shared_cache():
    """Mutable session cache shared across benchmark files."""
    return {}


@pytest.fixture(scope="session")
def atp_graph():
    """The Figure 1 workload: synthetic AtP-DBLP, small scale."""
    from repro.datasets import synthetic_atp_dblp

    return synthetic_atp_dblp(
        scale="small", seed=7, whisker_chains=60, whisker_length=4
    ).graph


def bench_workers():
    """Worker processes for the sharded NCP runner during benchmarks.

    Multi-core machines shard the diffusion grid across processes;
    single-core runners stay in-process (a pool of one only adds
    overhead). The ensembles are identical either way.
    """
    cores = os.cpu_count() or 1
    return min(4, cores) if cores > 1 else 0


def compute_figure1(graph):
    """The full Figure 1 comparison used by E1–E3."""
    from repro.api import PPR, DiffusionGrid
    from repro.ncp import figure1_comparison

    return figure1_comparison(
        graph,
        grid=DiffusionGrid(PPR(), num_seeds=20, seed=11),
        num_buckets=8,
        seed=11,
        num_workers=bench_workers(),
    )


def get_figure1(cache, graph):
    """Fetch (or compute once) the shared comparison."""
    if "fig1" not in cache:
        cache["fig1"] = compute_figure1(graph)
    return cache["fig1"]


def focus_buckets(result):
    """Joint buckets in the paper's focus size range."""
    return [
        b for b in result.joint_buckets() if b.size_high > FOCUS_MIN_SIZE
    ]
