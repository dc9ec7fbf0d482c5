"""Pinned content hashes of generated graphs.

Benchmark inputs and memo keys are keyed by :func:`graph_fingerprint`, so
every generator must keep producing the same CSR bytes from the same seed
(same RNG draw order, same dedup, same row order).  A change to the graph
builders or the generators that moves any of these hashes changes every
downstream result and must be deliberate.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import lfr_graph, load_graph, rmat_graph
from repro.dynamics import PPR, DiffusionGrid
from repro.graph.build import from_edges, largest_component_fast
from repro.graph.generators import ring_of_cliques
from repro.graph.graph import Graph
from repro.ncp import runner
from repro.ncp.runner import graph_fingerprint, run_ncp_ensemble

PINNED = {
    "atp-0": (
        lambda: load_graph("atp", 0),
        "f63ee96a8442727ab17ce749b5a062a0547b483a6f355e221bd6f892145c4f61",
    ),
    "rmat-13-seed0": (
        lambda: rmat_graph(13, seed=0),
        "9b5ca7563300ee46ba568ce786fde09f8c73b1e881b5a24bab5cbdf460089cb3",
    ),
    "rmat-15-seed1-all": (
        lambda: rmat_graph(15, seed=1, keep="all"),
        "510847a48c47ddccf2fe5fe935e0356022adef8bd2cd49d80e51cb2fc8493f9b",
    ),
    "lfr-3000-seed0": (
        lambda: lfr_graph(3000, seed=0),
        "5732fa6c91a2b2034a20e137cb1b2aad8fde03f87f0c42013bf12fe802e23ab7",
    ),
    "rmat-12-seed2-unpermuted": (
        lambda: rmat_graph(12, seed=2, permute=False),
        "cdc24324a42bcfefd2ccdbc87767531b286857e175e9da9bc312d8ec2a4a2b6d",
    ),
    # Sparser, so the largest-component filter drops more nodes.
    "rmat-13-seed0-ef4": (
        lambda: rmat_graph(13, seed=0, edge_factor=4),
        "d6092a1b285f8b883a1298a4b4767465ae5ec3ce1d3a956298156b79c8e6d7ff",
    ),
}


def weighted_disconnected_component():
    """``largest_component_fast`` on a random graph with fractional weights."""
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 400, size=(500, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    weights = rng.random(edges.shape[0]) + 0.5
    return largest_component_fast(from_edges(400, edges, weights))


#: Builders returning ``(graph, node_array)``: the graph's fingerprint and
#: the SHA-256 of the int64 node array (community labels or original ids).
PINNED_WITH_NODES = {
    "lfr-3000-seed0-communities": (
        lambda: lfr_graph(3000, seed=0, return_communities=True),
        "5732fa6c91a2b2034a20e137cb1b2aad8fde03f87f0c42013bf12fe802e23ab7",
        "40d4e796ceb2953964de0df7c7f92307689faaca5d12079f23d00ae8d89cd5f0",
    ),
    "largest-component-weighted": (
        weighted_disconnected_component,
        "9f8c02eda39cac3e865f848f8e29b9e5db3a8b3061a27f5568e9d4ecf010262c",
        "bc9087f8a67163bee01f3d0549f444712036e87f43e2e4962b4d70b39501d65e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_graph_fingerprint_is_pinned(name):
    build, expected = PINNED[name]
    graph = build()
    assert graph_fingerprint(graph) == expected
    # The second call is served from the memo, with the same digest.
    assert graph_fingerprint(graph) == expected


@pytest.mark.parametrize("name", sorted(PINNED_WITH_NODES))
def test_generated_graph_and_node_array_are_pinned(name):
    build, expected_graph, expected_nodes = PINNED_WITH_NODES[name]
    graph, nodes = build()
    assert graph_fingerprint(graph) == expected_graph
    assert nodes.dtype == np.int64
    assert hashlib.sha256(nodes.tobytes()).hexdigest() == expected_nodes


class TestFingerprintMemo:
    def test_runner_hashes_a_built_graph_once(self, monkeypatch):
        graph = ring_of_cliques(4, 5)
        hashed = []

        def spy(digest, tag, array, canonical):
            hashed.append(tag)
            return fingerprint_array(digest, tag, array, canonical)

        fingerprint_array = runner._fingerprint_array
        monkeypatch.setattr(runner, "_fingerprint_array", spy)
        grid = DiffusionGrid(PPR(alpha=(0.1,)), epsilons=(1e-3,),
                             num_seeds=2, seed=0)
        first = run_ncp_ensemble(graph, grid)
        second = run_ncp_ensemble(graph, grid)
        assert hashed == ["indptr", "indices", "weights"]
        assert first.fingerprint == second.fingerprint

    def test_graph_over_a_writable_base_is_hashed_every_call(self):
        # A path 0 - 1 - 2 whose weights are a view of a caller array the
        # graph cannot freeze: mutating the base must move the digest.
        base = np.array([1.0, 1.0, 1.0, 1.0])
        graph = Graph(
            np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), base[:],
            validate=False,
        )
        before = graph_fingerprint(graph)
        base[0] = 2.0
        assert graph_fingerprint(graph) != before
