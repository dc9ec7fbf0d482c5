"""The support handoff of the NCP pipeline against the dense path.

Each spec's ``support_columns`` hands every diffusion column over as the
ascending rows it may be nonzero on and its values there; the pipeline
sweeps that support only (``sweep_support``).  These tests pin that the
handoff loses nothing: the columns densify to exactly the dense vectors
the engines compute, and the support sweep's order, profile and best
prefix are bitwise those of ``sweep_cut`` over the dense column
restricted to its positive entries.  Random connected graphs come from
hypothesis; AtP-DBLP adds the reference graph, whose wide diffusions
saturate it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import load_graph
from repro.diffusion.engine import batch_hk_push, batch_ppr_push
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.diffusion.truncated_walk import truncated_lazy_walk
from repro.dynamics import PPR, HeatKernel, LazyWalk
from repro.exceptions import InvalidParameterError, PartitionError
from repro.graph.build import from_edges
from repro.ncp.profile import _octave_candidates, grid_candidates_for_seed_nodes
from repro.partition.sweep import sweep_cut, sweep_support

SPECS = (PPR(alpha=(0.05, 0.15)), HeatKernel(t=(2.0, 8.0)),
         LazyWalk(steps=(4, 16)))
EPSILONS = (1e-2, 1e-4)


@st.composite
def connected_graphs(draw, max_nodes=24):
    """A random spanning tree plus a few extra edges, weights in [0.5, 3]."""
    n = draw(st.integers(3, max_nodes))
    weight = st.floats(0.5, 3.0, allow_nan=False, allow_infinity=False)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight)
             for v in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        edges.setdefault((u, v), draw(weight))
    pairs = sorted(edges)
    return from_edges(n, pairs, [edges[p] for p in pairs])


def dense(graph, rows, values):
    column = np.zeros(graph.num_nodes)
    column[rows] = values
    return column


def engine_columns(graph, spec, seed_nodes, epsilons):
    """The engines' dense output columns, in the grid's column order."""
    vectors = [degree_weighted_indicator_seed(graph, [int(s)])
               for s in seed_nodes]
    if isinstance(spec, PPR):
        batch = batch_ppr_push(graph, vectors, alphas=spec.alpha,
                               epsilons=epsilons)
    elif isinstance(spec, HeatKernel):
        batch = batch_hk_push(graph, vectors, ts=spec.t, epsilons=epsilons)
    else:
        wanted = sorted(set(spec.steps))
        return [
            truncated_lazy_walk(
                graph, vector, wanted[-1], epsilon=epsilon,
                alpha=spec.walk_alpha,
            ).trajectory[k]
            for vector in vectors for epsilon in epsilons for k in wanted
        ]
    return list(batch.approximation.T)


def assert_same_sweep(graph, rows, values, max_size=None):
    """The support sweep is bitwise the dense restricted sweep."""
    column = dense(graph, rows, values)
    positive = values > 0
    got = sweep_support(graph, rows[positive], values[positive],
                        max_size=max_size)
    want = sweep_cut(graph, column, restrict_to=np.flatnonzero(column > 0),
                     max_size=max_size)
    assert np.array_equal(got.order, want.order)
    assert got.profile.tobytes() == want.profile.tobytes()
    assert np.array_equal(got.nodes, want.nodes)
    assert (got.conductance, got.size, got.volume) == (
        want.conductance, want.size, want.volume
    )


def check_columns(graph, spec, seed_nodes, epsilons=EPSILONS):
    supported = list(spec.support_columns(graph, seed_nodes,
                                          epsilons=epsilons))
    dense_columns = list(spec.iter_columns(graph, seed_nodes,
                                           epsilons=epsilons))
    reference = engine_columns(graph, spec, seed_nodes, epsilons)
    assert len(supported) == len(dense_columns) == len(reference)
    for (rows, values), column, want in zip(supported, dense_columns,
                                            reference):
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(dense(graph, rows, values), column)
        assert np.array_equal(column, want)
        if np.count_nonzero(values > 0):
            assert_same_sweep(graph, rows, values)
    return supported


class TestSupportColumns:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @given(graph=connected_graphs(), picks=st.lists(
        st.integers(0, 10_000), min_size=1, max_size=3))
    def test_random_graphs_densify_to_the_dense_columns(self, spec, graph,
                                                        picks):
        seed_nodes = [p % graph.num_nodes for p in picks]
        check_columns(graph, spec, seed_nodes)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_atp_densifies_to_the_dense_columns(self, spec):
        graph = load_graph("atp")
        supported = check_columns(graph, spec, [3, 700],
                                  epsilons=(1e-3, 1e-5))
        sizes = [np.count_nonzero(values) for _, values in supported]
        # Both a local column and one spread over most of the graph.
        assert min(sizes) < graph.num_nodes // 10
        assert max(sizes) > graph.num_nodes // 2


class TestSupportSweep:
    def test_narrow_and_capped_columns(self, whiskered):
        rows, values = next(PPR(alpha=(0.15,)).support_columns(
            whiskered, [41], epsilons=(1e-2,)
        ))
        assert 2 <= np.count_nonzero(values) < whiskered.num_nodes // 4
        assert_same_sweep(whiskered, rows, values)
        assert_same_sweep(whiskered, rows, values, max_size=3)

    def test_saturated_column(self, whiskered, rng):
        rows = np.arange(whiskered.num_nodes)
        values = rng.random(rows.size) + 0.1
        # Ties in the keys exercise the stable order.
        values[::7] = whiskered.degrees[::7]
        assert_same_sweep(whiskered, rows, values)

    def test_single_node_support(self, whiskered):
        assert_same_sweep(whiskered, np.array([5]), np.array([0.5]))

    def test_empty_support_raises_like_the_dense_sweep(self, whiskered):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(PartitionError):
            sweep_support(whiskered, empty, np.empty(0))
        with pytest.raises(PartitionError):
            sweep_cut(whiskered, np.zeros(whiskered.num_nodes),
                      restrict_to=empty)

    @pytest.mark.parametrize("size", [0, 1])
    def test_pipeline_skips_supports_under_two_nodes(self, whiskered,
                                                     monkeypatch, size):
        def columns(spec, graph, seed_nodes, *, epsilons):
            yield np.arange(size), np.full(size, 0.5)

        monkeypatch.setattr(PPR, "support_columns", columns)
        assert grid_candidates_for_seed_nodes(
            whiskered, [0], PPR(), epsilons=(1e-3,), max_cluster_size=10
        ) == []

    def test_nan_column_is_rejected(self, whiskered, monkeypatch):
        def columns(spec, graph, seed_nodes, *, epsilons):
            yield np.arange(3), np.array([0.5, np.nan, 0.25])

        monkeypatch.setattr(PPR, "support_columns", columns)
        with pytest.raises(InvalidParameterError, match="finite"):
            grid_candidates_for_seed_nodes(
                whiskered, [0], PPR(), epsilons=(1e-3,), max_cluster_size=10
            )

    @pytest.mark.parametrize("profile, picks", [
        ([np.inf, 0.5, 0.4, 0.3, np.inf, 0.2, 0.25, 0.1, 0.3, 0.3,
          np.inf, np.inf], [(3, 0.4), (6, 0.2), (8, 0.1)]),
        # The octave of sizes 4-7 has no finite prefix: no candidate.
        ([0.9, 0.5, 0.6, np.inf, np.inf, np.inf, np.inf, 0.2, 0.3, 0.1,
          0.4, np.inf], [(1, 0.9), (2, 0.5), (10, 0.1)]),
        # Tied minima: the smallest prefix wins.
        ([0.5, 0.3, 0.3, 0.2, 0.4, 0.2, 0.2, 0.7, 0.1, 0.1, 0.1, np.inf],
         [(1, 0.5), (2, 0.3), (4, 0.2), (9, 0.1)]),
    ], ids=["mixed", "all-inf-octave", "tied-minimum"])
    def test_octave_candidates_take_the_first_finite_minimum(self, profile,
                                                             picks):
        order = np.arange(12)[::-1]
        sweep = SimpleNamespace(profile=np.array(profile), order=order)
        out = []
        _octave_candidates(sweep, out, "spectral", 12)
        assert [(c.size, c.conductance) for c in out] == picks
        for c in out:
            assert np.array_equal(c.nodes, np.sort(order[:c.size]))
