"""Property-based tests (hypothesis) for core invariants.

These cover the load-bearing algebraic identities: graph/CSR invariants,
Laplacian spectra, conductance symmetry, diffusion mass conservation, the
push invariant, max-flow/min-cut duality, and the regularized-SDP
equivalence — each over randomized instances rather than fixed examples.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.matrices import (
    laplacian_quadratic_form,
    normalized_laplacian,
    trivial_eigenvector,
)

@st.composite
def connected_graphs(draw, min_nodes=3, max_nodes=16, integer_weights=False):
    """Random connected weighted graphs: random tree + extra edges.

    Weights are floats in [0.25, 4], or integers in 1..5 with
    ``integer_weights``.
    """
    if integer_weights:
        weight = st.integers(1, 5).map(float)
    else:
        weight = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    n = draw(st.integers(min_nodes, max_nodes))
    edges = {}
    # Random spanning tree guarantees connectivity.
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = draw(weight)
    extra = draw(st.integers(0, min(12, n * (n - 1) // 2 - (n - 1))))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = draw(weight)
    pairs = sorted(edges)
    return from_edges(n, pairs, [edges[p] for p in pairs])


@st.composite
def node_subsets(draw, graph):
    """A nonempty proper node subset of the given graph."""
    n = graph.num_nodes
    members = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                 unique=True)
    )
    if len(members) == n:
        members = members[:-1]
    return members


class TestGraphInvariants:
    @given(connected_graphs())
    def test_handshake_lemma(self, graph):
        total_weight = sum(w for *_e, w in graph.edges())
        assert graph.total_volume == pytest.approx(2 * total_weight)

    @given(connected_graphs())
    def test_adjacency_symmetric(self, graph):
        dense = graph.to_dense()
        assert np.allclose(dense, dense.T)

    @given(connected_graphs())
    def test_induced_subgraph_consistency(self, graph):
        k = max(1, graph.num_nodes // 2)
        chosen = list(range(k))
        sub, ids = graph.induced_subgraph(chosen)
        for i, u in enumerate(ids):
            for j, v in enumerate(ids):
                assert sub.edge_weight(i, j) == pytest.approx(
                    graph.edge_weight(int(u), int(v))
                )

    @given(connected_graphs(), st.integers(0, 10_000))
    def test_cut_weight_complement_symmetry(self, graph, salt):
        rng = np.random.default_rng(salt)
        k = int(rng.integers(1, graph.num_nodes))
        side = rng.choice(graph.num_nodes, size=k, replace=False)
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[side] = True
        assert graph.cut_weight(mask) == pytest.approx(
            graph.cut_weight(~mask)
        )

    @given(connected_graphs())
    def test_bfs_distances_triangle_inequality(self, graph):
        dist0 = graph.bfs_distances(0)
        for u, v, _w in graph.edges():
            # Adjacent nodes differ by at most 1 hop from any source.
            assert abs(dist0[u] - dist0[v]) <= 1


class TestSpectralInvariants:
    @given(connected_graphs())
    def test_normalized_laplacian_spectrum(self, graph):
        eigenvalues = np.linalg.eigvalsh(
            normalized_laplacian(graph).toarray()
        )
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 2.0 + 1e-9
        assert abs(eigenvalues[0]) < 1e-9  # trivial eigenvalue

    @given(connected_graphs())
    def test_connected_iff_lambda2_positive(self, graph):
        eigenvalues = np.linalg.eigvalsh(
            normalized_laplacian(graph).toarray()
        )
        assert eigenvalues[1] > 1e-12

    @given(connected_graphs(), st.integers(0, 10_000))
    def test_quadratic_form_nonnegative(self, graph, salt):
        rng = np.random.default_rng(salt)
        x = rng.standard_normal(graph.num_nodes)
        assert laplacian_quadratic_form(graph, x) >= -1e-12

    @given(connected_graphs())
    def test_trivial_eigenvector_in_kernel(self, graph):
        L = normalized_laplacian(graph)
        v1 = trivial_eigenvector(graph)
        assert np.abs(L @ v1).max() < 1e-10


class TestConductanceInvariants:
    @given(connected_graphs(), st.integers(0, 10_000))
    def test_conductance_in_unit_interval(self, graph, salt):
        from repro.partition.metrics import conductance

        rng = np.random.default_rng(salt)
        k = int(rng.integers(1, graph.num_nodes))
        side = rng.choice(graph.num_nodes, size=k, replace=False)
        phi = conductance(graph, side)
        assert 0.0 <= phi <= 1.0 + 1e-9

    @given(connected_graphs(), st.integers(0, 10_000))
    def test_sweep_cut_at_most_direct(self, graph, salt):
        # The sweep's best prefix can't be worse than any specific prefix.
        from repro.partition.metrics import conductance
        from repro.partition.sweep import sweep_cut

        rng = np.random.default_rng(salt)
        scores = rng.random(graph.num_nodes)
        result = sweep_cut(graph, scores, degree_normalize=False)
        k = int(rng.integers(1, graph.num_nodes))
        prefix = result.order[:k]
        assert result.conductance <= conductance(graph, prefix) + 1e-9

    @given(connected_graphs())
    def test_cheeger_inequality(self, graph):
        from repro.linalg.fiedler import fiedler_value
        from repro.partition.spectral import spectral_cut

        lam2 = fiedler_value(graph, method="exact")
        result = spectral_cut(graph, method="exact")
        assert lam2 / 2 - 1e-9 <= result.conductance
        assert result.conductance <= np.sqrt(2 * lam2) + 1e-9


@st.composite
def arbitrary_graphs(draw, max_nodes=14):
    """Graphs that need not be connected — may have isolated nodes."""
    n = draw(st.integers(1, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(
        st.sampled_from(possible), max_size=min(20, len(possible)),
        unique=True,
    )) if possible else []
    weights = [
        draw(st.floats(0.25, 8.0, allow_nan=False, allow_infinity=False))
        for _ in chosen
    ]
    # Extra tail nodes beyond every edge endpoint: isolated by design.
    extra = draw(st.integers(0, 3))
    return from_edges(n + extra, sorted(chosen),
                      [w for _, w in sorted(zip(chosen, weights))])


class TestSerializationRoundTrips:
    """Every storage format is a faithful bijection on graphs."""

    @given(arbitrary_graphs())
    def test_edge_list_roundtrip(self, tmp_path_factory, graph):
        from repro.graph.io import read_edge_list, write_edge_list

        path = tmp_path_factory.mktemp("rt") / "g.tsv"
        write_edge_list(graph, path)
        rebuilt = read_edge_list(path, num_nodes=graph.num_nodes)
        assert rebuilt == graph

    @given(arbitrary_graphs())
    def test_edge_list_unweighted_structure_roundtrip(
        self, tmp_path_factory, graph
    ):
        from repro.graph.build import from_edges as rebuild
        from repro.graph.io import read_edge_list, write_edge_list

        path = tmp_path_factory.mktemp("rt") / "g.tsv"
        write_edge_list(graph, path, write_weights=False)
        rebuilt = read_edge_list(path, num_nodes=graph.num_nodes)
        us, vs, _ = graph.edge_array()
        expected = rebuild(
            graph.num_nodes, np.stack([us, vs], axis=1)
        )
        assert rebuilt == expected

    @given(arbitrary_graphs())
    def test_json_roundtrip(self, graph):
        from repro.graph.io import from_json_document, to_json_document

        assert from_json_document(to_json_document(graph)) == graph

    @given(arbitrary_graphs())
    def test_binary_roundtrip(self, tmp_path_factory, graph):
        from repro.graph.storage import read_binary, write_binary

        path = tmp_path_factory.mktemp("rt") / "g.reprograph"
        write_binary(graph, path)
        # mmap=False: hypothesis reuses tmp dirs aggressively; a fully
        # materialized read keeps no file handle behind.
        rebuilt = read_binary(path, mmap=False)
        assert rebuilt == graph

    @given(arbitrary_graphs())
    def test_binary_preserves_fingerprint(self, tmp_path_factory, graph):
        from repro.graph.storage import read_binary, write_binary
        from repro.ncp.runner import graph_fingerprint

        path = tmp_path_factory.mktemp("rt") / "g.reprograph"
        write_binary(graph, path)
        assert graph_fingerprint(read_binary(path)) == (
            graph_fingerprint(graph)
        )

    @given(arbitrary_graphs(), st.integers(0, 5))
    def test_num_nodes_override_roundtrip(
        self, tmp_path_factory, graph, padding
    ):
        from repro.graph.io import read_edge_list, write_edge_list

        path = tmp_path_factory.mktemp("rt") / "g.tsv"
        write_edge_list(graph, path)
        n = graph.num_nodes + padding
        rebuilt = read_edge_list(path, num_nodes=n)
        assert rebuilt.num_nodes == n
        assert rebuilt.num_edges == graph.num_edges


class TestDiffusionInvariants:
    @given(connected_graphs(), st.floats(0.05, 0.95),
           st.integers(0, 10_000))
    def test_pagerank_is_distribution(self, graph, gamma, salt):
        from repro.diffusion.pagerank import pagerank_exact
        from repro.diffusion.seeds import indicator_seed

        rng = np.random.default_rng(salt)
        seed_node = int(rng.integers(graph.num_nodes))
        pr = pagerank_exact(graph, gamma, indicator_seed(graph, [seed_node]))
        assert pr.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(pr >= -1e-10)

    @given(connected_graphs(), st.floats(0.1, 5.0))
    def test_heat_kernel_mass_conserved(self, graph, t):
        from repro.diffusion.heat_kernel import heat_kernel_vector
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        h = heat_kernel_vector(graph, s, t, kind="random_walk")
        assert h.sum() == pytest.approx(1.0, abs=1e-8)

    @given(connected_graphs(), st.floats(0.05, 0.6),
           st.sampled_from([1e-2, 1e-3, 1e-4]))
    def test_push_invariant_and_error(self, graph, alpha, epsilon):
        from repro.diffusion.pagerank import lazy_pagerank_exact
        from repro.diffusion.push import approximate_ppr_push
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        result = approximate_ppr_push(
            graph, s, alpha=alpha, epsilon=epsilon
        )
        exact = lazy_pagerank_exact(graph, alpha, s)
        gap = np.abs(result.approximation - exact)
        assert np.all(gap <= epsilon * graph.degrees + 1e-9)
        assert np.all(result.residual <= epsilon * graph.degrees + 1e-12)


class TestEngineInvariants:
    """The batched frontier engine obeys the same Section 3.3 contracts
    as the scalar push: exact push invariant at exit, the eps*d entrywise
    guarantee, and the O(1/(eps alpha)) work-accounting bound."""

    @given(connected_graphs(), st.floats(0.05, 0.6),
           st.sampled_from([1e-2, 1e-3, 1e-4]))
    def test_engine_push_invariant_at_exit(self, graph, alpha, epsilon):
        # p + pr_alpha(r) = pr_alpha(s): simultaneous pushes are linear,
        # so the invariant must hold exactly (to solver tolerance).
        from repro.diffusion.engine import ppr_push_frontier
        from repro.diffusion.pagerank import lazy_pagerank_exact
        from repro.diffusion.push import push_invariant_residual
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        result = ppr_push_frontier(graph, s, alpha=alpha, epsilon=epsilon)
        assert push_invariant_residual(graph, result, s) < 1e-8
        exact = lazy_pagerank_exact(graph, alpha, s)
        gap = np.abs(result.approximation - exact)
        assert np.all(gap <= epsilon * graph.degrees + 1e-9)
        assert np.all(result.residual <= epsilon * graph.degrees + 1e-12)
        assert np.all(result.residual >= 0)

    @given(connected_graphs(), st.floats(0.05, 0.6),
           st.sampled_from([1e-2, 1e-3]))
    def test_engine_work_bound(self, graph, alpha, epsilon):
        # Every push drains alpha * r_u >= alpha * eps * d_u of residual
        # mass, so eps * alpha * sum_pushes d_u <= ||s||_1 — the paper's
        # output-local work bound, independent of n.
        from repro.diffusion.engine import batch_ppr_push
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        result = batch_ppr_push(
            graph, [s], alphas=(alpha,), epsilons=(epsilon,)
        )
        assert epsilon * alpha * result.pushed_volume[0] <= s.sum() + 1e-9
        # Total mass is conserved between approximation and residual.
        total = result.approximation[:, 0].sum() + \
            result.residual[:, 0].sum()
        assert total == pytest.approx(s.sum(), abs=1e-9)

    @given(connected_graphs(), st.floats(0.05, 0.6),
           st.sampled_from([1e-2, 1e-3]))
    def test_engine_scalar_parity(self, graph, alpha, epsilon):
        from repro.diffusion.engine import ppr_push_frontier
        from repro.diffusion.push import approximate_ppr_push
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        scalar = approximate_ppr_push(graph, s, alpha=alpha, epsilon=epsilon)
        frontier = ppr_push_frontier(graph, s, alpha=alpha, epsilon=epsilon)
        gap = np.abs(scalar.approximation - frontier.approximation)
        assert np.all(gap <= 2 * epsilon * graph.degrees + 1e-9)


class TestFlowInvariants:
    @given(st.integers(0, 10_000))
    def test_maxflow_mincut_duality_random(self, salt):
        from repro.partition.maxflow import FlowNetwork

        rng = np.random.default_rng(salt)
        n = int(rng.integers(4, 10))
        net = FlowNetwork(n)
        for _ in range(int(rng.integers(5, 25))):
            u, v = rng.integers(n, size=2)
            if u != v:
                net.add_edge(int(u), int(v), float(rng.integers(1, 8)))
        result = net.max_flow(0, n - 1)
        side = result.min_cut_source_side()
        assert 0 in side and (n - 1) not in side
        assert result.cut_capacity(side) == pytest.approx(result.value)

    @given(connected_graphs(min_nodes=5), st.integers(0, 10_000))
    def test_mqi_never_worsens(self, graph, salt):
        from repro.partition.metrics import conductance
        from repro.partition.mqi import mqi

        rng = np.random.default_rng(salt)
        k = int(rng.integers(2, graph.num_nodes - 1))
        side = rng.choice(graph.num_nodes, size=k, replace=False)
        if graph.degrees[side].sum() > graph.total_volume / 2:
            mask = np.zeros(graph.num_nodes, dtype=bool)
            mask[side] = True
            side = np.flatnonzero(~mask)
        if side.size == 0 or side.size == graph.num_nodes:
            return
        if graph.degrees[side].sum() > graph.total_volume / 2:
            return
        result = mqi(graph, side)
        assert result.conductance <= conductance(graph, side) + 1e-9

    @given(connected_graphs(min_nodes=4, integer_weights=True),
           st.integers(0, 10_000))
    def test_compiled_mqi_round_matches_flow_network(self, graph, salt):
        import importlib

        mqi_module = importlib.import_module("repro.partition.mqi")
        rng = np.random.default_rng(salt)
        sides = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, graph.num_nodes))
            sides.append(
                np.sort(rng.choice(graph.num_nodes, size=k, replace=False))
            )
        # Every side goes into one compiled union network.
        _phis, fallback, union = mqi_module._build_wave(
            graph, sides, solve=True
        )
        assert fallback == [None] * len(sides)
        _network, blocks, _starts, _saturated = union
        assert blocks.tolist() == list(range(len(sides)))
        _phis, improved = mqi_module._wave(graph, sides)
        for side, compiled in zip(sides, improved):
            oracle = mqi_module._float_round(graph, side)
            if compiled is None or oracle is None:
                assert compiled is None and oracle is None
            else:
                assert np.array_equal(compiled, oracle)


class TestRefinerInvariants:
    """Registry-wide refiner contracts: every registered refiner maps a
    nonempty proper subset to a nonempty proper subset and never
    increases conductance — on arbitrary inputs, including ones that
    violate a refiner's own preconditions (those pass through
    unchanged)."""

    @given(connected_graphs(min_nodes=4), st.integers(0, 10_000))
    def test_every_registered_refiner_contract(self, graph, salt):
        from repro.partition.metrics import conductance
        from repro.refine import apply_refiners, registered_refiners

        rng = np.random.default_rng(salt)
        k = int(rng.integers(1, graph.num_nodes))
        side = np.sort(rng.choice(graph.num_nodes, size=k, replace=False))
        if side.size == graph.num_nodes:
            side = side[:-1]
        phi = conductance(graph, side)
        for key, kind in registered_refiners().items():
            trace = apply_refiners(graph, side, (kind.default_spec(),))
            assert trace.final_conductance <= phi + 1e-9, key
            assert trace.final_conductance == pytest.approx(
                conductance(graph, trace.nodes)
            ), key
            assert 0 < trace.nodes.size < graph.num_nodes, key
            assert np.array_equal(trace.nodes, np.unique(trace.nodes)), key

    @given(connected_graphs(min_nodes=4), st.integers(0, 10_000))
    def test_chain_is_monotone_stage_by_stage(self, graph, salt):
        from repro.refine import apply_refiners

        rng = np.random.default_rng(salt)
        k = int(rng.integers(1, max(2, graph.num_nodes // 2)))
        side = rng.choice(graph.num_nodes, size=k, replace=False)
        trace = apply_refiners(graph, side, ("mqi", "flow"))
        previous = trace.initial_conductance
        for step in trace.steps:
            assert step.pre_conductance == pytest.approx(previous)
            assert step.post_conductance <= step.pre_conductance + 1e-12
            if not step.changed:
                assert step.post_conductance == step.pre_conductance
            previous = step.post_conductance


class TestRegularizationInvariants:
    @given(connected_graphs(min_nodes=4, max_nodes=12),
           st.floats(0.2, 8.0))
    def test_heat_kernel_equivalence_random_graphs(self, graph, t):
        from repro.regularization.equivalence import verify_heat_kernel

        report = verify_heat_kernel(graph, t)
        assert report.diffusion_vs_closed_form < 1e-8

    @given(connected_graphs(min_nodes=4, max_nodes=12),
           st.floats(0.05, 0.9))
    def test_pagerank_equivalence_random_graphs(self, graph, gamma):
        from repro.regularization.equivalence import verify_pagerank

        report = verify_pagerank(graph, gamma)
        assert report.diffusion_vs_closed_form < 1e-7

    @given(connected_graphs(min_nodes=4, max_nodes=12),
           st.floats(0.5, 0.95), st.integers(1, 8))
    def test_lazy_walk_equivalence_random_graphs(self, graph, alpha, k):
        from repro.regularization.equivalence import verify_lazy_walk

        report = verify_lazy_walk(graph, alpha, k)
        assert report.diffusion_vs_closed_form < 1e-7

    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_simplex_projection_is_projection(self, salt, d):
        from repro.regularization.solver import simplex_projection

        rng = np.random.default_rng(salt)
        v = rng.standard_normal(d) * 5
        p = simplex_projection(v)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)
        # Idempotent.
        assert np.allclose(simplex_projection(p), p, atol=1e-12)


class TestMultiDynamicsInvariants:
    """Invariants of the truncated walk and the batched heat-kernel
    engine: rounding can only move mass into the dropped-mass ledger, and
    the batched Taylor accumulation stays inside the scalar error
    budget."""

    @given(connected_graphs(), st.sampled_from([1e-2, 1e-3, 1e-4]),
           st.floats(0.3, 0.7), st.integers(0, 12), st.booleans())
    def test_truncated_walk_mass_conservation(self, scalar_oracles, graph,
                                              epsilon, alpha, num_steps,
                                              oracle):
        # Every unit of seed mass is either still in the charge vector or
        # was explicitly dropped by rounding: final + dropped ≈ 1, for the
        # numpy spread step and for its scalar oracle.
        from repro.diffusion.seeds import indicator_seed
        from repro.diffusion.truncated_walk import truncated_lazy_walk

        s = indicator_seed(graph, [0])
        with scalar_oracles() if oracle else contextlib.nullcontext():
            result = truncated_lazy_walk(
                graph, s, num_steps, epsilon=epsilon, alpha=alpha,
                keep_trajectory=False,
            )
        assert result.final.sum() + result.dropped_mass == pytest.approx(
            1.0, abs=1e-9
        )
        assert result.dropped_mass >= -1e-15
        assert np.all(result.final >= 0)

    @given(connected_graphs(), st.sampled_from([1e-2, 1e-3]),
           st.floats(0.3, 0.7), st.integers(1, 10))
    def test_truncated_walk_implementations_agree(self, scalar_oracles,
                                                  graph, epsilon, alpha,
                                                  num_steps):
        from repro.diffusion.seeds import indicator_seed
        from repro.diffusion.truncated_walk import truncated_lazy_walk

        s = indicator_seed(graph, [0])
        with scalar_oracles():
            scalar = truncated_lazy_walk(
                graph, s, num_steps, epsilon=epsilon, alpha=alpha,
            )
        fast = truncated_lazy_walk(
            graph, s, num_steps, epsilon=epsilon, alpha=alpha,
        )
        assert np.allclose(scalar.final, fast.final, atol=1e-12)
        assert scalar.support_sizes == fast.support_sizes
        assert scalar.dropped_mass == pytest.approx(
            fast.dropped_mass, abs=1e-12
        )

    @given(connected_graphs(), st.floats(0.2, 6.0),
           st.sampled_from([1e-2, 1e-3]))
    def test_batch_hk_error_within_budget(self, graph, t, epsilon):
        # Column ℓ1 error ≤ dropped rounding mass + Poisson tail — the
        # scalar heat_kernel_push bound, inherited per batched column.
        from repro.diffusion.engine import batch_hk_push
        from repro.diffusion.heat_kernel import heat_kernel_vector
        from repro.diffusion.seeds import indicator_seed

        s = indicator_seed(graph, [0])
        batch = batch_hk_push(graph, [s], ts=(t,), epsilons=(epsilon,))
        exact = heat_kernel_vector(graph, s, t, kind="random_walk")
        error = np.abs(batch.approximation[:, 0] - exact).sum()
        budget = batch.dropped_mass[0] + batch.tail_bound[0]
        assert error <= budget + 1e-7
