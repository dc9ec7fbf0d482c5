"""Tests for the frontier-batched diffusion engine and its consumers.

Parity is stated the way the paper states it (Section 3.3): any push
schedule — scalar deque order or synchronized frontier sweeps — satisfies
the same push invariant and exits with ``r_u < ε d_u``, hence both outputs
obey ``|p_u − pr_α(s)_u| ≤ ε d_u`` and differ from *each other* by at most
``2 ε d_u`` entrywise. Sweep cuts computed by the vectorized prefix scan
must match the scalar reference exactly, including tie-breaking.
"""

from __future__ import annotations

import time
import timeit

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamics import DiffusionGrid, HeatKernel, LazyWalk, PPR
from repro.diffusion.engine import (
    BatchHeatKernelResult,
    BatchPushResult,
    batch_hk_push,
    batch_ppr_push,
    ppr_push_frontier,
)
from repro.diffusion.hk_push import (
    SERIES_T_MAX,
    heat_kernel_push,
    terms_for_tail,
)
from repro.diffusion.truncated_walk import truncated_lazy_walk
from repro.diffusion.pagerank import lazy_pagerank_exact
from repro.diffusion.push import approximate_ppr_push
from repro.diffusion.seeds import (
    degree_weighted_indicator_seed,
    indicator_seed,
)
from repro.exceptions import InvalidParameterError
from repro.graph.build import from_edges, union_disjoint
from repro.graph.generators import cycle_graph
from repro.graph.matrices import adjacency_matrix
from repro.partition.sweep import sweep_cut


def random_graph(rng, n, extra_edges, *, weighted=False):
    """Random connected graph: spanning tree + extra edges."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.25, 4.0)) if weighted else 1.0
    for _ in range(extra_edges):
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.25, 4.0)) if weighted else 1.0
    pairs = sorted(edges)
    return from_edges(n, pairs, [edges[p] for p in pairs])


class TestFrontierScalarParity:
    @pytest.mark.parametrize("alpha,epsilon", [
        (0.05, 1e-3), (0.05, 1e-4), (0.2, 1e-3), (0.2, 1e-5),
    ])
    def test_both_meet_entrywise_guarantee(self, whiskered, alpha, epsilon):
        s = degree_weighted_indicator_seed(whiskered, [3])
        exact = lazy_pagerank_exact(whiskered, alpha, s)
        bound = epsilon * whiskered.degrees
        scalar = approximate_ppr_push(
            whiskered, s, alpha=alpha, epsilon=epsilon
        )
        frontier = ppr_push_frontier(
            whiskered, s, alpha=alpha, epsilon=epsilon
        )
        for result in (scalar, frontier):
            assert np.all(np.abs(result.approximation - exact) <= bound + 1e-12)
            assert np.all(result.residual <= bound + 1e-15)
            assert np.all(result.residual >= 0)
        # Schedules differ, but only inside the shared eps*d envelope.
        gap = np.abs(frontier.approximation - scalar.approximation)
        assert np.all(gap <= 2 * bound + 1e-12)

    def test_parity_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            graph = random_graph(
                rng, int(rng.integers(8, 40)), int(rng.integers(0, 30)),
                weighted=trial % 2 == 0,
            )
            s = indicator_seed(graph, [int(rng.integers(graph.num_nodes))])
            alpha = float(rng.uniform(0.05, 0.5))
            epsilon = float(rng.choice([1e-2, 1e-3, 1e-4]))
            scalar = approximate_ppr_push(
                graph, s, alpha=alpha, epsilon=epsilon
            )
            frontier = ppr_push_frontier(
                graph, s, alpha=alpha, epsilon=epsilon
            )
            exact = lazy_pagerank_exact(graph, alpha, s)
            bound = epsilon * graph.degrees
            assert np.all(
                np.abs(frontier.approximation - exact) <= bound + 1e-12
            )
            assert np.all(
                np.abs(frontier.approximation - scalar.approximation)
                <= 2 * bound + 1e-12
            )

    def test_identical_sweep_cuts_from_both_schedules(self, whiskered):
        # The downstream rounding step: both diffusions must induce the
        # same community when swept (the supports and orderings agree up
        # to eps-sized perturbations on a graph with a clear cluster).
        s = degree_weighted_indicator_seed(whiskered, [42])
        scalar = approximate_ppr_push(whiskered, s, alpha=0.1, epsilon=1e-4)
        frontier = ppr_push_frontier(whiskered, s, alpha=0.1, epsilon=1e-4)
        cut_scalar = sweep_cut(
            whiskered, scalar.approximation,
            restrict_to=np.flatnonzero(scalar.approximation > 0),
        )
        cut_frontier = sweep_cut(
            whiskered, frontier.approximation,
            restrict_to=np.flatnonzero(frontier.approximation > 0),
        )
        assert np.array_equal(cut_scalar.nodes, cut_frontier.nodes)
        assert cut_scalar.conductance == pytest.approx(
            cut_frontier.conductance
        )

    def test_work_accounting_matches_bound(self, whiskered):
        s = degree_weighted_indicator_seed(whiskered, [0])
        alpha, epsilon = 0.1, 1e-4
        result = batch_ppr_push(
            whiskered, [s], alphas=(alpha,), epsilons=(epsilon,)
        )
        # eps * alpha * (sum of pushed degrees) <= ||s||_1: the O(1/(eps
        # alpha)) locality bound of [1], checked as an exact inequality.
        assert epsilon * alpha * result.pushed_volume[0] <= s.sum() + 1e-12
        assert result.num_pushes[0] > 0
        assert result.work[0] >= result.num_pushes[0]


class TestBatchSemantics:
    def test_grid_columns_match_single_runs(self, whiskered):
        seeds = [3, 17]
        alphas = (0.05, 0.2)
        epsilons = (1e-2, 1e-4)
        batch = batch_ppr_push(
            whiskered, seeds, alphas=alphas, epsilons=epsilons
        )
        assert isinstance(batch, BatchPushResult)
        assert batch.num_columns == 8
        b = 0
        for si, seed_node in enumerate(seeds):
            vector = indicator_seed(whiskered, [seed_node])
            for alpha in alphas:
                for epsilon in epsilons:
                    assert batch.seed_indices[b] == si
                    assert batch.alphas[b] == alpha
                    assert batch.epsilons[b] == epsilon
                    single = ppr_push_frontier(
                        whiskered, vector, alpha=alpha, epsilon=epsilon
                    )
                    column = batch.column(b)
                    assert np.allclose(
                        column.approximation, single.approximation,
                        atol=1e-14,
                    )
                    assert np.allclose(
                        column.residual, single.residual, atol=1e-14
                    )
                    assert column.num_pushes == single.num_pushes
                    assert column.work == single.work
                    assert np.array_equal(column.touched, single.touched)
                    b += 1

    def test_vector_and_node_id_seeds_agree(self, whiskered):
        by_id = batch_ppr_push(whiskered, [5])
        by_vector = batch_ppr_push(whiskered, [indicator_seed(whiskered, [5])])
        assert np.allclose(
            by_id.approximation, by_vector.approximation, atol=0
        )

    def test_converged_columns_stop_accumulating_work(self, whiskered):
        # A loose-epsilon column must do no more work batched with a tight
        # one than it does alone.
        alone = batch_ppr_push(whiskered, [3], epsilons=(1e-2,))
        together = batch_ppr_push(whiskered, [3], epsilons=(1e-2, 1e-5))
        assert together.num_pushes[0] == alone.num_pushes[0]
        assert together.work[0] == alone.work[0]

    def test_column_out_of_range_rejected(self, whiskered):
        batch = batch_ppr_push(whiskered, [0])
        with pytest.raises(InvalidParameterError):
            batch.column(1)
        with pytest.raises(InvalidParameterError):
            batch.column(-1)

    def test_invalid_inputs_rejected(self, whiskered):
        with pytest.raises(InvalidParameterError):
            batch_ppr_push(whiskered, [])
        with pytest.raises(InvalidParameterError):
            batch_ppr_push(whiskered, [np.full(whiskered.num_nodes, -1.0)])
        with pytest.raises(InvalidParameterError):
            batch_ppr_push(whiskered, [0], alphas=(0.0,))
        with pytest.raises(InvalidParameterError):
            batch_ppr_push(whiskered, [0], epsilons=(2.0,))

    def test_push_cap_enforced(self, whiskered):
        with pytest.raises(InvalidParameterError):
            batch_ppr_push(
                whiskered, [0], epsilons=(1e-6,), max_pushes=3
            )

    def test_sub_unit_degrees_converge(self):
        # Regression: the default push cap used the count bound
        # ||s||_1/(eps*alpha), which is only valid for degrees >= 1; a
        # star with weight-0.01 edges used to hit the cap and raise on
        # both the scalar and the batched path.
        n = 200
        star = from_edges(
            n, [(0, v) for v in range(1, n)], [0.01] * (n - 1)
        )
        s = indicator_seed(star, [0])
        scalar = approximate_ppr_push(star, s, alpha=0.5, epsilon=0.1)
        frontier = ppr_push_frontier(star, s, alpha=0.5, epsilon=0.1)
        bound = 0.1 * star.degrees
        for result in (scalar, frontier):
            assert np.all(result.residual <= bound + 1e-15)
            assert result.num_pushes > 0

    def test_seed_below_threshold_converges_instantly(self, whiskered):
        tiny = np.zeros(whiskered.num_nodes)
        tiny[0] = 1e-9
        result = batch_ppr_push(whiskered, [tiny], epsilons=(1e-2,))
        assert result.num_sweeps == 0
        assert np.all(result.approximation == 0)
        assert np.allclose(result.residual[:, 0], tiny)


class TestSweepScanParity:
    def test_vectorized_matches_scalar_unweighted_exactly(
            self, scalar_oracles):
        # Unweighted graphs keep every cut/volume integer-valued, so the
        # two scans must agree bitwise — including tie-breaking.
        rng = np.random.default_rng(7)
        for _ in range(15):
            graph = random_graph(rng, int(rng.integers(6, 30)),
                                 int(rng.integers(0, 25)))
            scores = rng.integers(0, 4, size=graph.num_nodes).astype(float)
            with scalar_oracles():
                scalar = sweep_cut(graph, scores, degree_normalize=False)
            fast = sweep_cut(graph, scores, degree_normalize=False)
            assert np.array_equal(scalar.nodes, fast.nodes)
            assert scalar.conductance == fast.conductance
            assert scalar.volume == fast.volume
            assert np.array_equal(
                np.isfinite(scalar.profile), np.isfinite(fast.profile)
            )

    def test_vectorized_matches_scalar_with_options(self, whiskered, rng,
                                                    scalar_oracles):
        for trial in range(10):
            scores = rng.random(whiskered.num_nodes)
            kwargs = {}
            if trial % 3 == 1:
                kwargs["max_volume"] = float(
                    whiskered.total_volume * rng.uniform(0.2, 0.8)
                )
            if trial % 3 == 2:
                kwargs["min_size"] = 3
                kwargs["restrict_to"] = rng.choice(
                    whiskered.num_nodes, size=20, replace=False
                )
            with scalar_oracles():
                scalar = sweep_cut(whiskered, scores, **kwargs)
            fast = sweep_cut(whiskered, scores, **kwargs)
            assert np.array_equal(scalar.nodes, fast.nodes)
            assert scalar.conductance == pytest.approx(
                fast.conductance, abs=1e-12
            )
            both = np.isfinite(scalar.profile) & np.isfinite(fast.profile)
            assert np.array_equal(
                np.isfinite(scalar.profile), np.isfinite(fast.profile)
            )
            assert np.allclose(
                scalar.profile[both], fast.profile[both], atol=1e-12
            )

    def test_unknown_implementation_rejected(self, whiskered, rng):
        with pytest.raises(InvalidParameterError):
            sweep_cut(
                whiskered, rng.random(whiskered.num_nodes),
                backend="quantum",
            )


class TestNCPEngineParity:
    def test_batched_profile_matches_scalar_path(self, whiskered,
                                                 scalar_oracles):
        from repro.ncp.profile import (
            best_per_size_bucket,
            cluster_ensemble_ncp,
        )

        kwargs = dict(
            dynamics=PPR(alpha=(0.05, 0.15)), epsilons=(1e-3, 1e-4),
            num_seeds=8, seed=0,
        )
        with scalar_oracles():
            scalar = cluster_ensemble_ncp(whiskered, DiffusionGrid(**kwargs))
        batched = cluster_ensemble_ncp(whiskered, DiffusionGrid(**kwargs))
        assert len(batched) > 0
        profile_scalar = best_per_size_bucket(scalar, num_buckets=6)
        profile_batched = best_per_size_bucket(batched, num_buckets=6)
        assert np.allclose(
            profile_scalar.bucket_edges, profile_batched.bucket_edges
        )
        finite_scalar = np.isfinite(profile_scalar.best_conductance)
        finite_batched = np.isfinite(profile_batched.best_conductance)
        assert np.array_equal(finite_scalar, finite_batched)
        # The diffusions agree within eps*d, so per-bucket best
        # conductances can only drift by an eps-sized sweep perturbation.
        assert np.allclose(
            profile_scalar.best_conductance[finite_scalar],
            profile_batched.best_conductance[finite_batched],
            atol=0.05,
        )

    def test_unknown_engine_rejected(self):
        # One kernel family: a grid has no backend field to choose with.
        with pytest.raises(TypeError):
            DiffusionGrid(PPR(), backend="gpu")


class TestHeatKernelPushHardening:
    def test_terms_for_tail_raises_past_boundary(self):
        # Used to spin through the 100k iteration cap when exp(-t)
        # underflowed; must now fail fast and consistently.
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError):
            terms_for_tail(SERIES_T_MAX + 1.0, 1e-6)
        with pytest.raises(InvalidParameterError):
            terms_for_tail(1e6, 1e-6)
        assert time.perf_counter() - start < 0.5

    def test_heat_kernel_push_raises_past_boundary(self, ring):
        s = indicator_seed(ring, [0])
        with pytest.raises(InvalidParameterError):
            heat_kernel_push(ring, s, SERIES_T_MAX + 1.0)
        # Explicit num_terms does not bypass the guard: the Taylor
        # weights all underflow, so the output would be silently zero.
        with pytest.raises(InvalidParameterError):
            heat_kernel_push(ring, s, 1e4, num_terms=5)

    def test_boundary_time_still_works(self):
        assert terms_for_tail(SERIES_T_MAX, 0.5) >= 1

    def test_vectorized_stage_matches_exact_heat_kernel(self, ring):
        from repro.diffusion.heat_kernel import heat_kernel_vector

        s = indicator_seed(ring, [0])
        t = 2.0
        result = heat_kernel_push(ring, s, t, epsilon=1e-7)
        exact = heat_kernel_vector(ring, s, t, kind="random_walk")
        total_error = result.dropped_mass + result.tail_bound
        assert np.abs(result.approximation - exact).sum() <= (
            total_error + 1e-9
        )


class TestDenseSumsWithoutDenseVectors:
    """The kernels add up seeds and stages as numpy sums the dense
    vectors they no longer build, so the masses keep every bit."""

    def test_sparse_pairwise_sum_is_numpy_sum(self):
        from repro.diffusion.engine import _pairwise_sum

        rng = np.random.default_rng(5)
        for n in (1, 7, 8, 9, 127, 128, 129, 300, 4_099, 70_001):
            for _ in range(12):
                k = int(rng.integers(0, min(n, 200) + 1))
                positions = np.sort(rng.choice(n, size=k, replace=False))
                values = rng.random(k) * 10.0 ** rng.uniform(-9, 3, k)
                dense = np.zeros(n)
                dense[positions] = values
                got = _pairwise_sum(positions, values, n)
                assert np.float64(got).tobytes() == dense.sum().tobytes()

    @pytest.mark.parametrize("num_seeds", [1, 3])
    def test_vector_seed_masses_are_the_stacked_column_sums(self, num_seeds):
        from repro.diffusion.engine import _seed_block

        rng = np.random.default_rng(num_seeds)
        graph = random_graph(rng, 400, 300)
        vectors = []
        for _ in range(num_seeds):
            vector = np.zeros(graph.num_nodes)
            picks = rng.choice(graph.num_nodes, size=40, replace=False)
            vector[picks] = rng.random(40) * 10.0 ** rng.uniform(-6, 2, 40)
            vectors.append(vector)
        rows, block, mass = _seed_block(graph, vectors)
        stacked = np.column_stack(vectors)
        assert mass.tobytes() == stacked.sum(axis=0).tobytes()
        assert np.array_equal(stacked[rows], block)
        assert np.array_equal(rows, np.flatnonzero(stacked.any(axis=1)))


class TestBatchHeatKernel:
    TS = (0.5, 3.0, 10.0)
    EPS = (1e-3, 1e-4)

    def test_grid_columns_match_scalar_oracle(self, whiskered):
        seeds = [3, 17, 55]
        batch = batch_hk_push(
            whiskered, seeds, ts=self.TS, epsilons=self.EPS
        )
        assert isinstance(batch, BatchHeatKernelResult)
        assert batch.num_columns == len(seeds) * len(self.TS) * len(self.EPS)
        b = 0
        for si, seed_node in enumerate(seeds):
            vector = indicator_seed(whiskered, [seed_node])
            for t in self.TS:
                for epsilon in self.EPS:
                    assert batch.seed_indices[b] == si
                    assert batch.ts[b] == t
                    assert batch.epsilons[b] == epsilon
                    scalar = heat_kernel_push(
                        whiskered, vector, t, epsilon=epsilon
                    )
                    column = batch.column(b)
                    # The t-free stage recursion reproduces the scalar
                    # stages up to summation order, so everything matches
                    # to roundoff.
                    assert np.allclose(
                        column.approximation, scalar.approximation,
                        atol=1e-13,
                    )
                    assert column.num_terms == scalar.num_terms
                    assert column.work == scalar.work
                    assert np.array_equal(column.touched, scalar.touched)
                    assert column.dropped_mass == pytest.approx(
                        scalar.dropped_mass, abs=1e-12
                    )
                    assert column.tail_bound == pytest.approx(
                        scalar.tail_bound, abs=1e-15
                    )
                    b += 1

    def test_parity_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            graph = random_graph(
                rng, int(rng.integers(8, 40)), int(rng.integers(0, 30)),
                weighted=trial % 2 == 0,
            )
            seed_node = int(rng.integers(graph.num_nodes))
            t = float(rng.uniform(0.2, 8.0))
            epsilon = float(rng.choice([1e-2, 1e-3, 1e-4]))
            scalar = heat_kernel_push(
                graph, indicator_seed(graph, [seed_node]), t,
                epsilon=epsilon,
            )
            batch = batch_hk_push(
                graph, [seed_node], ts=(t,), epsilons=(epsilon,)
            )
            assert np.allclose(
                batch.approximation[:, 0], scalar.approximation,
                atol=1e-13,
            )
            assert int(batch.work[0]) == scalar.work

    def test_entrywise_error_budget_vs_exact(self, ring):
        from repro.diffusion.heat_kernel import heat_kernel_vector

        s = indicator_seed(ring, [0])
        t = 2.0
        batch = batch_hk_push(ring, [s], ts=(t,), epsilons=(1e-7,))
        exact = heat_kernel_vector(ring, s, t, kind="random_walk")
        budget = batch.dropped_mass[0] + batch.tail_bound[0]
        assert np.abs(batch.approximation[:, 0] - exact).sum() <= (
            budget + 1e-9
        )

    def test_zero_time_returns_rounded_seed(self, ring):
        s = indicator_seed(ring, [0])
        batch = batch_hk_push(ring, [s], ts=(0.0,), epsilons=(1e-4,))
        scalar = heat_kernel_push(ring, s, 0.0, epsilon=1e-4)
        assert np.allclose(
            batch.approximation[:, 0], scalar.approximation, atol=1e-15
        )

    def test_explicit_num_terms_matches_scalar(self, ring):
        s = indicator_seed(ring, [0])
        batch = batch_hk_push(
            ring, [s], ts=(2.0,), epsilons=(1e-4,), num_terms=5
        )
        scalar = heat_kernel_push(ring, s, 2.0, epsilon=1e-4, num_terms=5)
        assert np.allclose(
            batch.approximation[:, 0], scalar.approximation, atol=1e-13
        )
        assert int(batch.num_terms[0]) == scalar.num_terms == 5

    def test_invalid_inputs_rejected(self, ring):
        with pytest.raises(InvalidParameterError):
            batch_hk_push(ring, [], ts=(1.0,))
        with pytest.raises(InvalidParameterError):
            batch_hk_push(ring, [0], ts=(SERIES_T_MAX + 1.0,))
        with pytest.raises(InvalidParameterError):
            batch_hk_push(ring, [0], ts=(1.0,), epsilons=(2.0,))
        with pytest.raises(InvalidParameterError):
            batch_hk_push(ring, [np.full(ring.num_nodes, -1.0)])
        batch = batch_hk_push(ring, [0])
        with pytest.raises(InvalidParameterError):
            batch.column(batch.num_columns)
        with pytest.raises(InvalidParameterError):
            batch.column(-1)


@pytest.fixture(scope="module")
def sparse_support_case():
    """R-MAT graph plus low-degree seeds whose diffusions stay local.

    Small enough for the exact resolvent, large enough that the supports
    cover only a few percent of the nodes, which is where the kernels run
    their compact (support-indexed) path.
    """
    from repro.datasets.scale import rmat_graph

    graph = rmat_graph(12, seed=0)
    order = np.argsort(graph.degrees, kind="stable")
    n = graph.num_nodes
    seeds = [int(order[i]) for i in (n // 10, n // 3, n // 2)]
    return graph, seeds


@pytest.fixture
def compact_path_only(monkeypatch):
    """Fail the test if a kernel falls back to its full-adjacency path."""
    import repro.diffusion.engine as engine

    def no_wide_path(graph):
        raise AssertionError("a wide sweep or stage ran")

    monkeypatch.setattr(engine, "adjacency_matrix", no_wide_path)


class TestCompactKernelPath:
    ALPHAS = (0.15, 0.3)
    EPS = (2e-3, 5e-3)

    def test_ppr_columns_meet_the_paper_guarantees(
            self, sparse_support_case, compact_path_only):
        from repro.diffusion.push import push_invariant_residual

        graph, seeds = sparse_support_case
        batch = batch_ppr_push(
            graph, seeds, alphas=self.ALPHAS, epsilons=self.EPS
        )
        support = (batch.approximation > 0) | (batch.residual > 0)
        assert support.any(axis=1).sum() < 0.05 * graph.num_nodes
        b = 0
        for seed_node in seeds:
            s = indicator_seed(graph, [seed_node])
            for alpha in self.ALPHAS:
                exact = lazy_pagerank_exact(graph, alpha, s)
                for epsilon in self.EPS:
                    column = batch.column(b)
                    bound = epsilon * graph.degrees
                    assert np.all(
                        np.abs(column.approximation - exact) <= bound + 1e-12
                    )
                    assert np.all(column.residual < bound)
                    assert push_invariant_residual(graph, column, s) < 1e-10
                    assert epsilon * alpha * batch.pushed_volume[b] <= (
                        s.sum() * (1 + 1e-12)
                    )
                    single = batch_ppr_push(
                        graph, [seed_node], alphas=(alpha,),
                        epsilons=(epsilon,),
                    )
                    assert batch.num_pushes[b] == single.num_pushes[0]
                    assert batch.work[b] == single.work[0]
                    assert batch.pushed_volume[b] == pytest.approx(
                        single.pushed_volume[0], rel=1e-15
                    )
                    assert np.array_equal(
                        column.approximation, single.approximation[:, 0]
                    )
                    b += 1

    def test_hk_columns_match_the_scalar_oracle(
            self, sparse_support_case, compact_path_only):
        graph, seeds = sparse_support_case
        ts = (3.0, 10.0)
        batch = batch_hk_push(graph, seeds, ts=ts, epsilons=self.EPS)
        assert batch.touched_mask.any(axis=1).sum() < 0.05 * graph.num_nodes
        b = 0
        for seed_node in seeds:
            s = indicator_seed(graph, [seed_node])
            for t in ts:
                for epsilon in self.EPS:
                    scalar = heat_kernel_push(graph, s, t, epsilon=epsilon)
                    column = batch.column(b)
                    assert np.allclose(
                        column.approximation, scalar.approximation,
                        rtol=0, atol=1e-13,
                    )
                    assert np.array_equal(column.touched, scalar.touched)
                    assert column.work == scalar.work
                    # Same rounding decisions; the engine books the dropped
                    # mass by conservation, so it agrees to roundoff.
                    assert column.dropped_mass == pytest.approx(
                        scalar.dropped_mass, abs=1e-15
                    )
                    b += 1


class TestCompactPathBytes:
    """The compact (narrow) kernel path's output bytes, pinned.

    SHA-256 over ``TestCompactKernelPath``'s grids on the R-MAT case:
    every column's positive ``(rows, values)`` plus its ``num_pushes``
    and ``work`` (PPR) or its ``work`` and ``num_terms`` (heat kernel).
    The pins were recorded before the kernels kept their state on compact
    row slots, so any change of layout that moves a bit fails here.
    """

    PPR_SHA256 = (
        "e80e5e1227eece630ae5d99f2dbba39e23bc77585c219da2f5c5a22a5fae668c"
    )
    HK_SHA256 = (
        "25db0d32783cac01a585132a4651e065a6cacb5d576b515db5107e5f3af956fa"
    )

    @staticmethod
    def column_digest(batch, counters):
        import hashlib

        digest = hashlib.sha256()
        for b in range(batch.num_columns):
            column = batch.approximation[:, b]
            rows = np.flatnonzero(column > 0)
            digest.update(rows.astype(np.int64).tobytes())
            digest.update(column[rows].tobytes())
            for name in counters:
                digest.update(np.int64(getattr(batch, name)[b]).tobytes())
        return digest.hexdigest()

    def test_ppr_bytes_are_pinned(self, sparse_support_case,
                                  compact_path_only):
        graph, seeds = sparse_support_case
        batch = batch_ppr_push(
            graph, seeds, alphas=TestCompactKernelPath.ALPHAS,
            epsilons=TestCompactKernelPath.EPS,
        )
        assert self.column_digest(
            batch, ("num_pushes", "work")
        ) == self.PPR_SHA256

    def test_hk_bytes_are_pinned(self, sparse_support_case,
                                 compact_path_only):
        graph, seeds = sparse_support_case
        batch = batch_hk_push(
            graph, seeds, ts=(3.0, 10.0), epsilons=TestCompactKernelPath.EPS
        )
        assert self.column_digest(
            batch, ("work", "num_terms")
        ) == self.HK_SHA256


@st.composite
def graphs_and_seeds(draw):
    """A random connected graph and 4-8 seed nodes (repeats allowed)."""
    n = draw(st.integers(3, 20))
    weight = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight)
             for v in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        edges.setdefault((u, v), draw(weight))
    pairs = sorted(edges)
    graph = from_edges(n, pairs, [edges[p] for p in pairs])
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=8))
    return graph, seeds


def planned_columns(kernel, graph, seeds, per_call, counters):
    """Run ``seeds`` in calls of ``per_call`` seeds; every column's
    nonzero ``(rows, values)`` bytes with its counters and touched rows."""
    columns = []
    for start in range(0, len(seeds), per_call):
        batch = kernel(graph, seeds[start:start + per_call])
        for b in range(batch.num_columns):
            rows, values = batch.sparse_column(b)
            columns.append((
                rows.tobytes(), values.tobytes(),
                tuple(int(getattr(batch, name)[b]) for name in counters),
                batch.column(b).touched.tobytes(),
            ))
    return columns


class TestBatchInvariance:
    """A column's bytes do not depend on the seeds that share its call.

    Each column is run alone, in the 3-seed calls of the PPR plan on a
    large graph, and with the whole chunk in one call, from node-id and
    from vector seeds: values, counters and touched rows must be equal.
    This holds for every heat-kernel column and for PPR columns whose
    calls stay on the narrow sweep (the wide sweep rounds differently, so
    the plan of a saturating PPR grid is fixed by the batch budget).
    """

    @staticmethod
    def assert_plan_invariant(kernel, graph, seeds, counters):
        vectors = [degree_weighted_indicator_seed(graph, [s]) for s in seeds]
        reference = planned_columns(kernel, graph, seeds, 1, counters)
        for chosen in (seeds, vectors):
            for per_call in (1, 3, len(seeds)):
                assert planned_columns(
                    kernel, graph, chosen, per_call, counters
                ) == reference

    @given(case=graphs_and_seeds())
    def test_narrow_ppr_columns(self, case):
        import repro.diffusion.engine as engine

        graph, seeds = case
        # A disjoint cycle with more than 1.5x the graph's arcs keeps
        # every frontier under a quarter of all arcs: narrow sweeps only.
        graph = union_disjoint(graph, cycle_graph(2 * graph.indices.size))

        def kernel(graph, chosen):
            return batch_ppr_push(graph, chosen, alphas=(0.05, 0.3),
                                  epsilons=(1e-2, 1e-4))

        def no_wide_path(graph):
            raise AssertionError("a wide sweep ran")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "adjacency_matrix", no_wide_path)
            self.assert_plan_invariant(kernel, graph, seeds,
                                       ("num_pushes", "work"))

    @given(case=graphs_and_seeds())
    def test_hk_columns(self, case):
        graph, seeds = case

        def kernel(graph, chosen):
            return batch_hk_push(graph, chosen, ts=(1.0, 5.0),
                                 epsilons=(1e-2, 1e-4))

        self.assert_plan_invariant(kernel, graph, seeds,
                                   ("work", "num_terms"))


@pytest.fixture
def wide_path_used(monkeypatch):
    """Fail the test unless a kernel ran its full-adjacency path."""
    import repro.diffusion.engine as engine

    calls = []

    def counted_adjacency(graph):
        calls.append(graph)
        return adjacency_matrix(graph)

    monkeypatch.setattr(engine, "adjacency_matrix", counted_adjacency)
    yield
    assert calls, "no wide sweep or stage ran"


class TestWidePathRetirement:
    """The wide PPR sweep drops the columns that finished early.

    A column that stops pushing is stored and leaves the working set, so
    its result, and the live columns', must be what the full-width sweep
    gives.
    """

    ALPHAS = (0.01, 0.3)
    EPS = (1e-5, 1e-3)
    # ``batch_ppr_push`` on atp with the default PPR grid, eight seeds:
    # SHA-256 of the approximation and residual bytes, the push and work
    # counters and the sweep count, and the total pushed volume.
    PIN_SEEDS = (1081, 96, 21, 651, 392, 343, 52, 810)
    PIN_SHA256 = (
        "d4a95acd2d33df368e70dff4273b226d70a28fe331195af66d2dc27eae44130f"
    )
    PIN_PUSHED_VOLUME = 18068709.0

    def test_ppr_columns_meet_the_paper_guarantees(
            self, whiskered, wide_path_used):
        from repro.diffusion.push import push_invariant_residual

        graph = whiskered
        seeds = (0, 7, graph.num_nodes // 2)
        batch = batch_ppr_push(
            graph, seeds, alphas=self.ALPHAS, epsilons=self.EPS
        )
        alone_sweeps = []
        b = 0
        for seed_node in seeds:
            s = indicator_seed(graph, [seed_node])
            for alpha in self.ALPHAS:
                exact = lazy_pagerank_exact(graph, alpha, s)
                for epsilon in self.EPS:
                    column = batch.column(b)
                    bound = epsilon * graph.degrees
                    assert np.all(
                        np.abs(column.approximation - exact) <= bound + 1e-12
                    )
                    assert np.all(column.residual < bound)
                    assert push_invariant_residual(graph, column, s) < 1e-10
                    # The O(1/(eps alpha)) locality bound of Section 3.3.
                    assert epsilon * alpha * batch.pushed_volume[b] <= (
                        s.sum() * (1 + 1e-12)
                    )
                    alone = batch_ppr_push(
                        graph, [seed_node], alphas=(alpha,),
                        epsilons=(epsilon,),
                    )
                    assert batch.num_pushes[b] == alone.num_pushes[0]
                    assert batch.work[b] == alone.work[0]
                    alone_sweeps.append(alone.num_sweeps)
                    b += 1
        # Most columns finish long before the batch does, so the wide
        # sweeps run with some of them retired.
        assert max(alone_sweeps) == batch.num_sweeps
        assert np.median(alone_sweeps) < batch.num_sweeps / 4

    @staticmethod
    def pin_digest(batch):
        import hashlib

        digest = hashlib.sha256()
        for part in (batch.approximation, batch.residual, batch.num_pushes,
                     batch.work, np.int64(batch.num_sweeps)):
            digest.update(np.ascontiguousarray(part).tobytes())
        return digest.hexdigest()

    def test_atp_default_grid_bytes_are_pinned(self, wide_path_used):
        from repro.datasets import load_graph

        batch = batch_ppr_push(
            load_graph("atp"), self.PIN_SEEDS, alphas=PPR().alpha,
            epsilons=PPR.default_epsilons,
        )
        assert self.pin_digest(batch) == self.PIN_SHA256
        # The volume is a BLAS matrix-vector product, so it is compared
        # to roundoff rather than pinned bit for bit.
        assert batch.pushed_volume.sum() == pytest.approx(
            self.PIN_PUSHED_VOLUME, rel=1e-15
        )

    # The same call on atp's edges with non-integer weights drawn by
    # ``default_rng(0)``: the unit-weight pin above cannot see a change
    # that only moves the rounding of weighted spreads.
    WEIGHTED_PIN_SHA256 = (
        "bf9fddfb3a88d9d762323f570829a773b1bbbf5e33bbb0dbd33f360cf6b37311"
    )
    WEIGHTED_PIN_PUSHED_VOLUME = 24686416.748913538

    def test_atp_weighted_grid_bytes_are_pinned(self, wide_path_used,
                                                monkeypatch):
        import repro.diffusion.engine as engine
        from repro.datasets import load_graph

        atp = load_graph("atp")
        us, vs, _ = atp.edge_array()
        weights = np.random.default_rng(0).uniform(0.25, 4.0, size=us.size)
        graph = from_edges(atp.num_nodes, np.column_stack((us, vs)), weights)
        # The wide phase must retire columns and then sweep narrow.
        events = []
        store, narrow = engine._store, engine._spread

        def stored(outputs, state, columns, which):
            events.append("store" if isinstance(which, slice) else "retire")
            return store(outputs, state, columns, which)

        def spread(*args):
            events.append("narrow")
            return narrow(*args)

        monkeypatch.setattr(engine, "_store", stored)
        monkeypatch.setattr(engine, "_spread", spread)
        batch = batch_ppr_push(
            graph, self.PIN_SEEDS, alphas=PPR().alpha,
            epsilons=PPR.default_epsilons,
        )
        assert "retire" in events
        assert "narrow" in events[events.index("retire"):]
        assert self.pin_digest(batch) == self.WEIGHTED_PIN_SHA256
        assert batch.pushed_volume.sum() == pytest.approx(
            self.WEIGHTED_PIN_PUSHED_VOLUME, rel=1e-15
        )


class TestVectorizedTruncatedWalk:
    def test_matches_scalar_trajectory(self, whiskered, scalar_oracles):
        s = degree_weighted_indicator_seed(whiskered, [7])
        with scalar_oracles():
            scalar = truncated_lazy_walk(whiskered, s, 12, epsilon=1e-4)
        fast = truncated_lazy_walk(whiskered, s, 12, epsilon=1e-4)
        assert len(scalar.trajectory) == len(fast.trajectory) == 13
        for a, b in zip(scalar.trajectory, fast.trajectory):
            assert np.allclose(a, b, atol=1e-13)
        assert scalar.support_sizes == fast.support_sizes
        assert scalar.support_volumes == fast.support_volumes
        assert scalar.dropped_mass == pytest.approx(
            fast.dropped_mass, abs=1e-12
        )

    def test_parity_on_random_weighted_graphs(self, scalar_oracles):
        rng = np.random.default_rng(11)
        for trial in range(6):
            graph = random_graph(
                rng, int(rng.integers(6, 30)), int(rng.integers(0, 25)),
                weighted=True,
            )
            s = indicator_seed(graph, [int(rng.integers(graph.num_nodes))])
            epsilon = float(rng.choice([1e-2, 1e-3]))
            alpha = float(rng.uniform(0.3, 0.7))
            steps = int(rng.integers(1, 10))
            with scalar_oracles():
                scalar = truncated_lazy_walk(
                    graph, s, steps, epsilon=epsilon, alpha=alpha,
                )
            fast = truncated_lazy_walk(
                graph, s, steps, epsilon=epsilon, alpha=alpha,
            )
            assert np.allclose(scalar.final, fast.final, atol=1e-13)

    def test_keep_trajectory_false_still_accounts_support(self, ring):
        s = indicator_seed(ring, [0])
        result = truncated_lazy_walk(
            ring, s, 5, epsilon=1e-4, keep_trajectory=False
        )
        assert result.trajectory == []
        assert len(result.support_sizes) == 6
        assert len(result.support_volumes) == 6

    def test_unknown_implementation_rejected(self, ring):
        # One spread step: the walk takes no backend to choose with.
        with pytest.raises(TypeError):
            truncated_lazy_walk(
                ring, indicator_seed(ring, [0]), 3, epsilon=1e-3,
                backend="fpga",
            )


@pytest.mark.perf
class TestEnginePerformanceRegression:
    """Section 3.3's cheap strongly local push, checked on the engine.

    The single engine-speed check in the repository: every canonical
    dynamics' full grid on the AtP-DBLP reference graph, drained through
    the same ``spec.support_columns`` entry point the NCP pipeline uses,
    once on the numpy kernels and once on the scalar oracles.  End-to-end
    pipeline numbers come from perfbench.
    """

    SPECS = (
        PPR(alpha=(0.05, 0.15)),
        HeatKernel(t=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
        LazyWalk(steps=30),
    )
    EPSILONS = (1e-3, 1e-4)
    MIN_SPEEDUP = 1.5

    def test_batched_engines_beat_scalar_loops(self, scalar_oracles):
        from repro.datasets import load_graph

        graph = load_graph("atp")
        rng = np.random.default_rng(0)
        seed_nodes = [
            int(u) for u in rng.choice(graph.num_nodes, size=10, replace=False)
        ]

        def best_seconds(spec):
            def drain(seeds):
                for _column in spec.support_columns(
                    graph, seeds, epsilons=self.EPSILONS
                ):
                    pass

            # One untimed single-seed drain keeps one-time costs out;
            # best of three rounds keeps a scheduler pause out.
            drain(seed_nodes[:1])
            return min(timeit.repeat(
                lambda: drain(seed_nodes), repeat=3, number=1
            ))

        timings = {}
        for spec in self.SPECS:
            with scalar_oracles():
                scalar = best_seconds(spec)
            timings[spec.name] = (scalar, best_seconds(spec))
        report = "; ".join(
            f"{name}: scalar {scalar:.3f}s, numpy {numpy:.3f}s "
            f"({scalar / numpy:.1f}x)"
            for name, (scalar, numpy) in timings.items()
        )
        slow = [
            name for name, (scalar, numpy) in timings.items()
            if scalar < self.MIN_SPEEDUP * numpy
        ]
        assert not slow, (
            f"numpy kernels under {self.MIN_SPEEDUP}x the scalar loop on "
            f"atp for {slow}: {report}"
        )
