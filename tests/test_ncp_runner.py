"""Tests for the sharded NCP runner and the profile/ensemble bug fixes.

The runner's contract is determinism: the candidate ensemble must be
identical whether chunks run serially in-process, on a worker pool, or
come back from the on-disk memo — and identical to the direct generator
loop.  All workloads are expressed as :class:`repro.dynamics.DiffusionGrid`
specs; the deprecated keyword-soup path is covered by the dedicated
shim-parity module.  The regression tests pin two fixed profile bugs:
the top-edge bucket drop and the collision-prone flow dedup key.
"""

from __future__ import annotations

import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.dynamics import DiffusionGrid, HeatKernel, LazyWalk, PPR
from repro.exceptions import (
    ConvergenceError,
    InvalidParameterError,
    PartitionError,
)
from repro.graph.generators import cycle_graph
from repro.ncp.profile import (
    ClusterCandidate,
    _unique_clusters,
    best_per_size_bucket,
    cluster_ensemble_ncp,
)
from repro.ncp.runner import (
    _load_chunk,
    _save_chunk,
    graph_fingerprint,
    plan_chunks,
    run_ncp_ensemble,
)
from repro.partition.metrics import graph_conductance_exact
from repro.refine import RefinementStep


def candidate_signature(candidates):
    """Order-sensitive exact signature of a candidate ensemble."""
    return [
        (c.nodes.tobytes(), c.conductance, c.method) for c in candidates
    ]


def ppr_grid(**overrides):
    base = dict(
        dynamics=PPR(alpha=(0.05, 0.15)), epsilons=(1e-3, 1e-4),
        num_seeds=8, seed=3,
    )
    base.update(overrides)
    return DiffusionGrid(**base)


class TestRunnerDeterminism:
    def test_serial_runner_matches_direct_generator(self, whiskered):
        grid = ppr_grid()
        direct = cluster_ensemble_ncp(whiskered, grid)
        run = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=3)
        assert run.num_chunks == 3
        assert run.num_workers == 0
        assert candidate_signature(run.candidates) == candidate_signature(
            direct
        )

    def test_worker_pool_matches_serial(self, whiskered):
        grid = ppr_grid()
        serial = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=3)
        pooled = run_ncp_ensemble(
            whiskered, grid, seeds_per_chunk=3, num_workers=2
        )
        assert pooled.num_workers == 2
        assert candidate_signature(pooled.candidates) == (
            candidate_signature(serial.candidates)
        )

    def test_worker_counts_byte_identical(self, whiskered):
        # The shared-memory transport must not perturb results: any
        # worker count produces the same bytes, candidate for candidate.
        grid = ppr_grid()
        signatures = [
            candidate_signature(
                run_ncp_ensemble(
                    whiskered, grid, seeds_per_chunk=2,
                    num_workers=workers,
                ).candidates
            )
            for workers in (0, 1, 2)
        ]
        assert signatures[0] == signatures[1] == signatures[2]

    def test_shared_graph_roundtrip(self, whiskered):
        from repro.execution.executors import (
            _attach_shared_graph,
            _share_graph,
        )

        shm, layout = _share_graph(whiskered)
        try:
            attached_shm, attached = _attach_shared_graph(shm.name, layout)
            try:
                assert np.array_equal(attached.indptr, whiskered.indptr)
                assert np.array_equal(attached.indices, whiskered.indices)
                assert np.array_equal(attached.weights, whiskered.weights)
                assert not attached.weights.flags.writeable
            finally:
                del attached
                attached_shm.close()
        finally:
            shm.close()
            shm.unlink()

    def test_workers_on_memmapped_binary_graph(self, whiskered, tmp_path):
        # Workers share whatever storage the parent loaded — including
        # int32-index memmaps from a .reprograph file — and the ensemble
        # (and its fingerprint scope) is identical to the in-memory run.
        from repro.graph.storage import write_binary, read_binary

        path = tmp_path / "w.reprograph"
        write_binary(whiskered, path)
        mapped = read_binary(path)
        assert graph_fingerprint(mapped) == graph_fingerprint(whiskered)
        grid = ppr_grid()
        native = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=3)
        pooled = run_ncp_ensemble(
            mapped, grid, seeds_per_chunk=3, num_workers=2
        )
        assert candidate_signature(pooled.candidates) == (
            candidate_signature(native.candidates)
        )

    def test_chunk_width_does_not_change_ensemble(self, whiskered):
        grid = ppr_grid()
        wide = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=8)
        narrow = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=1)
        assert narrow.num_chunks == 8
        assert candidate_signature(wide.candidates) == candidate_signature(
            narrow.candidates
        )

    def test_plan_chunks_partitions_in_order(self):
        chunks = plan_chunks("hk", [5, 9, 2, 7, 1], [("ts", (3.0,))],
                             seeds_per_chunk=2)
        assert [c.index for c in chunks] == [0, 1, 2]
        assert [c.seed_nodes for c in chunks] == [(5, 9), (2, 7), (1,)]
        assert all(c.dynamics == "hk" for c in chunks)

    def test_plan_chunks_canonicalizes_aliases_and_specs(self):
        spec = HeatKernel(t=(3.0,))
        by_alias = plan_chunks("heat_kernel", [1, 2], spec.grid_params())
        by_spec = plan_chunks(spec, [1, 2], spec.grid_params())
        assert by_alias == by_spec
        assert by_alias[0].dynamics == "hk"

    def test_unknown_dynamics_rejected(self, whiskered):
        with pytest.raises(InvalidParameterError):
            run_ncp_ensemble(whiskered, "quantum")


class TestRunnerMemoization:
    def test_second_run_serves_all_chunks_from_cache(self, whiskered,
                                                     tmp_path):
        grid = DiffusionGrid(
            HeatKernel(t=(2.0, 8.0)), epsilons=(1e-3,), num_seeds=6, seed=1
        )
        kwargs = dict(seeds_per_chunk=2, cache_dir=tmp_path)
        first = run_ncp_ensemble(whiskered, grid, **kwargs)
        assert first.cache_hits == 0
        assert len(list(tmp_path.glob("*.npz"))) == first.num_chunks
        second = run_ncp_ensemble(whiskered, grid, **kwargs)
        assert second.cache_hits == second.num_chunks == first.num_chunks
        assert candidate_signature(second.candidates) == (
            candidate_signature(first.candidates)
        )

    def test_different_grid_misses_cache(self, whiskered, tmp_path):
        base = dict(epsilons=(1e-3,), num_seeds=4, seed=0)
        run_ncp_ensemble(
            whiskered, DiffusionGrid(PPR(alpha=(0.1,)), **base),
            cache_dir=tmp_path,
        )
        other = run_ncp_ensemble(
            whiskered, DiffusionGrid(PPR(alpha=(0.2,)), **base),
            cache_dir=tmp_path,
        )
        assert other.cache_hits == 0

    def test_corrupt_cache_entry_is_recomputed(self, whiskered, tmp_path):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=3, seed=0
        )
        first = run_ncp_ensemble(whiskered, grid, cache_dir=tmp_path)
        for entry in tmp_path.glob("*.npz"):
            entry.write_bytes(b"not a zip file")
        repaired = run_ncp_ensemble(whiskered, grid, cache_dir=tmp_path)
        assert repaired.cache_hits == 0
        assert candidate_signature(repaired.candidates) == (
            candidate_signature(first.candidates)
        )
        # The rewritten entries serve the next run.
        third = run_ncp_ensemble(whiskered, grid, cache_dir=tmp_path)
        assert third.cache_hits == third.num_chunks

    @pytest.mark.parametrize(
        "fixture", ["chunk_truncated.npz", "chunk_bitflipped.npz"]
    )
    def test_committed_corrupt_fixture_is_a_miss_not_a_crash(
            self, whiskered, tmp_path, fixture):
        # Regression for the truncated/bit-flipped memo bug class: the
        # committed fixtures are a real _save_chunk payload cut short
        # mid-write and one with a flipped byte (the chaos executor's
        # corrupt fault produces exactly these shapes).  Both must read
        # back as cache misses, be recomputed, and be rewritten valid.
        fixtures = Path(__file__).parent / "fixtures" / "cache"
        assert _load_chunk(fixtures / "chunk_valid.npz") is not None
        assert _load_chunk(fixtures / fixture) is None
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=4, seed=0
        )
        first = run_ncp_ensemble(
            whiskered, grid, seeds_per_chunk=2, cache_dir=tmp_path
        )
        target = sorted(tmp_path.glob("*.npz"))[0]
        target.write_bytes((fixtures / fixture).read_bytes())
        repaired = run_ncp_ensemble(
            whiskered, grid, seeds_per_chunk=2, cache_dir=tmp_path
        )
        assert repaired.cache_hits == repaired.num_chunks - 1
        assert candidate_signature(repaired.candidates) == (
            candidate_signature(first.candidates)
        )
        assert _load_chunk(target) is not None

    def test_chunk_members_are_inflated_once(self, tmp_path, monkeypatch):
        # Regression: _load_chunk indexed the NpzFile once per candidate,
        # and every index inflates the whole member again, so a memo read
        # grew quadratically with the number of candidates in the chunk.
        step = RefinementStep(
            refiner="mqi(max_rounds=100)", pre_conductance=0.5,
            post_conductance=0.25, rounds=3, converged=True, changed=True,
        )
        candidates = [
            ClusterCandidate(
                nodes=np.arange(i, i + 2 + i % 5),
                conductance=1.0 / (i + 2),
                method="spectral",
                refinement=(step,),
            )
            for i in range(60)
        ]
        entry = tmp_path / "chunk.npz"
        _save_chunk(entry, candidates)
        reads = Counter()
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counting_getitem(self, key):
            reads[key] += 1
            return getitem(self, key)

        monkeypatch.setattr(
            np.lib.npyio.NpzFile, "__getitem__", counting_getitem
        )
        loaded = _load_chunk(entry)
        assert candidate_signature(loaded) == (
            candidate_signature(candidates)
        )
        assert [c.refinement for c in loaded] == [(step,)] * 60
        assert set(reads) == {
            "lengths", "nodes", "conductances", "methods", "refinement",
        }
        assert max(reads.values()) == 1

    @pytest.mark.parametrize(
        "member", ["lengths", "nodes", "conductances", "methods"]
    )
    def test_members_of_disagreeing_length_are_a_miss(self, tmp_path,
                                                      member):
        # A torn entry: one member comes from a write of another chunk.
        candidates = [
            ClusterCandidate(
                nodes=np.arange(size), conductance=0.5, method="spectral"
            )
            for size in (2, 3)
        ]
        whole, part = tmp_path / "whole.npz", tmp_path / "part.npz"
        _save_chunk(whole, candidates)
        _save_chunk(part, candidates[:1])
        torn = tmp_path / "torn.npz"
        with zipfile.ZipFile(whole) as full, zipfile.ZipFile(part) as cut, \
                zipfile.ZipFile(torn, "w") as out:
            for name in full.namelist():
                source = cut if name == f"{member}.npy" else full
                out.writestr(name, source.read(name))
        assert _load_chunk(whole) is not None
        assert _load_chunk(torn) is None

    def test_different_graph_misses_cache(self, whiskered, ring, tmp_path):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=4, seed=0
        )
        run_ncp_ensemble(whiskered, grid, cache_dir=tmp_path)
        other = run_ncp_ensemble(ring, grid, cache_dir=tmp_path)
        assert other.cache_hits == 0
        assert graph_fingerprint(whiskered) != graph_fingerprint(ring)


class TestMultiDynamicsEnsembles:
    def test_hk_ensemble_batched_matches_scalar_path(self, whiskered,
                                                     scalar_oracles):
        base = dict(
            dynamics=HeatKernel(t=(2.0, 8.0)), epsilons=(1e-3, 1e-4),
            num_seeds=6, seed=0,
        )
        with scalar_oracles():
            scalar = cluster_ensemble_ncp(whiskered, DiffusionGrid(**base))
        batched = cluster_ensemble_ncp(whiskered, DiffusionGrid(**base))
        assert len(batched) > 0
        assert all(c.method == "hk" for c in batched)
        # The batched stages are bitwise-parity with the scalar loop up to
        # summation order, so the recorded candidates agree exactly up to
        # eps-scale sweep perturbations; compare the bucketed profiles.
        ps = best_per_size_bucket(scalar, num_buckets=6)
        pb = best_per_size_bucket(batched, num_buckets=6)
        finite = np.isfinite(ps.best_conductance)
        assert np.array_equal(finite, np.isfinite(pb.best_conductance))
        assert np.allclose(
            ps.best_conductance[finite], pb.best_conductance[finite],
            atol=0.05,
        )

    def test_grid_rejects_unknown_engine(self):
        # One kernel family: a grid has no backend field to choose with.
        with pytest.raises(TypeError):
            DiffusionGrid(HeatKernel(), backend="gpu")

    def test_walk_ensemble_produces_walk_candidates(self, whiskered):
        candidates = cluster_ensemble_ncp(
            whiskered,
            DiffusionGrid(
                LazyWalk(steps=(4, 16)), epsilons=(1e-3,), num_seeds=5,
                seed=2,
            ),
        )
        assert len(candidates) > 0
        assert all(c.method == "walk" for c in candidates)
        profile = best_per_size_bucket(candidates, num_buckets=5)
        assert np.isfinite(profile.best_conductance).any()

    def test_runner_matches_direct_generator_under_defaults(self, whiskered):
        # epsilons=None resolves per dynamics, so a default runner run
        # shards exactly the ensemble the direct generator produces.
        grid = DiffusionGrid(HeatKernel(), num_seeds=3, seed=5)
        direct = cluster_ensemble_ncp(whiskered, grid)
        run = run_ncp_ensemble(whiskered, grid)
        assert candidate_signature(run.candidates) == candidate_signature(
            direct
        )

    def test_runner_covers_all_dynamics(self, whiskered):
        for spec in (PPR(), HeatKernel(), LazyWalk()):
            run = run_ncp_ensemble(
                whiskered, DiffusionGrid(spec, num_seeds=4, seed=0)
            )
            assert len(run.candidates) > 0, spec
            assert run.dynamics == type(spec).name
            assert run.grid.dynamics == spec

    def test_runner_accepts_names_and_kinds(self, whiskered):
        from repro.dynamics import get_dynamics

        by_name = run_ncp_ensemble(
            whiskered, DiffusionGrid("hk", num_seeds=3, seed=0)
        )
        by_kind = run_ncp_ensemble(
            whiskered,
            DiffusionGrid(get_dynamics("heat_kernel"), num_seeds=3, seed=0),
        )
        assert candidate_signature(by_name.candidates) == (
            candidate_signature(by_kind.candidates)
        )

    def test_multidynamics_record(self, whiskered):
        from repro.core import run_multidynamics_ncp

        record, profiles = run_multidynamics_ncp(
            whiskered, num_seeds=4, seed=0
        )
        assert record.shape_matches
        assert set(profiles) == {"ppr", "hk", "walk"}
        for name in profiles:
            assert record.details[name]["num_candidates"] > 0

    def test_multidynamics_accepts_specs(self, whiskered):
        from repro.core import run_multidynamics_ncp

        record, profiles = run_multidynamics_ncp(
            whiskered,
            dynamics=(PPR(alpha=(0.1,)), HeatKernel(t=(3.0,))),
            num_seeds=3,
            seed=0,
        )
        assert set(profiles) == {"ppr", "hk"}
        assert record.shape_matches

    def test_multidynamics_rejects_duplicate_dynamics(self, whiskered):
        # Results are keyed by canonical name; two PPR workloads would
        # silently drop one, so the call must refuse instead.
        from repro.core import run_multidynamics_ncp

        with pytest.raises(InvalidParameterError):
            run_multidynamics_ncp(
                whiskered,
                dynamics=(PPR(alpha=(0.01,)), PPR(alpha=(0.5,))),
                num_seeds=2,
                seed=0,
            )

    def test_multidynamics_record_reports_empty_ensembles(self):
        # A graph too small for any sweep must yield a mismatch record,
        # not a PartitionError out of the profile reduction.
        from repro.core import run_multidynamics_ncp
        from repro.graph.build import from_edges

        tiny = from_edges(2, [(0, 1)], [1.0])
        record, profiles = run_multidynamics_ncp(tiny, num_seeds=2, seed=0)
        assert not record.shape_matches
        assert all(profile is None for profile in profiles.values())
        assert "no candidates" in record.observed

    def test_walk_spec_rejects_negative_steps(self):
        with pytest.raises(InvalidParameterError):
            LazyWalk(steps=(-1, 16))


class TestTopBucketRegression:
    def test_size_max_size_candidate_lands_in_top_bucket(self):
        # Regression: a candidate whose size equals the top bucket edge
        # used to fall past the last bucket and vanish from the profile.
        nodes = lambda k: np.arange(k, dtype=np.int64)
        candidates = [
            ClusterCandidate(nodes=nodes(4), conductance=0.5, method="flow"),
            ClusterCandidate(nodes=nodes(64), conductance=0.125,
                             method="flow"),
        ]
        profile = best_per_size_bucket(
            candidates, num_buckets=6, min_size=2, max_size=64
        )
        assert profile.bucket_edges[-1] == 64
        top = profile.representatives[-1]
        assert top is not None and top.size == 64
        assert profile.best_conductance[-1] == pytest.approx(0.125)

    def test_oversized_candidates_still_excluded(self):
        nodes = lambda k: np.arange(k, dtype=np.int64)
        candidates = [
            ClusterCandidate(nodes=nodes(4), conductance=0.5, method="flow"),
            ClusterCandidate(nodes=nodes(100), conductance=0.01,
                             method="flow"),
        ]
        profile = best_per_size_bucket(
            candidates, num_buckets=4, min_size=2, max_size=64
        )
        assert all(
            rep is None or rep.size <= 64 for rep in profile.representatives
        )


class TestDedupKeyRegression:
    def test_summary_aliased_clusters_both_survive(self):
        # Same size, same first/last node, same sum — the old
        # (size, first, last, sum) key aliased these two distinct sets.
        a = np.array([1, 4, 5, 8], dtype=np.int64)
        b = np.array([1, 3, 6, 8], dtype=np.int64)
        assert (a.size, a[0], a[-1], a.sum()) == (b.size, b[0], b[-1], b.sum())
        unique = _unique_clusters([a, b, a.copy()])
        assert len(unique) == 2

    def test_exact_duplicates_still_dropped(self):
        a = np.array([0, 2, 5], dtype=np.int64)
        unique = _unique_clusters([a, a.copy(), a.copy()])
        assert len(unique) == 1


class TestMetricsGuards:
    def test_exact_conductance_refuses_n_over_18(self):
        with pytest.raises(PartitionError):
            graph_conductance_exact(cycle_graph(19))

    def test_exact_conductance_allows_n_18(self):
        value, members = graph_conductance_exact(cycle_graph(18))
        # Best cut of an even cycle is the half split: 2 / 18.
        assert value == pytest.approx(2 / 18)
        assert len(members) == 9

    def test_internal_conductance_propagates_foreign_errors(self, ring,
                                                            monkeypatch):
        from repro.partition import metrics
        from repro.partition import spectral

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(spectral, "spectral_cut", boom)
        with pytest.raises(RuntimeError):
            metrics.internal_conductance(ring, range(6))

    def test_internal_conductance_falls_back_on_solver_failure(
            self, ring, monkeypatch):
        from repro.partition import metrics
        from repro.partition import spectral

        def fail(*args, **kwargs):
            raise ConvergenceError("no Fiedler pair")

        monkeypatch.setattr(spectral, "spectral_cut", fail)
        value = metrics.internal_conductance(ring, range(6))
        # K_6 minus nothing: the exact fallback computes the clique's
        # optimum conductance, which is finite and positive.
        assert 0 < value < float("inf")
