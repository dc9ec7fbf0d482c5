"""Tests for the refiner records, Pipeline specs, and refiner-aware NCP.

Covers the refinement layer end to end: record round-trips and alias
identity, spec tokens, chain application with per-stage provenance, the
registry-driven flow ensemble, refiner-aware runner chunks (determinism,
cache-key versioning, provenance round-trip through the npz memo), the
``--refine`` spec-string parser and CLI runs, MQI convergence reporting,
the vectorized ``dilate``, and the previously untested
``mov.kappa_for_gamma`` / ``mqi_certificate`` paths.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cli.manifest import load_manifest
from repro.cli.specs import parse_refiner_chain
from repro.datasets import load_graph
from repro.dynamics import DiffusionGrid, PPR
from repro.exceptions import InvalidParameterError, PartitionError
from repro.graph.build import from_edges
from repro.ncp.profile import (
    ClusterCandidate,
    cluster_ensemble_ncp,
    flow_cluster_ensemble_ncp,
)
from repro.ncp.runner import plan_chunks, run_ncp_ensemble
from repro.partition.flow_improve import _dilate_scalar, dilate, flow_improve
from repro.partition.local import local_cluster
from repro.partition.metrics import conductance
from repro.partition.mov import kappa_for_gamma
from repro.partition.mqi import mqi, mqi_certificate
from repro.refine import (
    REFINERS,
    FlowImprove,
    MOV,
    MQI,
    Pipeline,
    RefinementStep,
    UnknownRefinerError,
    apply_refiners,
    as_pipeline,
    as_refiner,
    as_refiner_chain,
    get_refiner,
    refine_candidates,
)


def candidate_signature(candidates):
    return [
        (c.nodes.tobytes(), c.conductance, c.method, c.refinement)
        for c in candidates
    ]


class TestRegistry:
    def test_canonical_keys_present(self):
        assert [kind.key for kind in REFINERS] == ["mqi", "flow", "mov"]

    @pytest.mark.parametrize("spelling, key", [
        ("mqi", "mqi"), ("metis_mqi", "mqi"), ("Metis-MQI", "mqi"),
        ("flow", "flow"), ("flow_improve", "flow"), ("FlowImprove", "flow"),
        ("mov", "mov"), ("mov_cluster", "mov"),
    ])
    def test_alias_identity(self, spelling, key):
        assert get_refiner(spelling) is get_refiner(key)
        assert get_refiner(spelling).key == key

    def test_lookup_by_spec_instance_type_and_kind(self):
        kind = get_refiner("mqi")
        assert get_refiner(MQI) is kind
        assert get_refiner(MQI(max_rounds=3)) is kind
        assert get_refiner(kind) is kind

    def test_unknown_refiner_error_is_valueerror_and_keyerror(self):
        with pytest.raises(UnknownRefinerError) as excinfo:
            get_refiner("frobnicate")
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        assert "mqi" in str(excinfo.value)

    def test_foreign_spec_instance_rejected(self):
        @dataclass(frozen=True)
        class Foreign(MQI):
            name: ClassVar[str] = "foreign"

        with pytest.raises(UnknownRefinerError):
            as_refiner(Foreign())

    def test_tokens_are_canonical(self):
        assert MQI().token() == "mqi(max_rounds=100)"
        assert FlowImprove(dilation_radius=2).token() == (
            "flow(dilation_radius=2, max_rounds=50)"
        )
        assert MOV().token() == "mov(gamma_fraction=0.5, min_size=1)"

    def test_params_round_trip(self):
        for kind in REFINERS:
            spec = kind.default_spec()
            rebuilt = kind.spec_type(**dict(spec.params()))
            assert rebuilt == spec, kind.key

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            MQI(max_rounds=0)
        with pytest.raises(InvalidParameterError):
            FlowImprove(dilation_radius=-1)
        with pytest.raises(InvalidParameterError):
            MOV(gamma_fraction=1.0)


class TestChains:
    def test_as_refiner_chain_normalizes(self):
        chain = as_refiner_chain(("mqi", FlowImprove(dilation_radius=2)))
        assert chain == (MQI(), FlowImprove(dilation_radius=2))
        assert as_refiner_chain("mqi") == (MQI(),)
        assert as_refiner_chain(None) == ()
        assert as_refiner_chain(()) == ()

    def test_apply_refiners_provenance_and_monotonicity(self, whiskered):
        nodes = np.arange(40, 46)  # a whisker + neighbors
        pre = conductance(whiskered, nodes)
        trace = apply_refiners(whiskered, nodes, ("mqi", "flow"))
        assert trace.initial_conductance == pytest.approx(pre)
        assert trace.final_conductance <= trace.initial_conductance + 1e-12
        assert len(trace.steps) == 2
        assert trace.steps[0].refiner == "mqi(max_rounds=100)"
        # Stage boundaries agree: post of stage k is pre of stage k+1.
        assert trace.steps[0].post_conductance == pytest.approx(
            trace.steps[1].pre_conductance
        )
        assert trace.final_conductance == pytest.approx(
            trace.steps[-1].post_conductance
        )
        assert 0 < trace.nodes.size < whiskered.num_nodes

    def test_unchanged_stage_keeps_exact_nodes(self, whiskered):
        # An MQI fixed point passes through MQI unchanged.
        fixed = mqi(whiskered, np.arange(40, 46)).nodes
        trace = apply_refiners(whiskered, fixed, ("mqi",))
        assert not trace.changed
        assert np.array_equal(trace.nodes, np.sort(fixed))
        assert trace.steps[0].changed is False
        assert trace.steps[0].converged is True

    def test_mqi_skips_oversized_sides(self, whiskered):
        # Volume above half the graph violates MQI's precondition; the
        # refiner passes the set through instead of raising.
        big = np.arange(whiskered.num_nodes - 3)
        trace = apply_refiners(whiskered, big, ("mqi",))
        assert not trace.changed
        assert np.array_equal(trace.nodes, big)

    def test_mov_refiner_never_worsens(self, ring):
        nodes = np.arange(0, 7)
        pre = conductance(ring, nodes)
        trace = apply_refiners(ring, nodes, (MOV(gamma_fraction=0.3),))
        assert trace.final_conductance <= pre + 1e-12
        assert 0 < trace.nodes.size < ring.num_nodes

    def test_empty_input_rejected(self, ring):
        with pytest.raises(PartitionError):
            apply_refiners(ring, [], ("mqi",))

    def test_refine_candidates_stays_aligned(self, whiskered):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=5, seed=3
        )
        raw = cluster_ensemble_ncp(whiskered, grid)
        refined = refine_candidates(whiskered, raw, ("mqi",))
        assert len(refined) == len(raw)
        improved = 0
        for before, after in zip(raw, refined):
            assert after.method == before.method
            assert len(after.refinement) == 1
            assert after.conductance <= before.conductance + 1e-12
            if after.refined:
                improved += 1
                assert after.conductance < before.conductance - 1e-15
            else:
                # Unchanged candidates keep their exact sweep conductance.
                assert after.conductance == before.conductance
                assert np.array_equal(after.nodes, before.nodes)
        assert improved > 0


class TestPipeline:
    def test_pipeline_normalizes_grid_and_chain(self):
        pipe = Pipeline(PPR(alpha=(0.1,)), refiners=("mqi", "flow"))
        assert isinstance(pipe.grid, DiffusionGrid)
        assert pipe.key == "ppr"
        assert pipe.refiners == (MQI(), FlowImprove())
        assert pipe.refiner_tokens() == (
            "mqi(max_rounds=100)", "flow(dilation_radius=1, max_rounds=50)"
        )
        assert pipe.describe().startswith("ppr |> mqi(")

    def test_as_pipeline_idempotent_and_wrapping(self):
        pipe = Pipeline("hk", refiners=("mqi",))
        assert as_pipeline(pipe) is pipe
        wrapped = as_pipeline("hk")
        assert wrapped.refiners == ()
        assert wrapped.key == "hk"

    def test_unknown_refiner_in_pipeline_raises(self):
        with pytest.raises(UnknownRefinerError):
            Pipeline("ppr", refiners=("frobnicate",))

    def test_pipeline_through_cluster_ensemble(self, whiskered):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=5, seed=3
        )
        raw = cluster_ensemble_ncp(whiskered, grid)
        piped = cluster_ensemble_ncp(
            whiskered, Pipeline(grid, refiners=("mqi",))
        )
        assert candidate_signature(piped) == candidate_signature(
            refine_candidates(whiskered, raw, ("mqi",))
        )

    def test_local_cluster_accepts_pipeline(self, whiskered):
        plain = local_cluster(whiskered, [44], PPR(alpha=0.1), epsilon=1e-4)
        piped = local_cluster(
            whiskered, [44],
            Pipeline(PPR(alpha=0.1), refiners=("mqi",)), epsilon=1e-4,
        )
        direct = local_cluster(
            whiskered, [44], PPR(alpha=0.1), epsilon=1e-4, refiners=("mqi",)
        )
        assert piped.conductance <= plain.conductance + 1e-12
        assert len(piped.refinement) == 1
        assert piped.conductance == direct.conductance
        assert np.array_equal(piped.nodes, direct.nodes)
        assert plain.refinement == ()

    def test_local_cluster_pipeline_plus_refiners_kwarg_raises(self, ring):
        with pytest.raises(InvalidParameterError, match="full chain"):
            local_cluster(
                ring, [0], Pipeline(PPR(alpha=0.1), refiners=("mqi",)),
                refiners=("flow",),
            )


class TestFlowEnsembleRefiners:
    def test_default_chain_is_metis_mqi(self, whiskered):
        candidates = flow_cluster_ensemble_ncp(whiskered, min_size=4, seed=0)
        refined = [c for c in candidates if c.refinement]
        assert refined, "default chain should improve some sides"
        for candidate in refined:
            assert candidate.refinement[0].refiner == "mqi(max_rounds=100)"
            assert candidate.refinement[0].changed
            assert candidate.conductance < (
                candidate.refinement[0].pre_conductance
            )

    def test_empty_chain_is_raw_bisection(self, whiskered):
        raw = flow_cluster_ensemble_ncp(
            whiskered, min_size=4, seed=0, refiners=()
        )
        assert all(c.refinement == () for c in raw)
        withmqi = flow_cluster_ensemble_ncp(whiskered, min_size=4, seed=0)
        assert len(withmqi) > len(raw)

    def test_max_refine_size_limits_refinement(self, whiskered):
        capped = flow_cluster_ensemble_ncp(
            whiskered, min_size=4, seed=0, max_refine_size=6
        )
        # Every refined candidate's raw predecessor has size <= 6: the
        # raw side precedes its refinement in the candidate list.
        previous = None
        for candidate in capped:
            if candidate.refinement:
                assert previous is not None and previous.size <= 6
            previous = candidate

    def test_chained_refiners_run_in_order(self, whiskered):
        chain = (MQI(max_rounds=5), FlowImprove(dilation_radius=1))
        candidates = flow_cluster_ensemble_ncp(
            whiskered, min_size=4, seed=0, refiners=chain
        )
        refined = [c for c in candidates if c.refinement]
        assert refined
        for candidate in refined:
            tokens = [step.refiner for step in candidate.refinement]
            assert tokens == [chain[0].token(), chain[1].token()]


class TestRunnerRefinement:
    GRID = None  # built lazily: whiskered fixture is function-scoped

    def _pipeline(self):
        return Pipeline(
            DiffusionGrid(
                PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=6, seed=0
            ),
            refiners=("mqi",),
        )

    def test_workers_do_not_change_refined_ensemble(self, whiskered):
        serial = run_ncp_ensemble(whiskered, self._pipeline(), num_workers=0)
        pooled = run_ncp_ensemble(whiskered, self._pipeline(), num_workers=2)
        assert candidate_signature(serial.candidates) == (
            candidate_signature(pooled.candidates)
        )
        assert serial.refiners == (MQI(),)

    def test_runner_matches_serial_generator(self, whiskered):
        run = run_ncp_ensemble(whiskered, self._pipeline())
        serial = cluster_ensemble_ncp(whiskered, self._pipeline())
        assert candidate_signature(run.candidates) == (
            candidate_signature(serial)
        )

    def test_cache_round_trips_provenance(self, whiskered, tmp_path):
        first = run_ncp_ensemble(
            whiskered, self._pipeline(), cache_dir=tmp_path
        )
        second = run_ncp_ensemble(
            whiskered, self._pipeline(), cache_dir=tmp_path
        )
        assert second.cache_hits == second.num_chunks > 0
        assert candidate_signature(first.candidates) == (
            candidate_signature(second.candidates)
        )
        # RefinementStep tuples survive the npz round trip exactly.
        assert any(c.refinement for c in second.candidates)

    def test_refined_and_raw_runs_never_alias(self, whiskered, tmp_path):
        pipeline = self._pipeline()
        refined = run_ncp_ensemble(whiskered, pipeline, cache_dir=tmp_path)
        raw = run_ncp_ensemble(whiskered, pipeline.grid, cache_dir=tmp_path)
        assert raw.cache_hits == 0
        other_chain = Pipeline(pipeline.grid, refiners=("mqi", "flow"))
        other = run_ncp_ensemble(whiskered, other_chain, cache_dir=tmp_path)
        assert other.cache_hits == 0
        assert refined.cache_hits == 0  # first writer

    def test_plan_chunks_stamps_refiners(self):
        chunks = plan_chunks(
            "ppr", [1, 2, 3], (("alphas", (0.1,)),), seeds_per_chunk=2,
            refiners=("mqi",),
        )
        assert all(chunk.refiners == (MQI(),) for chunk in chunks)
        assert chunks[0].refiner_tokens() == ("mqi(max_rounds=100)",)

    def test_manifest_records_resolved_chain(self, whiskered):
        run = run_ncp_ensemble(whiskered, self._pipeline())
        manifest = run.manifest()
        assert manifest["refiners"] == [
            {
                "name": "mqi",
                "params": {"max_rounds": 100},
                "token": "mqi(max_rounds=100)",
            }
        ]
        raw = run_ncp_ensemble(whiskered, self._pipeline().grid)
        assert raw.manifest()["refiners"] == []


class TestSpecStrings:
    def test_bare_names_and_aliases(self):
        assert parse_refiner_chain("mqi") == (MQI(),)
        assert parse_refiner_chain("metis_mqi,flow_improve") == (
            MQI(), FlowImprove()
        )

    def test_field_aliases_and_values(self):
        chain = parse_refiner_chain("mqi:rounds=5,flow:radius=2,rounds=9")
        assert chain == (
            MQI(max_rounds=5),
            FlowImprove(dilation_radius=2, max_rounds=9),
        )
        assert parse_refiner_chain("mov:gamma=0.25") == (
            MOV(gamma_fraction=0.25),
        )

    def test_errors(self):
        with pytest.raises(UnknownRefinerError):
            parse_refiner_chain("frobnicate")
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            parse_refiner_chain("mqi:frob=1")
        with pytest.raises(InvalidParameterError):
            parse_refiner_chain("rounds=1")  # param before any name
        with pytest.raises(InvalidParameterError):
            parse_refiner_chain("")


class TestCLI:
    NCP_ARGS = ("ncp", "--graph", "whiskered", "--dynamics",
                "ppr:alpha=0.1,eps=1e-3", "--num-seeds", "4", "--seed", "0",
                "--refine", "mqi,flow:radius=2")

    def test_refined_ncp_workers_byte_identical(self, tmp_path, capsys):
        for workers, name in (("0", "w0"), ("2", "w2")):
            assert main(list(self.NCP_ARGS) + [
                "--workers", workers, "--out", str(tmp_path / name)
            ]) == 0
        one = (tmp_path / "w0" / "candidates.csv").read_bytes()
        two = (tmp_path / "w2" / "candidates.csv").read_bytes()
        assert one == two and len(one) > 0
        manifest = load_manifest(tmp_path / "w0")
        assert manifest["arguments"]["refine"] == "mqi,flow:radius=2"
        assert "--refine" in manifest["replay_argv"]
        tokens = [r["token"] for r in manifest["runs"][0]["refiners"]]
        assert tokens == [
            "mqi(max_rounds=100)", "flow(dilation_radius=2, max_rounds=50)"
        ]

    def test_refined_manifest_replay(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(list(self.NCP_ARGS) + ["--out", str(first)]) == 0
        manifest = load_manifest(first)
        replay = tmp_path / "replay"
        assert main(manifest["replay_argv"] + [
            "--workers", "2", "--out", str(replay)
        ]) == 0
        assert (first / "candidates.csv").read_bytes() == (
            (replay / "candidates.csv").read_bytes()
        )

    def test_cluster_refine_records_provenance(self, tmp_path, capsys):
        out = tmp_path / "cluster"
        assert main([
            "cluster", "--graph", "whiskered", "--seeds", "44",
            "--dynamics", "ppr:alpha=0.1,eps=1e-4", "--refine", "mqi",
            "--out", str(out),
        ]) == 0
        manifest = load_manifest(out)
        record = manifest["result"]
        assert record["refiners"] == ["mqi(max_rounds=100)"]
        assert len(record["refinement"]) == 1
        step = record["refinement"][0]
        assert step["post_conductance"] <= step["pre_conductance"] + 1e-12

    def test_unknown_refiner_exits_2(self, capsys):
        assert main([
            "ncp", "--graph", "barbell", "--dynamics", "ppr",
            "--refine", "nope", "--out", "unused",
        ]) == 2
        assert "unknown refiner" in capsys.readouterr().err


class TestMQIConvergence:
    def test_converged_fixed_point(self):
        from repro.graph.generators import lollipop_graph

        result = mqi(lollipop_graph(12, 24), list(range(10, 36)))
        assert result.converged is True

    def test_exhaustion_warns_and_reports(self):
        from repro.graph.generators import lollipop_graph

        graph = lollipop_graph(10, 20)
        with pytest.warns(RuntimeWarning, match="exhausted max_rounds"):
            capped = mqi(graph, list(range(8, 30)), max_rounds=1)
        assert capped.converged is False
        assert capped.rounds == 1

    def test_flow_improve_propagates_convergence(self, whiskered):
        result = flow_improve(
            whiskered, list(range(40, 43)), dilation_radius=3
        )
        assert result.converged is True
        assert result.rounds >= 0


@st.composite
def mixed_weight_graphs(draw):
    """Two to four connected communities chained by single edges.

    Each community draws all its weights as integers or all as floats,
    so one MQI wave holds compiled integer blocks next to blocks that
    take the :class:`FlowNetwork` fallback.
    """
    edges = {}
    n = 0
    for part in range(draw(st.integers(2, 4))):
        size = draw(st.integers(3, 9))
        if draw(st.booleans()):
            weight = st.integers(1, 5).map(float)
        else:
            weight = st.floats(0.25, 4.0, allow_nan=False,
                               allow_infinity=False)
        for v in range(1, size):
            u = draw(st.integers(0, v - 1))
            edges[(n + u, n + v)] = draw(weight)
        for _ in range(draw(st.integers(0, size))):
            u, v = sorted(draw(st.lists(
                st.integers(n, n + size - 1), min_size=2, max_size=2,
                unique=True,
            )))
            edges.setdefault((u, v), draw(weight))
        if part:
            edges[(draw(st.integers(0, n - 1)), n)] = draw(weight)
        n += size
    pairs = sorted(edges)
    return from_edges(n, pairs, [edges[p] for p in pairs])


def _bits(refined):
    """``(nodes, step)`` pairs with every float as its exact hex form."""
    return [
        (
            nodes.tobytes(),
            tuple(
                value.hex() if isinstance(value, float) else value
                for value in dataclasses.astuple(step)
            ),
        )
        for nodes, step in refined
    ]


WAVE_SPECS = (
    MQI(), MQI(max_rounds=1),
    FlowImprove(dilation_radius=1), FlowImprove(dilation_radius=1,
                                                max_rounds=1),
)


class TestMQIWaves:
    """``refine_many`` solves every set's MQI rounds in waves; each set's
    result must be bitwise what ``refine`` gives it alone."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_refine_many_equals_refine_loop(self, data):
        graph = data.draw(mixed_weight_graphs())
        n = graph.num_nodes
        node_sets = [
            np.unique(np.asarray(members, dtype=np.int64))
            for members in data.draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=1,
                         max_size=n - 1, unique=True),
                min_size=1, max_size=8,
            ))
        ]
        pres = [
            conductance(graph, nodes) if keep else None
            for nodes, keep in zip(node_sets, data.draw(st.lists(
                st.booleans(), min_size=len(node_sets),
                max_size=len(node_sets),
            )))
        ]
        for spec in WAVE_SPECS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                many = spec.refine_many(graph, node_sets, pres)
                loop = [
                    spec.refine(graph, nodes, pre_conductance=pre)
                    for nodes, pre in zip(node_sets, pres)
                ]
            assert _bits(many) == _bits(loop)

    def test_waves_mix_round_counts_and_unconverged_sets(self, whiskered):
        graph = whiskered
        rng = np.random.default_rng(0)
        node_sets = [
            np.unique(rng.choice(graph.num_nodes, size=size, replace=False))
            for size in rng.integers(3, 40, size=24)
        ]
        pres = [conductance(graph, nodes) for nodes in node_sets]
        for spec in WAVE_SPECS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                many = spec.refine_many(graph, node_sets, pres)
                loop = [
                    spec.refine(graph, nodes, pre_conductance=pre)
                    for nodes, pre in zip(node_sets, pres)
                ]
            assert _bits(many) == _bits(loop)
        full = MQI().refine_many(graph, node_sets, pres)
        assert {step.rounds for _nodes, step in full} >= {0, 1, 2, 3}
        with pytest.warns(RuntimeWarning, match="exhausted max_rounds"):
            capped = MQI(max_rounds=1).refine_many(graph, node_sets, pres)
        assert any(not step.converged for _nodes, step in capped)
        assert any(step.converged for _nodes, step in capped)

    # Recorded with one MQI call per candidate, before MQI ran in waves;
    # the waves must reproduce it byte for byte.
    PIN_SEEDS = (1081, 96, 21, 651, 392, 343, 52, 810)
    PIN_SHA256 = (
        "e8cc7d91a2848b52f4f50a9e18f3dcd4d9cb7c48d970f983740a87380b896628"
    )

    def test_atp_mqi_ensemble_bytes_are_pinned(self):
        import hashlib

        from repro.ncp.profile import grid_candidates_for_seed_nodes

        graph = load_graph("atp", seed=0)
        seeds = np.random.default_rng(0).choice(
            graph.num_nodes, size=8, replace=False
        )
        assert tuple(seeds.tolist()) == self.PIN_SEEDS
        grid = DiffusionGrid(PPR(alpha=(0.05,)), epsilons=(1e-4,))
        raw = grid_candidates_for_seed_nodes(
            graph, seeds.tolist(), grid.dynamics,
            epsilons=grid.resolved_epsilons(),
            max_cluster_size=grid.resolve_max_cluster_size(graph),
        )
        refined = refine_candidates(graph, raw, ("mqi",))
        digest = hashlib.sha256()
        for candidate in refined:
            digest.update(candidate.nodes.tobytes())
            digest.update(float(candidate.conductance).hex().encode())
            digest.update(repr(candidate.refinement).encode())
        assert digest.hexdigest() == self.PIN_SHA256
        assert sum(candidate.refined for candidate in refined) == 49


class TestDilateVectorized:
    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_parity_with_scalar_oracle(self, whiskered, radius):
        for start in ([0], [40, 41], list(range(10))):
            fast = dilate(whiskered, start, radius)
            slow = _dilate_scalar(whiskered, start, radius)
            assert np.array_equal(fast, slow)

    def test_parity_on_reference_graph(self):
        graph = load_graph("atp")
        rng = np.random.default_rng(0)
        for _ in range(5):
            start = rng.choice(graph.num_nodes, size=8, replace=False)
            for radius in (1, 2, 3):
                assert np.array_equal(
                    dilate(graph, start, radius),
                    _dilate_scalar(graph, start, radius),
                )

    def test_unknown_implementation_rejected(self, ring):
        # One BFS: dilate takes no backend to choose with.
        with pytest.raises(TypeError):
            dilate(ring, [0], 1, backend="gpu")


class TestMOVAndCertificateCoverage:
    """Satellite: the previously untested kappa_for_gamma and
    mqi_certificate paths."""

    def test_kappa_curve_shape(self, ring):
        rows = kappa_for_gamma(ring, [0, 1], [-100.0, -1.0, 0.01])
        assert len(rows) == 3
        for gamma, correlation, rayleigh in rows:
            assert 0.0 <= correlation <= 1.0 + 1e-9
            assert rayleigh >= -1e-9
        # Locality knob: very negative gamma hugs the seed (high kappa),
        # gamma near lambda2 decorrelates toward the global solution.
        correlations = [r[1] for r in rows]
        assert correlations[0] >= correlations[-1] - 1e-9
        assert correlations[0] > 0.5

    def test_kappa_rows_echo_requested_gammas(self, ring):
        gammas = [-5.0, 0.01]
        rows = kappa_for_gamma(ring, [0], gammas)
        assert [r[0] for r in rows] == gammas

    def test_kappa_rejects_nonfinite_gamma(self, ring):
        with pytest.raises(InvalidParameterError):
            kappa_for_gamma(ring, [0], [float("nan")])

    def test_certificate_holds_at_fixed_point(self, ring):
        fixed = mqi(ring, list(range(10))).nodes
        base, best_random = mqi_certificate(ring, fixed, seed=7)
        assert base == pytest.approx(conductance(ring, fixed))
        assert base <= best_random + 1e-12

    def test_certificate_is_seed_deterministic(self, ring):
        fixed = mqi(ring, list(range(10))).nodes
        a = mqi_certificate(ring, fixed, trials=50, seed=11)
        b = mqi_certificate(ring, fixed, trials=50, seed=11)
        assert a == b

    def test_certificate_can_beat_unimproved_set(self, whiskered):
        # On a set that is NOT an MQI fixed point, random subsets can win
        # — the certificate is an oracle, not a tautology.
        loose = np.arange(30, 50)
        base, best_random = mqi_certificate(
            whiskered, loose, trials=400, seed=3
        )
        improved = mqi(whiskered, loose)
        if improved.conductance < base - 1e-12:
            assert best_random < base + 1e-12


class TestCandidateDataclass:
    def test_refinement_defaults_empty(self):
        candidate = ClusterCandidate(
            nodes=np.array([1, 2]), conductance=0.5, method="flow"
        )
        assert candidate.refinement == ()
        assert candidate.refined is False

    def test_refined_property(self):
        step = RefinementStep(
            refiner="mqi(max_rounds=100)", pre_conductance=0.5,
            post_conductance=0.4, rounds=1, converged=True, changed=True,
        )
        candidate = ClusterCandidate(
            nodes=np.array([1]), conductance=0.4, method="flow",
            refinement=(step,),
        )
        assert candidate.refined is True
        assert dataclasses.replace(
            candidate, refinement=()
        ).refined is False
