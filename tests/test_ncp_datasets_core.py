"""Tests for the NCP engine, datasets, and the core framework."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiments import Stopwatch
from repro.core.framework import (
    canonical_dynamics,
    get_dynamics,
    verify_paper_theorem,
)
from repro.core.reporting import (
    format_comparison_verdict,
    format_table,
    format_value,
)
from repro.datasets.suite import describe, load_graph, load_suite, suite_names
from repro.datasets.synthetic_dblp import (
    synthetic_atp_dblp,
    synthetic_coauthorship,
)
from repro.exceptions import PartitionError
from repro.ncp.niceness import cluster_niceness
from repro.dynamics import DiffusionGrid, PPR
from repro.ncp.profile import (
    ClusterCandidate,
    best_per_size_bucket,
    cluster_ensemble_ncp,
    flow_cluster_ensemble_ncp,
)


class TestNiceness:
    def test_clique_cluster_is_nice(self, ring):
        report = cluster_niceness(ring, range(6))
        assert report.internally_connected
        assert report.average_path_length == pytest.approx(1.0)
        assert report.density == pytest.approx(1.0)
        assert report.conductance_ratio < 0.3

    def test_stringy_cluster_is_not_nice(self, lollipop):
        tail = list(range(8, 20))
        report = cluster_niceness(lollipop, tail)
        assert report.average_path_length > 3.0
        # External cut is small but internal connectivity is weak too.
        assert report.conductance_ratio > 0.1

    def test_disconnected_cluster_flagged(self, ring):
        report = cluster_niceness(ring, [0, 1, 12, 13])
        assert not report.internally_connected
        assert report.conductance_ratio == float("inf")

    def test_cluster_sizes_and_volume(self, barbell):
        report = cluster_niceness(barbell, range(8))
        assert report.size == 8
        assert report.volume == pytest.approx(57.0)
        assert report.external_conductance == pytest.approx(1 / 57)

    def test_invalid_cluster_rejected(self, ring):
        with pytest.raises(PartitionError):
            cluster_niceness(ring, [])
        with pytest.raises(PartitionError):
            cluster_niceness(ring, range(ring.num_nodes))


class TestNCPProfiles:
    def test_spectral_ensemble_produces_candidates(self, whiskered):
        candidates = cluster_ensemble_ncp(
            whiskered,
            DiffusionGrid(
                PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=6, seed=0
            ),
        )
        assert len(candidates) > 0
        for candidate in candidates:
            assert candidate.method == "spectral"
            assert 0 <= candidate.conductance <= 1.0 + 1e-9

    def test_flow_ensemble_produces_candidates(self, whiskered):
        candidates = flow_cluster_ensemble_ncp(whiskered, min_size=4, seed=0)
        assert len(candidates) > 0
        for candidate in candidates:
            assert candidate.method == "flow"

    def test_flow_ensemble_finds_whiskers(self, whiskered):
        candidates = flow_cluster_ensemble_ncp(whiskered, min_size=4, seed=1)
        best = min(c.conductance for c in candidates)
        # Whisker cut: one edge, volume 9.
        assert best <= 1 / 9 + 1e-9

    def test_bucket_profile_structure(self, whiskered):
        candidates = cluster_ensemble_ncp(
            whiskered,
            DiffusionGrid(
                PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=6, seed=2
            ),
        )
        profile = best_per_size_bucket(candidates, num_buckets=5)
        assert profile.bucket_edges.size == profile.best_conductance.size + 1
        finite = np.isfinite(profile.best_conductance)
        assert finite.any()
        # Representatives align with the best values.
        for i, representative in enumerate(profile.representatives):
            if representative is not None:
                assert representative.conductance == pytest.approx(
                    profile.best_conductance[i]
                )

    def test_bucket_profile_empty_pool_raises(self):
        with pytest.raises(PartitionError):
            best_per_size_bucket([], num_buckets=3)

    def test_candidate_size_property(self):
        candidate = ClusterCandidate(
            nodes=np.array([1, 5, 9]), conductance=0.5, method="flow"
        )
        assert candidate.size == 3


class TestDatasets:
    def test_suite_names_and_load(self):
        names = suite_names()
        assert "atp" in names and "expander" in names
        for name in names:
            assert isinstance(describe(name), str)
        g = load_graph("barbell")
        assert g.is_connected()

    def test_load_suite_subset(self):
        graphs = load_suite(names=["barbell", "grid"])
        assert set(graphs) == {"barbell", "grid"}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_graph("petersen")

    def test_atp_dataset_structure(self):
        ds = synthetic_atp_dblp(scale="tiny", seed=0)
        assert ds.graph.is_connected()
        assert len(ds.author_communities) == 120
        assert ds.paper_communities.shape == (260,)
        from repro.graph.bipartite import is_bipartite

        flag, _ = is_bipartite(ds.graph)
        assert flag

    def test_atp_deterministic(self):
        a = synthetic_atp_dblp(scale="tiny", seed=3)
        b = synthetic_atp_dblp(scale="tiny", seed=3)
        assert a.graph == b.graph

    def test_atp_heavy_tail(self):
        ds = synthetic_atp_dblp(scale="small", seed=1)
        degrees = ds.graph.degrees
        assert degrees.max() > 8 * degrees.mean()

    def test_coauthorship_projection(self):
        g, ids = synthetic_coauthorship(scale="tiny", seed=2)
        assert g.is_connected()
        assert g.num_nodes <= 120

    def test_community_members_lookup(self):
        ds = synthetic_atp_dblp(scale="tiny", seed=4)
        members = ds.community_members(0)
        assert members.size > 0
        assert members.max() < ds.graph.num_nodes


class TestCoreFramework:
    def test_three_canonical_dynamics(self):
        dynamics = canonical_dynamics()
        assert [d.name for d in dynamics] == [
            "Heat Kernel", "PageRank", "Lazy Random Walk"
        ]

    def test_registry_lookup(self):
        assert get_dynamics("pagerank").regularizer.startswith("log-det")
        with pytest.raises(KeyError):
            get_dynamics("landing")

    def test_describe_mentions_problem_5(self):
        for dynamics in canonical_dynamics():
            assert "Problem (5)" in dynamics.describe()

    def test_verify_paper_theorem(self, ring):
        reports = verify_paper_theorem(ring)
        assert len(reports) == 3
        for report in reports:
            assert report.diffusion_vs_closed_form < 1e-8

    def test_verify_with_overrides(self, barbell):
        report = get_dynamics("heat_kernel").verify(barbell, t=7.5)
        assert report.parameter_description == "t=7.5"


class TestReporting:
    def test_format_value_special_cases(self):
        assert format_value(float("nan")) == "--"
        assert format_value(float("inf")) == "inf"
        assert format_value(0.5) == "0.5"
        assert "e" in format_value(1.23e-7)
        assert format_value("abc") == "abc"

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_markdown_table(self):
        from repro.core import format_markdown_table

        table = format_markdown_table(
            ["name", "n"], [["barbell", 34]], align="lr"
        )
        lines = table.splitlines()
        assert lines[0] == "| name | n |"
        assert lines[1] == "| --- | --: |"
        assert lines[2] == "| barbell | 34 |"

    def test_format_markdown_table_validates_align(self):
        from repro.core import format_markdown_table
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            format_markdown_table(["a", "b"], [], align="l")
        with pytest.raises(InvalidParameterError):
            format_markdown_table(["a", "b"], [], align="lx")

    def test_jsonable_coerces_numpy_and_paths(self):
        from pathlib import Path

        from repro.core import jsonable

        value = jsonable({
            "arr": np.arange(3),
            "f": np.float64(0.5),
            "i": np.int64(7),
            "flag": np.bool_(True),
            "path": Path("x/y"),
            "tup": (1, 2),
        })
        assert value == {"arr": [0, 1, 2], "f": 0.5, "i": 7,
                         "flag": True, "path": "x/y", "tup": [1, 2]}

    def test_verdict_strings(self):
        assert "[PASS]" in format_comparison_verdict("x", True, True)
        assert "[FAIL]" in format_comparison_verdict("x", True, False)


class TestExperimentRecords:

    def test_stopwatch(self):
        with Stopwatch() as timer:
            sum(range(1000))
        assert timer.seconds >= 0


class TestWhiskerChainsAndClouds:
    def test_attach_whisker_chains_counts(self, ring):
        from repro.datasets import attach_whisker_chains

        grown = attach_whisker_chains(ring, 5, 3, seed=0)
        assert grown.num_nodes == ring.num_nodes + 15
        assert grown.num_edges == ring.num_edges + 15
        assert grown.is_connected()

    def test_attach_zero_chains_is_identity(self, ring):
        from repro.datasets import attach_whisker_chains

        assert attach_whisker_chains(ring, 0, 3) is ring

    def test_whiskered_atp_has_degree_one_fringe(self):
        from repro.datasets import synthetic_atp_dblp

        plain = synthetic_atp_dblp(scale="tiny", seed=1).graph
        grown = synthetic_atp_dblp(
            scale="tiny", seed=1, whisker_chains=15, whisker_length=3
        ).graph
        assert grown.num_nodes > plain.num_nodes
        assert (grown.degrees == 1).sum() > (plain.degrees == 1).sum()

    def test_figure1_rejects_grid_plus_ensemble_kwargs(self, whiskered):
        # An explicit grid carries the full diffusion workload; combining
        # it with num_seeds must raise, not silently ignore the keyword.
        from repro.exceptions import InvalidParameterError
        from repro.ncp import figure1_comparison

        grid = DiffusionGrid(PPR(alpha=(0.1,)), num_seeds=4, seed=0)
        with pytest.raises(InvalidParameterError):
            figure1_comparison(whiskered, grid=grid, num_seeds=8)

    def test_bucket_cloud_niceness_structure(self, whiskered):
        import numpy as np

        from repro.ncp import bucket_cloud_niceness, figure1_comparison

        result = figure1_comparison(
            whiskered,
            grid=DiffusionGrid(
                PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=6, seed=0
            ),
            num_buckets=4,
            seed=0,
        )
        clouds = bucket_cloud_niceness(
            whiskered, result, samples_per_bucket=4, seed=0
        )
        assert len(clouds) == len(result.buckets)
        for cloud in clouds:
            if cloud.spectral_count:
                assert np.isfinite(cloud.spectral_aspl)
                assert cloud.spectral_ratio <= 50.0
