"""Integration tests: cross-module pipelines and the runnable examples.

These exercise the same paths the benchmarks and examples use, at reduced
scale, so a plain ``pytest tests/`` already covers the end-to-end story.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestEndToEndPipelines:
    def test_full_figure1_pipeline_tiny(self):
        from repro.datasets import synthetic_atp_dblp
        from repro.dynamics import DiffusionGrid, PPR
        from repro.ncp import figure1_comparison

        graph = synthetic_atp_dblp(scale="tiny", seed=2).graph
        result = figure1_comparison(
            graph,
            grid=DiffusionGrid(
                PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=8, seed=3
            ),
            num_buckets=5,
            seed=3,
        )
        assert result.spectral_candidates > 0
        assert result.flow_candidates > 0
        assert len(result.joint_buckets()) >= 2
        # All three headline fractions are well-defined.
        assert np.isfinite(result.flow_wins_conductance())

    def test_theorem_then_partition_pipeline(self, ring):
        # Verify the SDP theorem, then use the same graph's Fiedler vector
        # for a certified cut — the two halves of the paper's story.
        from repro.dynamics import canonical_dynamics
        from repro.partition import spectral_cut

        reports = [dynamics.verify(ring) for dynamics in canonical_dynamics()]
        assert all(r.diffusion_vs_closed_form < 1e-8 for r in reports)
        cut = spectral_cut(ring, method="exact")
        assert cut.cheeger_lower <= cut.conductance <= cut.cheeger_upper

    def test_local_to_global_consistency(self, whiskered):
        # A local cluster's conductance is an upper bound for the global
        # minimum conductance found by the spectral pipeline... in general
        # there is no ordering, but both must be valid cuts.
        from repro.dynamics import PPR
        from repro.partition import local_cluster, spectral_cut
        from repro.partition.metrics import conductance

        local = local_cluster(
            whiskered, [41], PPR(alpha=0.1), epsilon=1e-4
        )
        global_cut = spectral_cut(whiskered, method="lanczos", seed=0)
        assert conductance(whiskered, local.nodes) == pytest.approx(
            local.conductance
        )
        assert conductance(whiskered, global_cut.nodes) == pytest.approx(
            global_cut.conductance
        )

    def test_flow_pipeline_beats_spectral_on_conductance(self, whiskered):
        # The Figure 1(a) direction at miniature scale: best flow cluster
        # at whisker scale should be at least as good as the best spectral
        # prefix of matching size.
        from repro.dynamics import DiffusionGrid, PPR
        from repro.ncp.profile import (
            cluster_ensemble_ncp,
            flow_cluster_ensemble_ncp,
        )

        flow = flow_cluster_ensemble_ncp(whiskered, min_size=4, seed=0)
        spectral = cluster_ensemble_ncp(
            whiskered,
            DiffusionGrid(
                PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=10, seed=0
            ),
        )
        best_flow = min(c.conductance for c in flow)
        best_spectral = min(c.conductance for c in spectral)
        assert best_flow <= best_spectral + 0.05

    def test_mqi_improves_spectral_cut(self, lollipop):
        # spectral proposal -> MQI improvement: the Metis+MQI pattern.
        from repro.partition import mqi, spectral_cut

        proposal = spectral_cut(lollipop, method="exact")
        side = proposal.nodes
        if lollipop.degrees[side].sum() > lollipop.total_volume / 2:
            mask = np.zeros(lollipop.num_nodes, dtype=bool)
            mask[side] = True
            side = np.flatnonzero(~mask)
        improved = mqi(lollipop, side)
        assert improved.conductance <= proposal.conductance + 1e-12

    def test_serialization_roundtrip_through_pipeline(self, tmp_path, ring):
        from repro.graph.io import read_json, write_json
        from repro.linalg.fiedler import fiedler_value

        target = tmp_path / "ring.json"
        write_json(ring, target)
        reloaded = read_json(target)
        assert fiedler_value(reloaded, method="exact") == pytest.approx(
            fiedler_value(ring, method="exact")
        )


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "implicit_regularization_demo.py",
    "local_clustering.py",
])
def test_example_scripts_run(script, capsys, monkeypatch):
    """The lighter example scripts must run end to end and print output."""
    path = EXAMPLES_DIR / script
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert len(output) > 200


def test_community_profile_example_importable():
    """The heavy examples at least expose a main() without running it."""
    import importlib.util

    for script in ("community_profile.py", "semi_supervised_seeding.py"):
        spec = importlib.util.spec_from_file_location(
            script[:-3], EXAMPLES_DIR / script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
