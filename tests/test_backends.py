"""The numpy kernels against their scalar parity oracles.

Every diffusion and sweep has one implementation, the numpy one.  The
node-at-a-time loops it grew out of are kept as private oracles (see the
``scalar_oracles`` fixture in ``conftest.py``) and whole NCP ensembles
are compared against them here, on the whiskered-expander and AtP-DBLP
reference graphs for all three canonical dynamics.  Also pins the
runner's cache keys and worker-count identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_graph
from repro.dynamics import DiffusionGrid, HeatKernel, LazyWalk, PPR
from repro.ncp.profile import best_per_size_bucket, cluster_ensemble_ncp
from repro.ncp.runner import (
    _CACHE_VERSION,
    GridChunk,
    _chunk_cache_key,
    run_ncp_ensemble,
)
from repro.partition import sweep
from repro.partition.sweep import _prefix_scan_scalar, sweep_cut


def candidate_signature(candidates):
    """Order-sensitive exact signature of a candidate ensemble."""
    return [
        (c.nodes.tobytes(), c.conductance, c.method) for c in candidates
    ]


# One modest grid per canonical dynamics: enough seeds to cover whisker
# and core candidates without making the scalar oracle runs slow.
PARITY_SPECS = {
    "ppr": PPR(alpha=(0.05, 0.15)),
    "hk": HeatKernel(t=(2.0, 8.0)),
    "walk": LazyWalk(steps=(4, 16)),
}


@pytest.fixture(params=["whiskered", "atp"])
def parity_graph(request, whiskered):
    if request.param == "whiskered":
        return whiskered
    return load_graph("atp")


class TestBackendParityHarness:
    """The numpy grids against a loop over the scalar oracles.

    The heat kernel and the lazy walk reproduce the oracle candidate for
    candidate (their kernels agree to summation order); PPR push
    schedules agree only within the eps*d guarantee, so its ensembles
    are compared through the bucketed NCP profile, matching the
    long-standing engine-parity convention.
    """

    @pytest.mark.parametrize("dynamics", sorted(PARITY_SPECS))
    def test_numpy_grid_matches_the_scalar_oracles(
            self, parity_graph, dynamics, scalar_oracles):
        # PPR runs at eps=1e-4: the per-candidate divergence between
        # push schedules is bounded by eps*d, so the tighter truncation
        # keeps the bucketed profiles well inside the 0.05 tolerance.
        # Branching on the parametrize value, not runtime dispatch.
        is_ppr = dynamics == "ppr"  # repro-lint: disable=stringly
        epsilons = (1e-4,) if is_ppr else (1e-3,)
        grid = DiffusionGrid(
            PARITY_SPECS[dynamics], epsilons=epsilons, num_seeds=4, seed=0
        )
        got = cluster_ensemble_ncp(parity_graph, grid)
        with scalar_oracles():
            reference = cluster_ensemble_ncp(parity_graph, grid)
        assert len(got) > 0
        # PPR candidates carry the historical "spectral" method label.
        label = "spectral" if is_ppr else dynamics
        assert all(c.method == label for c in got)
        if is_ppr:
            ours = best_per_size_bucket(got, num_buckets=6)
            theirs = best_per_size_bucket(reference, num_buckets=6)
            finite = np.isfinite(ours.best_conductance)
            assert np.array_equal(
                finite, np.isfinite(theirs.best_conductance)
            )
            assert np.allclose(
                ours.best_conductance[finite],
                theirs.best_conductance[finite],
                atol=0.05,
            )
        else:
            assert candidate_signature(got) == candidate_signature(
                reference
            )

    @pytest.mark.parametrize("spec_type", [PPR, HeatKernel],
                             ids=["ppr", "hk"])
    def test_oracle_swap_reaches_the_pipeline(self, whiskered, spec_type,
                                              scalar_oracles):
        # The fixture must patch the entry point ``run_ncp_ensemble``
        # drains, or the parity test above compares numpy with numpy.
        numpy_columns = spec_type.support_columns
        hits = []
        with scalar_oracles(), pytest.MonkeyPatch.context() as patch:
            oracle = spec_type.support_columns
            oracle_scan = sweep._prefix_scan
            assert oracle is not numpy_columns
            assert oracle_scan is sweep._prefix_scan_scalar

            def sentinel(spec, *args, **kwargs):
                hits.append("columns")
                return oracle(spec, *args, **kwargs)

            def scan_sentinel(*args):
                hits.append("scan")
                return oracle_scan(*args)

            patch.setattr(spec_type, "support_columns", sentinel)
            patch.setattr(sweep, "_prefix_scan", scan_sentinel)
            run = run_ncp_ensemble(
                whiskered, DiffusionGrid(spec_type(), num_seeds=2, seed=0)
            )
        assert {"columns", "scan"} <= set(hits) and run.candidates

    def test_sweep_scan_matches_the_reference_scan(self, whiskered):
        rng = np.random.default_rng(5)
        scores = rng.random(whiskered.num_nodes)
        got = sweep_cut(whiskered, scores)
        order = got.order
        profile, (phi, position, volume) = _prefix_scan_scalar(
            whiskered, order, order.size, None, 1
        )
        assert np.array_equal(got.nodes, np.sort(order[:position + 1]))
        assert got.conductance == phi
        assert got.volume == volume
        assert np.array_equal(
            np.isfinite(got.profile), np.isfinite(profile)
        )


class TestRunnerBackendGuarantees:
    def test_cache_keys_keep_the_numpy_tag(self):
        # Keys still hash the ``|backend=numpy`` tag of the version-3
        # scheme, so memo entries written before the kernels had one
        # implementation stay valid.
        assert _CACHE_VERSION == 3
        params = (("alphas", (0.1,)), ("epsilons", (1e-3,)))
        assert _chunk_cache_key(
            "fp", GridChunk(0, "ppr", (0, 1), params)
        ) == "c243bcfc0fc504fe6e103dd29e8c1629b7b9234ff5a17f497036f9e34d67fc0c"

    def test_worker_pool_is_byte_identical(self, whiskered):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=4, seed=0,
        )
        serial = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=2)
        pooled = run_ncp_ensemble(
            whiskered, grid, seeds_per_chunk=2, num_workers=2
        )
        assert candidate_signature(serial.candidates) == (
            candidate_signature(pooled.candidates)
        )
        assert "backend" not in serial.manifest()["grid"]
