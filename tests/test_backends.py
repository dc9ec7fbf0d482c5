"""The EngineBackend registry and its per-backend parity harness.

Covers the registry contract (canonical names, aliases, did-you-mean
errors, third-party registration), the oracle harness — every registered
backend is parity-tested against the ``numpy`` reference on the
whiskered-expander and AtP-DBLP reference graphs for all three canonical
dynamics — and the runner's per-backend cache-key / worker-count
guarantees.

Registering a new backend is enough to enroll it here: the parity and
worker-identity tests parametrize over ``registered_backends()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    EngineBackend,
    UnknownBackendError,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend_name,
    unregister_backend,
)
from repro.datasets import load_graph
from repro.dynamics import DiffusionGrid, HeatKernel, LazyWalk, PPR
from repro.exceptions import InvalidParameterError
from repro.ncp.profile import best_per_size_bucket, cluster_ensemble_ncp
from repro.ncp.runner import GridChunk, _chunk_cache_key, run_ncp_ensemble


def candidate_signature(candidates):
    """Order-sensitive exact signature of a candidate ensemble."""
    return [
        (c.nodes.tobytes(), c.conductance, c.method) for c in candidates
    ]


def _delegating_backend(key, aliases=()):
    """A third-party backend that borrows the numpy kernels."""
    reference = get_backend("numpy")
    return EngineBackend(
        key=key,
        description="test double delegating every kernel to numpy",
        aliases=aliases,
        ppr_grid=reference.ppr_grid,
        hk_grid=reference.hk_grid,
        ppr_push=reference.ppr_push,
        hk_push=reference.hk_push,
        walk_step=reference.walk_step,
        prefix_scan=reference.prefix_scan,
    )


class TestRegistry:
    def test_canonical_names_present(self):
        assert set(registered_backends()) >= {"numpy", "scalar"}

    def test_legacy_vocabulary_resolves_as_aliases(self):
        assert resolve_backend_name("batched") == "numpy"
        assert resolve_backend_name("vectorized") == "numpy"
        assert resolve_backend_name("scalar") == "scalar"
        assert resolve_backend_name("oracle") == "scalar"

    def test_resolution_normalizes_case_and_whitespace(self):
        assert resolve_backend_name(" NumPy ") == "numpy"
        assert resolve_backend_name("SCALAR") == "scalar"
        assert resolve_backend_name(" Batched ") == "numpy"

    def test_resolve_accepts_backend_instance(self):
        backend = get_backend("scalar")
        assert resolve_backend_name(backend) == "scalar"
        assert get_backend(backend) is backend

    def test_unknown_backend_error_type_and_suggestion(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("numpyy")
        assert isinstance(excinfo.value, InvalidParameterError)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        assert "did you mean 'numpy'" in str(excinfo.value)

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend_name("gpu")
        message = str(excinfo.value)
        assert "numpy" in message and "scalar" in message

    def test_register_unregister_roundtrip(self, whiskered):
        backend = _delegating_backend("mirror", aliases=("looking_glass",))
        register_backend(backend)
        try:
            assert resolve_backend_name("mirror") == "mirror"
            assert resolve_backend_name("looking-glass") == "mirror"
            grid = dict(
                dynamics=PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=3,
                seed=0,
            )
            mirrored = cluster_ensemble_ncp(
                whiskered, DiffusionGrid(backend="mirror", **grid)
            )
            reference = cluster_ensemble_ncp(
                whiskered, DiffusionGrid(backend="numpy", **grid)
            )
            assert candidate_signature(mirrored) == candidate_signature(
                reference
            )
        finally:
            unregister_backend("mirror")
        with pytest.raises(UnknownBackendError):
            resolve_backend_name("mirror")
        with pytest.raises(UnknownBackendError):
            resolve_backend_name("looking_glass")

    def test_unknown_backend_rejected_at_every_entry_point(self,
                                                           whiskered):
        from repro.diffusion.seeds import indicator_seed
        from repro.diffusion.truncated_walk import truncated_lazy_walk
        from repro.ncp.runner import plan_chunks
        from repro.partition.flow_improve import dilate
        from repro.partition.sweep import sweep_cut

        scores = np.linspace(1.0, 0.0, whiskered.num_nodes)
        seed = indicator_seed(whiskered, [0])
        calls = (
            lambda: sweep_cut(whiskered, scores, backend="simd"),
            lambda: truncated_lazy_walk(
                whiskered, seed, 4, epsilon=1e-3, backend="simd"
            ),
            lambda: dilate(whiskered, [0], 1, backend="simd"),
            lambda: DiffusionGrid(PPR(), backend="simd"),
            lambda: plan_chunks("ppr", [0], {}, backend="simd"),
        )
        for call in calls:
            with pytest.raises(UnknownBackendError):
                call()

    def test_plan_chunks_stamps_the_canonical_backend(self):
        from repro.ncp.runner import plan_chunks

        chunks = plan_chunks(
            "ppr", [44, 3, 17], {"alphas": (0.1,)}, backend="batched",
            seeds_per_chunk=2,
        )
        assert [chunk.backend for chunk in chunks] == ["numpy", "numpy"]

    def test_registration_collisions_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_backend(_delegating_backend("numpy"))
        with pytest.raises(InvalidParameterError):
            register_backend(
                _delegating_backend("mine", aliases=("oracle",))
            )
        # Not an EngineBackend at all.
        with pytest.raises(InvalidParameterError):
            register_backend("numpy")

    def test_overwrite_replaces_previous_registration(self):
        original = get_backend("numpy")
        replacement = _delegating_backend(
            "numpy", aliases=original.aliases
        )
        register_backend(replacement, overwrite=True)
        try:
            assert get_backend("numpy") is replacement
        finally:
            register_backend(original, overwrite=True)
        assert get_backend("numpy") is original


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
    """Every registered backend against the numpy reference.

    The parametrization reads the registry, so a newly registered
    backend is parity-tested here with no harness changes.  The heat
    kernel and the lazy walk reproduce the reference candidate for
    candidate (their kernels agree to summation order); PPR push
    schedules agree only within the eps*d guarantee, so its ensembles
    are compared through the bucketed NCP profile, matching the
    long-standing engine-parity convention.
    """

    @pytest.mark.parametrize("backend", sorted(registered_backends()))
    @pytest.mark.parametrize("dynamics", sorted(PARITY_SPECS))
    def test_backend_matches_numpy_reference(self, parity_graph, backend,
                                             dynamics):
        # PPR runs at eps=1e-4: the per-candidate divergence between
        # push schedules is bounded by eps*d, so the tighter truncation
        # keeps the bucketed profiles well inside the 0.05 tolerance.
        # Branching on the parametrize value, not runtime dispatch.
        is_ppr = dynamics == "ppr"  # repro-lint: disable=stringly
        epsilons = (1e-4,) if is_ppr else (1e-3,)
        base = dict(epsilons=epsilons, num_seeds=4, seed=0)
        spec = PARITY_SPECS[dynamics]
        got = cluster_ensemble_ncp(
            parity_graph, DiffusionGrid(spec, backend=backend, **base)
        )
        reference = cluster_ensemble_ncp(
            parity_graph, DiffusionGrid(spec, backend="numpy", **base)
        )
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

    @pytest.mark.parametrize("backend", sorted(registered_backends()))
    def test_sweep_scan_is_exact_for_every_backend(self, whiskered,
                                                   backend):
        from repro.partition.sweep import sweep_cut

        rng = np.random.default_rng(5)
        scores = rng.random(whiskered.num_nodes)
        got = sweep_cut(whiskered, scores, backend=backend)
        reference = sweep_cut(whiskered, scores, backend="numpy")
        assert np.array_equal(got.nodes, reference.nodes)
        assert got.conductance == reference.conductance
        assert got.volume == reference.volume


class TestRunnerBackendGuarantees:
    def test_cache_keys_differ_per_backend(self):
        params = (("alphas", (0.1,)), ("epsilons", (1e-3,)))
        keys = {
            _chunk_cache_key(
                "fp", GridChunk(0, "ppr", (0, 1), params, backend=name)
            )
            for name in sorted(registered_backends())
        }
        assert len(keys) == len(registered_backends())

    @pytest.mark.parametrize("backend", sorted(registered_backends()))
    def test_worker_pool_is_byte_identical_per_backend(self, whiskered,
                                                       backend):
        grid = DiffusionGrid(
            PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=4, seed=0,
            backend=backend,
        )
        serial = run_ncp_ensemble(whiskered, grid, seeds_per_chunk=2)
        pooled = run_ncp_ensemble(
            whiskered, grid, seeds_per_chunk=2, num_workers=2
        )
        assert candidate_signature(serial.candidates) == (
            candidate_signature(pooled.candidates)
        )
        assert serial.manifest()["grid"]["backend"] == (
            resolve_backend_name(backend)
        )
