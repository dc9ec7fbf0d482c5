"""Tests for the unified dynamics registry (:mod:`repro.dynamics`).

Covers the registry round-trip (spec -> grid params -> spec), the alias
table that heals the historical ``core.framework`` / NCP-runner name
split, grid chunking as a partition of the seed list (hypothesis), and
the extension point: a newly registered dynamics runs through the
sharded NCP runner and the local-cluster driver without touching either.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import framework
from repro.dynamics import (
    ApproximateComputation,
    DiffusionGrid,
    DynamicsKind,
    HeatKernel,
    LazyWalk,
    PPR,
    UnknownDynamicsError,
    as_diffusion_grid,
    canonical_dynamics,
    get_dynamics,
    register_dynamics,
    registered_dynamics,
    resolve_dynamics_name,
    unregister_dynamics,
)
from repro.exceptions import InvalidParameterError
from repro.ncp.runner import plan_chunks, run_ncp_ensemble


class TestRegistryLookup:
    def test_canonical_and_alias_spellings_agree(self):
        # The historical framework keys and the runner's short names must
        # resolve to the *same* object.
        assert get_dynamics("ppr") is get_dynamics("pagerank")
        assert get_dynamics("hk") is get_dynamics("heat_kernel")
        assert get_dynamics("walk") is get_dynamics("lazy_walk")
        # Normalization: case / separators.
        assert get_dynamics("Heat Kernel") is get_dynamics("hk")
        assert get_dynamics("Lazy Random Walk") is get_dynamics("walk")

    def test_framework_facade_is_the_same_registry(self):
        # Satellite regression: core.framework.get_dynamics("ppr") used to
        # raise KeyError while the runner rejected "pagerank".
        assert framework.get_dynamics("ppr") is get_dynamics("pagerank")
        assert framework.canonical_dynamics() == canonical_dynamics()
        for kind in framework.canonical_dynamics():
            assert registered_dynamics()[kind.key] is kind

    def test_spec_instances_and_types_resolve(self):
        assert get_dynamics(PPR) is get_dynamics("ppr")
        assert get_dynamics(PPR(alpha=0.3)) is get_dynamics("ppr")
        assert get_dynamics(HeatKernel(t=1.0)) is get_dynamics("hk")
        assert get_dynamics(LazyWalk(steps=3)) is get_dynamics("walk")

    def test_canonical_dynamics_paper_order_and_api(self):
        kinds = canonical_dynamics()
        assert [k.name for k in kinds] == [
            "Heat Kernel", "PageRank", "Lazy Random Walk"
        ]
        assert [k.key for k in kinds] == ["hk", "ppr", "walk"]
        for kind in kinds:
            assert isinstance(kind, ApproximateComputation)
            assert "Problem (5)" in kind.describe()

    def test_unknown_dynamics_error_mro(self):
        with pytest.raises(UnknownDynamicsError) as excinfo:
            get_dynamics("landing")
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, InvalidParameterError)
        with pytest.raises(UnknownDynamicsError):
            get_dynamics(object())

    def test_local_method_aliases(self):
        assert get_dynamics("acl") is get_dynamics("ppr")
        assert get_dynamics("nibble") is get_dynamics("walk")


class TestSpecRoundTrip:
    @pytest.mark.parametrize("key", ["ppr", "hk", "walk"])
    def test_default_spec_round_trips_through_grid_params(self, key):
        kind = get_dynamics(key)
        spec = kind.default_spec()
        rebuilt = kind.spec_type.from_grid_params(dict(spec.grid_params()))
        assert rebuilt == spec
        assert resolve_dynamics_name(rebuilt) == key

    def test_every_registered_dynamics_round_trips(self):
        for key, kind in registered_dynamics().items():
            spec = kind.default_spec()
            rebuilt = kind.spec_type.from_grid_params(
                dict(spec.grid_params())
            )
            assert rebuilt == spec, key
            assert get_dynamics(rebuilt) is kind, key

    def test_custom_axes_round_trip(self):
        for spec in (
            PPR(alpha=(0.02, 0.2)),
            HeatKernel(t=7.5),
            LazyWalk(steps=(2, 8, 32), walk_alpha=0.7),
        ):
            kind = get_dynamics(spec)
            assert kind.spec_type.from_grid_params(
                dict(spec.grid_params())
            ) == spec

    def test_scalar_axes_normalize_to_tuples(self):
        assert PPR(alpha=0.1).alpha == (0.1,)
        assert HeatKernel(t=2.0).t == (2.0,)
        assert LazyWalk(steps=5).steps == (5,)

    def test_axis_validation(self):
        with pytest.raises(InvalidParameterError):
            PPR(alpha=1.5)
        with pytest.raises(InvalidParameterError):
            HeatKernel(t=-1.0)
        with pytest.raises(InvalidParameterError):
            LazyWalk(steps=-1)
        with pytest.raises(InvalidParameterError):
            LazyWalk(walk_alpha=2.0)
        with pytest.raises(InvalidParameterError):
            PPR(alpha=())

    def test_grid_resolves_default_epsilons_per_dynamics(self):
        assert DiffusionGrid(PPR()).resolved_epsilons() == (1e-4, 1e-5)
        assert DiffusionGrid(HeatKernel()).resolved_epsilons() == (1e-3, 1e-4)
        assert DiffusionGrid(LazyWalk()).resolved_epsilons() == (1e-3, 1e-4)

    def test_grid_normalizes_names_kinds_and_specs(self):
        by_name = DiffusionGrid("pagerank")
        by_kind = DiffusionGrid(get_dynamics("ppr"))
        by_spec = DiffusionGrid(PPR())
        assert by_name.dynamics == by_kind.dynamics == by_spec.dynamics
        assert as_diffusion_grid(PPR()).key == "ppr"
        assert as_diffusion_grid(by_name) is by_name

    def test_grid_backend_is_always_numpy(self):
        # One kernel family: the read-only ``backend`` is not a field, so
        # it neither takes part in equality nor can be chosen.
        grid = DiffusionGrid(PPR(), num_seeds=4, seed=0)
        assert grid.backend == "numpy"
        assert "backend" not in {f.name for f in fields(grid)}
        with pytest.raises(TypeError):
            DiffusionGrid(PPR(), backend="numpy")


class TestChunkPartition:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10_000), max_size=40),
        width=st.integers(1, 11),
        key=st.sampled_from(["ppr", "hk", "walk"]),
    )
    def test_plan_chunks_is_a_partition_of_the_seed_list(
        self, seeds, width, key
    ):
        # No dropped cells, no duplicated cells, deterministic order —
        # for any registered dynamics and any chunk width.
        kind = get_dynamics(key)
        spec = kind.default_spec()
        params = spec.grid_params() + (
            ("epsilons", spec.default_epsilons),
            ("max_cluster_size", 50),
        )
        chunks = plan_chunks(spec, seeds, params, seeds_per_chunk=width)
        flattened = [s for chunk in chunks for s in chunk.seed_nodes]
        assert flattened == [int(s) for s in seeds]
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert all(1 <= len(c.seed_nodes) <= width for c in chunks)
        assert all(c.dynamics == key for c in chunks)
        # Chunks reconstruct the exact spec they were planned from.
        assert all(c.spec() == spec for c in chunks)


@dataclass(frozen=True)
class TwoHop(PPR):
    """A toy 'new dynamics' for the extension-point test.

    Reuses the PPR machinery but is registered as its own kind — the
    point is that *registration alone* makes it runnable through the NCP
    runner and the local driver.
    """

    name: ClassVar[str] = "twohop"
    candidate_label: ClassVar[str] = "twohop"
    local_method: ClassVar[str] = "twohop"

    @classmethod
    def from_grid_params(cls, params):
        return cls(alpha=params["alphas"])


class TestExtensionPoint:
    @pytest.fixture
    def twohop_kind(self):
        kind = register_dynamics(DynamicsKind(
            name="Two-Hop Push",
            aggressiveness_parameter="teleport probability",
            regularizer="log-determinant -log det(X)",
            default_parameters={"gamma": 0.2},
            verifier=lambda graph, **kw: None,
            key="twohop",
            aliases=("two_hop",),
            spec_type=TwoHop,
            local_spec_factory=lambda graph=None: TwoHop(alpha=0.2),
        ))
        yield kind
        if "twohop" in registered_dynamics():
            unregister_dynamics("twohop")

    def test_new_dynamics_runs_through_runner_untouched(self, whiskered,
                                                        twohop_kind):
        spec = TwoHop(alpha=(0.1,))
        run = run_ncp_ensemble(
            whiskered,
            DiffusionGrid(spec, epsilons=(1e-3,), num_seeds=3, seed=0),
            seeds_per_chunk=2,
        )
        assert run.dynamics == "twohop"
        assert len(run.candidates) > 0
        assert all(c.method == "twohop" for c in run.candidates)

    def test_new_dynamics_drives_local_cluster(self, whiskered,
                                               twohop_kind):
        from repro.partition.local import local_cluster

        result = local_cluster(whiskered, [41], "two_hop", epsilon=1e-4)
        assert result.method == "twohop"
        assert result.nodes.size > 0

    def test_unregistered_spec_is_rejected_again(self, whiskered,
                                                 twohop_kind):
        unregister_dynamics("twohop")
        with pytest.raises(UnknownDynamicsError):
            DiffusionGrid(TwoHop(alpha=(0.1,)))
        # Re-register so the fixture teardown can unregister cleanly.
        register_dynamics(twohop_kind)

    def test_duplicate_key_rejected_without_overwrite(self):
        # Regression: re-registering an existing canonical key used to
        # silently replace the built-in entry.
        ppr_kind = get_dynamics("ppr")
        with pytest.raises(InvalidParameterError):
            register_dynamics(DynamicsKind(
                name="Impostor PageRank",
                aggressiveness_parameter="x",
                regularizer="y",
                default_parameters={},
                verifier=lambda graph, **kw: None,
                key="ppr",
                aliases=(),
                spec_type=TwoHop,
                local_spec_factory=lambda graph=None: TwoHop(alpha=0.2),
            ))
        assert get_dynamics("ppr") is ppr_kind

    def test_duplicate_spelling_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_dynamics(DynamicsKind(
                name="Impostor",
                aggressiveness_parameter="x",
                regularizer="y",
                default_parameters={},
                verifier=lambda graph, **kw: None,
                key="impostor",
                aliases=("pagerank",),  # taken by ppr
                spec_type=TwoHop,
                local_spec_factory=lambda graph=None: TwoHop(alpha=0.2),
            ))
        assert "impostor" not in registered_dynamics()


class TestGridValidation:
    def test_num_seeds_validated(self):
        with pytest.raises(InvalidParameterError):
            DiffusionGrid(PPR(), num_seeds=0)

    def test_max_cluster_size_validated(self):
        with pytest.raises(InvalidParameterError):
            DiffusionGrid(PPR(), max_cluster_size=0)

    def test_epsilons_validated(self):
        with pytest.raises(InvalidParameterError):
            DiffusionGrid(PPR(), epsilons=(0.5, 2.0))

    def test_grid_size_counts_columns(self):
        assert PPR(alpha=(0.1, 0.2)).grid_size((1e-3, 1e-4)) == 4
        assert HeatKernel(t=(1.0,)).grid_size((1e-3,)) == 1
        # walk_alpha is a fixed parameter, not a swept axis.
        assert LazyWalk(steps=(4, 16), walk_alpha=0.7).grid_size(
            (1e-3,)
        ) == 2

    def test_resolve_max_cluster_size_defaults_to_half(self, whiskered):
        grid = DiffusionGrid(PPR())
        assert grid.resolve_max_cluster_size(whiskered) == (
            whiskered.num_nodes // 2
        )
        capped = DiffusionGrid(PPR(), max_cluster_size=7)
        assert capped.resolve_max_cluster_size(whiskered) == 7
