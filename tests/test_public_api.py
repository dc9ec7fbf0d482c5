"""Public-API smoke: every ``__all__`` name imports and documents itself.

The CI ``public-api-smoke`` job runs this module on its own: it imports
every name exported by each package's ``__all__`` (so a broken re-export
or a renamed symbol fails loudly, not at a user's first import), asserts
that every exported module/class/function carries a non-empty docstring,
that every CLI subcommand and option carries help text, instantiates
every registered dynamics — default spec, default grid, local point spec
— through the registry, and holds all three registries (dynamics,
refiners, executors) to one contract through their public
``register_*`` / ``unregister_*`` / ``resolve_*_name`` / ``get_*`` /
``registered_*`` functions.
"""

from __future__ import annotations

import importlib
import inspect
from types import SimpleNamespace

import pytest

from repro.cli import build_parser
from repro.exceptions import InvalidParameterError
from repro.dynamics import (
    DiffusionGrid,
    get_dynamics,
    registered_dynamics,
)
from repro.graph.generators import ring_of_cliques
from repro.refine import (
    Pipeline,
    get_refiner,
    registered_refiners,
)

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.cli",
    "repro.core",
    "repro.datasets",
    "repro.diffusion",
    "repro.dynamics",
    "repro.execution",
    "repro.graph",
    "repro.linalg",
    "repro.ncp",
    "repro.partition",
    "repro.refine",
    "repro.regularization",
]

SUBCOMMANDS = ("datasets", "ncp", "cluster", "lint")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_importable(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} must declare a nonempty __all__"
    assert sorted(set(exported)) == sorted(exported), (
        f"{package}.__all__ contains duplicates"
    )
    for name in exported:
        assert getattr(module, name, None) is not None, (
            f"{package}.__all__ exports {name!r} but the attribute is "
            "missing or None"
        )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_has_a_docstring(package):
    """Docs satellite: the public surface must explain itself.

    Every documentable object (module, class, function, method) exported
    by a package's ``__all__`` needs a non-empty docstring; plain data
    exports (``__version__`` and similar constants) are exempt.
    """
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        documentable = (
            inspect.ismodule(obj)
            or inspect.isclass(obj)
            or inspect.isroutine(obj)
        )
        if not documentable:
            continue
        doc = inspect.getdoc(obj)
        if not doc or not doc.strip():
            undocumented.append(name)
    assert not undocumented, (
        f"{package}.__all__ exports undocumented names: {undocumented}"
    )


def test_every_cli_subcommand_documents_itself():
    """Docs satellite: `repro <cmd> --help` must be useful for all cmds."""
    parser = build_parser()
    assert parser.description and parser.description.strip()
    assert set(parser.repro_subparsers) == set(SUBCOMMANDS)
    for name, subparser in parser.repro_subparsers.items():
        assert subparser.description and subparser.description.strip(), (
            f"subcommand {name!r} has no description"
        )
        for action in subparser._actions:
            assert action.help and action.help.strip(), (
                f"subcommand {name!r} option {action.dest!r} has no help"
            )
        # Every subcommand resolves to a documented handler.
        handler = subparser.get_default("run")
        assert handler is not None and inspect.getdoc(handler), name


def test_every_registered_dynamics_instantiates():
    graph = ring_of_cliques(4, 5)
    kinds = registered_dynamics()
    assert set(kinds) >= {"ppr", "hk", "walk"}
    for key, kind in kinds.items():
        spec = kind.default_spec()
        assert get_dynamics(spec) is kind, key
        assert spec.default_epsilons, key
        assert spec.grid_size(spec.default_epsilons) >= 1, key

        grid = DiffusionGrid(spec)
        assert grid.key == key
        assert grid.resolved_epsilons() == tuple(spec.default_epsilons)

        local = kind.local_spec(graph)
        assert get_dynamics(local) is kind, key
        # A local spec must be a usable single point for every swept axis.
        for axis, values in local.grid_axes().items():
            assert len(values) == 1, (key, axis)


def test_every_registered_dynamics_yields_columns():
    graph = ring_of_cliques(4, 5)
    for key, kind in registered_dynamics().items():
        spec = kind.default_spec()
        columns = list(
            spec.iter_columns(graph, [0], epsilons=(1e-3,))
        )
        assert len(columns) == spec.grid_size((1e-3,)), key
        assert all(column.shape == (graph.num_nodes,) for column in columns)


def test_every_registered_executor_instantiates():
    """CI satellite: the public-api-smoke job exercises every executor.

    Each registry entry must resolve by key and by every alias, describe
    itself, build a default spec with a CLI token and JSON-able params,
    and drive a real (tiny) chunk plan end to end through
    :func:`~repro.execution.execute_chunks` with results identical to
    the serial reference.
    """
    from repro.execution import (
        build_executor,
        execute_chunks,
        get_executor,
        registered_executors,
        RetryPolicy,
    )
    from repro.dynamics import PPR
    from repro.ncp.runner import _evaluate_chunk, _grid_params, plan_chunks

    graph = ring_of_cliques(4, 5)
    grid = DiffusionGrid(
        PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=2, seed=0
    )
    chunks = plan_chunks(
        grid.dynamics, [0, 5], _grid_params(grid, graph),
        seeds_per_chunk=1,
    )
    policy = RetryPolicy(backoff_seconds=0.0, straggler_factor=None)
    reference = None
    executors = registered_executors()
    assert set(executors) >= {"serial", "process", "chaos"}
    for key, kind in executors.items():
        assert get_executor(key) is kind, key
        for alias in kind.aliases:
            assert get_executor(alias) is kind, (key, alias)
        assert kind.description.strip(), key
        spec = kind.spec_type()
        assert isinstance(spec.token(), str) and spec.token(), key
        assert isinstance(spec.params(), dict), key

        instance, _, _ = build_executor(
            key, graph=graph, evaluate=_evaluate_chunk, num_workers=1,
        )
        outcome = execute_chunks(instance, chunks, retry=policy)
        signature = {
            index: [
                (c.nodes.tobytes(), c.conductance, c.method)
                for c in candidates
            ]
            for index, candidates in outcome.results.items()
        }
        if reference is None:
            reference = signature
        assert signature == reference, key


def test_every_registered_refiner_instantiates():
    """CI satellite: the public-api-smoke job instantiates every refiner.

    Each registry entry must produce a default spec that round-trips
    through the registry, carries a deterministic token, rebuilds from
    its own params, and composes into a :class:`Pipeline`.
    """
    graph = ring_of_cliques(4, 5)
    kinds = registered_refiners()
    assert set(kinds) >= {"mqi", "flow", "mov"}
    for key, kind in kinds.items():
        spec = kind.default_spec()
        assert get_refiner(spec) is kind, key
        assert get_refiner(key) is kind, key
        for alias in kind.aliases:
            assert get_refiner(alias) is kind, (key, alias)
        assert spec.token().startswith(f"{key}("), key
        assert kind.spec_type(**dict(spec.params())) == spec, key
        assert kind.description.strip(), key

        pipeline = Pipeline("ppr", refiners=(spec,))
        assert pipeline.refiners == (spec,), key
        assert pipeline.refiner_tokens() == (spec.token(),), key

        # Every refiner honors the registry-wide invariant on a real set.
        from repro.refine import apply_refiners

        trace = apply_refiners(graph, list(range(5)), (spec,))
        assert trace.final_conductance <= trace.initial_conductance + 1e-9
        assert 0 < trace.nodes.size < graph.num_nodes, key


def test_every_registered_lint_rule_instantiates(capsys):
    """CI satellite: the public-api-smoke job exercises every lint rule.

    Each rule in ``RULES`` must be selectable by key, code, and every
    alias, describe itself, run its visitor over a trivial module without
    findings, appear in ``repro lint --list``, and the linter must exit
    0 over the package source.
    """
    from pathlib import Path

    from repro.analysis import RULES, lint_paths, lint_source, select_rules
    from repro.cli import main

    assert [rule.key for rule in RULES] == [
        "no-stringly-dispatch",
        "cache-version-discipline",
        "determinism-hazards",
        "exception-policy",
        "executor-discipline",
    ]
    for rule in RULES:
        for name in (rule.key, rule.code, *rule.aliases):
            assert select_rules(name) == (rule,), (rule.key, name)
        assert rule.description.strip(), rule.key
        assert lint_source("VALUE = 1\n", rules=(rule,)) == [], rule.key

    assert main(["lint", "--list"]) == 0
    listing = capsys.readouterr().out
    for rule in RULES:
        assert rule.key in listing and rule.code in listing, rule.key

    # The merged tree lints clean: `python -m repro lint src/` exits 0.
    repo_root = Path(__file__).resolve().parents[1]
    report = lint_paths([repo_root / "src"])
    assert report.ok, [f.format_human() for f in report.findings]


class _ProbeSpec:
    """Spec-type base of the contract-test records."""


def _probe_spec_type(key):
    return type(f"Spec_{key.replace('-', '_')}", (_ProbeSpec,), {})


def _dynamics_record(key, aliases):
    from repro.dynamics import DynamicsKind

    return DynamicsKind(
        name=f"{key} dynamics", aggressiveness_parameter="x",
        regularizer="y", default_parameters={},
        verifier=lambda graph, **kw: None, key=key, aliases=aliases,
        spec_type=_probe_spec_type(key),
    )


def _refiner_record(key, aliases):
    from repro.refine import RefinerKind

    return RefinerKind(
        name=f"{key} refiner", key=key, description="contract probe",
        aliases=aliases, spec_type=_probe_spec_type(key),
    )


def _executor_record(key, aliases):
    from repro.execution import ExecutorKind

    return ExecutorKind(key=key, description="contract probe",
                        aliases=aliases, spec_type=_probe_spec_type(key))


# module, singular noun, plural noun, error class, record factory.
REGISTRIES = {
    "dynamics": ("repro.dynamics", "dynamics", "dynamics",
                 "UnknownDynamicsError", _dynamics_record),
    "refiner": ("repro.refine", "refiner", "refiners",
                "UnknownRefinerError", _refiner_record),
    "executor": ("repro.execution", "executor", "executors",
                 "UnknownExecutorError", _executor_record),
}

PROBE = "contract-probe"


@pytest.fixture(params=sorted(REGISTRIES))
def registry(request):
    """One registry's public functions, with a probe record registered."""
    module_name, one, many, error, make = REGISTRIES[request.param]
    module = importlib.import_module(module_name)
    api = SimpleNamespace(
        register=getattr(module, f"register_{one}"),
        unregister=getattr(module, f"unregister_{one}"),
        resolve=getattr(module, f"resolve_{one}_name"),
        get=getattr(module, f"get_{one}"),
        registered=getattr(module, f"registered_{many}"),
        error=getattr(module, error),
        make=make,
    )
    api.probe = api.register(make(PROBE, ("probe_alias",)))
    yield api
    if PROBE in api.registered():
        api.unregister(PROBE)


class TestRegistryContract:
    """The contract every registry keeps, checked on all three."""

    def test_normalized_names_and_aliases_resolve(self, registry):
        for spelling in (PROBE, " Contract_Probe ", "PROBE-ALIAS"):
            assert registry.resolve(spelling) == PROBE
        assert registry.get("probe alias") is registry.probe
        assert registry.get(registry.probe) is registry.probe
        assert registry.registered()[PROBE] is registry.probe

    def test_unknown_name_suggests_the_canonical_key(self, registry):
        with pytest.raises(registry.error) as excinfo:
            registry.get("probe_alais")
        error = excinfo.value
        assert isinstance(error, InvalidParameterError)
        assert isinstance(error, ValueError)
        assert isinstance(error, KeyError)
        assert f"did you mean {PROBE!r}" in str(error)

    def test_collisions_are_refused(self, registry):
        with pytest.raises(InvalidParameterError, match="already"):
            registry.register(registry.make(PROBE, ()))
        with pytest.raises(InvalidParameterError, match="already"):
            registry.register(
                registry.make("contract-other", ("probe-alias",))
            )
        assert "contract-other" not in registry.registered()
        with pytest.raises(InvalidParameterError):
            registry.register(PROBE)

    def test_overwrite_replaces_the_registration(self, registry):
        replacement = registry.make(PROBE, ("fresh_alias",))
        assert registry.register(replacement, overwrite=True) is replacement
        assert registry.get(PROBE) is replacement
        assert registry.get("fresh-alias") is replacement
        # The replaced record's spellings leave with it.
        with pytest.raises(registry.error):
            registry.resolve("probe_alias")

    def test_unregister_round_trip(self, registry):
        assert registry.unregister("probe-alias") is registry.probe
        for name in (PROBE, "probe_alias", registry.probe):
            with pytest.raises(registry.error):
                registry.resolve(name)
        assert registry.register(registry.probe) is registry.probe
        assert registry.get("probe_alias") is registry.probe

    def test_spec_types_resolve_exactly(self, registry):
        spec_type = registry.probe.spec_type
        assert registry.get(spec_type) is registry.probe
        assert registry.get(spec_type()) is registry.probe
        # A subclass is its own entry and must be registered itself.
        for stranger in (type("Derived", (spec_type,), {})(), object()):
            with pytest.raises(registry.error):
                registry.resolve(stranger)


# The public names both ``repro`` and ``repro.api`` export: the union of
# the two former export lists. A name leaves the facade only by an edit
# here, never silently.
FACADE_NAMES = frozenset({
    "ApproximateComputation", "BatchPushResult", "Chaos",
    "ChunkExecutionError", "ClusterCandidate", "ConvergenceError",
    "DiffusionGrid", "DisconnectedGraphError", "DynamicsKind",
    "EmptyGraphError", "ExecutorKind", "FaultPlan", "Figure1Result",
    "FlowError", "FlowImprove", "Graph", "GraphError", "HeatKernel",
    "InvalidParameterError", "LazyWalk", "LocalClusterResult", "MOV", "MQI",
    "NCPProfile", "NCPRunResult", "PPR", "PartitionError", "Pipeline",
    "RefinementStep", "RefinementTrace", "RefinerKind", "ReproError",
    "RetryPolicy", "UnknownDynamicsError", "UnknownExecutorError",
    "UnknownGraphError", "UnknownRefinerError", "apply_refiners",
    "as_diffusion_grid", "as_pipeline", "as_refiner", "as_refiner_chain",
    "batch_ppr_push", "best_per_size_bucket", "canonical_dynamics",
    "cluster_ensemble_ncp", "figure1_comparison",
    "flow_cluster_ensemble_ncp", "from_edges", "get_dynamics",
    "get_executor", "get_refiner", "load_any_graph", "load_graph",
    "local_cluster", "ppr_push_frontier", "refine_candidates",
    "register_dynamics", "register_executor", "register_refiner",
    "registered_dynamics", "registered_executors", "registered_refiners",
    "run_multidynamics_ncp", "run_ncp_ensemble", "suite_names",
    "unregister_dynamics", "unregister_executor", "unregister_refiner",
    "verify_paper_theorem",
})
PACKAGE_ONLY_NAMES = frozenset({
    "__version__", "api", "cli", "core", "datasets", "diffusion", "dynamics",
    "execution", "graph", "linalg", "ncp", "partition", "refine",
    "regularization",
})


def test_facade_and_subpackage_exports_agree():
    import repro
    import repro.api as api

    assert FACADE_NAMES <= set(api.__all__)
    assert FACADE_NAMES | PACKAGE_ONLY_NAMES <= set(repro.__all__)
    assert set(repro.__all__) == set(api.__all__) | PACKAGE_ONLY_NAMES
    for name in FACADE_NAMES:
        assert getattr(repro, name) is getattr(api, name), name


# The only exported callables still accepting ``backend``: the
# benchmark's layer re-drive (``perfbench/measure.py``) passes
# ``backend="numpy"`` to them, and they refuse every other value.
NUMPY_ONLY_BACKEND = {"grid_candidates_for_seed_nodes", "iter_columns",
                      "sweep_cut"}


def test_no_public_callable_chooses_a_backend():
    takers = set()
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [obj]
            if inspect.isclass(obj):
                members += [m for _, m in inspect.getmembers(
                    obj, inspect.isfunction
                )]
            for member in members:
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if "backend" in parameters:
                    takers.add(member.__name__)
    assert takers <= NUMPY_ONLY_BACKEND, takers


def test_exactly_three_registries():
    import pkgutil

    import repro
    from repro._registry import Registry

    nouns = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, Registry):
                nouns[id(value)] = value.noun
    assert sorted(nouns.values()) == ["dynamics", "executor", "refiner"]


def _loaded_modules_after(code, prefixes):
    """Run ``code`` in a fresh interpreter; the loaded module names it left."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = (
        f"import sys\n{code}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def test_import_repro_defers_heavy_scipy_modules():
    # scipy.fft, scipy.sparse.csgraph (which pulls in scipy.sparse.linalg),
    # scipy.linalg and the CLI are imported where they are used, so every
    # process that imports repro stays smaller.
    loaded = _loaded_modules_after("import repro", (
        "scipy.fft", "scipy.sparse.csgraph", "scipy.linalg", "repro.cli",
    ))
    assert loaded == "[]", loaded


def test_lazy_cli_attribute_still_resolves():
    loaded = _loaded_modules_after(
        "import repro\n"
        "assert 'repro.cli' not in sys.modules\n"
        "assert callable(repro.cli.main)\n"
        "from repro import *\n"
        "assert cli is repro.cli\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')",
        ("repro.cli",),
    )
    assert "'repro.cli'" in loaded, loaded


def test_ppr_and_heat_kernel_run_loads_no_scipy_linalg():
    # The deferred imports must not come back inside an NCP pass: a PPR
    # plus heat-kernel ensemble needs neither scipy.linalg nor the CLI.
    # (An MQI pass imports scipy.sparse.csgraph, whose own package init
    # loads scipy.linalg, so it is not covered here.)
    loaded = _loaded_modules_after(
        "from repro import run_ncp_ensemble\n"
        "from repro.datasets import load_graph\n"
        "from repro.dynamics import PPR, DiffusionGrid, HeatKernel\n"
        "graph = load_graph('whiskered', 0)\n"
        "for spec in (PPR(), HeatKernel()):\n"
        "    run_ncp_ensemble(graph, DiffusionGrid(spec, num_seeds=4, seed=0))",
        ("scipy.linalg", "repro.cli"),
    )
    assert loaded == "[]", loaded
