"""Public-API smoke: every ``__all__`` name imports and documents itself.

The CI ``public-api-smoke`` job runs this module on its own: it imports
every name exported by each package's ``__all__`` (so a broken re-export
or a renamed symbol fails loudly, not at a user's first import), asserts
that every exported module/class/function carries a non-empty docstring,
that every CLI subcommand and option carries help text, instantiates
every dynamics record — default spec, default grid, local point spec —
through :func:`~repro.dynamics.get_dynamics`, drives every executor of
the fixed ``EXECUTORS`` tuple against the serial reference, and holds
the four fixed tables (``DYNAMICS``, ``REFINERS``, ``EXECUTORS``,
``RULES``) to one lookup contract.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro._registry import normalize
from repro.analysis import RULES, UnknownRuleError, select_rules
from repro.cli import build_parser
from repro.exceptions import InvalidParameterError
from repro.dynamics import (
    DYNAMICS,
    DiffusionGrid,
    UnknownDynamicsError,
    get_dynamics,
)
from repro.execution import EXECUTORS, UnknownExecutorError, get_executor
from repro.graph.generators import ring_of_cliques
from repro.refine import (
    REFINERS,
    Pipeline,
    UnknownRefinerError,
    get_refiner,
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
    assert [kind.key for kind in DYNAMICS] == ["hk", "ppr", "walk"]
    for kind in DYNAMICS:
        key = kind.key
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
    for kind in DYNAMICS:
        spec = kind.default_spec()
        columns = list(
            spec.iter_columns(graph, [0], epsilons=(1e-3,))
        )
        assert len(columns) == spec.grid_size((1e-3,)), kind.key
        assert all(column.shape == (graph.num_nodes,) for column in columns)


def test_every_registered_executor_instantiates():
    """CI satellite: the public-api-smoke job exercises every executor.

    Each record of ``EXECUTORS`` must resolve by key and by every alias,
    describe itself, build a default spec with a CLI token and JSON-able
    params, and drive a real (tiny) chunk plan end to end through
    :func:`~repro.execution.execute_chunks` with results identical to
    the serial reference.
    """
    from repro.execution import build_executor, execute_chunks, RetryPolicy
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
    assert [kind.key for kind in EXECUTORS] == ["serial", "process", "chaos"]
    for kind in EXECUTORS:
        key = kind.key
        assert get_executor(key) is kind, key
        for alias in kind.aliases:
            assert get_executor(alias) is kind, (key, alias)
        assert kind.description.strip(), key
        spec = kind.spec_type()
        assert isinstance(spec.token(), str) and spec.token(), key
        assert isinstance(spec.params(), dict), key

        instance = build_executor(
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

    Each record of ``REFINERS`` must produce a default spec that
    round-trips through :func:`get_refiner`, carries a deterministic
    token, rebuilds from its own params, and composes into a
    :class:`Pipeline`.
    """
    graph = ring_of_cliques(4, 5)
    assert [kind.key for kind in REFINERS] == ["mqi", "flow", "mov"]
    for kind in REFINERS:
        key = kind.key
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

        # Every refiner honors the shared invariant on a real set.
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

    from repro.analysis import lint_paths, lint_source
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


def _select_rule(name):
    """The one lint rule ``name`` (a key, code or alias) selects."""
    (rule,) = select_rules(name)
    return rule


# noun -> (records, lookup, unknown-name error) of the four fixed tables.
FIXED_TABLES = {
    "dynamics": (DYNAMICS, get_dynamics, UnknownDynamicsError),
    "refiner": (REFINERS, get_refiner, UnknownRefinerError),
    "executor": (EXECUTORS, get_executor, UnknownExecutorError),
    "rule": (RULES, _select_rule, UnknownRuleError),
}
# Lint rules have no spec types.
SPEC_TABLES = ("dynamics", "refiner", "executor")


def _spellings(record):
    """Every normalized spelling of a record: key, aliases, name, code."""
    names = (record.key, *record.aliases, getattr(record, "name", None),
             getattr(record, "code", None))
    return {normalize(name) for name in names if name}


class TestRegistryContract:
    """The lookup contract every fixed table keeps, checked on all four."""

    @pytest.mark.parametrize("noun", sorted(FIXED_TABLES))
    def test_normalized_names_and_aliases_resolve(self, noun):
        records, lookup, _ = FIXED_TABLES[noun]
        for record in records:
            for spelling in _spellings(record):
                for variant in (spelling, f" {spelling.upper()} ",
                                spelling.replace("_", "-")):
                    assert lookup(variant) is record, (noun, variant)

    @pytest.mark.parametrize("noun", sorted(FIXED_TABLES))
    def test_unknown_name_suggests_the_canonical_key(self, noun):
        records, lookup, error_type = FIXED_TABLES[noun]
        for record in records:
            with pytest.raises(error_type) as excinfo:
                lookup(record.key + record.key[-1])
            error = excinfo.value
            assert isinstance(error, InvalidParameterError)
            assert isinstance(error, ValueError)
            assert isinstance(error, KeyError)
            assert f"did you mean {record.key!r}" in str(error), noun

    @pytest.mark.parametrize("noun", SPEC_TABLES)
    def test_spec_types_resolve_exactly(self, noun):
        records, lookup, error_type = FIXED_TABLES[noun]
        for record in records:
            spec_type = record.spec_type
            assert lookup(record) is record
            assert lookup(spec_type) is record
            assert lookup(spec_type()) is record
            # A subclass of a spec type is not in the table.
            derived = type("Derived", (spec_type,), {})
            for stranger in (derived, derived(), object()):
                with pytest.raises(error_type):
                    lookup(stranger)

    @pytest.mark.parametrize("noun", sorted(FIXED_TABLES))
    def test_no_spelling_or_spec_type_is_shared(self, noun):
        records = FIXED_TABLES[noun][0]
        owners = {}
        for record in records:
            for spelling in _spellings(record):
                assert owners.setdefault(spelling, record.key) == record.key, (
                    f"{noun} spelling {spelling!r} belongs to "
                    f"{owners[spelling]!r} and {record.key!r}"
                )
        if noun in SPEC_TABLES:
            spec_types = [record.spec_type for record in records]
            assert len(set(spec_types)) == len(spec_types), noun


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
    "run_multidynamics_ncp", "run_ncp_ensemble", "suite_names",
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
