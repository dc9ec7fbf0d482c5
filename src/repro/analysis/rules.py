"""The built-in lint rules: this codebase's contracts, machine-checked.

Each rule is a :class:`~repro.analysis.visitor.RuleVisitor` subclass of
roughly thirty lines, registered as a
:class:`~repro.analysis.registry.LintRule` by
:func:`register_builtin_rules`.  The rules encode the conventions the
past PRs established by hand:

* **R001 no-stringly-dispatch** — branch through the registries
  (:mod:`repro.dynamics`, :mod:`repro.backends`, :mod:`repro.refine`),
  never on registry vocabulary string literals or by reaching into a
  registry's private dict.
* **R002 cache-version-discipline** — modules that persist memo entries
  or compose cache keys must reference a ``_CACHE_VERSION`` constant, so
  serialization changes force a version bump.
* **R003 determinism-hazards** — no global-state RNGs, no wall-clock
  values in results, no iteration over unordered sets: candidates must
  be byte-identical at any worker count.
* **R004 exception-policy** — no bare/swallowing broad handlers (the
  PR 2 bug class), and no raising builtin ``KeyError``/``ValueError``
  where the dual-inheritance ``repro`` exception types are required.
* **R007 executor-discipline** — process pools are an execution-layer
  concern: ``ProcessPoolExecutor`` is constructed only inside
  :mod:`repro.execution`; everything else goes through the executor
  registry (``run_ncp_ensemble(executor=...)``) so retry, straggler
  re-dispatch, and resume apply uniformly.

R005 and R006 were retired in 2.0 together with the code they checked;
their codes are not reused.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import LintRule, register_rule
from repro.analysis.visitor import RuleVisitor

__all__ = ["register_builtin_rules", "registry_vocabulary"]

# Variable names whose string comparisons smell like retired stringly
# dispatch (the left-hand sides PRs 3/5/7 cleaned up).
_DISPATCH_NAMES = frozenset({
    "dynamics", "backend", "engine", "implementation", "refiner",
    "kind", "method", "key", "executor",
})

# The registry modules themselves (and this package) legitimately handle
# registry-name strings.
_REGISTRY_MODULES = (
    "repro/dynamics.py",
    "repro/refine.py",
    "repro/backends/__init__.py",
    "repro/execution/",
    "repro/analysis/",
)


def registry_vocabulary():
    """Every canonical name and alias across the four live registries.

    Read from :func:`repro.dynamics.registered_dynamics`,
    :func:`repro.backends.registered_backends`,
    :func:`repro.refine.registered_refiners`, and
    :func:`repro.execution.registered_executors` (imported lazily) on
    every call, so the no-stringly-dispatch rule tracks the registries,
    later registrations and removals included, instead of carrying its
    own drifting word list.
    """
    from repro.backends import registered_backends
    from repro.dynamics import registered_dynamics
    from repro.execution import registered_executors
    from repro.refine import registered_refiners

    vocabulary = set()
    for registry in (
        registered_dynamics(), registered_backends(),
        registered_refiners(), registered_executors(),
    ):
        for key, entry in registry.items():
            vocabulary.add(key)
            vocabulary.update(getattr(entry, "aliases", ()))
    return frozenset(vocabulary)


def _terminal_name(node):
    """``backend`` for both the Name ``backend`` and ``chunk.backend``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node):
    """Dotted source text of a Name/Attribute chain (else None)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _string_constants(node):
    """String constants in a comparator (handles tuple/list/set displays)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
    return []


class StringlyDispatchVisitor(RuleVisitor):
    """R001: registry names are compared via the registry, not strings."""

    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        # One snapshot of the live registries per visited file.
        self._vocabulary = registry_vocabulary()

    def visit_Compare(self, node):
        name = _terminal_name(node.left)
        if name not in _DISPATCH_NAMES:
            return
        if not any(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
            for op in node.ops
        ):
            return
        hits = [
            value
            for comparator in node.comparators
            for value in _string_constants(comparator)
            if value in self._vocabulary
        ]
        if not hits:
            return
        # Asserting a concrete registry name is a test, not dispatch.
        if isinstance(self.ctx.statement(node), ast.Assert):
            return
        self.add(node, (
            f"stringly dispatch on {name} == {hits[0]!r}: resolve through "
            "the registry (resolve_*_name / get_*) and compare registry "
            "objects instead of registry-vocabulary strings"
        ))

    def visit_Subscript(self, node):
        target = _terminal_name(node.value)
        if target in {"_REGISTRY", "_ALIASES"}:
            self.add(node, (
                f"direct access to the private registry dict {target}: use "
                "the registry's public get_*/resolve_*/registered_* API"
            ))


class CacheVersionVisitor(RuleVisitor):
    """R002: cache writers and key composers reference ``_CACHE_VERSION``."""

    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        self._writers = []       # np.savez* call sites
        self._key_functions = []  # FunctionDefs composing cache keys
        self._module_versioned = False

    @staticmethod
    def _is_version_name(name):
        return name is not None and name.endswith("_CACHE_VERSION")

    def visit_Name(self, node):
        if self._is_version_name(node.id):
            self._module_versioned = True

    def visit_Call(self, node):
        dotted = _dotted(node.func) or ""
        if dotted.endswith((".savez", ".savez_compressed")):
            self._writers.append(node)

    def visit_FunctionDef(self, node):
        # Tests assert on cache keys; only composers must cite the
        # version constant.
        if node.name.startswith("test"):
            return
        if "cache_key" in node.name or "memo_key" in node.name:
            self._key_functions.append(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def finalize(self):
        for function in self._key_functions:
            references_version = any(
                isinstance(inner, ast.Name)
                and self._is_version_name(inner.id)
                for inner in ast.walk(function)
            )
            if not references_version:
                self.add(function, (
                    f"cache-key function {function.name!r} never "
                    "references a _CACHE_VERSION constant: serialized-"
                    "field changes would silently reuse stale entries"
                ))
        if self._writers and not self._module_versioned:
            for writer in self._writers:
                self.add(writer, (
                    "module persists npz memo entries but never "
                    "references a module-level _CACHE_VERSION: bump-on-"
                    "change versioning cannot work here"
                ))


# np.random constructors that carry explicit seeding (allowed); every
# other np.random attribute is the legacy global-state API.
_SEEDED_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64",
})

_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
})

# Builtins that materialize an ordered sequence from their argument.
_ORDERING_CALLS = frozenset({"list", "tuple", "enumerate"})


def _is_set_display(node):
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


class DeterminismVisitor(RuleVisitor):
    """R003: no global RNGs, wall clocks, or unordered-set iteration."""

    def visit_Call(self, node):
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            self.add(node, (
                f"{dotted}() uses the stdlib's global-state RNG: thread "
                "an explicitly seeded np.random.default_rng(seed) "
                "Generator instead"
            ))
        elif dotted.startswith(("np.random.", "numpy.random.")):
            attribute = dotted.split(".", 2)[2]
            if attribute.split(".")[0] not in _SEEDED_RANDOM:
                self.add(node, (
                    f"{dotted}() is the legacy global-state numpy RNG: "
                    "use an explicitly seeded np.random.default_rng(seed)"
                ))
        elif dotted in _CLOCK_CALLS:
            self.add(node, (
                f"{dotted}() reads the wall clock: results must replay "
                "byte-for-byte, so derive values from run parameters "
                "(keep clocks to timing/manifest records only)"
            ))
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDERING_CALLS
            and node.args
            and _is_set_display(node.args[0])
        ):
            self.add(node, (
                f"{node.func.id}() over a set materializes an "
                "unordered iteration: wrap the set in sorted(...) so "
                "downstream output is deterministic"
            ))

    def _check_iteration(self, iterable):
        if _is_set_display(iterable):
            self.add(iterable, (
                "iterating an unordered set: wrap it in sorted(...) so "
                "candidates and serialized output stay byte-identical "
                "across runs and worker counts"
            ))

    def visit_For(self, node):
        self._check_iteration(node.iter)

    def visit_comprehension(self, node):
        self._check_iteration(node.iter)


# Dual-inheritance replacements the policy points to, by builtin raised.
_BUILTIN_RAISES = {
    "KeyError": (
        "a dual-inheritance registry error (InvalidParameterError + "
        "KeyError, like UnknownDynamicsError/UnknownBackendError)"
    ),
    "ValueError": (
        "repro.exceptions.InvalidParameterError (a ReproError and a "
        "ValueError), so callers can catch the library base class"
    ),
}


class ExceptionPolicyVisitor(RuleVisitor):
    """R004: no swallowing broad handlers, no bare builtin raises."""

    def visit_ExceptHandler(self, node):
        if node.type is None:
            self.add(node, (
                "bare 'except:' swallows SystemExit/KeyboardInterrupt "
                "too: catch the narrowest exception the code can "
                "actually handle"
            ))
            return
        caught = _terminal_name(node.type)
        if caught not in {"Exception", "BaseException"}:
            return
        reraises = any(
            isinstance(inner, ast.Raise) for inner in ast.walk(node)
        )
        if not reraises:
            self.add(node, (
                f"'except {caught}:' without a re-raise swallows every "
                "failure (the PR 2 bug class): narrow the exception "
                "type, or re-raise after handling"
            ))

    def visit_Raise(self, node):
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _terminal_name(exc)
        replacement = _BUILTIN_RAISES.get(name)
        if replacement is not None:
            self.add(node, (
                f"raising builtin {name} directly: raise {replacement}"
            ))


class ExecutorDisciplineVisitor(RuleVisitor):
    """R007: ``ProcessPoolExecutor`` is built only in ``repro.execution``."""

    def visit_Call(self, node):
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted.split(".")[-1] == "ProcessPoolExecutor":
            self.add(node, (
                "direct ProcessPoolExecutor construction: pools live in "
                "the execution layer so retry, straggler re-dispatch, "
                "and resume apply; go through the executor registry "
                "(run_ncp_ensemble(executor=...) or "
                "repro.execution.build_executor)"
            ))


def register_builtin_rules():
    """Register the built-in rule set (idempotent per fresh registry)."""
    register_rule(LintRule(
        key="no-stringly-dispatch",
        code="R001",
        description=(
            "branch through the dynamics/backend/refiner registries, "
            "never on registry-vocabulary string literals or private "
            "registry dicts"
        ),
        aliases=("stringly", "stringly-dispatch"),
        visitor=StringlyDispatchVisitor,
        exempt=_REGISTRY_MODULES,
    ))
    register_rule(LintRule(
        key="cache-version-discipline",
        code="R002",
        description=(
            "modules writing npz memo entries or composing cache keys "
            "must reference a module-level _CACHE_VERSION constant"
        ),
        aliases=("cache-version",),
        visitor=CacheVersionVisitor,
    ))
    register_rule(LintRule(
        key="determinism-hazards",
        code="R003",
        description=(
            "no global-state RNGs, wall-clock reads, or unordered-set "
            "iteration: candidates replay byte-for-byte at any worker "
            "count"
        ),
        aliases=("determinism",),
        visitor=DeterminismVisitor,
    ))
    register_rule(LintRule(
        key="exception-policy",
        code="R004",
        description=(
            "no bare/swallowing broad except handlers, and no raising "
            "builtin KeyError/ValueError where the dual-inheritance "
            "repro exception types are required"
        ),
        aliases=("exceptions",),
        visitor=ExceptionPolicyVisitor,
    ))
    register_rule(LintRule(
        key="executor-discipline",
        code="R007",
        description=(
            "ProcessPoolExecutor is constructed only inside "
            "repro.execution; all other code selects strategies through "
            "the executor registry"
        ),
        aliases=("executors",),
        visitor=ExecutorDisciplineVisitor,
        exempt=("repro/execution/",),
    ))
