"""The lint rules: this codebase's contracts, machine-checked.

Each rule is a :class:`~repro.analysis.visitor.RuleVisitor` subclass of
roughly thirty lines, paired with its id, code and aliases in one
:class:`LintRule` record of the fixed :data:`RULES` tuple.  The rules
encode the conventions the past PRs established by hand:

* **R001 no-stringly-dispatch** — resolve names through
  :mod:`repro.dynamics`, :mod:`repro.refine` and :mod:`repro.execution`,
  never branch on their vocabulary as string literals or reach into a
  lookup's private dicts (``_entries``, ``_aliases``, ``_spec_types``).
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
  :mod:`repro.execution`; everything else selects the process executor
  by name (``run_ncp_ensemble(executor="process")``) so retry, straggler
  re-dispatch, and resume apply uniformly.

R005 and R006 were retired in 2.0 together with the code they checked;
their codes are not reused.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass

from repro._registry import normalize
from repro.analysis.visitor import RuleVisitor
from repro.exceptions import InvalidParameterError

__all__ = ["LintRule", "RULES", "UnknownRuleError", "registry_vocabulary"]


class UnknownRuleError(InvalidParameterError, KeyError):
    """Raised for a lint-rule name that matches no rule in :data:`RULES`.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``, matching the registry errors
    (:class:`~repro.dynamics.UnknownDynamicsError`,
    :class:`~repro.refine.UnknownRefinerError`), so callers validating
    either way keep working.
    """

    __str__ = Exception.__str__


@dataclass(frozen=True)
class LintRule:
    """One invariant checker: a visitor class behind a canonical id.

    Attributes
    ----------
    key:
        Canonical id (``"no-stringly-dispatch"``, ...).
    code:
        Short stable code (``"R001"``) shown in findings and usable as a
        ``--select``/``--ignore`` alias.
    description:
        One-line summary shown by ``repro lint --list`` and in the docs.
    visitor:
        :class:`~repro.analysis.visitor.RuleVisitor` subclass
        implementing the check (``visit_<NodeType>`` handlers plus an
        optional ``finalize``).
    aliases:
        Accepted alternative names (the ``code`` is always one too).
    exempt:
        Path substrings (posix-style) naming files the rule never runs
        on — the registry modules themselves are exempt from
        ``no-stringly-dispatch``, for example.
    """

    key: str
    code: str
    description: str
    visitor: type
    aliases: tuple = ()
    exempt: tuple = ()

    @property
    def names(self):
        """Every normalized spelling of the rule: key, code, aliases."""
        return frozenset(
            normalize(name) for name in (self.key, self.code, *self.aliases)
        )

    def applies_to(self, path):
        """Whether the rule runs on ``path`` (checks :attr:`exempt`)."""
        posix = str(path).replace("\\", "/")
        return not any(part in posix for part in self.exempt)


# Variable names whose string comparisons smell like retired stringly
# dispatch (the left-hand sides PRs 3/5/7 cleaned up).
_DISPATCH_NAMES = frozenset({
    "dynamics", "backend", "engine", "implementation", "refiner",
    "kind", "method", "key", "executor",
})

# Private lookup-dict names, which only the lookup modules may subscript.
_PRIVATE_REGISTRY_DICTS = frozenset({"_entries", "_aliases", "_spec_types"})

# The registry modules themselves (and this package) legitimately handle
# registry-name strings and the registries' private dicts.
_REGISTRY_MODULES = (
    "repro/_registry.py",
    "repro/dynamics.py",
    "repro/refine.py",
    "repro/execution/",
    "repro/analysis/",
)


@functools.cache
def registry_vocabulary():
    """Every canonical name and alias of the dynamics, refiners and executors.

    One snapshot of the fixed :data:`repro.dynamics.DYNAMICS`,
    :data:`repro.refine.REFINERS` and :data:`repro.execution.EXECUTORS`
    tuples (imported lazily), so the no-stringly-dispatch rule carries no
    word list of its own.
    """
    from repro.dynamics import DYNAMICS
    from repro.execution import EXECUTORS
    from repro.refine import REFINERS

    return frozenset(
        name
        for record in (*DYNAMICS, *REFINERS, *EXECUTORS)
        for name in (record.key, *record.aliases)
    )


def _terminal_name(node):
    """``executor`` for both the Name ``executor`` and ``spec.executor``."""
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
            "get_dynamics / get_refiner / get_executor and compare the "
            "records instead of their name strings"
        ))

    def visit_Subscript(self, node):
        target = _terminal_name(node.value)
        if target in _PRIVATE_REGISTRY_DICTS:
            self.add(node, (
                f"direct access to the private registry dict {target}: use "
                "the public get_* lookups or the DYNAMICS / REFINERS / "
                "EXECUTORS tuples"
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
        "KeyError, like UnknownDynamicsError/UnknownRefinerError)"
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
                "and resume apply; select the process executor by name "
                "(run_ncp_ensemble(executor=\"process\") or "
                "repro.execution.build_executor)"
            ))


# The rule set, in ``--list`` and run order.
RULES = (
    LintRule(
        key="no-stringly-dispatch",
        code="R001",
        description=(
            "resolve dynamics/refiner/executor names through their get_* "
            "lookups, never branch on their vocabulary as string literals "
            "or read private registry dicts"
        ),
        aliases=("stringly", "stringly-dispatch"),
        visitor=StringlyDispatchVisitor,
        exempt=_REGISTRY_MODULES,
    ),
    LintRule(
        key="cache-version-discipline",
        code="R002",
        description=(
            "modules writing npz memo entries or composing cache keys "
            "must reference a module-level _CACHE_VERSION constant"
        ),
        aliases=("cache-version",),
        visitor=CacheVersionVisitor,
    ),
    LintRule(
        key="determinism-hazards",
        code="R003",
        description=(
            "no global-state RNGs, wall-clock reads, or unordered-set "
            "iteration: candidates replay byte-for-byte at any worker "
            "count"
        ),
        aliases=("determinism",),
        visitor=DeterminismVisitor,
    ),
    LintRule(
        key="exception-policy",
        code="R004",
        description=(
            "no bare/swallowing broad except handlers, and no raising "
            "builtin KeyError/ValueError where the dual-inheritance "
            "repro exception types are required"
        ),
        aliases=("exceptions",),
        visitor=ExceptionPolicyVisitor,
    ),
    LintRule(
        key="executor-discipline",
        code="R007",
        description=(
            "ProcessPoolExecutor is constructed only inside "
            "repro.execution; all other code selects one of its fixed "
            "executors by name or spec"
        ),
        aliases=("executors",),
        visitor=ExecutorDisciplineVisitor,
        exempt=("repro/execution/",),
    ),
)
