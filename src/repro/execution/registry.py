"""The ExecutorKind registry: pluggable ensemble-execution strategies.

The same :class:`~repro._registry.Registry` as the dynamics and
refiner registries: a frozen record per strategy under a
canonical key (``serial`` / ``process`` / ``chaos``) with an alias
table, a did-you-mean :class:`UnknownExecutorError`, and
register/resolve/get/unregister functions.  Each entry binds a frozen
*spec type* (the CLI- and manifest-facing parameter record) to a
*factory* that builds the live
:class:`~repro.execution.executors.ChunkExecutor` for a run.

Registering an executor is enough for ``run_ncp_ensemble(executor=...)``
and the ``repro ncp --executor`` flag to accept it by name (see
``tests/test_execution.py`` for a worked third-party example).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._registry import Registry
from repro.exceptions import InvalidParameterError

__all__ = [
    "ExecutorKind",
    "UnknownExecutorError",
    "as_executor_spec",
    "build_executor",
    "get_executor",
    "register_executor",
    "registered_executors",
    "resolve_executor_name",
    "unregister_executor",
]


class UnknownExecutorError(InvalidParameterError, KeyError):
    """Raised for an executor name that is not in the registry.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``, matching the other registry errors
    (:class:`~repro.dynamics.UnknownDynamicsError`,
    :class:`~repro.refine.UnknownRefinerError`), so callers validating
    either way keep working.
    """

    __str__ = Exception.__str__


@dataclass(frozen=True)
class ExecutorKind:
    """One execution strategy: spec type + factory behind a canonical name.

    Attributes
    ----------
    key:
        Canonical registry name (``"serial"``, ``"process"``,
        ``"chaos"``).
    description:
        One-line summary shown in ``--help`` and the architecture docs.
    aliases:
        Accepted alternative names.
    spec_type:
        Frozen dataclass of the strategy's parameters; ``spec_type()``
        must be a valid default spec, and instances should provide
        ``token()`` (canonical CLI string) and ``params()`` (JSON-able
        manifest record).
    factory:
        ``(spec, *, graph, evaluate, num_workers)`` ->
        :class:`~repro.execution.executors.ChunkExecutor` building the
        live strategy for one run.
    replayable:
        Whether a manifest ``replay_argv`` may pin this executor.  The
        chaos executor is *not* replayable: fault injection is an
        execution fact (it never changes a completed run's bytes, and an
        ``abort_after`` fault would crash the replay), so replays fall
        back to the default strategy.
    """

    key: str
    description: str
    aliases: tuple = ()
    spec_type: object = field(default=None, repr=False)
    factory: object = field(default=None, repr=False)
    replayable: bool = True


EXECUTORS = Registry("executor", ExecutorKind, UnknownExecutorError)
register_executor = EXECUTORS.register
unregister_executor = EXECUTORS.unregister
resolve_executor_name = EXECUTORS.resolve
get_executor = EXECUTORS.get
registered_executors = EXECUTORS.registered


def as_executor_spec(executor):
    """Coerce a name, alias, kind, or spec instance into a frozen spec.

    A name/alias or an :class:`ExecutorKind` yields the entry's default
    spec (``spec_type()``); a spec instance of a registered kind passes
    through unchanged.
    """
    kind = get_executor(executor)
    if type(executor) is kind.spec_type:
        return executor
    return kind.spec_type()


def build_executor(executor, *, graph, evaluate, num_workers=0):
    """Resolve ``executor`` and build the live strategy for one run.

    Returns ``(chunk_executor, spec, kind)``.  ``evaluate`` is the
    ``(graph, chunk) -> candidates`` callable (a module-level function,
    so process-pool strategies can pickle it by reference);
    ``num_workers`` is forwarded to the factory (pool strategies clamp
    it to >= 1, serial strategies ignore it).
    """
    spec = as_executor_spec(executor)
    kind = get_executor(spec)
    instance = kind.factory(
        spec, graph=graph, evaluate=evaluate, num_workers=num_workers
    )
    return instance, spec, kind
