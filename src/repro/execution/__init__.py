"""Resumable, fault-tolerant ensemble execution.

The execution layer extracted from the NCP runner (ROADMAP item 4): the
*what* of a run — the deterministic, fingerprint-keyed chunk plan —
stays in :mod:`repro.ncp.runner`, while the *how* lives here:

* **Executors** — the fixed :data:`EXECUTORS` tuple of three
  :class:`ExecutorKind` records, ``serial`` / ``process`` / ``chaos``,
  looked up by :func:`get_executor` (aliases, did-you-mean
  :class:`UnknownExecutorError`); each binds a frozen spec type to a
  factory for the live :class:`ChunkExecutor` strategy.
* **Driver** — :func:`execute_chunks`: per-chunk retry with bounded
  backoff (:class:`RetryPolicy`), straggler re-dispatch with
  first-result-wins, incremental per-chunk result delivery (the hook
  crash-then-resume rides on), and typed failures
  (:class:`ChunkExecutionError` instead of a raw ``BrokenProcessPool``).
* **Fault injection** — the ``chaos`` executor executes a frozen,
  seed-derived :class:`FaultPlan` (kill chunk k on attempt j, delay,
  corrupt the memo entry, abort after K chunks), so every robustness
  guarantee is exercised deterministically by the test suite and the CI
  ``chaos-smoke`` job.

Because chunk plans, merge order, and cache keys never depend on the
strategy, every executor produces byte-identical candidates — the
serial executor is the oracle the other two are tested against.
"""

from __future__ import annotations

from repro.execution.driver import (
    ExecutionOutcome,
    RetryPolicy,
    execute_chunks,
)
from repro.execution.errors import (
    ChunkExecutionError,
    ExecutionError,
    InjectedFaultError,
    RunAbortedError,
)
from repro.execution.executors import (
    EXECUTORS,
    Chaos,
    ChaosExecutor,
    ChunkExecutor,
    ExecutorKind,
    ProcessExecutor,
    ProcessPool,
    Serial,
    SerialExecutor,
    UnknownExecutorError,
    as_executor_spec,
    build_executor,
    get_executor,
)
from repro.execution.faults import FAULT_KINDS, Fault, FaultPlan

__all__ = [
    "EXECUTORS",
    "FAULT_KINDS",
    "Chaos",
    "ChaosExecutor",
    "ChunkExecutionError",
    "ChunkExecutor",
    "ExecutionError",
    "ExecutionOutcome",
    "ExecutorKind",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "ProcessExecutor",
    "ProcessPool",
    "RetryPolicy",
    "RunAbortedError",
    "Serial",
    "SerialExecutor",
    "UnknownExecutorError",
    "as_executor_spec",
    "build_executor",
    "execute_chunks",
    "get_executor",
]

