"""The chunk executors: serial, process pool, and chaos.

One :class:`ChunkExecutor` is a *strategy* for evaluating
:class:`~repro.ncp.runner.GridChunk` shards: the driver
(:func:`~repro.execution.driver.execute_chunks`) owns the queueing,
retry, straggler re-dispatch, and first-result-wins bookkeeping, while
the executor only knows how to turn one ``(chunk, attempt)`` submission
into a :class:`concurrent.futures.Future`.

* :class:`SerialExecutor` — evaluates in-process, one chunk at a time;
  the reference strategy every other executor must match byte for byte.
* :class:`ProcessExecutor` — today's production path: a
  ``ProcessPoolExecutor`` whose workers map the graph's CSR arrays from
  one shared-memory segment (the pickle channel carries only chunk
  descriptions), recreated transparently after a worker death.
* :class:`ChaosExecutor` — a serial executor driven by a frozen
  :class:`~repro.execution.faults.FaultPlan`: it injects worker deaths,
  delays, memo-entry corruption, and whole-run aborts deterministically,
  so every robustness guarantee has a test that exercises it by
  construction.

:data:`EXECUTORS` is the fixed set of the three: one
:class:`ExecutorKind` record per strategy, looked up by key, alias, spec
or spec type through :func:`get_executor`.  A new strategy is a code
change here, a new record in the tuple.

This module is the one place in the tree allowed to construct a
``ProcessPoolExecutor`` directly (lint rule R007 flags it anywhere
else): all other code selects a strategy by name or spec.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro._registry import record_lookup
from repro._validation import check_int, check_positive
from repro.exceptions import InvalidParameterError, ReproError
from repro.execution.errors import InjectedFaultError, RunAbortedError
from repro.execution.faults import Fault, FaultPlan

__all__ = [
    "EXECUTORS",
    "Chaos",
    "ChaosExecutor",
    "ChunkExecutor",
    "ExecutorKind",
    "ProcessExecutor",
    "ProcessPool",
    "Serial",
    "SerialExecutor",
    "UnknownExecutorError",
    "as_executor_spec",
    "build_executor",
    "get_executor",
]


# ---------------------------------------------------------------------------
# Shared-memory graph transport (moved here from repro.ncp.runner; the
# runner re-exports the two public-ish helpers for compatibility).


def _share_graph(graph):
    """Copy the graph's CSR arrays into one shared-memory segment.

    Returns ``(shm, layout)`` where ``layout`` is a tuple of
    ``(byte_offset, dtype_str, length)`` triples (indptr, indices,
    weights, each 8-byte aligned) from which :func:`_attach_shared_graph`
    rebuilds zero-copy views in a worker process.  The caller owns the
    segment and must ``close()`` + ``unlink()`` it.
    """
    from multiprocessing import shared_memory

    arrays = (
        np.ascontiguousarray(graph.indptr),
        np.ascontiguousarray(graph.indices),
        np.ascontiguousarray(graph.weights),
    )
    layout = []
    offset = 0
    for array in arrays:
        offset = (offset + 7) & ~7
        layout.append((offset, array.dtype.str, int(array.size)))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (start, _, _), array in zip(layout, arrays):
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=start
        )
        view[:] = array
    return shm, tuple(layout)


def _attach_shared_graph(shm_name, layout):
    """Map a :func:`_share_graph` segment back into a read-only Graph."""
    from multiprocessing import shared_memory

    # Attaching re-registers the name with the resource tracker, but the
    # tracker process (and its name *set*) is inherited from the parent,
    # so the parent's single close()+unlink() after the pool drains is
    # the one cleanup; workers only close their mapping implicitly at
    # exit.
    shm = shared_memory.SharedMemory(name=shm_name)
    arrays = []
    for start, dtype_str, length in layout:
        view = np.ndarray(
            (length,), dtype=np.dtype(dtype_str), buffer=shm.buf,
            offset=start,
        )
        view.setflags(write=False)
        arrays.append(view)
    from repro.graph.graph import Graph

    return shm, Graph(arrays[0], arrays[1], arrays[2], validate=False)


# Per-worker-process state: the shared graph, attached once by the pool
# initializer and reused by every chunk the worker evaluates.  The shm
# handle is kept alive alongside the Graph so the views stay valid.
_WORKER_SHM = None
_WORKER_GRAPH = None


def _worker_init(shm_name, layout):
    """Pool initializer: attach the shared graph once per worker."""
    global _WORKER_SHM, _WORKER_GRAPH
    _WORKER_SHM, _WORKER_GRAPH = _attach_shared_graph(shm_name, layout)


def _worker_call(evaluate, chunk):
    """Process-pool entry point: evaluate one chunk on the shared graph.

    Only the chunk (and the module-level ``evaluate`` reference) travel
    through the pool's pickle channel; the CSR arrays are the shared-
    memory views attached by :func:`_worker_init`.
    """
    return evaluate(_WORKER_GRAPH, chunk)


# ---------------------------------------------------------------------------
# Frozen executor specs (the spec types of the EXECUTORS records).


@dataclass(frozen=True)
class Serial:
    """Spec for the in-process serial executor (no knobs)."""

    name: ClassVar[str] = "serial"

    def token(self):
        """Canonical CLI token for this spec."""
        return type(self).name

    def params(self):
        """JSON-able parameter record for manifests."""
        return {}


@dataclass(frozen=True)
class ProcessPool:
    """Spec for the shared-memory process-pool executor (no knobs).

    The worker count is an execution fact, not part of the workload, so
    it stays a separate ``num_workers`` argument (the runner's
    determinism contract makes results independent of it).
    """

    name: ClassVar[str] = "process"

    def token(self):
        """Canonical CLI token for this spec."""
        return type(self).name

    def params(self):
        """JSON-able parameter record for manifests."""
        return {}


@dataclass(frozen=True)
class Chaos:
    """Spec for the deterministic fault-injecting executor.

    The seeded recipe fields (``seed``/``kills``/``delays``/``corrupts``
    /``delay_seconds``) expand through :meth:`FaultPlan.seeded` at run
    start; ``faults`` carries explicit :class:`~repro.execution.faults.
    Fault` records for tests that need to target an exact
    (chunk, attempt) pair.  ``abort_after`` crashes the run after K
    completed chunks (the resume test's crash half).
    """

    seed: int = 0
    kills: int = 0
    delays: int = 0
    corrupts: int = 0
    delay_seconds: float = 0.01
    abort_after: object = None
    faults: tuple = field(default_factory=tuple)

    name: ClassVar[str] = "chaos"

    def __post_init__(self):
        check_int(self.seed, "seed")
        check_int(self.kills, "kills", minimum=0)
        check_int(self.delays, "delays", minimum=0)
        check_int(self.corrupts, "corrupts", minimum=0)
        check_positive(self.delay_seconds, "delay_seconds", allow_zero=True)
        if self.abort_after is not None:
            check_int(self.abort_after, "abort_after", minimum=0)
        object.__setattr__(self, "faults", tuple(self.faults))
        for entry in self.faults:
            if not isinstance(entry, Fault):
                raise InvalidParameterError(
                    f"Chaos.faults must hold Fault records; got {entry!r}"
                )

    def plan(self, num_chunks):
        """Resolve the frozen :class:`FaultPlan` for ``num_chunks``."""
        seeded = FaultPlan.seeded(
            self.seed, num_chunks,
            kills=self.kills, delays=self.delays, corrupts=self.corrupts,
            delay_seconds=self.delay_seconds,
        )
        return FaultPlan(
            faults=self.faults + seeded.faults,
            abort_after=self.abort_after,
        )

    def token(self):
        """Canonical CLI token (seeded-recipe fields only).

        Explicit ``faults`` records are API-only (tests construct them
        directly) and are not representable in the CLI grammar; they are
        still recorded in :meth:`params` for manifests.
        """
        parts = []
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.kills:
            parts.append(f"kills={self.kills}")
        if self.delays:
            parts.append(f"delays={self.delays}")
        if self.corrupts:
            parts.append(f"corrupts={self.corrupts}")
        if self.delays and self.delay_seconds != 0.01:
            parts.append(f"delay_seconds={self.delay_seconds!r}")
        if self.abort_after is not None:
            parts.append(f"abort_after={self.abort_after}")
        name = type(self).name
        return f"{name}:{','.join(parts)}" if parts else name

    def params(self):
        """JSON-able parameter record for manifests."""
        return {
            "seed": int(self.seed),
            "kills": int(self.kills),
            "delays": int(self.delays),
            "corrupts": int(self.corrupts),
            "delay_seconds": float(self.delay_seconds),
            "abort_after": (
                None if self.abort_after is None else int(self.abort_after)
            ),
            "faults": [
                {
                    "kind": f.kind,
                    "chunk": int(f.chunk),
                    "attempt": int(f.attempt),
                    "seconds": float(f.seconds),
                }
                for f in self.faults
            ],
        }


# ---------------------------------------------------------------------------
# Executor strategies.


class ChunkExecutor:
    """Strategy interface the execution driver runs chunks through.

    Subclasses override :meth:`submit` (required) and any of the hooks;
    the driver guarantees the call order
    ``__enter__ -> start -> (submit | recover | after_cache_write |
    note_result)* -> __exit__``.

    Attributes
    ----------
    redispatch_capable:
        Whether the driver may re-submit a straggling chunk while its
        first submission is still in flight (true parallel executors
        only; for serial strategies a duplicate would just run twice).
    max_inflight:
        Cap on concurrently in-flight submissions (``None`` = no cap).
        Serial strategies use 1, so results stream back chunk by chunk
        and per-chunk cache writes land incrementally — the property
        crash-then-resume relies on.
    """

    redispatch_capable = False
    max_inflight = 1

    def __init__(self, graph, evaluate):
        self._graph = graph
        self._evaluate = evaluate

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def start(self, chunks):
        """Driver hook: called once with the full list of chunks to run."""

    def submit(self, chunk, attempt=0):
        """Submit one chunk evaluation; returns a Future of candidates."""
        raise NotImplementedError

    def needs_recovery(self, exc):
        """Whether ``exc`` means the executor's machinery died (vs. the
        chunk itself failing) and :meth:`recover` should run before the
        chunk is retried."""
        return False

    def recover(self):
        """Rebuild broken machinery (e.g. a dead process pool)."""

    def after_cache_write(self, chunk, path):
        """Hook: the runner persisted ``chunk``'s memo entry at ``path``."""

    def note_result(self, chunk, completed):
        """Hook: ``chunk`` completed; ``completed`` chunks are done so far."""


class SerialExecutor(ChunkExecutor):
    """Evaluate chunks in-process, one at a time (the reference strategy)."""

    def submit(self, chunk, attempt=0):
        future = Future()
        try:
            result = self._evaluate(self._graph, chunk)
        except ReproError as exc:
            # Library failures travel through the future exactly like a
            # pool's would, so the driver's retry/typed-error path is
            # uniform across executors; non-library exceptions are bugs
            # and propagate immediately.
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class ProcessExecutor(ChunkExecutor):
    """Fan chunks out to a shared-memory-backed process pool.

    The CSR arrays cross the process boundary exactly once, through a
    shared-memory segment every worker maps read-only at startup; the
    pickle channel carries only :class:`~repro.ncp.runner.GridChunk`
    descriptions.  A dead pool (worker killed by the OOM killer, a
    segfault, ...) is detected via :meth:`needs_recovery` and rebuilt by
    :meth:`recover` against the same shared segment, so a single worker
    death costs one chunk retry, not the whole run.
    """

    redispatch_capable = True

    def __init__(self, graph, evaluate, *, num_workers=1):
        super().__init__(graph, evaluate)
        self._num_workers = check_int(num_workers, "num_workers", minimum=1)
        # Modest lookahead over the worker count: enough to keep workers
        # busy, small enough that the straggler check sees fresh medians.
        self.max_inflight = 2 * self._num_workers
        self._shm = None
        self._layout = None
        self._pool = None

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self._num_workers,
            initializer=_worker_init,
            initargs=(self._shm.name, self._layout),
        )

    def __enter__(self):
        self._shm, self._layout = _share_graph(self._graph)
        self._pool = self._make_pool()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None
        return False

    def submit(self, chunk, attempt=0):
        return self._pool.submit(_worker_call, self._evaluate, chunk)

    def needs_recovery(self, exc):
        from concurrent.futures import BrokenExecutor

        return isinstance(exc, BrokenExecutor)

    def recover(self):
        """Replace a broken pool; the shared graph segment is reused."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()


def _corrupt_file(path):
    """Deterministically mangle a memo entry: truncate + flip one byte.

    Truncation leaves a valid zip header with a cut-short deflate stream
    (the realistic kill-during-write artifact), and the bit flip
    guarantees even tiny files change — both must read back as a cache
    miss, never a crash.
    """
    path = Path(path)
    data = bytearray(path.read_bytes()[:max(1, path.stat().st_size // 2)])
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class ChaosExecutor(SerialExecutor):
    """A serial executor that injects faults from a frozen plan.

    Faults are resolved against the submitted chunk list at
    :meth:`start` (seeded fault targets are drawn over the chunk-index
    range), then injected deterministically: kills fail the targeted
    (chunk, attempt) submission with
    :class:`~repro.execution.errors.InjectedFaultError`, delays sleep
    before evaluating, corrupt faults mangle the chunk's memo entry
    right after the runner writes it, and ``abort_after`` raises
    :class:`~repro.execution.errors.RunAbortedError` once K chunks have
    completed.  Because injection depends only on the plan, a chaos run
    that completes is byte-identical to a clean one.
    """

    def __init__(self, graph, evaluate, *, spec=None):
        super().__init__(graph, evaluate)
        self._spec = spec if spec is not None else Chaos()
        self._plan = FaultPlan()
        self._corrupted = set()

    @property
    def plan(self):
        """The resolved :class:`FaultPlan` (empty before :meth:`start`)."""
        return self._plan

    def start(self, chunks):
        count = 1 + max((c.index for c in chunks), default=-1)
        self._plan = self._spec.plan(count)

    def submit(self, chunk, attempt=0):
        delay = self._plan.delay_for(chunk.index, attempt)
        if delay > 0.0:
            time.sleep(delay)
        if self._plan.kills_attempt(chunk.index, attempt):
            future = Future()
            future.set_exception(InjectedFaultError(
                f"chaos: injected worker death for chunk {chunk.index} "
                f"on attempt {attempt}"
            ))
            return future
        return super().submit(chunk, attempt)

    def after_cache_write(self, chunk, path):
        if self._plan.corrupts_chunk(chunk.index):
            if chunk.index not in self._corrupted:
                self._corrupted.add(chunk.index)
                _corrupt_file(path)

    def note_result(self, chunk, completed):
        abort_after = self._plan.abort_after
        if abort_after is not None and completed >= abort_after:
            raise RunAbortedError(
                f"chaos: aborting run after {completed} completed "
                f"chunks (abort_after={abort_after})",
                completed_chunks=completed,
            )


# ---------------------------------------------------------------------------
# The fixed executor set.


class UnknownExecutorError(InvalidParameterError, KeyError):
    """Raised for an executor name that is not in :data:`EXECUTORS`.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``, matching the registry errors
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
        Canonical name (``"serial"``, ``"process"``, ``"chaos"``).
    description:
        One-line summary shown in ``--help`` and the architecture docs.
    aliases:
        Accepted alternative names.
    spec_type:
        Frozen dataclass of the strategy's parameters; ``spec_type()``
        is the default spec, ``token()`` its canonical CLI string and
        ``params()`` its JSON-able manifest record.
    factory:
        ``(spec, *, graph, evaluate, num_workers)`` ->
        :class:`ChunkExecutor` building the live strategy for one run.
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


EXECUTORS = (
    ExecutorKind(
        key="serial",
        description=(
            "in-process, one chunk at a time: the reference strategy "
            "every other executor must match byte for byte"
        ),
        aliases=("sync", "inline"),
        spec_type=Serial,
        factory=lambda spec, *, graph, evaluate, num_workers:
            SerialExecutor(graph, evaluate),
    ),
    ExecutorKind(
        key="process",
        description=(
            "shared-memory process pool: the CSR arrays cross the "
            "process boundary once, workers are recreated after a pool "
            "death, and stragglers are re-dispatched first-result-wins"
        ),
        aliases=("pool", "multiprocessing"),
        spec_type=ProcessPool,
        factory=lambda spec, *, graph, evaluate, num_workers:
            ProcessExecutor(
                graph, evaluate, num_workers=max(1, int(num_workers))
            ),
    ),
    ExecutorKind(
        key="chaos",
        description=(
            "deterministic fault injector over the serial strategy: "
            "seed-derived kill/delay/corrupt faults plus whole-run "
            "aborts, for testing the robustness layer by construction"
        ),
        aliases=("faults", "fault_injection"),
        spec_type=Chaos,
        factory=lambda spec, *, graph, evaluate, num_workers:
            ChaosExecutor(graph, evaluate, spec=spec),
        replayable=False,
    ),
)

get_executor = record_lookup(EXECUTORS, UnknownExecutorError, "executor")


def as_executor_spec(executor):
    """Coerce a name, alias, kind, or spec instance into a frozen spec.

    A name/alias or an :class:`ExecutorKind` yields the kind's default
    spec (``spec_type()``); a spec instance passes through unchanged.
    """
    kind = get_executor(executor)
    if type(executor) is kind.spec_type:
        return executor
    return kind.spec_type()


def build_executor(executor, *, graph, evaluate, num_workers=0):
    """Resolve ``executor`` and build the live strategy for one run.

    ``evaluate`` is the ``(graph, chunk) -> candidates`` callable (a
    module-level function, so process-pool strategies can pickle it by
    reference); ``num_workers`` is clamped to >= 1 by the process pool
    and ignored by the serial strategies.
    """
    spec = as_executor_spec(executor)
    return get_executor(spec).factory(
        spec, graph=graph, evaluate=evaluate, num_workers=num_workers
    )
