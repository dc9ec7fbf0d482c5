"""The execution driver: retry, straggler re-dispatch, typed failures.

:func:`execute_chunks` runs a deterministic chunk plan through any
:class:`~repro.execution.executors.ChunkExecutor`, adding the robustness
layer the strategies themselves stay ignorant of:

* **Retry with bounded backoff** — a failed (chunk, attempt) submission
  is re-queued until :class:`RetryPolicy.max_attempts` is exhausted,
  sleeping ``min(backoff * 2^(attempt-1), cap)`` between attempts; pool
  breakage (:meth:`ChunkExecutor.needs_recovery`) triggers one
  :meth:`ChunkExecutor.recover` per failure batch first.
* **Straggler re-dispatch** — on parallel executors, a chunk in flight
  longer than ``max(straggler_factor * median_duration,
  min_straggler_seconds)`` is submitted a second time; whichever copy
  finishes first wins and the loser is dropped.  Safe by construction:
  chunks are deterministic, so both copies carry identical results.
* **Typed failure reporting** — attempts exhausted raises
  :class:`~repro.execution.errors.ChunkExecutionError` naming the chunk,
  the attempt count, the graph fingerprint, and the (remote) traceback,
  instead of a raw ``BrokenProcessPool``.
* **Incremental results** — each completed chunk is handed to
  ``on_result`` immediately (the runner persists its memo entry there),
  so a run killed mid-way leaves every completed chunk on disk for
  ``--resume``.

Results are keyed by chunk index, so the caller's merge order — and the
candidate bytes — are independent of completion order, retries, and
re-dispatches.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field

from repro._validation import check_int, check_positive
from repro.exceptions import InvalidParameterError
from repro.execution.errors import ChunkExecutionError

__all__ = [
    "ExecutionOutcome",
    "RetryPolicy",
    "execute_chunks",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Frozen retry/straggler knobs for :func:`execute_chunks`.

    Attributes
    ----------
    max_attempts:
        Total tries per chunk (first attempt included) before the run
        fails with :class:`~repro.execution.errors.ChunkExecutionError`.
    backoff_seconds:
        Sleep after the first failure; doubles per subsequent failure.
    backoff_cap_seconds:
        Upper bound on any single backoff sleep.
    straggler_factor:
        A chunk in flight longer than this multiple of the median chunk
        duration is re-dispatched (``None`` disables re-dispatch).
    min_straggler_seconds:
        Floor on the straggler deadline, so fast suites never
        re-dispatch on scheduling noise.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0
    straggler_factor: object = 4.0
    min_straggler_seconds: float = 0.25

    def __post_init__(self):
        check_int(self.max_attempts, "max_attempts", minimum=1)
        check_positive(self.backoff_seconds, "backoff_seconds",
                       allow_zero=True)
        check_positive(self.backoff_cap_seconds, "backoff_cap_seconds",
                       allow_zero=True)
        if self.straggler_factor is not None:
            check_positive(self.straggler_factor, "straggler_factor")
        check_positive(self.min_straggler_seconds, "min_straggler_seconds",
                       allow_zero=True)

    def backoff_for(self, failures):
        """Backoff sleep after ``failures`` consecutive failed attempts."""
        check_int(failures, "failures", minimum=1)
        return min(
            self.backoff_seconds * (2 ** (failures - 1)),
            self.backoff_cap_seconds,
        )

    def straggler_deadline(self, median_seconds):
        """In-flight age beyond which a chunk is re-dispatched (or None)."""
        if self.straggler_factor is None:
            return None
        return max(
            float(self.straggler_factor) * float(median_seconds),
            self.min_straggler_seconds,
        )


@dataclass
class ExecutionOutcome:
    """What :func:`execute_chunks` did: results plus robustness facts.

    Attributes
    ----------
    results:
        ``chunk.index -> candidates`` for every submitted chunk.
    attempts:
        ``chunk.index -> attempts consumed`` (1 for a clean first try).
    retries:
        Total failed attempts that were re-queued.
    redispatches:
        Straggler duplicates submitted (first-result-wins).
    """

    results: dict = field(default_factory=dict, repr=False)
    attempts: dict = field(default_factory=dict)
    retries: int = 0
    redispatches: int = 0


def _format_failure(failure):
    """Full traceback text, including the remote (in-worker) part."""
    return "".join(traceback.format_exception(failure)).rstrip()


def execute_chunks(executor, chunks, *, retry=None, fingerprint="",
                   on_result=None):
    """Run ``chunks`` through ``executor`` with retry + re-dispatch.

    Parameters
    ----------
    executor:
        A :class:`~repro.execution.executors.ChunkExecutor`; entered as
        a context manager for the duration of the call.
    chunks:
        :class:`~repro.ncp.runner.GridChunk`-like records with distinct
        ``.index`` attributes; submitted in index order.
    retry:
        A :class:`RetryPolicy` (default: ``RetryPolicy()``).
    fingerprint:
        Graph fingerprint stamped onto
        :class:`~repro.execution.errors.ChunkExecutionError`.
    on_result:
        ``(chunk, candidates)`` callback fired exactly once per chunk,
        the moment its first result lands (the runner's incremental
        cache write).

    Returns
    -------
    ExecutionOutcome
    """
    policy = retry if retry is not None else RetryPolicy()
    ordered = sorted(chunks, key=lambda chunk: chunk.index)
    attempts = {chunk.index: 0 for chunk in ordered}
    if len(attempts) != len(ordered):
        raise InvalidParameterError(
            "execute_chunks needs distinct chunk indices; got duplicates"
        )
    outcome = ExecutionOutcome(attempts=attempts)
    results = outcome.results
    durations = []

    with executor:
        executor.start(ordered)
        queue = deque(ordered)
        in_flight = {}  # future -> (chunk, attempt, started)
        redispatch = (
            executor.redispatch_capable
            and policy.straggler_factor is not None
        )
        while queue or in_flight:
            capacity = executor.max_inflight
            while queue and (capacity is None
                             or len(in_flight) < capacity):
                chunk = queue.popleft()
                if chunk.index in results:
                    continue
                attempt = attempts[chunk.index]
                started = time.monotonic()
                in_flight[executor.submit(chunk, attempt)] = (
                    chunk, attempt, started,
                )
            if not in_flight:
                continue
            done, _ = _wait_futures(
                set(in_flight),
                timeout=policy.min_straggler_seconds if redispatch else None,
                return_when=FIRST_COMPLETED,
            )
            recover_needed = False
            for future in done:
                chunk, attempt, started = in_flight.pop(future)
                if chunk.index in results:
                    # A re-dispatched duplicate lost the race; chunks are
                    # deterministic, so the kept result is identical.
                    continue
                failure = future.exception()
                if failure is None:
                    durations.append(time.monotonic() - started)
                    attempts[chunk.index] = attempt + 1
                    results[chunk.index] = future.result()
                    if on_result is not None:
                        on_result(chunk, results[chunk.index])
                    executor.note_result(chunk, len(results))
                    continue
                failures = attempt + 1
                attempts[chunk.index] = failures
                if executor.needs_recovery(failure):
                    recover_needed = True
                if failures >= policy.max_attempts:
                    raise ChunkExecutionError(
                        f"chunk {chunk.index} ({chunk.describe()}) failed "
                        f"on all {failures} attempts; last failure: "
                        f"{failure!r}",
                        chunk_index=chunk.index,
                        dynamics=getattr(chunk, "dynamics", ""),
                        attempts=failures,
                        fingerprint=fingerprint,
                        worker_traceback=_format_failure(failure),
                    ) from failure
                outcome.retries += 1
                backoff = policy.backoff_for(failures)
                if backoff > 0.0:
                    time.sleep(backoff)
                queue.append(chunk)
            if recover_needed:
                # One recovery per failure batch: a broken pool fails all
                # of its in-flight futures together, and each failed one
                # was already re-queued above.
                executor.recover()
            # Drop in-flight duplicates of chunks that just completed.
            stale = [
                future
                for future, (chunk, _, _) in in_flight.items()
                if chunk.index in results
            ]
            for future in stale:
                future.cancel()
                del in_flight[future]
            if redispatch and durations and in_flight:
                deadline = policy.straggler_deadline(
                    statistics.median(durations)
                )
                now = time.monotonic()
                inflight_counts = {}
                for chunk, _, _ in in_flight.values():
                    inflight_counts[chunk.index] = (
                        inflight_counts.get(chunk.index, 0) + 1
                    )
                for future, (chunk, attempt, started) in list(
                        in_flight.items()):
                    if capacity is not None and len(in_flight) >= capacity:
                        break
                    if now - started <= deadline:
                        continue
                    if inflight_counts.get(chunk.index, 0) > 1:
                        continue
                    # First result wins; the duplicate reuses the same
                    # attempt number (a re-dispatch is not a retry).
                    duplicate = executor.submit(chunk, attempt)
                    in_flight[duplicate] = (chunk, attempt, now)
                    inflight_counts[chunk.index] += 1
                    outcome.redispatches += 1
    return outcome
