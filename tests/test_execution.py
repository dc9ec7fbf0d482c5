"""Tests for :mod:`repro.execution`: registry, driver, executors, resume.

The execution layer's contract is that *how* chunks run never changes
*what* they produce: every registered executor — serial, the shared-
memory process pool, and the deterministic chaos fault injector — must
yield byte-identical candidate ensembles, through retries, straggler
re-dispatch, pool recreation after real worker deaths, corrupted memo
entries, and crash-then-resume.  Property tests (hypothesis) pin the
resume-plan partition invariant and fault-plan independence; the worker
death tests kill real pool processes with ``os._exit``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import DiffusionGrid, PPR
from repro.exceptions import InvalidParameterError, ReproError
from repro.execution import (
    Chaos,
    ChaosExecutor,
    ChunkExecutionError,
    ExecutionOutcome,
    ExecutorKind,
    Fault,
    FaultPlan,
    InjectedFaultError,
    ProcessExecutor,
    ProcessPool,
    RetryPolicy,
    RunAbortedError,
    Serial,
    SerialExecutor,
    UnknownExecutorError,
    as_executor_spec,
    build_executor,
    execute_chunks,
    get_executor,
    pending_chunks,
    register_executor,
    registered_executors,
    resolve_executor_name,
    unregister_executor,
)
from repro.graph.generators import cycle_graph
from repro.ncp.runner import run_ncp_ensemble


def candidate_signature(candidates):
    """Order-sensitive exact signature of a candidate ensemble."""
    return [
        (c.nodes.tobytes(), c.conductance, c.method) for c in candidates
    ]


def small_grid(**overrides):
    base = dict(
        dynamics=PPR(alpha=(0.1,)), epsilons=(1e-3,), num_seeds=6, seed=3,
    )
    base.update(overrides)
    return DiffusionGrid(**base)


# ---------------------------------------------------------------------------
# Module-level chunk/evaluate doubles (module level so the process pool
# can pickle them by reference).


@dataclass(frozen=True)
class FakeChunk:
    """Minimal chunk double: an index, a dynamics label, a describe()."""

    index: int
    dynamics: str = "fake"

    def describe(self):
        return f"fake[{self.index}]"


@dataclass(frozen=True)
class DyingChunk:
    """Chunk double instructing :func:`dying_evaluate` how to fail.

    ``marker == "always"`` kills the worker process on every attempt;
    any other non-empty value is a path the first attempt creates before
    dying, so later attempts (in a recreated pool) succeed.
    """

    index: int
    marker: str = ""
    seconds: float = 0.0
    dynamics: str = "fake"

    def describe(self):
        return f"dying[{self.index}]"


def fake_evaluate(graph, chunk):
    """Deterministic, graph-independent chunk result."""
    return [("candidate", chunk.index, 2 * chunk.index)]


def dying_evaluate(graph, chunk):
    """Evaluate double that can kill its own worker process."""
    if chunk.marker == "always":
        os._exit(17)
    if chunk.marker:
        flag = Path(chunk.marker)
        if not flag.exists():
            flag.write_text("died", encoding="utf-8")
            os._exit(17)
    if chunk.seconds:
        time.sleep(chunk.seconds)
    return [("candidate", chunk.index)]


def expected_results(chunks):
    return {chunk.index: fake_evaluate(None, chunk) for chunk in chunks}


FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.0, straggler_factor=None,
    min_straggler_seconds=0.0,
)


# ---------------------------------------------------------------------------
# Registry semantics.


class TestExecutorRegistry:
    def test_builtin_executors_present(self):
        assert set(registered_executors()) >= {"serial", "process", "chaos"}

    def test_aliases_resolve(self):
        assert resolve_executor_name("sync") == "serial"
        assert resolve_executor_name("inline") == "serial"
        assert resolve_executor_name("pool") == "process"
        assert resolve_executor_name("multiprocessing") == "process"
        assert resolve_executor_name("faults") == "chaos"
        assert resolve_executor_name("fault_injection") == "chaos"

    def test_resolution_normalizes_case_and_separators(self):
        assert resolve_executor_name(" Serial ") == "serial"
        assert resolve_executor_name("FAULT-INJECTION") == "chaos"

    def test_spec_instances_and_kinds_resolve(self):
        assert resolve_executor_name(Serial()) == "serial"
        assert resolve_executor_name(ProcessPool()) == "process"
        assert resolve_executor_name(Chaos(seed=5)) == "chaos"
        assert resolve_executor_name(get_executor("serial")) == "serial"

    def test_unknown_executor_error_type_and_suggestion(self):
        with pytest.raises(UnknownExecutorError) as excinfo:
            get_executor("serail")
        assert isinstance(excinfo.value, InvalidParameterError)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        message = str(excinfo.value)
        assert "did you mean 'serial'" in message
        assert "process" in message

    def test_unresolvable_object_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_executor_name(object())

    def test_as_executor_spec_defaults_and_passthrough(self):
        assert as_executor_spec("serial") == Serial()
        assert as_executor_spec("pool") == ProcessPool()
        spec = Chaos(seed=9, kills=1)
        assert as_executor_spec(spec) is spec

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_executor(get_executor("serial"))
        with pytest.raises(InvalidParameterError):
            register_executor(ExecutorKind(
                key="fresh", description="alias collision",
                aliases=("sync",), spec_type=Serial,
            ))

    def test_register_needs_an_executor_kind(self):
        with pytest.raises(InvalidParameterError):
            register_executor("serial")

    def test_replayable_flags(self):
        assert get_executor("serial").replayable
        assert get_executor("process").replayable
        assert not get_executor("chaos").replayable

    def test_third_party_executor_end_to_end(self):
        @dataclass(frozen=True)
        class Echo:
            def token(self):
                return "echo"

            def params(self):
                return {"flavor": "test"}

        class EchoExecutor(SerialExecutor):
            pass

        register_executor(ExecutorKind(
            key="echo", description="third-party example",
            aliases=("echoes",), spec_type=Echo,
            factory=lambda spec, *, graph, evaluate, num_workers=0:
                EchoExecutor(graph, evaluate),
        ))
        try:
            graph = cycle_graph(24)
            grid = small_grid()
            reference = run_ncp_ensemble(graph, grid, seeds_per_chunk=2)
            echoed = run_ncp_ensemble(
                graph, grid, seeds_per_chunk=2, executor="echoes",
            )
            assert candidate_signature(echoed.candidates) == \
                candidate_signature(reference.candidates)
            assert echoed.executor == "echo"
            assert echoed.executor_params == {"flavor": "test"}
        finally:
            unregister_executor("echo")
        with pytest.raises(UnknownExecutorError):
            get_executor("echo")


# ---------------------------------------------------------------------------
# Retry policy and fault plans.


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(straggler_factor=0.0)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_cap_seconds=0.35)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.35)
        assert policy.backoff_for(10) == pytest.approx(0.35)

    def test_straggler_deadline_floor_and_disable(self):
        policy = RetryPolicy(straggler_factor=4.0,
                             min_straggler_seconds=0.25)
        assert policy.straggler_deadline(1.0) == pytest.approx(4.0)
        assert policy.straggler_deadline(0.001) == pytest.approx(0.25)
        assert RetryPolicy(straggler_factor=None).straggler_deadline(9) \
            is None


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(InvalidParameterError):
            Fault(kind="explode", chunk=0)
        with pytest.raises(InvalidParameterError):
            Fault(kind="kill", chunk=-1)
        with pytest.raises(InvalidParameterError):
            FaultPlan(faults=("kill",))

    def test_seeded_plans_are_deterministic(self):
        plan_a = FaultPlan.seeded(7, 10, kills=3, delays=2, corrupts=1)
        plan_b = FaultPlan.seeded(7, 10, kills=3, delays=2, corrupts=1)
        assert plan_a == plan_b
        assert plan_a != FaultPlan.seeded(8, 10, kills=3, delays=2,
                                          corrupts=1)

    def test_repeated_kills_escalate_attempts(self):
        plan = FaultPlan.seeded(0, 1, kills=3)
        kill_attempts = sorted(
            fault.attempt for fault in plan.faults if fault.kind == "kill"
        )
        assert kill_attempts == [0, 1, 2]

    def test_jsonable_round_trip_fields(self):
        plan = FaultPlan(
            faults=(Fault(kind="delay", chunk=2, seconds=0.5),),
            abort_after=3,
        )
        payload = plan.jsonable()
        assert payload["abort_after"] == 3
        assert payload["faults"][0]["kind"] == "delay"
        assert payload["faults"][0]["chunk"] == 2


# ---------------------------------------------------------------------------
# The driver over the serial executor.


class TestDriver:
    def test_serial_execution_collects_everything(self):
        chunks = [FakeChunk(i) for i in range(5)]
        outcome = execute_chunks(
            SerialExecutor(None, fake_evaluate), chunks, retry=FAST_RETRY,
        )
        assert isinstance(outcome, ExecutionOutcome)
        assert outcome.results == expected_results(chunks)
        assert outcome.retries == 0
        assert outcome.redispatches == 0
        assert all(outcome.attempts[i] == 1 for i in range(5))

    def test_on_result_fires_exactly_once_per_chunk(self):
        seen = []
        chunks = [FakeChunk(i) for i in range(4)]
        execute_chunks(
            SerialExecutor(None, fake_evaluate), chunks, retry=FAST_RETRY,
            on_result=lambda chunk, result: seen.append(chunk.index),
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_duplicate_chunk_indices_rejected(self):
        with pytest.raises(InvalidParameterError):
            execute_chunks(
                SerialExecutor(None, fake_evaluate),
                [FakeChunk(1), FakeChunk(1)],
            )

    def test_pending_chunks_rejects_foreign_indices(self):
        chunks = [FakeChunk(i) for i in range(3)]
        with pytest.raises(InvalidParameterError):
            pending_chunks(chunks, {5})


# ---------------------------------------------------------------------------
# Chaos: deterministic fault injection.


class TestChaosExecutor:
    def test_injected_kills_retry_to_identical_results(self):
        chunks = [FakeChunk(i) for i in range(4)]
        spec = Chaos(seed=3, kills=2, delays=1, delay_seconds=0.0)
        evaluated = []

        def counting_evaluate(graph, chunk):
            evaluated.append(chunk.index)
            return fake_evaluate(graph, chunk)

        outcome = execute_chunks(
            ChaosExecutor(None, counting_evaluate, spec=spec), chunks,
            retry=FAST_RETRY,
        )
        assert outcome.results == expected_results(chunks)
        assert outcome.retries == 2
        # A kill fails its submission before any work, so riding out the
        # faults costs the retries alone: one evaluation per chunk.
        assert sorted(evaluated) == [0, 1, 2, 3]

    def test_exhausted_attempts_raise_typed_error(self):
        chunks = [FakeChunk(0), FakeChunk(1)]
        spec = Chaos(faults=(
            Fault(kind="kill", chunk=1, attempt=0),
            Fault(kind="kill", chunk=1, attempt=1),
        ))
        with pytest.raises(ChunkExecutionError) as excinfo:
            execute_chunks(
                ChaosExecutor(None, fake_evaluate, spec=spec), chunks,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0,
                                  straggler_factor=None),
                fingerprint="fp-test",
            )
        error = excinfo.value
        assert isinstance(error, ReproError)
        assert error.chunk_index == 1
        assert error.attempts == 2
        assert error.fingerprint == "fp-test"
        assert "InjectedFaultError" in error.worker_traceback
        assert isinstance(error.__cause__, InjectedFaultError)

    def test_abort_after_raises_with_completed_count(self):
        chunks = [FakeChunk(i) for i in range(5)]
        spec = Chaos(abort_after=2)
        with pytest.raises(RunAbortedError) as excinfo:
            execute_chunks(
                ChaosExecutor(None, fake_evaluate, spec=spec), chunks,
                retry=FAST_RETRY,
            )
        assert excinfo.value.completed_chunks == 2

    def test_chaos_run_matches_serial_through_the_runner(self):
        graph = cycle_graph(30)
        grid = small_grid()
        reference = run_ncp_ensemble(graph, grid, seeds_per_chunk=2)
        chaotic = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2,
            executor=Chaos(seed=11, kills=2, delays=1, delay_seconds=0.0),
            retry=RetryPolicy(backoff_seconds=0.0, straggler_factor=None),
        )
        assert candidate_signature(chaotic.candidates) == \
            candidate_signature(reference.candidates)
        assert chaotic.executor == "chaos"
        assert chaotic.retries == 2

    def test_corrupt_fault_means_next_run_recomputes(self, tmp_path):
        graph = cycle_graph(30)
        grid = small_grid()
        first = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2, cache_dir=tmp_path,
            executor=Chaos(seed=0, corrupts=1),
        )
        assert first.cache_hits == 0
        second = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2, cache_dir=tmp_path,
        )
        # Exactly the corrupted entry reads back as a miss and is
        # recomputed (and rewritten: a third run is all hits).
        assert second.cache_hits == second.num_chunks - 1
        assert candidate_signature(second.candidates) == \
            candidate_signature(first.candidates)
        third = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2, cache_dir=tmp_path,
        )
        assert third.cache_hits == third.num_chunks


# ---------------------------------------------------------------------------
# The process pool: real workers, real deaths.


class TestProcessExecutor:
    def test_worker_death_is_wrapped_in_typed_repro_error(self):
        graph = cycle_graph(16)
        chunks = [DyingChunk(0), DyingChunk(1, marker="always")]
        with pytest.raises(ChunkExecutionError) as excinfo:
            execute_chunks(
                ProcessExecutor(graph, dying_evaluate, num_workers=1),
                chunks,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0,
                                  straggler_factor=None),
                fingerprint="fp-death",
            )
        error = excinfo.value
        assert isinstance(error, ReproError)
        assert error.chunk_index == 1
        assert error.attempts == 2
        assert error.fingerprint == "fp-death"
        assert "BrokenProcessPool" in error.worker_traceback

    def test_pool_is_recreated_after_a_worker_death(self, tmp_path):
        graph = cycle_graph(16)
        flag = tmp_path / "died-once"
        chunks = [
            DyingChunk(0),
            DyingChunk(1, marker=str(flag)),
            DyingChunk(2),
        ]
        outcome = execute_chunks(
            ProcessExecutor(graph, dying_evaluate, num_workers=1), chunks,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0,
                              straggler_factor=None),
        )
        assert flag.exists()
        assert outcome.results[1] == [("candidate", 1)]
        assert set(outcome.results) == {0, 1, 2}
        assert outcome.retries >= 1
        assert outcome.attempts[1] >= 2

    def test_straggler_redispatch_keeps_results_identical(self):
        graph = cycle_graph(16)
        chunks = [DyingChunk(0, seconds=1.5)] + [
            DyingChunk(i) for i in range(1, 6)
        ]
        outcome = execute_chunks(
            ProcessExecutor(graph, dying_evaluate, num_workers=2), chunks,
            retry=RetryPolicy(straggler_factor=1.0,
                              min_straggler_seconds=0.05),
        )
        assert outcome.results == {
            chunk.index: [("candidate", chunk.index)] for chunk in chunks
        }
        assert outcome.redispatches >= 1
        # A re-dispatch is not a retry: nothing failed.
        assert outcome.retries == 0

    def test_process_run_matches_serial_through_the_runner(self):
        graph = cycle_graph(30)
        grid = small_grid()
        reference = run_ncp_ensemble(graph, grid, seeds_per_chunk=2)
        pooled = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2, num_workers=2,
            executor="process",
        )
        assert candidate_signature(pooled.candidates) == \
            candidate_signature(reference.candidates)
        assert pooled.executor == "process"

    def test_build_executor_clamps_worker_count(self):
        graph = cycle_graph(8)
        instance, spec, kind = build_executor(
            "process", graph=graph, evaluate=fake_evaluate, num_workers=0,
        )
        assert isinstance(instance, ProcessExecutor)
        assert spec == ProcessPool()
        assert kind.key == "process"


# ---------------------------------------------------------------------------
# Crash-then-resume at the runner level.


class TestCrashThenResume:
    @pytest.mark.parametrize("resume_workers", [0, 2])
    def test_aborted_run_resumes_byte_identically(self, tmp_path,
                                                  resume_workers):
        graph = cycle_graph(30)
        grid = small_grid()
        uninterrupted = run_ncp_ensemble(graph, grid, seeds_per_chunk=2)
        with pytest.raises(RunAbortedError):
            run_ncp_ensemble(
                graph, grid, seeds_per_chunk=2, cache_dir=tmp_path,
                executor=Chaos(abort_after=1),
            )
        # The aborted run left exactly its completed chunks on disk.
        assert len(list(tmp_path.glob("*.npz"))) == 1
        resumed = run_ncp_ensemble(
            graph, grid, seeds_per_chunk=2, cache_dir=tmp_path,
            num_workers=resume_workers,
        )
        assert candidate_signature(resumed.candidates) == \
            candidate_signature(uninterrupted.candidates)
        assert resumed.cache_hits == 1
        sources = {
            record["index"]: record["source"] for record in resumed.chunks
        }
        assert sources[0] == "cache"
        assert all(
            source == "computed"
            for index, source in sources.items() if index != 0
        )


# ---------------------------------------------------------------------------
# Property tests.


class TestExecutionProperties:
    @given(total=st.integers(0, 30), completed=st.sets(st.integers(0, 29)))
    @settings(max_examples=60, deadline=None)
    def test_resume_plan_partitions_the_full_plan(self, total, completed):
        chunks = [FakeChunk(i) for i in range(total)]
        completed = {index for index in completed if index < total}
        pending = pending_chunks(chunks, completed)
        pending_indices = [chunk.index for chunk in pending]
        # pending ∪ completed = full plan, pending ∩ completed = ∅,
        # and plan order is preserved.
        assert set(pending_indices) | completed == set(range(total))
        assert set(pending_indices) & completed == set()
        assert pending_indices == sorted(pending_indices)

    @given(
        seed=st.integers(0, 1000),
        kills=st.integers(0, 4),
        delays=st.integers(0, 3),
        num_chunks=st.integers(1, 8),
        abort_after=st.none() | st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_fault_plans_never_change_the_ensemble(self, seed, kills,
                                                   delays, num_chunks,
                                                   abort_after):
        chunks = [FakeChunk(i) for i in range(num_chunks)]
        reference = expected_results(chunks)
        spec = Chaos(seed=seed, kills=kills, delays=delays,
                     delay_seconds=0.0, abort_after=abort_after)
        policy = RetryPolicy(max_attempts=kills + 1, backoff_seconds=0.0,
                             straggler_factor=None)
        collected = {}
        try:
            outcome = execute_chunks(
                ChaosExecutor(None, fake_evaluate, spec=spec), chunks,
                retry=policy,
                on_result=lambda c, r: collected.__setitem__(c.index, r),
            )
        except RunAbortedError as aborted:
            # An abort is a crash, not corruption: every chunk that did
            # complete carries exactly the reference result.
            assert abort_after is not None
            assert len(collected) == aborted.completed_chunks
            assert all(
                collected[index] == reference[index] for index in collected
            )
        else:
            assert outcome.results == reference
            assert collected == reference
            assert outcome.retries == kills
