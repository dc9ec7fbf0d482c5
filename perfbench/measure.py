"""One run of one workload of the NCP pipeline benchmark, in a fresh process.

``perfbench/run.py`` starts this script and reads the JSON lines it
prints on standard output:

* ``{"event": "setup", ...}`` once the workload graph is built and
  fingerprinted -- the moment ``setup_s`` measures up to;
* ``{"event": "result", ...}`` at the end (not in ``--mode setup``).

``--mode run`` times whole ``run_ncp_ensemble`` passes (``cold_s``,
``warm_s``); ``--mode trace`` re-drives the pipeline layer by layer from
this file, with a span around every call into a layer, and reports the
per-layer metrics.  Every timed value is the median over repetitions
taken after one untimed warm-up repetition.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy is imported: the parent plus the
# one pool worker of ``atp-mqi`` must not exceed two threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.diffusion.engine import batch_hk_push, batch_ppr_push  # noqa: E402
from repro.diffusion.seeds import degree_weighted_indicator_seed  # noqa: E402
from repro.dynamics import PPR, HeatKernel  # noqa: E402
from repro.exceptions import PartitionError  # noqa: E402
from repro.ncp.profile import (  # noqa: E402
    best_per_size_bucket,
    grid_candidates_for_seed_nodes,
)
from repro.ncp.runner import graph_fingerprint, run_ncp_ensemble  # noqa: E402
from repro.partition.metrics import conductance  # noqa: E402
from repro.partition.sweep import sweep_cut  # noqa: E402
from repro.refine import as_pipeline, refine_candidates  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import sample_seed, workloads  # noqa: E402

# Shortest warm-pass sample: a memo read quicker than this (that of a few
# hundred MQI candidates takes 0.08 s) is repeated within one sample and
# averaged.  Every other timed sample is a whole cold pass of a second or
# more; the warm passes are kept short because on the memo-off workloads
# they only fill in ``warm_s`` and would otherwise take a third of each
# repetition from the cold passes.
MIN_SAMPLE_S = 0.5

# Timed repetitions per run, however long they take: a median needs
# three.  A traced repetition runs every pass of a timed one plus the
# serial pass and the layer re-drive, so the traced run settles for two.
MIN_REPS = {"run": 3, "trace": 2}


def emit(record):
    print(json.dumps(record), flush=True)


def all_candidates(results):
    return [c for result in results for c in result.candidates]


def ensemble_digest(candidates):
    """SHA-256 over every candidate's method, exact conductance and nodes."""
    digest = hashlib.sha256()
    for candidate in candidates:
        nodes = np.ascontiguousarray(candidate.nodes, dtype=np.int64)
        digest.update(
            f"{candidate.method}|{float(candidate.conductance).hex()}|"
            f"{nodes.size}|{candidate.refinement!r}|".encode()
        )
        digest.update(nodes.tobytes())
    return digest.hexdigest()


def phi_gmean(candidates):
    """Geometric mean of the best conductance over non-empty size buckets."""
    best = best_per_size_bucket(candidates).best_conductance
    best = best[~np.isnan(best)]
    return float(np.exp(np.mean(np.log(best))))


def conductance_mismatches(graph, candidates):
    """Candidates whose stored conductance disagrees with a recomputation.

    Each distinct node set is recomputed once (a recomputation scans every
    arc of the graph) and compared with every candidate that holds it.
    """
    recomputed = {}
    mismatched = 0
    for c in candidates:
        key = c.nodes.tobytes()
        if key not in recomputed:
            recomputed[key] = conductance(graph, c.nodes)
        mismatched += not math.isclose(recomputed[key], c.conductance,
                                       rel_tol=1e-9, abs_tol=1e-12)
    return mismatched


def peak_rss_mb():
    """Peak RSS of this process plus its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Bench:
    """The built workload plus the helpers every repetition uses."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self._memo_count = 0
        start = time.perf_counter()
        self.graph = workload.build(seed)
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        self.fingerprint = graph_fingerprint(self.graph)
        fingerprint_s = time.perf_counter() - start
        emit({
            "event": "setup",
            "build_s": build_s,
            "fingerprint_s": fingerprint_s,
            "fingerprint": self.fingerprint,
            "nodes": int(self.graph.num_nodes),
            "edges": int(self.graph.num_edges),
        })
        # The warm-up's sample: every repetition of a workload that does
        # not resample, and every repetition of a traced run, uses it.
        self.grids = self.grids_for(0)
        self.reference = None

    def sample_of(self, rep):
        """Grid seed of repetition ``rep`` (0 is the warm-up)."""
        return sample_seed(self.seed, rep if self.workload.resample else 0)

    def grids_for(self, rep):
        """The grids repetition ``rep`` runs."""
        return self.workload.grids(self.sample_of(rep))

    def fresh_memo(self):
        self._memo_count += 1
        path = self.work_dir / f"memo-{self._memo_count}"
        path.mkdir(parents=True)
        return path

    def run_pass(self, cache_dir, serial=False, grids=None):
        """One full pass: ``run_ncp_ensemble`` once per grid of the workload.

        ``serial`` swaps the workload's executor for the in-process one;
        ``grids`` defaults to the warm-up's sample.
        """
        wl = self.workload
        return [
            run_ncp_ensemble(
                self.graph, grid,
                executor="serial" if serial else wl.executor,
                num_workers=0 if serial else wl.num_workers,
                cache_dir=cache_dir,
            )
            for grid in (self.grids if grids is None else grids)
        ]

    def check_same(self, results, label, expected=None):
        """Raise unless ``results`` equal ``expected`` bytewise.

        ``expected`` is an ensemble digest, by default the warm-up's.
        """
        expected = self.reference if expected is None else expected
        digest = ensemble_digest(all_candidates(results))
        if digest != expected:
            raise AssertionError(
                f"{label} ensemble differs from the one it must equal "
                f"({digest[:12]} != {expected[:12]})"
            )

    def check_conductances(self, results):
        candidates = all_candidates(results)
        mismatched = conductance_mismatches(self.graph, candidates)
        if mismatched:
            raise AssertionError(
                f"{mismatched} candidates fail the conductance recomputation"
            )

    def check_all_hits(self, results):
        for result in results:
            if result.cache_hits != result.num_chunks:
                raise AssertionError(
                    f"warm pass hit {result.cache_hits} of "
                    f"{result.num_chunks} chunks"
                )

    def identity(self, results):
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "nodes": int(self.graph.num_nodes),
            "edges": int(self.graph.num_edges),
            "chunks": sum(r.num_chunks for r in results),
            "candidates": sum(len(r.candidates) for r in results),
            "seed_nodes": [list(r.seed_nodes) for r in results],
            "ensemble": self.reference,
        }


def timed_passes(run):
    """Call ``run`` until ``MIN_SAMPLE_S`` has passed.

    Returns the mean seconds per call and the last call's result.
    """
    calls = 0
    start = time.perf_counter()
    while True:
        result = run()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / calls, result


def repeat(step, seconds, min_reps):
    """One untimed warm-up call, then timed calls for about ``seconds``.

    ``step(index)`` returns a dict of measurements, or raises; a raising
    timed repetition is recorded as failed and the loop goes on, unless
    every one failed.  After ``min_reps`` repetitions a new one starts
    only while the median repetition still fits in the remaining time, so
    a run overshoots ``seconds`` by little.
    """
    step(0)
    reps, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        try:
            reps.append(step(len(reps) + 1))
        except Exception:  # repro-lint: disable=exception-policy
            # One failed operation: record it and keep measuring.
            traceback.print_exc()
            reps.append(None)
        durations.append(time.perf_counter() - began)
        left = seconds - (time.perf_counter() - start)
        if len(reps) >= min_reps and statistics.median(durations) > left:
            if all(rep is None for rep in reps):
                raise RuntimeError("every timed repetition failed")
            return reps


def timed_run(bench, seconds, min_reps):
    """``cold_s``/``warm_s`` repetitions for ``--trace 0``."""
    wl = bench.workload
    # Workloads whose cold pass runs memo-off read the memo the warm-up
    # writes; atp-ppr writes a fresh memo in every repetition instead.
    shared_memo = None if wl.memo_cold else bench.fresh_memo()
    facts = {}
    # ``ncp_phi_gmean`` pools the samples of the warm-up and the
    # ``min_reps`` repetitions every run makes, so it stays deterministic.
    phi_samples = {}

    def step(index):
        grids = bench.grids_for(index)
        if wl.memo_cold:
            write_into = read_from = bench.fresh_memo()
            warm_grids = grids
        else:
            write_into = shared_memo if index == 0 else None
            read_from = shared_memo
            warm_grids = bench.grids
        start = time.perf_counter()
        cold = bench.run_pass(write_into, grids=grids)
        cold_s = time.perf_counter() - start
        warm_s, warm = timed_passes(
            lambda: bench.run_pass(read_from, grids=warm_grids)
        )
        if wl.memo_cold:
            shutil.rmtree(read_from)
        digest = ensemble_digest(all_candidates(cold))
        if index == 0:
            bench.reference = digest
            facts["cold"] = cold
        if index <= min_reps:
            phi_samples[bench.sample_of(index)] = all_candidates(cold)
        if wl.resample:
            # A fresh sample has no earlier ensemble to equal; its
            # candidates are checked one by one instead (cheap on atp).
            bench.check_conductances(cold)
        else:
            bench.check_same(cold, "cold")
        bench.check_same(warm, "warm", digest if wl.memo_cold else None)
        bench.check_all_hits(warm)
        return {
            "sample": bench.sample_of(index),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "retries": sum(r.retries for r in cold),
            "redispatches": sum(r.redispatches for r in cold),
        }

    reps = repeat(step, seconds, min_reps)
    done = [r for r in reps if r is not None]
    cold = facts["cold"]
    candidates = all_candidates(cold)
    mismatched = conductance_mismatches(bench.graph, candidates)
    if mismatched:
        print(f"{mismatched} candidates fail the conductance recomputation",
              file=sys.stderr)
    metrics = {
        "cold_s": (statistics.median(r["cold_s"] for r in done), "s"),
        "warm_s": (statistics.median(r["warm_s"] for r in done), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ncp_phi_gmean": (
            phi_gmean([c for pool in phi_samples.values() for c in pool]),
            "ratio",
        ),
    }
    return {
        "attempted": len(reps),
        "failed": len(reps) - len(done),
        "correct": mismatched == 0 and len(done) == len(reps),
        "metrics": metrics,
        "identity": bench.identity(cold),
        "repetitions": reps,
    }


def chunk_seeds(result):
    """The seed nodes of each chunk of a run, in merge order."""
    groups, start = [], 0
    for record in result.chunks:
        groups.append(result.seed_nodes[start:start + record["num_seeds"]])
        start += record["num_seeds"]
    return groups


def diffusion_counters(bench, seed_groups):
    """Work counters of the public batched engines, per pipeline chunk."""
    counts = dict.fromkeys(
        ("pushes", "work", "frontier_sweeps", "hk_stages"), 0
    )
    graph = bench.graph
    for grid, groups in zip(bench.grids, seed_groups):
        grid = as_pipeline(grid).grid
        spec = grid.dynamics
        epsilons = tuple(grid.resolved_epsilons())
        for seeds in groups:
            vectors = [
                degree_weighted_indicator_seed(graph, [int(s)]) for s in seeds
            ]
            if isinstance(spec, PPR):
                batch = batch_ppr_push(
                    graph, vectors, alphas=spec.alpha, epsilons=epsilons
                )
                counts["pushes"] += int(batch.num_pushes.sum())
                counts["frontier_sweeps"] += int(batch.num_sweeps)
            elif isinstance(spec, HeatKernel):
                batch = batch_hk_push(
                    graph, vectors, ts=spec.t, epsilons=epsilons
                )
                counts["hk_stages"] += int(batch.num_stages)
            else:
                raise TypeError(f"no counters for {type(spec).__name__}")
            counts["work"] += int(batch.work.sum())
    return counts


def redrive(bench, tracer, seed_groups, counts):
    """Run the pipeline's layers from here, one span per layer call.

    Walks the same order ``run_ncp_ensemble`` does: fingerprint once per
    grid, then per chunk the diffusion columns, one sweep per column and
    the refiner chain.  Returns the refined candidates (empty for
    refiner-free workloads).  ``counts`` (or ``None``) collects the
    deterministic column/sweep counters.
    """
    graph = bench.graph
    refined = []
    for grid, groups in zip(bench.grids, seed_groups):
        pipeline = as_pipeline(grid)
        grid = pipeline.grid
        epsilons = tuple(grid.resolved_epsilons())
        max_size = grid.resolve_max_cluster_size(graph)
        with tracer.span("ncp.fingerprint"):
            graph_fingerprint(graph)
        for seeds in groups:
            with tracer.span(f"backends.{grid.key}"):
                columns = list(grid.dynamics.iter_columns(
                    graph, seeds, epsilons=epsilons, backend=grid.backend
                ))
            for column in columns:
                support = np.flatnonzero(column > 0)
                if counts is not None:
                    counts["columns"] += 1
                    counts["support_nnz"] += int(support.size)
                if support.size < 2:
                    continue
                if counts is not None:
                    counts["sweeps"] += 1
                    counts["swept_nodes"] += int(support.size)
                with tracer.span("partition.sweep"):
                    try:
                        sweep_cut(
                            graph, column, degree_normalize=True,
                            restrict_to=support, max_size=max_size,
                            backend=grid.backend,
                        )
                    except PartitionError:
                        pass
            raw = grid_candidates_for_seed_nodes(
                graph, seeds, grid.dynamics, epsilons=epsilons,
                max_cluster_size=max_size, backend=grid.backend,
            ) if pipeline.refiners else None
            # The runner's refine stage: a refiner-free chunk skips it.
            with tracer.span("refine.stage"):
                if pipeline.refiners:
                    refined.extend(
                        refine_candidates(graph, raw, pipeline.refiners)
                    )
    return refined


def traced_run(bench, seconds, min_reps):
    """Per-layer metrics for ``--trace 1``."""
    wl = bench.workload
    tracer = Tracer()
    facts = {}
    counts = dict.fromkeys(
        ("columns", "support_nnz", "sweeps", "swept_nodes"), 0
    )

    def step(index):
        with tracer.span("rep", rep=index) as rep:
            with tracer.span("pass.cold"):
                plain = bench.run_pass(None)
            # Right after the pass it is subtracted from, so that both see
            # the same host speed.  On a serial workload the difference of
            # the two passes is the noise floor of a pass-minus-pass metric.
            with tracer.span("pass.serial"):
                serial = bench.run_pass(None, serial=True)
            memo = bench.fresh_memo()
            with tracer.span("pass.cold_memo"):
                written = bench.run_pass(memo)
            memo_bytes = sum(p.stat().st_size for p in memo.iterdir())
            with tracer.span("pass.warm"):
                memo_read_s, warm = timed_passes(
                    lambda: bench.run_pass(memo)
                )
            shutil.rmtree(memo)
            groups = [chunk_seeds(r) for r in plain]
            with tracer.span("layers"):
                refined = redrive(
                    bench, tracer, groups, counts if index == 0 else None
                )
        if index == 0:
            bench.reference = ensemble_digest(all_candidates(plain))
            facts["plain"] = plain
            facts["groups"] = groups
        for label, results in (("cold", plain), ("cold+memo", written),
                               ("warm", warm), ("serial", serial)):
            bench.check_same(results, label)
        bench.check_all_hits(warm)
        if refined and ensemble_digest(refined) != bench.reference:
            raise AssertionError("re-driven refined ensemble differs")

        def took(name):
            return tracer.total(name, rep)

        columns_s = took("backends.ppr") + took("backends.hk")
        layer = {
            "ncp.fingerprint_s": took("ncp.fingerprint"),
            "backends.columns_s": columns_s,
            "partition.sweep_s": took("partition.sweep"),
            "refine.stage_s": took("refine.stage"),
            "execution.overhead_s": took("pass.cold") - took("pass.serial"),
        }
        attributed = sum(layer.values())
        layer["backends.hk_share"] = took("backends.hk") / columns_s
        layer["ncp.memo_write_s"] = (
            took("pass.cold_memo") - took("pass.cold")
        )
        layer["ncp.memo_read_s"] = memo_read_s
        if wl.memo_cold:
            cold_s = took("pass.cold_memo")
            attributed += layer["ncp.memo_write_s"]
        else:
            cold_s = took("pass.cold")
        layer["trace.unattributed_s"] = cold_s - attributed
        layer["cold_s"] = cold_s
        layer["memo_bytes"] = memo_bytes
        layer["hits"] = sum(r.cache_hits for r in warm)
        layer["retries"] = sum(
            r.retries for results in (plain, written, serial)
            for r in results
        )
        layer["redispatches"] = sum(
            r.redispatches for results in (plain, written, serial)
            for r in results
        )
        return layer

    reps = repeat(step, seconds, min_reps)
    done = [r for r in reps if r is not None]
    plain = facts["plain"]
    candidates = all_candidates(plain)
    mismatched = conductance_mismatches(bench.graph, candidates)
    engine = diffusion_counters(bench, facts["groups"])
    chunks = sum(r.num_chunks for r in plain)
    refined_steps = [c.refinement for c in candidates if c.refinement]
    n = bench.graph.num_nodes

    def med(name):
        return statistics.median(r[name] for r in done)

    metrics = {
        name: (med(name), "s")
        for name in (
            "ncp.fingerprint_s", "ncp.memo_write_s", "ncp.memo_read_s",
            "backends.columns_s", "partition.sweep_s", "refine.stage_s",
            "execution.overhead_s", "trace.unattributed_s",
        )
    }
    metrics.update({
        "graph.nodes": (int(n), "count"),
        "graph.edges": (int(bench.graph.num_edges), "count"),
        "ncp.memo_bytes": (med("memo_bytes"), "B"),
        "ncp.memo_hit_ratio": (med("hits") / chunks, "ratio"),
        "ncp.chunks": (chunks, "count"),
        "backends.hk_share": (med("backends.hk_share"), "ratio"),
        "ncp.candidates": (len(candidates), "count"),
        "diffusion.columns": (counts["columns"], "count"),
        "diffusion.pushes": (engine["pushes"], "count"),
        "diffusion.work": (engine["work"], "count"),
        "diffusion.frontier_sweeps": (engine["frontier_sweeps"], "count"),
        "diffusion.hk_stages": (engine["hk_stages"], "count"),
        "diffusion.support_nnz": (counts["support_nnz"], "count"),
        "diffusion.support_ratio": (
            counts["support_nnz"] / (counts["columns"] * n), "ratio"
        ),
        "partition.sweeps": (counts["sweeps"], "count"),
        "partition.swept_nodes": (counts["swept_nodes"], "count"),
        "refine.candidates": (len(refined_steps), "count"),
        "refine.changed_ratio": (
            sum(c.refined for c in candidates) / len(refined_steps)
            if refined_steps else 0.0,
            "ratio",
        ),
        "refine.rounds": (
            sum(step.rounds for steps in refined_steps for step in steps),
            "count",
        ),
        "execution.retries": (sum(r["retries"] for r in done), "count"),
        "execution.redispatches": (
            sum(r["redispatches"] for r in done), "count"
        ),
    })
    trace_path = (
        bench.work_dir.parent
        / f"spans-{wl.name}-seed{bench.seed}.json"
    )
    tracer.write(trace_path)
    return {
        "attempted": len(reps),
        "failed": len(reps) - len(done),
        "correct": mismatched == 0 and len(done) == len(reps),
        "metrics": metrics,
        "identity": bench.identity(plain),
        "cold_s": med("cold_s"),
        "spans": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads(args.quick)[args.workload]
    bench = Bench(workload, args.seed, args.work_dir)
    if args.mode == "setup":
        return 0
    run = timed_run if args.mode == "run" else traced_run
    min_reps = 1 if args.quick else MIN_REPS[args.mode]
    outcome = run(bench, args.seconds, min_reps)
    outcome["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome["metrics"].items()
    }
    emit({"event": "result", **outcome})
    return 0


if __name__ == "__main__":
    sys.exit(main())
