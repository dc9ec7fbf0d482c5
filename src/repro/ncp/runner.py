"""Process-parallel, disk-memoized NCP ensemble orchestration.

The Figure 1 pipeline reduces thousands of strongly local diffusions —
a seed × axis × ε grid for any of the three dynamics — to candidate
clusters.  The diffusions are embarrassingly parallel across seed nodes,
and the batched engines (:mod:`repro.diffusion.engine`) already amortize
the grid within one process; this module adds the remaining two
production levers:

* **Sharding** — the seed grid is split into fixed-size chunks, each
  evaluated through the chunked batch API.  Chunk boundaries are
  deterministic functions of the inputs (never of the worker count),
  and chunks are merged in index order, so the candidate ensemble is
  identical for any ``num_workers`` — and identical to the serial loop.
* **Memoization** — each chunk's candidates can be persisted under a key
  derived from the graph's CSR bytes and the chunk's exact parameters, so
  repeated suite runs (benchmarks, notebook restarts, CI) recompute only
  the chunks that changed.  Entries are written the moment a chunk
  completes, so a run killed mid-way leaves every finished chunk on
  disk and a rerun with the same ``cache_dir`` resumes from there.

*How* the non-cached chunks actually run is delegated to the
:mod:`repro.execution` layer: ``run_ncp_ensemble(executor=...)``
picks one of the three :data:`~repro.execution.EXECUTORS` (the
``serial`` reference loop, the shared-memory ``process`` pool — whose
workers map the CSR arrays from one
:mod:`multiprocessing.shared_memory` segment, so the pickle channel
carries only the lightweight chunk descriptions — or the
fault-injecting ``chaos`` strategy) and the execution driver adds
retry, straggler re-dispatch, and typed
:class:`~repro.execution.ChunkExecutionError` failures on top.

Dispatch is dynamics-agnostic: a chunk records the dynamics' canonical
key plus the exact grid parameters, and evaluation reconstructs the spec
through :func:`repro.dynamics.get_dynamics` — a new dynamics is one more
record in :data:`~repro.dynamics.DYNAMICS` and shards, pools, and
memoizes with zero changes here.  Refinement is
refiner-agnostic the same way: a :class:`~repro.refine.Pipeline` workload
stamps its resolved refiner chain onto every chunk, each chunk threads
its candidates through the chain (per candidate, so determinism and
worker-count independence are untouched), and refined chunks get their
own versioned cache keys so refined and raw runs never alias.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._validation import as_rng, check_int
from repro.core.reporting import jsonable
from repro.dynamics import get_dynamics
from repro.execution import (
    as_executor_spec,
    build_executor,
    execute_chunks,
    get_executor,
)
from repro.ncp.profile import (
    ClusterCandidate,
    _sample_seed_nodes,
    grid_candidates_for_seed_nodes,
)
from repro.refine import (
    RefinementStep,
    as_pipeline,
    as_refiner_chain,
    get_refiner,
    refine_candidates,
)

__all__ = [
    "GridChunk",
    "NCPRunResult",
    "graph_fingerprint",
    "plan_chunks",
    "run_ncp_ensemble",
]

# Bump when the candidate-generation semantics OR the fingerprint scheme
# change, so stale cache entries from older code are never reused.
# Version 2: :func:`graph_fingerprint` switched to framed, canonical-
# dtype hashing (see its docstring) — version 1 entries were keyed by
# raw-byte hashes that could alias across dtype/shape boundaries.
# Version 3: chunks are keyed by canonical backend name unconditionally
# (two kernel families agreed only up to eps-scale sweep perturbations,
# so their entries must never alias).  Only the numpy kernels remain and
# every key still hashes their ``|backend=numpy`` tag, so version-3
# entries stay valid.
_CACHE_VERSION = 3

# Version of the *refined*-chunk cache-key namespace.  Refiner-bearing
# chunks hash this tag plus the exact refiner chain on top of the base
# key, so refined and raw runs can never alias each other (and a future
# change to refinement semantics invalidates only refined entries).
_REFINE_CACHE_VERSION = 1


@dataclass(frozen=True)
class GridChunk:
    """One shard of an NCP diffusion grid: a few seeds × the full grid.

    Attributes
    ----------
    index:
        Position of the chunk in the deterministic merge order.
    dynamics:
        Canonical dynamics key (``"ppr"``, ``"hk"`` or ``"walk"``).
    seed_nodes:
        The seed nodes this chunk covers (tuple of ints).
    params:
        Sorted ``(name, value-tuple)`` pairs pinning the rest of the grid
        (axes/epsilons/max_cluster_size) — part of the cache key.
    refiners:
        Ordered refiner chain (frozen spec instances from
        :mod:`repro.refine`) applied to every candidate the chunk
        produces; empty for raw diffusion chunks.  Part of the cache key
        (see :data:`_REFINE_CACHE_VERSION`), so refined and raw runs
        never alias.
    """

    index: int
    dynamics: str
    seed_nodes: tuple
    params: tuple
    refiners: tuple = ()

    def describe(self):
        parts = [f"{name}={value!r}" for name, value in self.params]
        return (
            f"{self.dynamics}[{self.index}] seeds={list(self.seed_nodes)} "
            + " ".join(parts)
        )

    def refiner_tokens(self):
        """Canonical token per refiner stage (cache keys, diagnostics)."""
        return tuple(spec.token() for spec in self.refiners)

    def spec(self):
        """Reconstruct the dynamics spec this chunk was planned from."""
        params = dict(self.params)
        return get_dynamics(self.dynamics).spec_type.from_grid_params(params)


@dataclass
class NCPRunResult:
    """Outcome of a sharded NCP ensemble run.

    Attributes
    ----------
    candidates:
        The merged :class:`~repro.ncp.profile.ClusterCandidate` ensemble,
        in deterministic (chunk-index, within-chunk) order.
    dynamics:
        Canonical name of the diffusion that produced the ensemble.
    num_chunks:
        Shards the grid was split into.
    cache_hits:
        Chunks served from the on-disk memo instead of recomputed.
    num_workers:
        Worker processes used (0 means in-process serial execution).
    grid:
        The resolved :class:`~repro.dynamics.DiffusionGrid` that was run.
    refiners:
        The resolved refiner chain (frozen spec instances) every
        candidate was threaded through; empty for raw diffusion runs.
    fingerprint:
        :func:`graph_fingerprint` of the graph the ensemble ran on.
    seed_nodes:
        The sampled seed nodes, in grid order.
    wall_seconds:
        Wall-clock time of the run (diffusions + sweeps + cache traffic).
    executor:
        Canonical :data:`~repro.execution.EXECUTORS` key of the strategy
        that ran the non-cached chunks.
    executor_params:
        The resolved executor spec's JSON-able parameter record.
    retries:
        Failed chunk attempts that were re-queued by the driver.
    redispatches:
        Straggler duplicates submitted (first-result-wins).
    chunks:
        One JSON-able completion record per chunk, in merge order:
        ``index``, ``num_seeds``, ``cache_key``, ``source`` (``"cache"``
        or ``"computed"``), ``attempts``, and ``completed``.
    """

    candidates: list = field(repr=False, default_factory=list)
    dynamics: str = "ppr"
    num_chunks: int = 0
    cache_hits: int = 0
    num_workers: int = 0
    grid: object = field(repr=False, default=None)
    refiners: tuple = ()
    fingerprint: str = ""
    seed_nodes: tuple = ()
    wall_seconds: float = 0.0
    executor: str = "serial"
    executor_params: dict = field(repr=False, default_factory=dict)
    retries: int = 0
    redispatches: int = 0
    chunks: list = field(repr=False, default_factory=list)

    def manifest(self):
        """JSON-able replay record of this run (the CLI's manifest body).

        Everything needed to reproduce the candidate ensemble byte for
        byte — the resolved grid (dynamics axes, epsilons, seed-sampling
        plan), the resolved refiner chain (one
        name/params/token record per stage, in order), the graph
        fingerprint scoping the result to the exact CSR arrays, and the
        execution facts (executor, workers, per-chunk completion
        records, retries, re-dispatches, cache hits, wall time) that
        are allowed to vary between identical reruns.  ``grid.seed`` is
        recorded only when it is a plain integer or ``None``; a live RNG
        object is not replayable and is recorded as ``"seed": null``
        with ``"seed_is_replayable": false``.
        """
        grid = self.grid
        seed = grid.seed
        replayable = seed is None or isinstance(seed, (int, np.integer))
        return {
            "dynamics": self.dynamics,
            "grid": {
                "params": jsonable(dict(grid.dynamics.grid_params())),
                "epsilons": [float(e) for e in grid.resolved_epsilons()],
                "num_seeds": int(grid.num_seeds),
                "seed": int(seed) if replayable and seed is not None else None,
                "seed_is_replayable": bool(replayable),
                "max_cluster_size": (
                    None if grid.max_cluster_size is None
                    else int(grid.max_cluster_size)
                ),
            },
            "refiners": [
                {
                    "name": get_refiner(spec).key,
                    "params": jsonable(dict(spec.params())),
                    "token": spec.token(),
                }
                for spec in self.refiners
            ],
            "graph_fingerprint": self.fingerprint,
            "seed_nodes": [int(s) for s in self.seed_nodes],
            "num_candidates": len(self.candidates),
            "num_chunks": int(self.num_chunks),
            "cache_hits": int(self.cache_hits),
            "num_workers": int(self.num_workers),
            "wall_seconds": float(self.wall_seconds),
            "executor": {
                "name": self.executor,
                "params": jsonable(dict(self.executor_params)),
            },
            "retries": int(self.retries),
            "redispatches": int(self.redispatches),
            "chunks": jsonable(list(self.chunks)),
        }


# Elements hashed per block by :func:`graph_fingerprint` — bounds the
# temporary made when canonicalizing a memmapped or int32 array.
_FINGERPRINT_BLOCK = 1 << 20


def _fingerprint_array(digest, tag, array, canonical):
    """Feed one CSR array into ``digest`` with an explicit frame.

    The frame records the array's role and length, and the bytes are the
    array converted to its canonical little-endian dtype in bounded
    blocks — so the hash is a function of the graph's *values*, not of
    the storage dtype or of where one array happens to end.
    """
    array = np.asarray(array)
    digest.update(f"{tag}:{canonical}:{array.size}|".encode())
    for start in range(0, array.size, _FINGERPRINT_BLOCK):
        block = np.ascontiguousarray(
            array[start:start + _FINGERPRINT_BLOCK], dtype=canonical
        )
        digest.update(memoryview(block))


def graph_fingerprint(graph):
    """Content hash of a graph's CSR arrays (hex digest).

    Two graphs with identical structure and weights share a fingerprint,
    which scopes every memoized chunk to the exact graph it was computed
    on.  Hashing is *framed* and *canonical*: each array contributes a
    ``tag:dtype:length`` header plus its values converted to a fixed
    little-endian dtype (int64 ids, float64 weights).  That makes the
    fingerprint independent of storage details — a graph loaded from a
    ``.reprograph`` file with int32 on-disk indices hashes identically
    to the same graph built in memory with int64 indices — while the
    per-array length framing means no byte sequence can alias across an
    array boundary.

    The digest is memoized on the graph, so a second call costs nothing,
    but only while the three CSR arrays own their data and are read-only
    (``flags.owndata and not flags.writeable``), as the builders' arrays
    are.  A graph over a view of a writable array, a memmap or a
    shared-memory segment can change under it, so it is hashed anew on
    every call.
    """
    # A view, a memmap or a shared-memory array does not own its data,
    # and a writable one can be changed through the graph's own array.
    frozen = all(
        arr.flags.owndata and not arr.flags.writeable
        for arr in (graph.indptr, graph.indices, graph.weights)
    )
    if frozen and graph._fingerprint is not None:
        return graph._fingerprint
    digest = hashlib.sha256()
    _fingerprint_array(digest, "indptr", graph.indptr, "<i8")
    _fingerprint_array(digest, "indices", graph.indices, "<i8")
    _fingerprint_array(digest, "weights", graph.weights, "<f8")
    fingerprint = digest.hexdigest()
    if frozen:
        graph._fingerprint = fingerprint
    return fingerprint


def _grid_params(grid, graph):
    """The non-seed grid axes of a resolved grid, as hashable param pairs.

    Matches the pre-registry encoding exactly (axis pairs first, then
    ``epsilons`` and ``max_cluster_size``), so memo entries written before
    the unified registry stay valid.
    """
    return grid.dynamics.grid_params() + (
        ("epsilons", tuple(float(e) for e in grid.resolved_epsilons())),
        ("max_cluster_size", int(grid.resolve_max_cluster_size(graph))),
    )


def plan_chunks(dynamics, seed_nodes, params, *, seeds_per_chunk=8,
                refiners=()):
    """Split a seed list into deterministic :class:`GridChunk` shards.

    ``dynamics`` may be a canonical name, an alias, a spec instance, or a
    :class:`~repro.dynamics.DynamicsKind`; chunks always record the
    canonical name.  ``refiners`` (any chain
    :func:`~repro.refine.as_refiner_chain` accepts) are stamped onto
    every chunk.
    The split depends only on the seed list and ``seeds_per_chunk`` —
    never on the worker count — so cache keys and merge order are stable
    across machines and pool sizes.
    """
    check_int(seeds_per_chunk, "seeds_per_chunk", minimum=1)
    dynamics = get_dynamics(dynamics).key
    refiners = as_refiner_chain(refiners)
    seed_nodes = [int(s) for s in seed_nodes]
    return [
        GridChunk(
            index=i,
            dynamics=dynamics,
            seed_nodes=tuple(seed_nodes[start:start + seeds_per_chunk]),
            params=tuple(params),
            refiners=refiners,
        )
        for i, start in enumerate(
            range(0, len(seed_nodes), seeds_per_chunk)
        )
    ]


def _chunk_cache_key(fingerprint, chunk):
    digest = hashlib.sha256()
    digest.update(f"v{_CACHE_VERSION}|{fingerprint}|".encode())
    digest.update(chunk.describe().encode())
    # Every version-3 key carries the kernel tag; only numpy remains.
    digest.update(b"|backend=numpy")
    if chunk.refiners:
        # Refined chunks live in their own versioned key namespace: a raw
        # run can never be served refined candidates (or vice versa), and
        # unrefined keys predating the refiners field stay valid.
        digest.update(
            f"|refine-v{_REFINE_CACHE_VERSION}|"
            f"{'>'.join(chunk.refiner_tokens())}".encode()
        )
    return digest.hexdigest()


def _encode_refinement(steps):
    """JSON-encode one candidate's per-stage provenance (exact floats)."""
    return json.dumps([
        [
            step.refiner,
            float(step.pre_conductance),
            float(step.post_conductance),
            int(step.rounds),
            bool(step.converged),
            bool(step.changed),
        ]
        for step in steps
    ])


def _decode_refinement(text):
    """Rebuild the :class:`~repro.refine.RefinementStep` tuple."""
    return tuple(
        RefinementStep(
            refiner=str(refiner),
            pre_conductance=float(pre),
            post_conductance=float(post),
            rounds=int(rounds),
            converged=bool(converged),
            changed=bool(changed),
        )
        for refiner, pre, post, rounds, converged, changed in json.loads(text)
    )


def _save_chunk(path, candidates):
    """Persist a chunk's candidates as one flat npz (no pickling)."""
    if candidates:
        nodes_concat = np.concatenate(
            [np.ascontiguousarray(c.nodes, dtype=np.int64)
             for c in candidates]
        )
        lengths = np.asarray([c.nodes.size for c in candidates],
                             dtype=np.int64)
        conductances = np.asarray([c.conductance for c in candidates])
        methods = np.asarray([c.method for c in candidates])
    else:
        nodes_concat = np.empty(0, dtype=np.int64)
        lengths = np.empty(0, dtype=np.int64)
        conductances = np.empty(0)
        methods = np.empty(0, dtype="U1")
    arrays = dict(
        nodes=nodes_concat, lengths=lengths,
        conductances=conductances, methods=methods,
    )
    if any(c.refinement for c in candidates):
        # Refiner provenance rides along as one JSON string per candidate
        # (floats round-trip exactly via repr); raw chunks keep the
        # pre-refinement file layout byte for byte.
        arrays["refinement"] = np.asarray(
            [_encode_refinement(c.refinement) for c in candidates]
        )
    # Per-writer temp name: concurrent processes sharing a cache_dir must
    # never interleave writes into one temp file; each writes its own and
    # the final rename is atomic, last-writer-wins with identical content.
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    tmp.replace(path)


def _load_chunk(path):
    """Load a memoized chunk; ``None`` (cache miss) if unreadable.

    Every npz member is inflated once per chunk: indexing the ``NpzFile``
    decompresses the member anew, so per-candidate indexing would make
    the read quadratic in the chunk size.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            lengths = data["lengths"]
            nodes = data["nodes"]
            conductances = data["conductances"]
            methods = data["methods"]
            refinement = (
                data["refinement"] if "refinement" in data.files else None
            )
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            sizes = {conductances.size, methods.size, lengths.size}
            if refinement is not None:
                sizes.add(refinement.size)
            if (len(sizes) > 1 or np.any(lengths < 0)
                    or offsets[-1] != nodes.size):
                # Members of disagreeing length: a torn or foreign entry.
                return None
            return [
                ClusterCandidate(
                    nodes=nodes[offsets[i]:offsets[i + 1]].copy(),
                    conductance=float(conductances[i]),
                    method=str(methods[i]),
                    refinement=(
                        _decode_refinement(str(refinement[i]))
                        if refinement is not None
                        else ()
                    ),
                )
                for i in range(lengths.size)
            ]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, TypeError,
            EOFError, zlib.error, struct.error):
        # A truncated or foreign file is a miss, not a crash; the chunk
        # is recomputed and the entry rewritten.  (json.JSONDecodeError
        # is a ValueError; a malformed provenance payload is a miss too.
        # zlib.error/EOFError/struct.error cover deflate streams cut
        # short by a mid-write crash — and the chaos executor's corrupt
        # fault — which np.load surfaces undecorated.)
        return None


def _evaluate_chunk(graph, chunk):
    """Run one shard's diffusion grid and sweep it into candidates.

    Refinement happens here, inside the shard — per candidate, so the
    refined ensemble is exactly as deterministic (and as worker-count-
    independent) as the raw one.
    """
    params = dict(chunk.params)
    candidates = grid_candidates_for_seed_nodes(
        graph,
        list(chunk.seed_nodes),
        chunk.spec(),
        epsilons=params["epsilons"],
        max_cluster_size=params["max_cluster_size"],
    )
    if chunk.refiners:
        candidates = refine_candidates(graph, candidates, chunk.refiners)
    return candidates


def run_ncp_ensemble(
    graph,
    grid,
    *,
    num_workers=0,
    seeds_per_chunk=8,
    cache_dir=None,
    executor=None,
    retry=None,
):
    """Run one dynamics' NCP candidate ensemble, sharded and memoized.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    grid:
        The workload: a :class:`~repro.dynamics.DiffusionGrid`, a spec
        instance (``PPR(...)`` / ``HeatKernel(...)`` / ``LazyWalk(...)``),
        a dynamics name or alias, a
        :class:`~repro.dynamics.DynamicsKind`, or a
        :class:`~repro.refine.Pipeline` (grid + refiner chain, in which
        case every candidate is threaded through the chain inside its
        chunk, and refined chunks get their own versioned cache keys).
        Seed sampling uses the grid's own RNG stream — the same stream
        :func:`~repro.ncp.profile.cluster_ensemble_ncp` uses, so a serial
        generator run and a sharded runner run see identical seeds.
    num_workers:
        ``0`` evaluates chunks serially in-process; ``k >= 1`` fans the
        non-cached chunks out to a pool of ``k`` worker processes. The
        resulting ensemble is identical either way.
    seeds_per_chunk:
        Shard width. Part of each chunk's cache key.
    cache_dir:
        Directory for the per-(graph, chunk) memo; ``None`` disables
        caching. Entries are keyed by graph fingerprint + exact chunk
        parameters + cache version, so a changed graph or grid never
        reuses stale results.  Each entry is written the moment its
        chunk completes, so an interrupted run resumes from the cache.
    executor:
        Execution strategy for the non-cached chunks: a name or alias
        of one of the :data:`~repro.execution.EXECUTORS` (``"serial"``,
        ``"process"``, ``"chaos"``, ...), a spec instance, or an
        :class:`~repro.execution.ExecutorKind`.  ``None`` derives the
        default from ``num_workers`` (``"process"`` when >= 1, else
        ``"serial"``).  Every strategy produces byte-identical
        candidates.
    retry:
        A :class:`~repro.execution.RetryPolicy` for the driver's
        per-chunk retry and straggler re-dispatch (default:
        ``RetryPolicy()``).

    Returns
    -------
    NCPRunResult
    """
    pipeline = as_pipeline(grid)
    grid = pipeline.grid
    refiners = pipeline.refiners
    if refiners:
        # The flow refiners solve with scipy.sparse.csgraph. Importing it
        # here, before a process executor forks its per-run pool, lets the
        # workers inherit it instead of importing it again on every run.
        import scipy.sparse.csgraph  # noqa: F401
    num_workers = check_int(num_workers, "num_workers", minimum=0)
    start_time = time.perf_counter()

    executor_spec = as_executor_spec(
        executor if executor is not None
        else ("process" if num_workers >= 1 else "serial")
    )
    executor_kind = get_executor(executor_spec)

    rng = as_rng(grid.seed)
    seed_nodes = _sample_seed_nodes(graph, grid.num_seeds, rng)
    params = _grid_params(grid, graph)
    chunks = plan_chunks(
        grid.dynamics, seed_nodes, params,
        seeds_per_chunk=seeds_per_chunk, refiners=refiners,
    )

    # Always fingerprint: the manifest hook needs it even without a cache.
    fingerprint = graph_fingerprint(graph)
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir)
        cache_path.mkdir(parents=True, exist_ok=True)

    cache_keys = {
        chunk.index: _chunk_cache_key(fingerprint, chunk)
        for chunk in chunks
    }
    per_chunk = [None] * len(chunks)
    hit_indices = set()
    misses = []
    for chunk in chunks:
        if cache_path is not None:
            entry = cache_path / f"{cache_keys[chunk.index]}.npz"
            if entry.exists():
                loaded = _load_chunk(entry)
                if loaded is not None:
                    per_chunk[chunk.index] = loaded
                    hit_indices.add(chunk.index)
                    continue
        misses.append(chunk)

    outcome = None
    if misses:
        # Merge order is by chunk.index regardless of strategy, retries,
        # or straggler re-dispatch, so the ensemble is byte-identical
        # for any executor and any worker count.
        chunk_executor = build_executor(
            executor_spec, graph=graph, evaluate=_evaluate_chunk,
            num_workers=num_workers,
        )

        def _on_result(chunk, candidates):
            # Fired the moment a chunk completes: the incremental cache
            # write is what makes an interrupted run resumable.
            per_chunk[chunk.index] = candidates
            if cache_path is not None:
                entry = cache_path / f"{cache_keys[chunk.index]}.npz"
                _save_chunk(entry, candidates)
                chunk_executor.after_cache_write(chunk, entry)

        outcome = execute_chunks(
            chunk_executor, misses, retry=retry,
            fingerprint=fingerprint, on_result=_on_result,
        )

    chunk_records = [
        {
            "index": int(chunk.index),
            "num_seeds": len(chunk.seed_nodes),
            "cache_key": cache_keys[chunk.index],
            "source": (
                "cache" if chunk.index in hit_indices else "computed"
            ),
            "attempts": (
                0 if outcome is None
                else int(outcome.attempts.get(chunk.index, 0))
            ),
            "completed": True,
        }
        for chunk in chunks
    ]

    merged = []
    for candidates in per_chunk:
        merged.extend(candidates)
    return NCPRunResult(
        candidates=merged,
        dynamics=grid.key,
        num_chunks=len(chunks),
        cache_hits=len(hit_indices),
        num_workers=num_workers,
        grid=grid,
        refiners=refiners,
        fingerprint=fingerprint,
        seed_nodes=tuple(int(s) for s in seed_nodes),
        wall_seconds=time.perf_counter() - start_time,
        executor=executor_kind.key,
        executor_params=executor_spec.params(),
        retries=0 if outcome is None else outcome.retries,
        redispatches=0 if outcome is None else outcome.redispatches,
        chunks=chunk_records,
    )
