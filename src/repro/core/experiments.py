"""Experiment records and shared drivers.

:func:`run_multidynamics_ncp` summarizes its run in an
:class:`ExperimentRecord` naming the paper artifact it reproduces, the
workload, the qualitative claim, and whether the measured shape agrees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class ExperimentRecord:
    """A reproduced experiment's outcome.

    Attributes
    ----------
    experiment_id:
        Id from DESIGN.md's per-experiment index (e.g. ``"E1"``).
    paper_artifact:
        The table/figure/claim reproduced (e.g. ``"Figure 1(a)"``).
    workload:
        Human-readable workload description.
    claim:
        The qualitative claim being tested.
    observed:
        What was measured.
    shape_matches:
        Whether the measured shape agrees with the paper.
    details:
        Free-form metrics (numbers backing the verdict).
    seconds:
        Wall time of the run.
    """

    experiment_id: str
    paper_artifact: str
    workload: str
    claim: str
    observed: str
    shape_matches: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0


class Stopwatch:
    """Wall-time stopwatch.

    Works as a context manager (``.seconds`` is set on exit) and as a
    plain timer: construction starts the clock and :meth:`elapsed`
    reads it at any point (the CLI manifests use the latter).
    """

    def __init__(self):
        self._start = time.perf_counter()
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def elapsed(self):
        """Wall seconds since construction (or context entry)."""
        return time.perf_counter() - self._start

    def __exit__(self, *exc_info):
        self.seconds = self.elapsed()
        return False


def run_multidynamics_ncp(
    graph,
    *,
    experiment_id="E13",
    paper_artifact="Figure 1 / Section 3.1",
    dynamics=("ppr", "hk", "walk"),
    num_seeds=20,
    num_buckets=8,
    seed=0,
    num_workers=0,
    cache_dir=None,
):
    """Run NCP ensembles for several dynamics through the sharded runner.

    The shared driver behind the multi-dynamics benchmarks: every
    requested dynamics (ACL push, heat-kernel push, truncated lazy walk —
    the three canonical procedures of Section 3.1/3.3) is swept over its
    parameter grid via :func:`repro.ncp.runner.run_ncp_ensemble`,
    reduced to a size-bucketed profile, and summarized in one
    :class:`ExperimentRecord`.

    ``dynamics`` entries may be dynamics names/aliases, spec instances
    (``PPR(...)``, ``HeatKernel(...)``, ``LazyWalk(...)``), or full
    :class:`~repro.dynamics.DiffusionGrid` workloads; names resolve to
    the dynamics' default grid with this function's ``num_seeds``/``seed``.

    Returns ``(record, profiles)`` where ``profiles`` maps each dynamics'
    canonical name to its :class:`~repro.ncp.profile.NCPProfile`.
    """
    from repro.dynamics import DiffusionGrid, as_diffusion_grid, get_dynamics
    from repro.exceptions import InvalidParameterError, PartitionError
    from repro.ncp.profile import best_per_size_bucket
    from repro.ncp.runner import run_ncp_ensemble

    grids = {}
    for entry in dynamics:
        if isinstance(entry, DiffusionGrid):
            grid = entry
        else:
            spec = (
                get_dynamics(entry).default_spec()
                if not hasattr(entry, "iter_columns")
                else entry
            )
            grid = DiffusionGrid(spec, num_seeds=num_seeds, seed=seed)
        key = as_diffusion_grid(grid).key
        if key in grids:
            # Results are keyed by canonical name; a silent overwrite
            # would drop a requested workload.
            raise InvalidParameterError(
                f"run_multidynamics_ncp received two workloads for "
                f"dynamics {key!r}; run them as separate calls"
            )
        grids[key] = grid

    profiles = {}
    details = {}
    with Stopwatch() as watch:
        for name, grid in grids.items():
            run = run_ncp_ensemble(
                graph, grid, num_workers=num_workers, cache_dir=cache_dir,
            )
            try:
                profile = best_per_size_bucket(
                    run.candidates, num_buckets=num_buckets
                )
                finite = [
                    phi for phi in profile.best_conductance
                    if phi == phi  # drop NaN buckets
                ]
            except PartitionError:
                # Degenerate workload (a graph too small for any sweep,
                # or only sub-min_size clusters): report the empty
                # ensemble instead of crashing.
                profile = None
                finite = []
            profiles[name] = profile
            details[name] = {
                "num_candidates": len(run.candidates),
                "num_chunks": run.num_chunks,
                "cache_hits": run.cache_hits,
                "best_phi": min(finite) if finite else None,
            }
    matches = all(
        info["num_candidates"] > 0 and info["best_phi"] is not None
        for info in details.values()
    )
    record = ExperimentRecord(
        experiment_id=experiment_id,
        paper_artifact=paper_artifact,
        workload=(
            f"{len(dynamics)} dynamics x {num_seeds} seeds on "
            f"{graph.num_nodes}-node graph, sharded NCP runner"
        ),
        claim=(
            "every canonical dynamics yields a size-resolved NCP profile "
            "through the batched engines"
        ),
        observed=", ".join(
            f"{name}: {info['num_candidates']} candidates, "
            f"best phi {info['best_phi']:.3g}"
            if info["best_phi"] is not None
            else f"{name}: no candidates"
            for name, info in details.items()
        ),
        shape_matches=matches,
        details=details,
        seconds=watch.seconds,
    )
    return record, profiles
