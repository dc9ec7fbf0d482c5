"""The benchmark's workloads: graph, grids and execution strategy per name.

The workload seed drives the seed-node sampling stream of every grid and
the R-MAT generator.  The ``atp`` graph is always the one its generator
builds from seed 0: the synthetic AtP-DBLP generator changes community
structure enough between seeds to move MQI cost by about a quarter, more
than a run-to-run bound can absorb, while R-MAT graphs at scale 17 are
statistically alike from seed to seed.  On the fixed ``atp`` graph the
sampled seed nodes still move a pass's cost (by about a quarter for 16
MQI seeds), so the atp workloads draw fresh seed nodes for every
repetition from ``(seed, repetition)``, and a run's median averages over
its samples.  Why each workload exists is written in
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name:
        Workload name, as passed to ``--workload``.
    build:
        ``build(seed) -> Graph``; the dataset step whose cost ``setup_s``
        reports.
    grids:
        ``grids(seed) -> tuple`` of grids or pipelines; one
        ``run_ncp_ensemble`` call per entry makes one cold pass.
    executor:
        Execution strategy for every computed chunk.
    num_workers:
        Worker processes for the ``process`` executor (0 for ``serial``).
    memo_cold:
        Whether the timed cold pass writes the npz memo (into a fresh
        directory per repetition).  Without it the cold pass runs with the
        memo off and the warm pass reads a memo written during warm-up.
    setup_samples:
        Fresh processes started per run to time set-up; the median is
        reported as ``setup_s``.
    resample:
        Whether every timed repetition samples its own seed nodes
        (``grids(sample_seed(seed, rep))``) instead of re-running the
        warm-up's sample.
    """

    name: str
    build: Callable
    grids: Callable
    executor: str
    num_workers: int
    memo_cold: bool
    setup_samples: int
    resample: bool


# Generator seed of the one ``atp`` graph every atp workload runs on.
ATP_GRAPH_SEED = 0

# Seed-node samples reserved per workload seed, far more than the
# repetitions a run of at most a minute makes.
SAMPLES_PER_SEED = 1000


def sample_seed(seed, rep):
    """Grid seed of repetition ``rep`` (0 is the warm-up) of run ``seed``."""
    return seed * SAMPLES_PER_SEED + rep


def _atp(seed):
    from repro.datasets import load_graph

    return load_graph("atp", ATP_GRAPH_SEED)


def _rmat(scale):
    def build(seed):
        from repro.datasets.scale import rmat_graph

        return rmat_graph(scale, seed=seed)

    return build


def _ppr_grids(num_seeds):
    def grids(seed):
        from repro.dynamics import PPR, DiffusionGrid

        return (DiffusionGrid(PPR(), num_seeds=num_seeds, seed=seed),)

    return grids


def _ppr_hk_grids(num_seeds):
    def grids(seed):
        from repro.dynamics import PPR, DiffusionGrid, HeatKernel

        return (
            DiffusionGrid(PPR(), num_seeds=num_seeds, seed=seed),
            DiffusionGrid(HeatKernel(), num_seeds=num_seeds, seed=seed),
        )

    return grids


def _mqi_grids(num_seeds):
    def grids(seed):
        from repro.dynamics import PPR, DiffusionGrid
        from repro.refine import Pipeline

        grid = DiffusionGrid(
            PPR(alpha=(0.05,)), epsilons=(1e-4,), num_seeds=num_seeds,
            seed=seed,
        )
        return (Pipeline(grid, refiners=("mqi",)),)

    return grids


def workloads(quick=False):
    """All workloads by name; ``quick`` shrinks them for the self-test.

    The quick variants keep every code path (memo, both dynamics, the
    one-worker process pool, the MQI refiner) but use fewer seed nodes
    and an R-MAT graph of scale 12, so a whole self-test takes seconds.
    """
    return {
        wl.name: wl
        for wl in (
            Workload(
                name="atp-ppr",
                build=_atp,
                grids=_ppr_grids(8 if quick else 16),
                executor="serial",
                num_workers=0,
                memo_cold=True,
                setup_samples=2 if quick else 5,
                resample=True,
            ),
            Workload(
                name="rmat17-ppr-hk",
                build=_rmat(12 if quick else 17),
                grids=_ppr_hk_grids(4 if quick else 16),
                executor="serial",
                num_workers=0,
                memo_cold=False,
                setup_samples=2 if quick else 3,
                resample=False,
            ),
            Workload(
                name="atp-mqi",
                build=_atp,
                grids=_mqi_grids(8 if quick else 16),
                executor="process",
                num_workers=1,
                memo_cold=False,
                setup_samples=2 if quick else 5,
                resample=True,
            ),
        )
    }
