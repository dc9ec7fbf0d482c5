"""Scale-tier synthetic graphs: R-MAT and LFR-style generators.

The reference suite (:mod:`repro.datasets.suite`) tops out around a
thousand nodes — enough to validate correctness, far too small to show
the paper's headline phenomenon: the downward-then-upward conductance
profile only emerges on graphs with millions of edges.  This module
provides parameterized generators that reach that scale in seconds,
entirely through vectorized NumPy (no per-edge Python):

* :func:`rmat_graph` — the Kronecker/R-MAT recursive quadrant sampler
  (Graph500's generator), producing heavy-tailed, community-free
  "social-network-like" topologies at any power-of-two size;
* :func:`lfr_graph` — an LFR-style planted-community benchmark: power-law
  degrees, power-law community sizes, and a mixing parameter ``mu``
  giving each node a tunable fraction of inter-community stubs.

Both return compacted largest components by default (via the vectorized
:func:`~repro.graph.build.largest_component_fast`, never the per-node
Python BFS), are deterministic given an integer seed, and register a
named tier in :data:`SCALE_SUITE` so the CLI and
:func:`repro.datasets.load_any_graph` reach them by name — e.g.
``rmat-18`` or ``lfr-50k`` anywhere a suite name is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_rng, check_int, check_probability
from repro.exceptions import InvalidParameterError
from repro.graph.build import from_edges, largest_component_fast

__all__ = [
    "SCALE_SUITE",
    "ScaleGraphSpec",
    "lfr_graph",
    "load_scale_graph",
    "rmat_graph",
    "scale_describe",
    "scale_suite_names",
]


def rmat_graph(scale, edge_factor=16, *, a=0.57, b=0.19, c=0.19,
               seed=None, permute=True, keep="largest"):
    """R-MAT recursive-matrix random graph on ``2**scale`` nodes.

    ``edge_factor * 2**scale`` directed edge slots are sampled by
    recursively descending ``scale`` levels of the adjacency matrix's
    quadrants with probabilities ``(a, b, c, d = 1-a-b-c)`` (the
    defaults are the Graph500 parameters).  Self-loops are dropped and
    duplicates collapsed, so the realized simple-edge count lands a few
    percent below ``edge_factor * n``.  Each level's draws are
    whole-array NumPy operations: ``rmat_graph(17)`` (1.86M edges after
    compaction) takes about 1 s on a 2-vCPU host.

    Parameters
    ----------
    scale:
        log2 of the node count (``n = 2**scale``).
    edge_factor:
        Edge slots sampled per node (Graph500 uses 16).
    a, b, c:
        Quadrant probabilities; ``d = 1 - a - b - c`` must be positive.
    seed:
        RNG seed (int, Generator, or None).
    permute:
        Randomly relabel nodes (default), destroying the bit-pattern
        degree locality of the raw recursion.
    keep:
        ``"largest"`` (default) compacts to the largest connected
        component; ``"all"`` keeps every sampled node, including any
        isolated ones.
    """
    scale = check_int(scale, "scale", minimum=1, maximum=30)
    edge_factor = check_int(edge_factor, "edge_factor", minimum=1)
    for name, value in (("a", a), ("b", b), ("c", c)):
        check_probability(value, name)
    d = 1.0 - (a + b + c)
    if d <= 0:
        raise InvalidParameterError(
            f"a + b + c must be < 1 (d = {d:.4g} must be positive)"
        )
    if keep not in ("largest", "all"):
        raise InvalidParameterError(
            f"keep must be 'largest' or 'all'; got {keep!r}"
        )
    rng = as_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    # scale <= 30, so node ids fit int32; every level shifts in place and
    # draws into one reused buffer (the same draws, in the same order).
    u = np.zeros(m, dtype=np.int32)
    v = np.zeros(m, dtype=np.int32)
    draw = np.empty(m)
    row_bit = np.empty(m, dtype=bool)
    col_bit = np.empty(m, dtype=bool)
    flip = np.empty(m, dtype=bool)
    p_lower = a + b  # probability the row bit stays in the upper half
    p_left_upper, p_left_lower = a / (a + b), c / (c + d)
    for _ in range(scale):
        rng.random(out=draw)
        np.greater_equal(draw, p_lower, out=row_bit)
        u <<= 1
        u |= row_bit
        # col_bit = draw >= (p_left_lower if row_bit else p_left_upper),
        # selected with exact compares and boolean masks.
        rng.random(out=draw)
        np.greater_equal(draw, p_left_upper, out=col_bit)
        np.greater_equal(draw, p_left_lower, out=flip)
        flip ^= col_bit
        flip &= row_bit
        col_bit ^= flip
        v <<= 1
        v |= col_bit
    if permute:
        relabeling = rng.permutation(n)
        u = relabeling[u]
        v = relabeling[v]
    simple = u != v
    graph = from_edges(
        n, np.stack([u[simple], v[simple]], axis=1), combine="max"
    )
    if keep == "largest":
        graph, _ = largest_component_fast(graph)
    return graph


def _bounded_powerlaw(rng, exponent, low, high, size):
    """Inverse-CDF samples from a power law on ``[low, high]`` (floats)."""
    one_minus = 1.0 - exponent
    lo, hi = float(low) ** one_minus, float(high) ** one_minus
    return (lo + rng.random(size) * (hi - lo)) ** (1.0 / one_minus)


def _paired_stub_edges(stub_nodes):
    """Pair consecutive stubs ``(0,1), (2,3), ...``; drops a trailing odd."""
    pairs = stub_nodes[: (stub_nodes.size // 2) * 2].reshape(-1, 2)
    return pairs


def lfr_graph(num_nodes, *, mu=0.1, min_degree=8, max_degree=None,
              degree_exponent=2.5, min_community=32, max_community=None,
              community_exponent=1.5, seed=None, keep="largest",
              return_communities=False):
    """LFR-style planted-community benchmark graph.

    A simplified, fully vectorized take on the Lancichinetti–Fortunato–
    Radicchi benchmark: node degrees follow a bounded power law with
    exponent ``degree_exponent``, community sizes follow a bounded power
    law with exponent ``community_exponent``, and each node wires
    ``round(mu * degree)`` of its stubs to the global inter-community
    pool and the rest inside its community.  Stubs are paired by a
    segment-sorted shuffle (one :func:`np.lexsort` over all internal
    stubs), so generation is near-linear in the edge count.  Self-loops
    and duplicate pairings are dropped, which shifts realized degrees
    slightly below their targets — this is a benchmark *style*, not a
    bit-exact LFR reimplementation.

    Parameters
    ----------
    num_nodes:
        Number of nodes before compaction.
    mu:
        Mixing parameter in ``[0, 1]``: fraction of each node's stubs
        leaving its community.
    min_degree, max_degree, degree_exponent:
        Degree power-law bounds and exponent.  ``max_degree`` defaults
        to ``~sqrt(num_nodes)`` (capped below ``num_nodes``).
    min_community, max_community, community_exponent:
        Community-size power-law bounds and exponent.  ``max_community``
        defaults to ``max(4 * min_community, num_nodes // 20)``.
    seed:
        RNG seed.
    keep:
        ``"largest"`` (default) or ``"all"``, as in :func:`rmat_graph`.
    return_communities:
        When true, return ``(graph, labels)`` where ``labels[i]`` is the
        planted community of node ``i`` (relabeled alongside the nodes
        if compaction dropped anything).
    """
    n = check_int(num_nodes, "num_nodes", minimum=4)
    mu = check_probability(mu, "mu", inclusive_low=True, inclusive_high=True)
    min_degree = check_int(min_degree, "min_degree", minimum=1,
                           maximum=n - 1)
    if max_degree is None:
        max_degree = min(n - 1, max(min_degree + 1, int(round(n ** 0.5))))
    max_degree = check_int(max_degree, "max_degree", minimum=min_degree,
                           maximum=n - 1)
    min_community = check_int(min_community, "min_community", minimum=2,
                              maximum=n)
    if max_community is None:
        max_community = min(n, max(4 * min_community, n // 20))
    max_community = check_int(max_community, "max_community",
                              minimum=min_community, maximum=n)
    for name, value in (("degree_exponent", degree_exponent),
                        ("community_exponent", community_exponent)):
        if not (1.0 < float(value) < 6.0):
            raise InvalidParameterError(
                f"{name} must lie in (1, 6); got {value}"
            )
    if keep not in ("largest", "all"):
        raise InvalidParameterError(
            f"keep must be 'largest' or 'all'; got {keep!r}"
        )
    rng = as_rng(seed)

    degrees = np.rint(_bounded_powerlaw(
        rng, degree_exponent, min_degree, max_degree, n
    )).astype(np.int64)

    # Community sizes: sample until they cover n, then trim the excess
    # off the last community (merging it away if it falls below bound).
    sizes = []
    covered = 0
    while covered < n:
        block = np.rint(_bounded_powerlaw(
            rng, community_exponent, min_community, max_community,
            max(16, n // min_community),
        )).astype(np.int64)
        for s in block.tolist():
            if covered >= n:
                break
            sizes.append(min(s, n - covered))
            covered += sizes[-1]
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size > 1 and sizes[-1] < min_community:
        sizes[-2] += sizes[-1]
        sizes = sizes[:-1]
    labels = np.empty(n, dtype=np.int64)
    labels[rng.permutation(n)] = np.repeat(
        np.arange(sizes.size), sizes
    )
    community_size = sizes[labels]

    internal_degree = np.rint((1.0 - mu) * degrees).astype(np.int64)
    # A node cannot have more internal partners than its community offers.
    np.minimum(internal_degree, community_size - 1, out=internal_degree)
    external_degree = degrees - internal_degree

    # Internal stubs: shuffle within each community with one lexsort,
    # then pair consecutive stubs inside each community segment.
    stub_nodes = np.repeat(np.arange(n, dtype=np.int64), internal_degree)
    stub_labels = labels[stub_nodes]
    order = np.lexsort((rng.random(stub_nodes.size), stub_labels))
    stub_nodes = stub_nodes[order]
    stub_labels = stub_labels[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], stub_labels[1:] != stub_labels[:-1]))
    )
    seg_sizes = np.diff(np.concatenate((boundaries, [stub_labels.size])))
    position = np.arange(stub_labels.size) - np.repeat(boundaries, seg_sizes)
    seg_len = np.repeat(seg_sizes, seg_sizes)
    left = np.flatnonzero((position % 2 == 0) & (position + 1 < seg_len))
    internal_edges = np.stack(
        [stub_nodes[left], stub_nodes[left + 1]], axis=1
    )

    # External stubs: one global shuffled pairing.
    ext_nodes = np.repeat(np.arange(n, dtype=np.int64), external_degree)
    rng.shuffle(ext_nodes)
    external_edges = _paired_stub_edges(ext_nodes)

    edges = np.concatenate([internal_edges, external_edges])
    simple = edges[:, 0] != edges[:, 1]
    graph = from_edges(n, edges[simple], combine="max")
    original_ids = np.arange(n)
    if keep == "largest":
        graph, original_ids = largest_component_fast(graph)
    if return_communities:
        return graph, labels[original_ids]
    return graph


@dataclass(frozen=True)
class ScaleGraphSpec:
    """One named scale-tier workload: builder + role + expected size.

    ``approx_nodes`` / ``approx_edges`` are pre-compaction design
    targets, recorded so listings can describe the tier without paying
    for generation (realized counts land a few percent lower after
    self-loop/duplicate removal and largest-component compaction).
    """

    name: str
    builder: object
    role: str
    approx_nodes: int
    approx_edges: int

    def build(self, seed=0):
        return self.builder(seed)


def _rmat_spec(scale, role):
    return ScaleGraphSpec(
        name=f"rmat-{scale}",
        builder=lambda seed: rmat_graph(scale, seed=seed),
        role=role,
        approx_nodes=1 << scale,
        approx_edges=(1 << scale) * 16,
    )


def _lfr_spec(label, n, mu, role):
    return ScaleGraphSpec(
        name=f"lfr-{label}",
        builder=lambda seed: lfr_graph(n, mu=mu, seed=seed),
        role=role,
        approx_nodes=n,
        approx_edges=int(n * 6),  # mean of the default degree power law
    )


SCALE_SUITE = {
    spec.name: spec
    for spec in (
        _rmat_spec(14, "R-MAT 2^14: scale-tier warm-up (~250k edges)"),
        _rmat_spec(16, "R-MAT 2^16: the ~1M-edge CI smoke point"),
        _rmat_spec(18, "R-MAT 2^18: ~4M edges, memmap territory"),
        _rmat_spec(20, "R-MAT 2^20: ~16M edges, the full scale tier"),
        _lfr_spec("50k", 50_000, 0.2,
                  "LFR-style 50k nodes: planted communities at scale"),
        _lfr_spec("200k", 200_000, 0.3,
                  "LFR-style 200k nodes: high-mixing community recovery"),
    )
}


def scale_suite_names():
    """Names of all scale-tier graphs."""
    return sorted(SCALE_SUITE)


def load_scale_graph(name, seed=0):
    """Build a scale-tier graph by name (compacted, deterministic)."""
    try:
        spec = SCALE_SUITE[name]
    except KeyError:
        from repro.datasets.suite import _unknown_graph

        raise _unknown_graph(name) from None
    return spec.build(seed)


def scale_describe(name):
    """Human-readable role of a scale-tier graph."""
    try:
        return SCALE_SUITE[name].role
    except KeyError:
        from repro.datasets.suite import _unknown_graph

        raise _unknown_graph(name) from None
