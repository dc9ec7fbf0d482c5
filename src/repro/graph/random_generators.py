"""Random graph families.

These generators provide the randomized side of the experiment suite:

* :func:`random_regular_graph` — with high probability a constant-degree
  expander, the worst case for flow/metric-embedding partitioners
  (Section 3.2);
* :func:`planted_partition_graph` / :func:`stochastic_block_model` — graphs
  with ground-truth communities at a known conductance scale;
* :func:`preferential_attachment_graph`, :func:`powerlaw_cluster_graph`,
  :func:`forest_fire_graph` — heavy-tailed "social network"-like graphs;
* :func:`whiskered_expander` — an expander core with stringy whiskers
  attached, the cartoon of the paper's description of large social networks
  ("expander-like when viewed at large size scales", with "structures
  analogous to stringy pieces that are cut off or regularized away by
  spectral methods").

Every generator takes a ``seed`` argument (int, ``numpy.random.Generator``,
or ``None``) and is deterministic given an integer seed.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_rng, check_int, check_probability
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.build import from_edges


def random_regular_graph(n, degree, seed=None, *, max_tries=200):
    """Random ``degree``-regular simple graph via the configuration model.

    Repeatedly samples perfect matchings on the ``n * degree`` half-edge
    stubs and rejects pairings with self-loops or parallel edges. With high
    probability the result is an expander; Section 3.2 uses such graphs as
    the inputs on which flow-based methods pay their ``O(log n)`` factor.

    Raises
    ------
    InvalidParameterError
        If ``n * degree`` is odd or ``degree >= n``.
    GraphError
        If no simple pairing is found within ``max_tries`` attempts.
    """
    n = check_int(n, "n", minimum=2)
    degree = check_int(degree, "degree", minimum=1)
    if degree >= n:
        raise InvalidParameterError(f"degree must be < n; got {degree} >= {n}")
    if (n * degree) % 2:
        raise InvalidParameterError("n * degree must be even")
    rng = as_rng(seed)
    # Steger–Wormald style pairing: repeatedly join two random *suitable*
    # stubs (distinct endpoints, edge not yet present); restart on dead ends.
    # Unlike naive configuration-model rejection this succeeds with high
    # probability per attempt even for moderate degrees.
    for _ in range(max_tries):
        stubs = list(np.repeat(np.arange(n), degree))
        rng.shuffle(stubs)
        edges = set()
        dead_end = False
        while stubs:
            progressed = False
            rng.shuffle(stubs)
            retained = []
            i = 0
            while i + 1 < len(stubs):
                u, v = int(stubs[i]), int(stubs[i + 1])
                key = (u, v) if u < v else (v, u)
                if u != v and key not in edges:
                    edges.add(key)
                    progressed = True
                else:
                    retained.extend((stubs[i], stubs[i + 1]))
                i += 2
            if i < len(stubs):
                retained.append(stubs[i])
            stubs = retained
            if not progressed:
                dead_end = True
                break
        if not dead_end and not stubs:
            return from_edges(n, sorted(edges))
    raise GraphError(
        f"failed to sample a simple {degree}-regular graph in {max_tries} tries"
    )


def preferential_attachment_graph(n, m, seed=None):
    """Barabási–Albert preferential attachment with ``m`` edges per new node."""
    n = check_int(n, "n", minimum=2)
    m = check_int(m, "m", minimum=1, maximum=n - 1)
    rng = as_rng(seed)
    edges = set()
    # Seed: a star on m + 1 nodes so early targets have nonzero degree.
    targets_pool = []
    for i in range(1, m + 1):
        edges.add((0, i))
        targets_pool.extend([0, i])
    for new in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            pick = targets_pool[int(rng.integers(len(targets_pool)))]
            chosen.add(pick)
        for t in chosen:
            edges.add(tuple(sorted((new, t))))
            targets_pool.extend([new, t])
    return from_edges(n, sorted(edges))


def powerlaw_cluster_graph(n, m, triangle_p, seed=None):
    """Holme–Kim model: preferential attachment plus triad closure.

    After each preferential step, with probability ``triangle_p`` the next
    edge closes a triangle with a neighbor of the previous target, producing
    the locally dense, heavy-tailed structure of social graphs.
    """
    n = check_int(n, "n", minimum=2)
    m = check_int(m, "m", minimum=1, maximum=n - 1)
    triangle_p = check_probability(
        triangle_p, "triangle_p", inclusive_low=True, inclusive_high=True
    )
    rng = as_rng(seed)
    edges = set()
    adjacency = [set() for _ in range(n)]

    def add(u, v):
        if u == v:
            return False
        key = tuple(sorted((u, v)))
        if key in edges:
            return False
        edges.add(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
        targets_pool.extend([u, v])
        return True

    targets_pool = []
    for i in range(1, m + 1):
        edges.add((0, i))
        adjacency[0].add(i)
        adjacency[i].add(0)
        targets_pool.extend([0, i])
    for new in range(m + 1, n):
        added = 0
        last_target = None
        guard = 0
        while added < m and guard < 100 * m:
            guard += 1
            if (
                last_target is not None
                and adjacency[last_target]
                and rng.random() < triangle_p
            ):
                neighbor = list(adjacency[last_target])[
                    int(rng.integers(len(adjacency[last_target])))
                ]
                if add(new, neighbor):
                    added += 1
                    last_target = neighbor
                    continue
            pick = targets_pool[int(rng.integers(len(targets_pool)))]
            if add(new, pick):
                added += 1
                last_target = pick
    return from_edges(n, sorted(edges))


def planted_partition_graph(num_blocks, block_size, p_in, p_out, seed=None):
    """Planted-partition model: ``num_blocks`` blocks of equal size.

    Edges appear with probability ``p_in`` inside a block and ``p_out``
    across blocks. With ``p_in >> p_out`` each block is a ground-truth
    cluster whose expected conductance is computable in closed form.
    """
    b = check_int(num_blocks, "num_blocks", minimum=1)
    s = check_int(block_size, "block_size", minimum=1)
    probabilities = np.full((b, b), check_probability(
        p_out, "p_out", inclusive_low=True, inclusive_high=True
    ))
    np.fill_diagonal(probabilities, check_probability(
        p_in, "p_in", inclusive_low=True, inclusive_high=True
    ))
    return stochastic_block_model([s] * b, probabilities, seed=seed)


def stochastic_block_model(block_sizes, probabilities, seed=None):
    """General stochastic block model.

    Parameters
    ----------
    block_sizes:
        Sequence of positive block sizes.
    probabilities:
        Symmetric ``(b, b)`` matrix of inter-block edge probabilities.
    seed:
        RNG seed.
    """
    sizes = [check_int(s, "block size", minimum=1) for s in block_sizes]
    probs = np.asarray(probabilities, dtype=float)
    b = len(sizes)
    if probs.shape != (b, b) or not np.allclose(probs, probs.T):
        raise InvalidParameterError(
            f"probabilities must be a symmetric ({b}, {b}) matrix"
        )
    if np.any(probs < 0) or np.any(probs > 1):
        raise InvalidParameterError("probabilities must lie in [0, 1]")
    rng = as_rng(seed)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    all_edges = []
    for bi in range(b):
        for bj in range(bi, b):
            p = probs[bi, bj]
            if p == 0:
                continue
            if bi == bj:
                iu, ju = np.triu_indices(sizes[bi], k=1)
                iu = iu + starts[bi]
                ju = ju + starts[bi]
            else:
                iu, ju = np.meshgrid(
                    np.arange(sizes[bi]) + starts[bi],
                    np.arange(sizes[bj]) + starts[bj],
                    indexing="ij",
                )
                iu, ju = iu.ravel(), ju.ravel()
            mask = rng.random(iu.size) < p
            if mask.any():
                all_edges.append(np.stack([iu[mask], ju[mask]], axis=1))
    edges = (
        np.concatenate(all_edges) if all_edges else np.empty((0, 2), dtype=np.int64)
    )
    return from_edges(n, edges)


def forest_fire_graph(n, forward_p, seed=None):
    """Forest-fire model (Leskovec et al.), undirected variant.

    Each new node picks a random ambassador and "burns" through its
    neighborhood: it links to the ambassador, then recursively to a
    geometrically distributed number of the ambassador's neighbors. Produces
    heavy-tailed degrees, densification, and community structure — the class
    of networks Figure 1 is about.
    """
    n = check_int(n, "n", minimum=2)
    forward_p = check_probability(forward_p, "forward_p")
    rng = as_rng(seed)
    adjacency = [set() for _ in range(n)]
    adjacency[0].add(1)
    adjacency[1].add(0)
    edges = {(0, 1)}
    for new in range(2, n):
        ambassador = int(rng.integers(new))
        visited = {ambassador}
        frontier = [ambassador]
        while frontier:
            u = frontier.pop()
            edges.add(tuple(sorted((new, u))))
            candidates = [v for v in adjacency[u] if v not in visited]
            if not candidates:
                continue
            # Geometric(1 - forward_p) number of neighbors to burn.
            burn = min(int(rng.geometric(1.0 - forward_p)) - 1, len(candidates))
            if burn > 0:
                picks = rng.choice(len(candidates), size=burn, replace=False)
                for idx in picks:
                    visited.add(candidates[idx])
                    frontier.append(candidates[idx])
        for u in visited:
            adjacency[new].add(u)
            adjacency[u].add(new)
    return from_edges(n, sorted(edges))


def whiskered_expander(
    core_n, core_degree, num_whiskers, whisker_length, seed=None
):
    """Expander core with path "whiskers" hanging off distinct core nodes.

    This is the minimal model of the paper's description of large social
    networks: expander-like at large scales, with small stringy pieces whose
    removal is what good-conductance cuts do. Whisker ``w`` attaches to core
    node ``w`` and occupies ids ``core_n + w*len .. core_n + (w+1)*len - 1``.
    """
    core_n = check_int(core_n, "core_n", minimum=4)
    num_whiskers = check_int(num_whiskers, "num_whiskers", minimum=0,
                             maximum=core_n)
    whisker_length = check_int(whisker_length, "whisker_length", minimum=1)
    core = random_regular_graph(core_n, core_degree, seed=seed)
    us, vs, ws = core.edge_array()
    edges = list(zip(us.tolist(), vs.tolist()))
    next_id = core_n
    for w in range(num_whiskers):
        chain = [w] + list(range(next_id, next_id + whisker_length))
        edges.extend(zip(chain[:-1], chain[1:]))
        next_id += whisker_length
    return from_edges(next_id, edges)


def noisy_graph(graph, flip_probability, seed=None):
    """Resample a graph by deleting each edge independently and adding noise.

    Each existing edge is kept with probability ``1 - flip_probability``;
    additionally ``flip_probability * m`` uniformly random non-edges are
    inserted (in expectation), keeping the edge count roughly constant. Used
    by the implicit-regularization experiments (E10) to measure output
    robustness to input noise.
    """
    flip_probability = check_probability(
        flip_probability, "flip_probability", inclusive_low=True
    )
    rng = as_rng(seed)
    n = graph.num_nodes
    us, vs, ws = graph.edge_array()
    keep = rng.random(us.size) >= flip_probability
    kept = {(int(u), int(v)) for u, v in zip(us[keep], vs[keep])}
    existing = {(int(u), int(v)) for u, v in zip(us, vs)}
    target_new = int(round(flip_probability * us.size))
    added = set()
    guard = 0
    while len(added) < target_new and guard < 50 * (target_new + 1):
        guard += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing or key in added:
            continue
        added.add(key)
    final = sorted(kept | added)
    return from_edges(n, final)
