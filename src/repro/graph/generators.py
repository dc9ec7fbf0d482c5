"""Deterministic graph families.

These families are the standard stress inputs of spectral and flow-based
partitioning theory, several of which the paper names explicitly:

* "long stringy" graphs (paths, lollipops, and the Guattery–Miller *roach*)
  on which spectral methods saturate the quadratic Cheeger bound, because
  spectral methods "confuse long paths with deep cuts" (Section 3.2);
* planted-cut families (barbell, ring of cliques) whose optimal
  conductance cut is known in closed form, used as test oracles.

All generators return validated :class:`~repro.graph.graph.Graph` objects
with unit weights unless stated otherwise.
"""

from __future__ import annotations

from repro._validation import check_int, check_positive
from repro.exceptions import InvalidParameterError
from repro.graph.build import from_edges


def path_graph(n):
    """Path on ``n`` nodes: the canonical "long stringy" graph."""
    n = check_int(n, "n", minimum=1)
    edges = [(i, i + 1) for i in range(n - 1)]
    return from_edges(n, edges)


def cycle_graph(n):
    """Cycle on ``n >= 3`` nodes."""
    n = check_int(n, "n", minimum=3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return from_edges(n, edges)


def complete_graph(n, weight=1.0):
    """Complete graph ``K_n``; the SDP relaxation's implicit target geometry.

    Section 3.2 (footnote 21) notes that the spectral relaxation embeds a
    scaled complete graph into the input graph; having ``K_n`` around makes
    that statement testable.
    """
    n = check_int(n, "n", minimum=1)
    weight = check_positive(weight, "weight")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edges(n, edges, [weight] * len(edges))


def star_graph(n_leaves):
    """Star with one hub (node 0) and ``n_leaves`` leaves."""
    n_leaves = check_int(n_leaves, "n_leaves", minimum=1)
    edges = [(0, i) for i in range(1, n_leaves + 1)]
    return from_edges(n_leaves + 1, edges)


def grid_graph(rows, cols):
    """4-neighbor ``rows x cols`` grid; a manifold discretization."""
    rows = check_int(rows, "rows", minimum=1)
    cols = check_int(cols, "cols", minimum=1)
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return from_edges(rows * cols, edges)


def barbell_graph(clique_size, path_length=0):
    """Two ``K_k`` cliques joined by a path of ``path_length`` extra nodes.

    The minimum-conductance cut separates the two cliques; with
    ``path_length = 0`` the two cliques share a single bridging edge.
    """
    k = check_int(clique_size, "clique_size", minimum=2)
    p = check_int(path_length, "path_length", minimum=0)
    n = 2 * k + p
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + p + i, k + p + j))
    chain = [k - 1] + list(range(k, k + p)) + [k + p]
    for a, b in zip(chain[:-1], chain[1:]):
        edges.append((a, b))
    return from_edges(n, edges)


def lollipop_graph(clique_size, path_length):
    """``K_k`` with a path of ``path_length`` nodes hanging off it.

    A canonical "long stringy piece attached to a well-connected core": the
    spectral sweep cut wants to cut the path in half, while the best
    conductance cut severs the path where it meets the clique.
    """
    k = check_int(clique_size, "clique_size", minimum=2)
    p = check_int(path_length, "path_length", minimum=1)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges.append((k - 1, k))
    edges.extend((k + i, k + i + 1) for i in range(p - 1))
    return from_edges(k + p, edges)


def roach_graph(body_length, antenna_length):
    """The Guattery–Miller *roach* graph [21].

    Two parallel paths of ``body_length + antenna_length`` nodes; the first
    ``body_length`` positions are rungs of a ladder (the body), the remaining
    positions are two disjoint dangling paths (the antennae). The natural
    "cut the body from the antennae" partition has far better conductance
    than the spectral bisection, which splits the graph lengthwise; this is
    the classic instance showing the Cheeger quadratic factor is real.
    """
    b = check_int(body_length, "body_length", minimum=1)
    a = check_int(antenna_length, "antenna_length", minimum=1)
    length = b + a
    top = list(range(length))
    bottom = list(range(length, 2 * length))
    edges = []
    for row in (top, bottom):
        edges.extend((row[i], row[i + 1]) for i in range(length - 1))
    edges.extend((top[i], bottom[i]) for i in range(b))
    return from_edges(2 * length, edges)


def ring_of_cliques(num_cliques, clique_size):
    """``num_cliques`` copies of ``K_k`` arranged in a ring, bridged by edges.

    Clique ``c`` occupies ids ``c*k .. (c+1)*k - 1``; node ``c*k`` links to
    node ``(c+1)*k - 1`` of the previous clique. Every single clique is a
    good-conductance, high-niceness cluster — the idealized "community".
    """
    c = check_int(num_cliques, "num_cliques", minimum=3)
    k = check_int(clique_size, "clique_size", minimum=2)
    edges = []
    for q in range(c):
        base = q * k
        edges.extend(
            (base + i, base + j) for i in range(k) for j in range(i + 1, k)
        )
        nxt = ((q + 1) % c) * k
        edges.append((base + k - 1, nxt))
    return from_edges(c * k, edges)


def weighted_path_graph(weights):
    """Path whose ``i``-th edge has the given positive weight."""
    weights = list(weights)
    if not weights:
        raise InvalidParameterError("weighted_path_graph needs >= 1 edge weight")
    edges = [(i, i + 1) for i in range(len(weights))]
    return from_edges(len(weights) + 1, edges, weights)
