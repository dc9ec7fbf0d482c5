"""Bipartite graph utilities and a community-structured bipartite generator.

The paper's Figure 1 is computed on *AtP-DBLP*, the bipartite author-to-paper
graph of DBLP. That snapshot is not available here, so
:func:`community_bipartite_graph` generates a synthetic stand-in with the
structural features the figure depends on (power-law author productivity,
papers concentrated inside research communities at several size scales, a
sprinkling of cross-community papers that make the graph globally
expander-like, and low-degree stringy fringes). See DESIGN.md §2 for the
substitution argument.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_rng, check_int, check_positive, check_probability
from repro.graph.build import from_edges


def is_bipartite(graph):
    """Check 2-colorability by BFS; returns ``(flag, coloring_or_None)``."""
    n = graph.num_nodes
    color = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(int(v))
                elif color[v] == color[u]:
                    return False, None
    return True, color


def project_left(graph, num_left):
    """One-mode projection of a bipartite graph onto its left nodes.

    Two left nodes are joined with weight equal to the number of common right
    neighbors (e.g. two authors joined by their number of coauthored papers).
    """
    num_left = check_int(num_left, "num_left", minimum=1,
                         maximum=graph.num_nodes)
    pair_weights = {}
    for right in range(num_left, graph.num_nodes):
        members = [int(v) for v in graph.neighbors(right) if v < num_left]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                key = (u, v) if u < v else (v, u)
                pair_weights[key] = pair_weights.get(key, 0.0) + 1.0
    edges = list(pair_weights.keys())
    weights = [pair_weights[e] for e in edges]
    return from_edges(num_left, edges, weights)


def community_bipartite_graph(
    num_authors,
    num_papers,
    num_communities,
    seed=None,
    *,
    authors_per_paper_mean=3.0,
    crossover_probability=0.05,
    productivity_exponent=1.2,
    multi_membership_probability=0.15,
):
    """Synthetic author-to-paper bipartite network with planted communities.

    The generative story mirrors DBLP: authors belong to one (occasionally
    two) research communities; each paper is born in a community and draws
    its author list from that community with probability proportional to a
    power-law "productivity" weight, except that with probability
    ``crossover_probability`` an author slot is filled from the whole
    population (interdisciplinary collaborations — these supply the global
    expander-like mixing). Author counts per paper are ``1 + Poisson``
    distributed, so single-author papers create low-degree fringe.

    Parameters
    ----------
    num_authors, num_papers, num_communities:
        Sizes of the three populations.
    seed:
        RNG seed.
    authors_per_paper_mean:
        Mean of the ``1 + Poisson`` author-count distribution.
    crossover_probability:
        Probability that an author slot ignores the paper's community.
    productivity_exponent:
        Pareto tail exponent for author productivity (smaller = heavier).
    multi_membership_probability:
        Probability an author belongs to a second community.

    Returns
    -------
    graph:
        Bipartite graph; authors are ``0 .. num_authors-1``, papers are
        ``num_authors .. num_authors+num_papers-1``.
    author_communities:
        List of frozensets of community ids per author.
    paper_communities:
        ``(num_papers,)`` int array of the community each paper was born in.
    """
    num_authors = check_int(num_authors, "num_authors", minimum=2)
    num_papers = check_int(num_papers, "num_papers", minimum=1)
    num_communities = check_int(num_communities, "num_communities", minimum=1)
    check_positive(authors_per_paper_mean, "authors_per_paper_mean")
    check_probability(
        crossover_probability, "crossover_probability", inclusive_low=True
    )
    check_positive(productivity_exponent, "productivity_exponent")
    check_probability(
        multi_membership_probability,
        "multi_membership_probability",
        inclusive_low=True,
    )
    rng = as_rng(seed)

    primary = rng.integers(num_communities, size=num_authors)
    author_communities = []
    for a in range(num_authors):
        comms = {int(primary[a])}
        if num_communities > 1 and rng.random() < multi_membership_probability:
            comms.add(int(rng.integers(num_communities)))
        author_communities.append(frozenset(comms))

    productivity = rng.pareto(productivity_exponent, size=num_authors) + 1.0
    members = [[] for _ in range(num_communities)]
    member_weights = [[] for _ in range(num_communities)]
    for a, comms in enumerate(author_communities):
        for c in comms:
            members[c].append(a)
            member_weights[c].append(productivity[a])
    members = [np.asarray(m, dtype=np.int64) for m in members]
    member_probs = []
    for weights in member_weights:
        arr = np.asarray(weights, dtype=float)
        member_probs.append(arr / arr.sum() if arr.size else arr)
    global_probs = productivity / productivity.sum()

    paper_communities = rng.integers(num_communities, size=num_papers)
    edges = []
    for p in range(num_papers):
        community = int(paper_communities[p])
        count = 1 + int(rng.poisson(max(authors_per_paper_mean - 1.0, 0.0)))
        chosen = set()
        guard = 0
        while len(chosen) < count and guard < 20 * count:
            guard += 1
            if (
                members[community].size == 0
                or rng.random() < crossover_probability
            ):
                author = int(rng.choice(num_authors, p=global_probs))
            else:
                author = int(
                    rng.choice(members[community], p=member_probs[community])
                )
            chosen.add(author)
        for author in chosen:
            edges.append((author, num_authors + p))
    graph = from_edges(num_authors + num_papers, edges)
    return graph, author_communities, paper_communities
