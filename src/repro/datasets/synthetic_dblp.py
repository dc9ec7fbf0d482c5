"""The AtP-DBLP stand-in dataset.

The paper's Figure 1 uses *AtP-DBLP*, the bipartite author-to-paper network
of DBLP [27, 28]. That snapshot is not distributable here, so this module
generates a synthetic network with the structural features Figure 1 depends
on (see DESIGN.md §2 for the substitution argument):

* power-law author productivity and paper sizes (heavy-tailed degrees),
* planted research communities at a range of scales (good small
  conductance clusters in the 10^1–10^3 node range),
* cross-community collaborations making the graph expander-like at large
  scales (no good large cuts),
* single-author papers and one-paper authors forming low-degree whiskers.

:func:`synthetic_atp_dblp` returns the largest connected component of the
bipartite graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_int
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import community_bipartite_graph


class UnknownScaleError(InvalidParameterError, KeyError):
    """Raised for a dataset scale name that is not in ``_SCALES``.

    Dual-inheritance like the registry errors: historically this path
    raised ``KeyError``, and parameter validation raises ``ValueError``
    (via :class:`~repro.exceptions.InvalidParameterError`) — callers
    catching either style keep working.
    """

    __str__ = Exception.__str__


def _unknown_scale(scale):
    return UnknownScaleError(
        f"unknown scale {scale!r}; choose from {sorted(_SCALES)}"
    )


@dataclass
class AtPDataset:
    """A generated author-to-paper dataset.

    Attributes
    ----------
    graph:
        The largest connected component of the bipartite AtP graph.
    original_ids:
        Map from the component's node ids back to the generator's ids
        (authors first, then papers).
    num_authors:
        Author count in the *generator* id space.
    author_communities:
        Community memberships per author (generator ids).
    paper_communities:
        Community id per paper (generator ids).
    """

    graph: object
    original_ids: np.ndarray
    num_authors: int
    author_communities: list
    paper_communities: np.ndarray

    def community_members(self, community):
        """Component node ids of the authors in a community."""
        wanted = {
            a for a, comms in enumerate(self.author_communities)
            if community in comms
        }
        members = [
            new_id for new_id, old_id in enumerate(self.original_ids)
            if int(old_id) < self.num_authors and int(old_id) in wanted
        ]
        return np.asarray(members, dtype=np.int64)


_SCALES = {
    "tiny": (120, 260, 6),
    "small": (400, 900, 12),
    "medium": (1200, 2600, 25),
    "large": (3000, 7000, 45),
}


def attach_whisker_chains(graph, num_chains, chain_length, seed=0):
    """Attach path "whisker" chains to low-degree nodes of a graph.

    Real DBLP's AtP graph carries a large sparse periphery (long chains of
    single-author papers and one-paper authors) that the core generative
    model underproduces; Figure 1's flow-side behaviour (MQI assembling
    stringy low-conductance pieces) depends on it. Anchors are sampled with
    probability proportional to ``1/degree`` so chains hang off the fringe,
    as in the real network.

    Returns a new graph with ``num_chains * chain_length`` extra nodes.
    """
    from repro._validation import as_rng, check_int
    from repro.graph.build import from_edges

    num_chains = check_int(num_chains, "num_chains", minimum=0)
    chain_length = check_int(chain_length, "chain_length", minimum=1)
    if num_chains == 0:
        return graph
    rng = as_rng(seed)
    us, vs, _ws = graph.edge_array()
    edges = list(zip(us.tolist(), vs.tolist()))
    n = graph.num_nodes
    inverse_degree = 1.0 / np.maximum(graph.degrees, 1e-12)
    anchors = rng.choice(
        n, size=min(num_chains, n), replace=False,
        p=inverse_degree / inverse_degree.sum(),
    )
    for anchor in anchors:
        chain = [int(anchor)] + list(range(n, n + chain_length))
        edges.extend(zip(chain[:-1], chain[1:]))
        n += chain_length
    return from_edges(n, edges)


def synthetic_atp_dblp(scale="small", seed=0, *, whisker_chains=0,
                       whisker_length=4, **overrides):
    """Generate the AtP-DBLP stand-in at a named scale.

    Parameters
    ----------
    scale:
        One of ``"tiny"``, ``"small"``, ``"medium"``, ``"large"`` —
        (authors, papers, communities) presets; or pass explicit
        ``num_authors``/``num_papers``/``num_communities`` overrides.
    seed:
        RNG seed (the dataset is deterministic given the seed).
    whisker_chains, whisker_length:
        Number and length of peripheral whisker chains attached after
        generation (see :func:`attach_whisker_chains`); the Figure 1
        benchmarks enable these to match DBLP's sparse periphery. Whisker
        nodes carry no community metadata (their generator ids are past
        the author/paper ranges).
    overrides:
        Forwarded to
        :func:`repro.graph.bipartite.community_bipartite_graph`.

    Returns
    -------
    AtPDataset
    """
    if scale not in _SCALES:
        raise _unknown_scale(scale)
    num_authors, num_papers, num_communities = _SCALES[scale]
    num_authors = check_int(
        overrides.pop("num_authors", num_authors), "num_authors", minimum=2
    )
    num_papers = check_int(
        overrides.pop("num_papers", num_papers), "num_papers", minimum=1
    )
    num_communities = check_int(
        overrides.pop("num_communities", num_communities),
        "num_communities", minimum=1,
    )
    graph, author_communities, paper_communities = community_bipartite_graph(
        num_authors, num_papers, num_communities, seed=seed, **overrides
    )
    if whisker_chains:
        graph = attach_whisker_chains(
            graph, whisker_chains, whisker_length, seed=seed + 1
        )
    component, original_ids = graph.largest_component()
    return AtPDataset(
        graph=component,
        original_ids=original_ids,
        num_authors=num_authors,
        author_communities=author_communities,
        paper_communities=paper_communities,
    )
