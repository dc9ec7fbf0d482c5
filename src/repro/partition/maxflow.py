"""Maximum s–t flow (Dinic's algorithm) and minimum cuts, from scratch.

The flow-based side of the paper's Section 3.2 needs exact max-flow/min-cut
as a primitive: MQI solves a sequence of s–t max-flow problems, and the
max-flow = min-cut duality is one of the "embedding theorems and duality"
tools (Section 2.2) that give flow methods their O(log n) guarantees.

Dinic's algorithm: repeatedly build a BFS level graph and saturate it with
blocking flows found by DFS with iterator pointers. Complexity ``O(V^2 E)``
in general; on the unit-ish networks MQI builds it behaves much better.
Capacities are floats; comparisons use a relative tolerance.

MQI does not run here on integer-weighted graphs.  It divides each
side's network by ``gcd(cut, vol)``, so every capacity is an exact
integer, and solves the networks of many sides at once, as blocks of one
union network, with scipy's compiled Dinic; a side stops when the flow
on its source arcs equals its scaled ``cut · vol``, with no tolerance.
It reads the improved set off the nodes reachable from the source in the
residual graph: the minimal min-cut source side, identical for every
maximum flow, so both solvers give the same set.  :class:`FlowNetwork`
is the per-side fallback for a side with a non-integer weight or a
capacity above ``2**31 - 1`` (scipy's int32 capacities would wrap), and
the oracle the compiled waves are tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro._validation import check_int
from repro.exceptions import FlowError

_EPS = 1e-9


class FlowNetwork:
    """A directed flow network with residual bookkeeping.

    Arcs are stored in pairs: arc ``2k`` is the forward arc, arc ``2k+1`` its
    residual reverse. Use :meth:`add_edge` to build, :meth:`max_flow` to
    solve.
    """

    def __init__(self, num_nodes):
        self.num_nodes = check_int(num_nodes, "num_nodes", minimum=2)
        self._heads = []
        self._capacities = []
        self._adjacency = [[] for _ in range(num_nodes)]

    def add_edge(self, tail, head, capacity, *, reverse_capacity=0.0):
        """Add a directed arc ``tail → head`` with the given capacity.

        ``reverse_capacity`` lets callers add an undirected edge (equal
        capacity both ways) in one call.
        """
        if not 0 <= tail < self.num_nodes or not 0 <= head < self.num_nodes:
            raise FlowError(
                f"arc ({tail}, {head}) out of range [0, {self.num_nodes})"
            )
        if capacity < 0 or reverse_capacity < 0:
            raise FlowError("capacities must be nonnegative")
        self._adjacency[tail].append(len(self._heads))
        self._heads.append(head)
        self._capacities.append(float(capacity))
        self._adjacency[head].append(len(self._heads))
        self._heads.append(tail)
        self._capacities.append(float(reverse_capacity))

    @property
    def num_arcs(self):
        return len(self._heads) // 2

    def _bfs_levels(self, source, sink, capacities):
        levels = np.full(self.num_nodes, -1, dtype=np.int64)
        levels[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for arc in self._adjacency[u]:
                v = self._heads[arc]
                if levels[v] < 0 and capacities[arc] > _EPS:
                    levels[v] = levels[u] + 1
                    queue.append(v)
        return levels if levels[sink] >= 0 else None

    def _blocking_flow(self, source, sink, capacities, levels, pointers):
        """Iterative DFS computing one blocking flow in the level graph."""
        total = 0.0
        while True:
            # Find an augmenting path in the level graph.
            path_arcs = []
            u = source
            while u != sink:
                advanced = False
                while pointers[u] < len(self._adjacency[u]):
                    arc = self._adjacency[u][pointers[u]]
                    v = self._heads[arc]
                    if capacities[arc] > _EPS and levels[v] == levels[u] + 1:
                        path_arcs.append(arc)
                        u = v
                        advanced = True
                        break
                    pointers[u] += 1
                if not advanced:
                    if u == source:
                        return total
                    # Dead end: retreat one arc and advance its pointer.
                    dead = path_arcs.pop()
                    u = self._heads[dead ^ 1]
                    pointers[u] += 1
            bottleneck = min(capacities[arc] for arc in path_arcs)
            for arc in path_arcs:
                capacities[arc] -= bottleneck
                capacities[arc ^ 1] += bottleneck
            total += bottleneck
            # Restart the walk from the source (pointers persist).
            u = source

    def max_flow(self, source, sink):
        """Compute the maximum flow value and the residual capacities.

        Returns
        -------
        MaxFlowResult
        """
        source = check_int(source, "source", minimum=0,
                           maximum=self.num_nodes - 1)
        sink = check_int(sink, "sink", minimum=0, maximum=self.num_nodes - 1)
        if source == sink:
            raise FlowError("source and sink must differ")
        residual = np.asarray(self._capacities, dtype=float).copy()
        value = 0.0
        while True:
            levels = self._bfs_levels(source, sink, residual)
            if levels is None:
                break
            pointers = [0] * self.num_nodes
            pushed = self._blocking_flow(
                source, sink, residual, levels, pointers
            )
            if pushed <= _EPS:
                break
            value += pushed
        return MaxFlowResult(
            value=value,
            residual=residual,
            network=self,
            source=source,
            sink=sink,
        )


@dataclass
class MaxFlowResult:
    """Solved max-flow instance.

    Attributes
    ----------
    value:
        The maximum flow value.
    residual:
        Residual capacities per arc (paired forward/backward).
    network, source, sink:
        The instance solved.
    """

    value: float
    residual: np.ndarray
    network: FlowNetwork
    source: int
    sink: int

    def min_cut_source_side(self):
        """Nodes reachable from the source in the residual graph.

        By max-flow/min-cut duality this is the source side of a minimum
        cut.
        """
        seen = np.zeros(self.network.num_nodes, dtype=bool)
        seen[self.source] = True
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for arc in self.network._adjacency[u]:
                v = self.network._heads[arc]
                if not seen[v] and self.residual[arc] > _EPS:
                    seen[v] = True
                    queue.append(v)
        return np.flatnonzero(seen)

    def cut_capacity(self, source_side):
        """Total original capacity crossing from ``source_side`` outward.

        For a correct min cut this equals :attr:`value` (the duality check
        used in tests).
        """
        side = set(int(v) for v in source_side)
        total = 0.0
        original = self.network._capacities
        for u in side:
            for arc in self.network._adjacency[u]:
                v = self.network._heads[arc]
                if v not in side and original[arc] > 0:
                    total += original[arc]
        return total
