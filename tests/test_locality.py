"""Section 3.3 on the shipped path: the diffusion columns are strongly local.

The paper says push's running time "depends on the size of the output and
is independent even of the number of nodes in the graph".  This gate holds
the NCP pipeline's diffusion entry point (``spec.support_columns``, which
drives ``batch_ppr_push`` and ``batch_hk_push``) to that claim without any
timing: it pads rmat-13's largest component with a disjoint cycle, which
cannot change any column, and requires

* every column's positive ``(rows, values)`` to equal the unpadded run's
  bit for bit, and
* the tracemalloc peak of draining the columns to grow by at most
  ``MAX_BYTES_PER_PADDED_NODE`` per added node.  That allows a couple of
  uninitialized length-``n`` index maps and nothing else: a dense
  ``(n, B)`` state or a length-``n`` seed vector per column breaks it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets.scale import rmat_graph
from repro.dynamics import PPR, HeatKernel
from repro.graph.build import union_disjoint
from repro.graph.generators import cycle_graph

MAX_BYTES_PER_PADDED_NODE = 32
PADDINGS = (2**17, 2**19)
CASES = {
    "ppr": (PPR(alpha=0.1), (1e-3,)),
    "hk": (HeatKernel(), HeatKernel.default_epsilons),
}


@pytest.fixture(scope="module")
def base_graph():
    return rmat_graph(13, seed=0)


@pytest.fixture(scope="module")
def seed_nodes(base_graph):
    rng = np.random.default_rng(0)
    picks = rng.choice(base_graph.num_nodes, size=8, replace=False)
    return [int(u) for u in picks]


@pytest.fixture(scope="module", params=PADDINGS, ids=lambda m: f"pad{m}")
def padded_graph(request, base_graph):
    return union_disjoint(base_graph, cycle_graph(request.param))


def drain(graph, spec, seed_nodes, epsilons):
    """Every column's positive ``(rows, values)`` and the traced peak."""
    tracemalloc.start()
    try:
        columns = []
        for rows, values in spec.support_columns(
            graph, seed_nodes, epsilons=epsilons
        ):
            positive = values > 0
            columns.append((rows[positive], values[positive]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return columns, peak


@pytest.mark.parametrize("case", sorted(CASES))
def test_padding_changes_no_column_and_costs_no_dense_state(
        case, base_graph, padded_graph, seed_nodes):
    spec, epsilons = CASES[case]
    want, base_peak = drain(base_graph, spec, seed_nodes, epsilons)
    got, padded_peak = drain(padded_graph, spec, seed_nodes, epsilons)

    assert len(got) == len(want) == len(seed_nodes) * spec.grid_size(
        epsilons
    )
    for (rows, values), (want_rows, want_values) in zip(got, want):
        assert rows.tobytes() == want_rows.astype(rows.dtype).tobytes()
        assert values.tobytes() == want_values.tobytes()

    added = padded_graph.num_nodes - base_graph.num_nodes
    per_node = (padded_peak - base_peak) / added
    assert per_node <= MAX_BYTES_PER_PADDED_NODE, (
        f"{case}: traced peak {base_peak} B at n={base_graph.num_nodes}, "
        f"{padded_peak} B at n={padded_graph.num_nodes} "
        f"({per_node:.1f} B per padded node)"
    )
