"""E9 — Section 3.3: optimization (MOV) vs operational (ACL) local methods.

The paper contrasts the "optimization-based approach" (MOV, Problem (8):
explicit objective, touches all nodes) with the "operational approach"
(ACL push: strongly local, implicit objective). Measured here:

* both recover the planted community from a few seeds with comparable
  conductance (the methods agree on easy instances);
* ACL's touched set is a small fraction of the graph, MOV's is all of it;
* the seed-not-in-own-cluster pathology occurs for ACL with a seed set
  straddling communities (the counterintuitive side-effect of implicit
  regularization the paper warns about).
"""

from __future__ import annotations

import numpy as np

from repro.api import PPR, local_cluster
from repro.core import format_comparison_verdict, format_table
from repro.graph.generators import ring_of_cliques
from repro.graph.random_generators import planted_partition_graph
from repro.partition import mov_cluster


def community_recovery():
    graph = planted_partition_graph(8, 32, 0.3, 0.005, seed=9)
    if not graph.is_connected():
        graph, _ = graph.largest_component()
    rows = []
    rng = np.random.default_rng(1)
    for block in range(4):
        members = np.arange(block * 32, (block + 1) * 32)
        seeds = rng.choice(members, size=3, replace=False)
        cap = 1.6 * float(graph.degrees[members].sum())
        acl = local_cluster(graph, seeds, PPR(alpha=0.05), epsilon=1e-3,
                            max_volume=cap)
        mov = mov_cluster(graph, seeds, gamma_fraction=0.7, max_volume=cap)
        truth = set(members.tolist())
        acl_jaccard = len(set(acl.nodes.tolist()) & truth) / len(
            set(acl.nodes.tolist()) | truth
        )
        mov_jaccard = len(set(mov.nodes.tolist()) & truth) / len(
            set(mov.nodes.tolist()) | truth
        )
        rows.append(
            [block, acl.conductance, mov.conductance, acl_jaccard,
             mov_jaccard, acl.support_size, graph.num_nodes]
        )
    return rows


def pathology_case():
    graph = ring_of_cliques(6, 8)
    seeds = [0, 1, 24]
    result = local_cluster(graph, seeds, PPR(alpha=0.02), epsilon=1e-6,
                           max_volume=70.0)
    stranded = [s for s in seeds if s not in set(result.nodes.tolist())]
    return result, stranded


def test_e9_mov_vs_acl():
    rows, (pathology, stranded) = community_recovery(), pathology_case()
    print()
    print(format_table(
        ["block", "phi ACL", "phi MOV", "Jaccard ACL", "Jaccard MOV",
         "ACL touched", "MOV touched"],
        rows,
        title="E9: planted-community recovery from 3 seeds",
    ))
    recovery_ok = all(r[3] > 0.7 and r[4] > 0.7 for r in rows)
    locality_ok = all(r[5] < r[6] for r in rows)
    pathology_ok = len(stranded) > 0 and pathology.conductance < 0.05
    print()
    print(format_comparison_verdict(
        "both approaches recover planted communities (Jaccard > 0.7)",
        True, recovery_ok,
    ))
    print(format_comparison_verdict(
        "ACL touches fewer nodes than MOV (strong locality)",
        True, locality_ok,
    ))
    print(format_comparison_verdict(
        "seed-not-in-own-cluster pathology exhibited for ACL",
        True, pathology_ok,
    ))
    print(f"  stranded seeds: {stranded}, cluster phi "
          f"{pathology.conductance:.4f}")
    assert recovery_ok and locality_ok and pathology_ok
