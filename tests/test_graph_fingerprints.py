"""Pinned content hashes of generated graphs.

Benchmark inputs and memo keys are keyed by :func:`graph_fingerprint`, so
every generator must keep producing the same CSR bytes from the same seed
(same RNG draw order, same dedup, same row order).  A change to the graph
builders or the generators that moves any of these hashes changes every
downstream result and must be deliberate.
"""

from __future__ import annotations

import pytest

from repro.datasets import lfr_graph, load_graph, rmat_graph
from repro.ncp.runner import graph_fingerprint

PINNED = {
    "atp-0": (
        lambda: load_graph("atp", 0),
        "f63ee96a8442727ab17ce749b5a062a0547b483a6f355e221bd6f892145c4f61",
    ),
    "rmat-13-seed0": (
        lambda: rmat_graph(13, seed=0),
        "9b5ca7563300ee46ba568ce786fde09f8c73b1e881b5a24bab5cbdf460089cb3",
    ),
    "rmat-15-seed1-all": (
        lambda: rmat_graph(15, seed=1, keep="all"),
        "510847a48c47ddccf2fe5fe935e0356022adef8bd2cd49d80e51cb2fc8493f9b",
    ),
    "lfr-3000-seed0": (
        lambda: lfr_graph(3000, seed=0),
        "5732fa6c91a2b2034a20e137cb1b2aad8fde03f87f0c42013bf12fe802e23ab7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_graph_fingerprint_is_pinned(name):
    build, expected = PINNED[name]
    assert graph_fingerprint(build()) == expected
