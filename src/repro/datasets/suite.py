"""The named graph suite used across tests, examples, and benchmarks.

Each entry pairs a generator with the role it plays in the paper's story:
expanders are flow's worst case, stringy graphs are spectral's worst case,
planted-community graphs have ground truth, and the AtP stand-in is the
Figure 1 workload. Keeping the suite in one place makes every experiment's
workload reproducible by name.
"""

from __future__ import annotations

import difflib
import warnings
from pathlib import Path

from repro.datasets.synthetic_dblp import synthetic_atp_dblp
from repro.exceptions import InvalidParameterError
from repro.graph.generators import (
    barbell_graph,
    grid_graph,
    lollipop_graph,
    roach_graph,
)
from repro.graph.random_generators import (
    planted_partition_graph,
    random_regular_graph,
    whiskered_expander,
)


class UnknownGraphError(InvalidParameterError, KeyError):
    """Raised for a graph name that is not in the suite (nor a file).

    Mirrors :class:`~repro.dynamics.UnknownDynamicsError`: inherits both
    :class:`~repro.exceptions.InvalidParameterError` (hence ``ValueError``)
    and ``KeyError``, so callers that historically caught either style of
    lookup failure keep working.  The message carries a did-you-mean
    suggestion when a suite name is a close match.
    """

    __str__ = Exception.__str__


def _scale_suite():
    """The scale-tier registry, imported lazily (cheap, but keeps the
    reference suite importable even if the scale module grows heavier)."""
    from repro.datasets.scale import SCALE_SUITE

    return SCALE_SUITE


def _unknown_graph(name, *, extra=""):
    """Build the :class:`UnknownGraphError` with a did-you-mean hint."""
    known = suite_names() + sorted(_scale_suite())
    close = difflib.get_close_matches(
        str(name).strip().lower(), known, n=3, cutoff=0.5
    )
    hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
    return UnknownGraphError(
        f"unknown suite graph {name!r}; choose from {known}{extra}{hint}"
    )


def _atp(seed):
    return synthetic_atp_dblp(scale="small", seed=seed).graph


_SUITE = {
    # name: (builder(seed) -> Graph, role)
    "barbell": (
        lambda seed: barbell_graph(16, 2),
        "two dense cores, one planted cut (oracle graph)",
    ),
    "lollipop": (
        lambda seed: lollipop_graph(16, 32),
        "clique + long path: early-stopping and MQI stress input",
    ),
    "roach": (
        lambda seed: roach_graph(16, 16),
        "Guattery–Miller: spectral saturates the Cheeger quadratic",
    ),
    "grid": (
        lambda seed: grid_graph(16, 16),
        "manifold discretization; spectral-friendly geometry",
    ),
    "expander": (
        lambda seed: random_regular_graph(256, 4, seed=seed),
        "constant-degree expander: flow pays O(log n)",
    ),
    "whiskered": (
        lambda seed: whiskered_expander(200, 4, 20, 8, seed=seed),
        "expander core + stringy whiskers: the social-graph cartoon",
    ),
    "planted": (
        lambda seed: planted_partition_graph(8, 32, 0.3, 0.01, seed=seed),
        "planted communities with known conductance scale",
    ),
    "atp": (
        _atp,
        "synthetic AtP-DBLP stand-in (the Figure 1 workload)",
    ),
}


def suite_names():
    """Names of the reference-tier suite graphs.

    Scale-tier names (:func:`repro.datasets.scale.scale_suite_names`) are
    deliberately *not* included: everything here is cheap enough to build
    eagerly (listings, ``load_suite``), which million-edge graphs are not.
    :func:`load_graph`, :func:`describe`, and :func:`load_any_graph` all
    accept names from either tier.
    """
    return sorted(_SUITE)


def load_graph(name, seed=0):
    """Build a suite graph by name (largest component, deterministic).

    Accepts both reference-tier names (``"atp"``, ``"barbell"``, ...) and
    scale-tier names (``"rmat-18"``, ``"lfr-50k"``, ...).
    """
    if name in _SUITE:
        builder, _role = _SUITE[name]
        graph = builder(seed)
        if not graph.is_connected():
            graph, _ = graph.largest_component()
        return graph
    scale_suite = _scale_suite()
    if name in scale_suite:
        return scale_suite[name].build(seed)
    raise _unknown_graph(name)


def describe(name):
    """Human-readable role of a suite graph (either tier)."""
    if name in _SUITE:
        return _SUITE[name][1]
    scale_suite = _scale_suite()
    if name in scale_suite:
        return scale_suite[name].role
    raise _unknown_graph(name)


def load_any_graph(source, *, seed=0):
    """Load a graph from a suite name *or* an external graph file.

    The bridge between the named suite and :mod:`repro.graph.io`, so every
    workload entry point (notably the ``python -m repro`` CLI) accepts
    arbitrary user-supplied graphs with the same one-argument vocabulary:

    * a suite name — reference tier (``"atp"``, ``"barbell"``, ...) or
      scale tier (``"rmat-18"``, ``"lfr-50k"``, ...) — builds that graph
      via :func:`load_graph` (``seed`` feeds the generator);
    * a path to an existing ``.reprograph`` binary file is memory-mapped
      via :func:`repro.graph.storage.read_binary` (zero-copy; pages
      fault in as algorithms touch them);
    * a path to an existing ``.json`` file reads
      :func:`repro.graph.io.read_json` output;
    * any other existing path is parsed as an edge-list text file
      (``u<TAB>v[<TAB>weight]``, ``#`` comments) via
      :func:`repro.graph.io.read_edge_list`.

    External graphs get the same normalization the suite applies: if the
    file's graph is disconnected, the largest connected component is
    returned (computed with the vectorized scale-tier helpers, so this
    stays cheap even for multi-million-edge files).  Because the
    component's nodes are **relabeled** to a compact ``0..n-1`` range,
    any node ids from the original file (e.g. explicit ``repro cluster
    --seeds`` ids) no longer apply; a ``UserWarning`` reporting the
    dropped node count flags this loudly instead of letting ids shift
    silently.

    Raises
    ------
    UnknownGraphError
        If ``source`` is neither a suite name nor an existing file.  The
        message distinguishes a path that looks like a file but does not
        exist from a misspelled suite name (which gets a did-you-mean
        suggestion).
    """
    name = str(source)
    if name in _SUITE or name in _scale_suite():
        return load_graph(name, seed=seed)
    path = Path(name)
    if path.is_file():
        from repro.graph.build import (
            connected_component_labels,
            largest_component_fast,
        )
        from repro.graph.io import read_edge_list, read_json
        from repro.graph.storage import BINARY_SUFFIX, read_binary

        suffix = path.suffix.lower()
        if suffix == BINARY_SUFFIX:
            reader = read_binary
        elif suffix == ".json":
            reader = read_json
        else:
            reader = read_edge_list
        graph = reader(path)
        _labels, component_count = connected_component_labels(graph)
        if graph.num_nodes and component_count > 1:
            full_size = graph.num_nodes
            graph, _original_ids = largest_component_fast(graph)
            warnings.warn(
                f"graph file {name!r} is disconnected: kept the largest "
                f"component ({graph.num_nodes} of {full_size} nodes) and "
                f"relabeled its nodes to 0..{graph.num_nodes - 1}; node "
                f"ids from the file (e.g. --seeds) no longer apply",
                UserWarning,
                stacklevel=2,
            )
        return graph
    looks_like_path = path.suffix != "" or any(
        sep in name for sep in ("/", "\\")
    )
    if looks_like_path:
        raise UnknownGraphError(
            f"graph file {name!r} does not exist (and it is not a suite "
            f"name; those are {suite_names()})"
        )
    raise _unknown_graph(name, extra=" or pass a path to an edge-list file")


def load_suite(seed=0, *, names=None):
    """Build several suite graphs; returns ``{name: graph}``."""
    chosen = suite_names() if names is None else list(names)
    return {name: load_graph(name, seed=seed) for name in chosen}
