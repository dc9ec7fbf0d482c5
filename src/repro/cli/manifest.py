"""Run manifests: the JSON replay record every CLI run writes.

Every ``python -m repro`` subcommand that produces output files writes a
``manifest.json`` next to them, holding everything needed to reproduce
the result byte for byte:

* the **resolved arguments** — graph source, dynamics spec strings, seed,
  seed count, epsilons, backend — plus a ready-made ``replay_argv`` token
  list that omits execution-only flags (``--out``, ``--workers``,
  ``--cache-dir``), since those may vary without changing the result;
* the **graph record** — suite name or file path, node/edge counts, and
  the :func:`~repro.ncp.runner.graph_fingerprint` CSR-bytes hash scoping
  the result to the exact graph;
* the **execution facts** — package version, worker count, wall time,
  cache hits — which document the run without participating in replay;
* the **outputs** — the files written, relative to the manifest.

``repro ncp``'s manifest embeds one
:meth:`~repro.ncp.runner.NCPRunResult.manifest` record per dynamics, so
the exact seed nodes, chunking, executor, and per-chunk completion of
each ensemble are on disk too.  ``ncp`` also writes the manifest twice:
once with ``"status": "started"`` before the first chunk runs and again
with ``"status": "complete"`` at the end — the started copy is what
``repro ncp --resume`` rebuilds an interrupted run from.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.reporting import jsonable
from repro.datasets.suite import suite_names
from repro.exceptions import InvalidParameterError
from repro.ncp.runner import graph_fingerprint

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "check_manifest",
    "graph_record",
    "jsonable",
    "load_manifest",
    "write_manifest",
]

#: Schema identifier stamped into (and required of) every manifest.
MANIFEST_SCHEMA = "repro.cli/run-manifest/v1"

#: File name the manifest is written under, next to the run's outputs.
MANIFEST_NAME = "manifest.json"

# Keys every valid manifest must carry (see check_manifest).
_REQUIRED_KEYS = (
    "schema",
    "command",
    "repro_version",
    "arguments",
    "replay_argv",
    "graph",
    "outputs",
    "wall_seconds",
)


def _package_version():
    """The installed ``repro`` version (imported lazily to avoid cycles)."""
    import repro

    return getattr(repro, "__version__", "unknown")


def graph_record(graph, *, source, graph_seed=0):
    """Describe a loaded graph for the manifest.

    Records whether ``source`` was a suite name or an external file, the
    CSR-bytes fingerprint, and the basic counts, so a replay can verify
    it is diffusing on the same graph before trusting byte-level
    comparisons.
    """
    name = str(source)
    is_suite = name in suite_names()
    record = {
        "source": name,
        "kind": "suite" if is_suite else "file",
        "fingerprint": graph_fingerprint(graph),
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
    }
    if is_suite:
        record["graph_seed"] = int(graph_seed)
    else:
        record["path"] = str(Path(name).resolve())
    return record


def build_manifest(command, *, arguments, replay_argv, graph, outputs,
                   wall_seconds, **extra):
    """Assemble a manifest dict (see the module docstring for the shape).

    ``extra`` key/value pairs (e.g. ``runs=[...]`` for ``ncp``,
    ``result={...}`` for ``cluster``) are merged at the top level after
    being made JSON-able.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": str(command),
        "repro_version": _package_version(),
        "arguments": jsonable(arguments),
        "replay_argv": [str(token) for token in replay_argv],
        "graph": jsonable(graph),
        "outputs": [str(o) for o in outputs],
        "wall_seconds": float(wall_seconds),
    }
    for key, value in extra.items():
        manifest[key] = jsonable(value)
    return check_manifest(manifest)


def check_manifest(manifest):
    """Validate the manifest shape; returns it unchanged.

    Raised errors are :class:`~repro.exceptions.InvalidParameterError`,
    so both the writer (a CLI bug) and a reader handed a foreign JSON
    file fail with the library's own exception style.
    """
    if not isinstance(manifest, dict):
        raise InvalidParameterError(
            f"manifest must be a JSON object; got {type(manifest).__name__}"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in manifest]
    if missing:
        raise InvalidParameterError(f"manifest is missing keys: {missing}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise InvalidParameterError(
            f"unsupported manifest schema {manifest['schema']!r}; "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    return manifest


def write_manifest(directory, manifest, *, name=MANIFEST_NAME):
    """Write the manifest into ``directory``; returns the path.

    ``name`` overrides the file name for commands whose output is a
    single file in a shared directory (``datasets --export`` writes
    ``<file>.manifest.json`` so it can never clobber another run's
    ``manifest.json``).
    """
    path = Path(directory) / name
    path.write_text(
        json.dumps(check_manifest(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path):
    """Read and validate a manifest from a file or its directory."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    return check_manifest(json.loads(path.read_text(encoding="utf-8")))
