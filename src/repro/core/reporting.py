"""Plain-text reporting: the tables and series every benchmark prints.

The benchmark harness regenerates the paper's figure panels as aligned ASCII
tables (series of Y values over log-spaced X buckets), so "who wins, by
roughly what factor, where crossovers fall" is readable directly from the
``pytest benchmarks/`` output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.exceptions import InvalidParameterError


def jsonable(value):
    """Coerce nested values (numpy scalars/arrays, tuples, paths) to JSON.

    The one JSON-coercion helper shared by every serializer in the
    library (experiment records, run manifests, the CLI); dicts, lists,
    and tuples recurse, numpy scalars and arrays become plain Python
    numbers and lists, anything else unknown falls back to ``str``.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # tolist() on a 0-d array returns a bare scalar, so recurse on
        # the result instead of iterating it.
        return jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


def format_value(value, *, precision=4):
    """Format one cell: floats compactly, NaN/inf visibly, rest via str."""
    if isinstance(value, float):
        if math.isnan(value):
            return "--"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    if isinstance(value, (np.floating,)):
        return format_value(float(value), precision=precision)
    return str(value)


def format_table(headers, rows, *, title=None, precision=4):
    """Render an aligned ASCII table as a single string."""
    cells = [[format_value(v, precision=precision) for v in row]
             for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers, rows, *, precision=4, align=None):
    """Render a GitHub-flavored markdown table as a single string.

    Parameters
    ----------
    headers:
        Column headers.
    rows:
        Row values; cells are formatted with :func:`format_value`.
    precision:
        Float precision passed to :func:`format_value`.
    align:
        Optional per-column alignment string of ``"l"``/``"r"``/``"c"``
        characters (defaults to left for every column).
    """
    cells = [[format_value(v, precision=precision) for v in row]
             for row in rows]
    headers = [str(h) for h in headers]
    markers = {"l": "---", "r": "--:", "c": ":-:"}
    if align is None:
        align = "l" * len(headers)
    if len(align) != len(headers) or any(a not in markers for a in align):
        raise InvalidParameterError(
            f"align must be one of {sorted(markers)} per column "
            f"({len(headers)} columns); got {align!r}"
        )
    rules = [markers[a] for a in align]
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join(rules) + " |"]
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def format_comparison_verdict(description, expected, observed):
    """One-line PASS/FAIL verdict for a qualitative shape claim."""
    status = "PASS" if expected == observed else "FAIL"
    return f"[{status}] {description}: expected {expected}, observed {observed}"
