"""In-memory span recorder for the benchmark's traced run.

A span is a name, a start and end time, the span that contained it, and
free-form attributes.  Spans stay in memory and are written out once, at
the end of the run, so recording costs one clock read and one dict per
boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _descendants(self, root_id):
        inside = {root_id}
        for record in self.spans[root_id + 1:]:
            if record["parent"] in inside:
                inside.add(record["id"])
        return inside

    def total(self, name, within):
        """Summed duration of the spans called ``name`` inside ``within``."""
        inside = self._descendants(within["id"])
        return sum(
            (record["end"] - record["start"]
             for record in self.spans
             if record["name"] == name and record["id"] in inside),
            0.0,
        )

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
