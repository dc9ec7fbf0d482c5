"""Known-bad fixture for the no-stringly-dispatch rule (R001)."""

from repro.execution.registry import EXECUTORS


def pick_strategy(executor, dynamics):
    if executor == "process":       # stringly executor dispatch
        return "pool"
    if dynamics in ("ppr", "hk"):   # stringly dynamics membership
        return "diffusion"
    return EXECUTORS._entries["serial"]  # private registry dict access
