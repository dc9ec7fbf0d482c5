"""Known-bad fixture for the no-stringly-dispatch rule (R001)."""

from repro.refine import REFINERS


def pick_strategy(executor, dynamics):
    if executor == "process":       # stringly executor dispatch
        return "pool"
    if dynamics in ("ppr", "hk"):   # stringly dynamics membership
        return "diffusion"
    return REFINERS._entries["mqi"]  # private registry dict access
