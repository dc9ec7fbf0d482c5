"""Known-bad fixture for the no-stringly-dispatch rule (R001)."""

_REGISTRY = {}


def pick_strategy(executor, dynamics):
    if executor == "process":       # stringly executor dispatch
        return "pool"
    if dynamics in ("ppr", "hk"):   # stringly dynamics membership
        return "diffusion"
    return _REGISTRY["serial"]      # private registry dict access
