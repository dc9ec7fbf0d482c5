"""Known-bad fixture for the no-stringly-dispatch rule (R001)."""

_REGISTRY = {}


def pick_kernel(backend, dynamics):
    if backend == "scalar":         # stringly backend dispatch
        return "loop"
    if dynamics in ("ppr", "hk"):   # stringly dynamics membership
        return "diffusion"
    return _REGISTRY["numpy"]       # private registry dict access
