"""Known-good fixture for the no-stringly-dispatch rule (R001)."""


def pick_kernel(backend, dynamics, get_backend, resolve_dynamics_name):
    resolved = get_backend(backend)
    if resolved is get_backend("scalar"):
        return "loop"
    key = resolve_dynamics_name(dynamics)
    # Comparing to non-registry vocabulary is not dispatch.
    if key == "something-else":
        return None
    # Asserting a concrete registry name is a test, not dispatch.
    assert dynamics == "ppr"
    return resolved
