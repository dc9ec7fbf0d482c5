"""Known-good fixture for the no-stringly-dispatch rule (R001)."""


def pick_strategy(executor, dynamics, get_executor, resolve_dynamics_name):
    resolved = get_executor(executor)
    if resolved is get_executor("process"):
        return "pool"
    key = resolve_dynamics_name(dynamics)
    # Comparing to non-registry vocabulary is not dispatch.
    if key == "something-else":
        return None
    # Asserting a concrete registry name is a test, not dispatch.
    assert dynamics == "ppr"
    return resolved
