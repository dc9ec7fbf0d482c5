"""Internal parameter-validation helpers shared across the library.

These helpers centralize the error messages for common argument checks so the
public modules stay focused on the algorithms themselves. Everything in this
module is private; the public contract is the exceptions raised, which are
documented on each algorithm.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import InvalidParameterError


def check_probability(value, name, *, inclusive_low=False, inclusive_high=False):
    """Validate that ``value`` lies in the (possibly open) interval (0, 1).

    Parameters
    ----------
    value:
        The value to check.
    name:
        Parameter name used in the error message.
    inclusive_low, inclusive_high:
        Whether the corresponding endpoint is allowed.

    Returns
    -------
    float
        The validated value as a float.
    """
    value = check_real(value, name)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[0" if inclusive_low else "(0"
        high = "1]" if inclusive_high else "1)"
        raise InvalidParameterError(
            f"{name} must lie in {low}, {high}; got {value!r}"
        )
    return value


def check_positive(value, name, *, allow_zero=False):
    """Validate that ``value`` is a positive (or nonnegative) real number."""
    value = check_real(value, name)
    if allow_zero:
        if value < 0:
            raise InvalidParameterError(f"{name} must be >= 0; got {value!r}")
    elif value <= 0:
        raise InvalidParameterError(f"{name} must be > 0; got {value!r}")
    return value


def check_real(value, name):
    """Validate that ``value`` is a finite real scalar and return it as float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number; got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite; got {value!r}")
    return value


def check_int(value, name, *, minimum=None, maximum=None):
    """Validate that ``value`` is an integer within optional bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}; got {value}")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(f"{name} must be <= {maximum}; got {value}")
    return value


def check_node(node, n, name="node"):
    """Validate that ``node`` indexes a graph with ``n`` nodes."""
    node = check_int(node, name)
    if not 0 <= node < n:
        raise InvalidParameterError(
            f"{name} must lie in [0, {n}); got {node}"
        )
    return node


def check_vector(vector, n, name="vector"):
    """Validate and convert ``vector`` to a float array of length ``n``."""
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InvalidParameterError(
            f"{name} must be a length-{n} vector; got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must contain only finite values")
    return arr


def as_rng(seed_or_rng):
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh default generator), an integer seed, or an
    existing generator (returned unchanged).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def check_numpy_backend(backend):
    """Accept only the kernel family that exists: ``None`` or ``"numpy"``.

    Every diffusion and sweep has one (numpy) implementation.  Run
    manifests written before that recorded a ``backend`` value, and the
    benchmark's layer re-drive (``perfbench/measure.py``) still passes
    ``backend="numpy"``, so those spellings stay valid; any other value
    names code that no longer exists.
    """
    if backend is not None and backend != "numpy":
        raise InvalidParameterError(
            f"backend {backend!r} is not available: the kernels have one "
            "implementation, 'numpy'"
        )
