"""Exception hierarchy for the ``repro`` library.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class. Subclasses are split by the layer that raises
them (graph construction, numerical algorithms, partitioning, experiments) so
that tests and downstream users can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or malformed graph inputs."""


class EmptyGraphError(GraphError):
    """Raised when an operation requires a non-empty graph."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph."""


class ConvergenceError(ReproError):
    """Raised when an iterative numerical method fails to converge.

    Attributes
    ----------
    iterations:
        Number of iterations completed before giving up.
    residual:
        Final residual norm (or ``None`` when not applicable).
    """

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InvalidParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter is outside its valid range."""


class PartitionError(ReproError):
    """Raised for invalid partitions (empty side, out-of-range nodes, ...)."""


class FlowError(ReproError):
    """Raised for malformed flow networks or flow-algorithm failures."""
