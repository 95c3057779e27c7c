"""Exception types shared across the package.

Each class carries the exit code the CLI gives it as `exit_code`: 2 for
GraphParseError (and for a bare ValueError), 3 for the structural rejections
NotBipartiteError, NotCompleteBipartiteError, NotConnectedError,
NotChainedError and SpecInvalidError, 4 for SizeCapExceededError, and 5 for
ConstructionInvariantViolatedError, a bug rather than bad input, which the CLI
reports as an internal error.
"""

from __future__ import annotations

__all__ = [
    "GraphParseError",
    "NotBipartiteError",
    "NotCompleteBipartiteError",
    "NotConnectedError",
    "NotChainedError",
    "SpecInvalidError",
    "SizeCapExceededError",
    "ConstructionInvariantViolatedError",
]


class GraphParseError(ValueError):
    """Malformed text input (edge list, ordering, or chain spec)."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotBipartiteError(Exception):
    """The graph admits no two-coloring; carries one witness odd cycle."""

    exit_code = 3

    def __init__(self, cycle: list[str]):
        super().__init__(f"graph is not bipartite; odd cycle: {' '.join(cycle)}")
        self.cycle = list(cycle)


class NotCompleteBipartiteError(Exception):
    """A complete bipartite graph was required but not provided."""

    exit_code = 3


class NotConnectedError(Exception):
    """A connected graph was required but not provided."""

    exit_code = 3


class NotChainedError(Exception):
    """The graph is not a chained complete bipartite graph."""

    exit_code = 3

    def __init__(self, reason: str):
        super().__init__(f"not a chained complete bipartite graph: {reason}")
        self.reason = reason


class SpecInvalidError(Exception):
    """A chain spec violates the size or overlap-placement constraints."""

    exit_code = 3


class SizeCapExceededError(Exception):
    """Exact search refused: the instance exceeds the vertex cap or its
    table would exceed the state cap."""

    exit_code = 4


class ConstructionInvariantViolatedError(Exception):
    """Internal failure: a constructed ordering failed its post-validation."""

    exit_code = 5
    label = "internal error"  # what the CLI prints before the message, not "error"
