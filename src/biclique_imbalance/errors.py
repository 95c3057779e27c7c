"""Exception types shared across the package.

The CLI maps these onto its exit codes, so structural rejections are kept
distinct from plain input/usage errors (which are ValueError subclasses or
bare ValueError).
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

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotBipartiteError(Exception):
    """The graph admits no two-coloring; carries one witness odd cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__(f"graph is not bipartite; odd cycle: {' '.join(cycle)}")
        self.cycle = list(cycle)


class NotCompleteBipartiteError(Exception):
    """A complete bipartite graph was required but not provided."""


class NotConnectedError(Exception):
    """A connected graph was required but not provided."""


class NotChainedError(Exception):
    """The graph is not a chained complete bipartite graph."""

    def __init__(self, reason: str):
        super().__init__(f"not a chained complete bipartite graph: {reason}")
        self.reason = reason


class SpecInvalidError(Exception):
    """A chain spec violates the size or overlap-placement constraints."""


class SizeCapExceededError(Exception):
    """Exact search refused: the instance exceeds the vertex cap or its
    table would exceed the state cap."""


class ConstructionInvariantViolatedError(Exception):
    """Internal failure: a constructed ordering failed its post-validation.

    This is never silent; it indicates a bug rather than bad input.
    """
