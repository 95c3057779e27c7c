"""Ground-truth exact minimum imbalance of small graphs, by dynamic programming.

A vertex's imbalance depends only on which of its neighbors are placed before
it, so an ordering is a path from the empty vertex set to the full one that
adds one vertex per step, and the step that adds v after the set S costs
|2*|N(v) & S| - deg(v)|. One cost-to-go table over all 2^n vertex subsets
(Bodlaender, Fomin, Koster, Kratsch and Thilikos, "A note on exact algorithms
for vertex ordering problems on graphs", Theory Comput. Syst. 2012) gives the
minimum; the optimal orderings are exactly the paths that take only tight
steps, those whose cost plus the cost-to-go after them equals the cost-to-go
before them. Walking tight steps in sorted vertex order yields the
lexicographically smallest witness first. Time grows as 2^n * n and memory as
2^n, so the vertex cap bounds both.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .errors import SizeCapExceededError
from .graph import Graph, Ordering

__all__ = ["OracleResult", "brute_force_min", "enumerate_optima", "DEFAULT_CAP"]

DEFAULT_CAP = 10


@dataclass(frozen=True)
class OracleResult:
    minimum: int
    witness: Ordering
    optima_count: int | None = None


class _CostToGo:
    """The cost-to-go table of one graph, over vertex subsets as bitmasks.

    Bit i stands for the i-th vertex in sorted order. rest[mask] is the least
    total imbalance of the vertices outside mask when they are placed, in
    some order, after the vertices in mask; rest[full] is 0.
    """

    def __init__(self, g: Graph, cap: int):
        if g.vertex_count > cap:
            raise SizeCapExceededError(
                f"{g.vertex_count} vertices exceeds the search cap of {cap}"
            )
        self.verts = sorted(g.vertices)
        index = {v: i for i, v in enumerate(self.verts)}
        self.adj = [sum(1 << index[u] for u in g.neighbors(v)) for v in self.verts]
        self.deg = [g.degree(v) for v in self.verts]
        self.full = (1 << len(self.verts)) - 1
        rest = array("q", [0]) * (self.full + 1)
        for mask in range(self.full - 1, -1, -1):
            rest[mask] = min(cost + rest[nxt] for _, nxt, cost in self._steps(mask))
        self.rest = rest

    def _steps(self, mask: int) -> Iterator[tuple[int, int, int]]:
        """(vertex index, next mask, cost) of each step from mask, in index order."""
        for i, nb in enumerate(self.adj):
            bit = 1 << i
            if not mask & bit:
                yield i, mask | bit, abs(2 * (nb & mask).bit_count() - self.deg[i])

    def tight(self, mask: int) -> Iterator[tuple[int, int]]:
        """(vertex index, next mask) of each step from mask that stays optimal."""
        rest = self.rest
        for i, nxt, cost in self._steps(mask):
            if cost + rest[nxt] == rest[mask]:
                yield i, nxt

    def witness(self) -> Ordering:
        mask = 0
        seq = []
        while mask != self.full:
            i, mask = next(self.tight(mask))
            seq.append(self.verts[i])
        return Ordering(seq)

    def count(self) -> int:
        ways = {self.full: 1}

        def walk(mask: int) -> int:
            if mask not in ways:
                ways[mask] = sum(walk(nxt) for _, nxt in self.tight(mask))
            return ways[mask]

        return walk(0)

    def optima(self) -> list[Ordering]:
        found: list[Ordering] = []
        path: list[str] = []

        def walk(mask: int) -> None:
            if mask == self.full:
                found.append(Ordering(path))
                return
            for i, nxt in self.tight(mask):
                path.append(self.verts[i])
                walk(nxt)
                path.pop()

        walk(0)
        return found


def brute_force_min(
    g: Graph,
    cap: int = DEFAULT_CAP,
    count_optima: bool = False,
) -> OracleResult:
    """Exact minimum imbalance with the lexicographically smallest witness.

    optima_count, the number of minimum-imbalance orderings, is filled only
    when count_optima is set. Raises SizeCapExceededError above cap vertices.
    """
    table = _CostToGo(g, cap)
    return OracleResult(
        minimum=table.rest[0],
        witness=table.witness(),
        optima_count=table.count() if count_optima else None,
    )


def enumerate_optima(g: Graph, cap: int = DEFAULT_CAP) -> list[Ordering]:
    """All minimum-imbalance orderings, in lexicographic order."""
    return _CostToGo(g, cap).optima()
