"""Ground-truth exact minimum imbalance of small graphs, by dynamic programming.

A vertex's imbalance depends only on which of its neighbors are placed before
it, so an ordering is a path from the empty vertex set to the full one that
adds one vertex per step, and the step that adds v after the set S costs
|2*|N(v) & S| - deg(v)|. A cost-to-go table over the sets on such paths
(Bodlaender, Fomin, Koster, Kratsch and Thilikos, "A note on exact algorithms
for vertex ordering problems on graphs", Theory Comput. Syst. 2012) gives the
minimum; the optimal orderings are exactly the paths that take only tight
steps, those whose cost plus the cost-to-go after them equals the cost-to-go
before them.

Vertices with the same open neighborhood (false twins) form a class; the
number of classes is the graph's neighborhood diversity (Lampis, Algorithmica
2012). Every neighborhood is a union of whole classes and swapping two twins
changes no imbalance, so a set matters only through how many members of each
class it holds: the table has prod(k_i + 1) states for classes of sizes k_i,
2^n when no two vertices are twins and (a + 1)(b + 1) on K(a, b). The step
that places one more member of class c costs |2 * (placed members of the
classes next to c) - deg(c)|. Each optimal class path stands for
prod(k_i!) orderings. Taking the smallest next vertex over the tight steps
yields the lexicographically smallest witness.

Two caps bound the work: the vertex cap (DEFAULT_CAP unless the caller
raises it) and STATE_CAP on the table size, checked before the table is
allocated. Time grows as the state count times the class adjacencies, memory
as the state count. The per-state work is written as plain loops, because
before Python 3.12 every comprehension is a call with a frame of its own.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import product
from math import factorial, prod
from operator import itemgetter

from .errors import SizeCapExceededError
from .graph import Graph, Ordering

__all__ = ["OracleResult", "brute_force_min", "enumerate_optima", "DEFAULT_CAP"]

DEFAULT_CAP = 10
STATE_CAP = 1 << 22


OracleResult = namedtuple("OracleResult", "minimum witness optima_count", defaults=(None,))


class _CostToGo:
    """The cost-to-go table of one graph, over counts of placed twins.

    Classes are numbered by their smallest member, and a class's members are
    placed in sorted order. A state p holds the number of placed members of
    each class, with a trailing 0 so that every neighbor lookup below returns
    a tuple. Its index is sum(p[c] * radix[c]), where radix[c] is the product
    of k + 1 over the sizes k of the classes after c. rest[index] is the least
    total imbalance of the unplaced vertices when they are placed, in some
    order, after the placed ones; rest[full] is 0.
    """

    def __init__(self, g: Graph, cap: int):
        if g.vertex_count > cap:
            raise SizeCapExceededError(
                f"{g.vertex_count} vertices exceeds the search cap of {cap}"
            )
        by_nbhd: dict[frozenset[str], list[str]] = {}
        for v in sorted(g.vertices):
            by_nbhd.setdefault(g.neighbors(v), []).append(v)
        self.members = list(by_nbhd.values())
        self.sizes = [len(ms) for ms in self.members]
        states = prod(k + 1 for k in self.sizes)
        if states > STATE_CAP:
            raise SizeCapExceededError(
                f"{states} twin-class states exceeds the table cap of {STATE_CAP}"
            )
        m = len(self.members)
        class_of = {v: c for c, ms in enumerate(self.members) for v in ms}
        # Per class: its index, its size, the counts of its neighbor classes,
        # its step cost by number of placed neighbors, and its radix.
        self.steps = steps = [
            (
                c,
                self.sizes[c],
                itemgetter(*sorted({class_of[u] for u in nbhd}), m, m),
                [abs(2 * s - len(nbhd)) for s in range(len(nbhd) + 1)],
                prod(k + 1 for k in self.sizes[c + 1 :]),
            )
            for c, nbhd in enumerate(by_nbhd)
        ]
        self.full = states - 1
        rest = array("q", [0]) * states
        for idx, p in self._states():
            best = None
            for c, k, nb, cost, r in steps:
                if p[c] < k:
                    here = cost[sum(nb(p))] + rest[idx + r]
                    if best is None or here < best:
                        best = here
            rest[idx] = best
        self.rest = rest

    def _states(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(index, counts) of every state but the full one, highest index first."""
        counts = product(*(range(k, -1, -1) for k in self.sizes), (0,))
        next(counts)
        return zip(range(self.full - 1, -1, -1), counts)

    def tight(self, idx: int, p: Sequence[int]) -> dict[int, int]:
        """Next state index by class, for each class whose next member can be
        placed at state idx and stay optimal."""
        rest = self.rest
        best = rest[idx]
        nxt = {}
        for c, k, nb, cost, r in self.steps:
            if p[c] < k and cost[sum(nb(p))] + rest[idx + r] == best:
                nxt[c] = idx + r
        return nxt

    def witness(self) -> Ordering:
        p = [0] * (len(self.members) + 1)
        idx = 0
        seq = []
        while idx != self.full:
            tight = self.tight(idx, p)
            c = min(tight, key=lambda c: self.members[c][p[c]])
            seq.append(self.members[c][p[c]])
            p[c] += 1
            idx = tight[c]
        return Ordering(seq)

    def count(self) -> int:
        """Tight class paths from the empty state, times the orders of twins.

        Every step raises the state index, so one ascending pass suffices; it
        keeps only the path counts of reached states it has not passed yet.
        """
        ways = {0: 1}
        counts = product(*(range(k + 1) for k in self.sizes), (0,))
        for idx, p in zip(range(self.full), counts):
            if idx in ways:
                n = ways.pop(idx)
                for nxt in self.tight(idx, p).values():
                    ways[nxt] = ways.get(nxt, 0) + n
        return ways[self.full] * prod(map(factorial, self.sizes))

    def optima(self) -> list[Ordering]:
        by_name = sorted((v, c) for c, ms in enumerate(self.members) for v in ms)
        found: list[Ordering] = []
        path: list[str] = []
        p = [0] * (len(self.members) + 1)

        def walk(idx: int) -> None:
            if idx == self.full:
                found.append(Ordering(path))
                return
            tight = self.tight(idx, p)
            for v, c in by_name:
                if c in tight and v not in path:
                    path.append(v)
                    p[c] += 1
                    walk(tight[c])
                    p[c] -= 1
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
    when count_optima is set. Raises SizeCapExceededError above cap vertices
    or above STATE_CAP table states.
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
