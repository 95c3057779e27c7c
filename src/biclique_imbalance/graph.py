"""Graph, bipartition, and vertex-ordering primitives plus the imbalance objective.

Vertices are opaque string tokens (non-empty, no whitespace); their
lexicographic order is the tie-breaker for every "arbitrary" choice in the
package. Ordering positions are 1-based. All values here are immutable after
construction, so they are safe to share across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GraphParseError, NotBipartiteError

__all__ = [
    "Graph",
    "Bipartition",
    "Ordering",
    "parse_edge_list",
    "parse_ordering",
    "bipartition",
    "is_complete_bipartite",
    "vertex_imbalance",
    "vertex_imbalances",
    "ordering_imbalance",
    "subordering",
    "concat_orderings",
]


def _checked_token(token: str) -> str:
    if not isinstance(token, str) or token.split() != [token]:
        raise ValueError(
            f"vertex token must be a non-empty string without whitespace, got {token!r}"
        )
    return token


class Graph:
    """Undirected simple graph. Edge endpoints are added to the vertex set."""

    __slots__ = ("_adj", "_vertices")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        adj: dict[str, set[str]] = {}
        for v in vertices:
            adj.setdefault(_checked_token(v), set())
        for u, v in edges:
            u = _checked_token(u)
            v = _checked_token(v)
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._adj: dict[str, frozenset[str]] = {
            v: frozenset(nb) for v, nb in adj.items()
        }
        self._vertices = frozenset(self._adj)

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v!r} not in graph") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (min, max) token pairs, sorted."""
        out = [(u, v) for u, nb in self._adj.items() for v in nb if u < v]
        out.sort()
        return out

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        keep_set = set(keep)
        missing = keep_set - set(self._adj)
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing)}")
        return Graph(
            keep_set,
            (
                (u, v)
                for u in keep_set
                for v in self._adj[u]
                if v in keep_set and u < v
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


@dataclass(frozen=True)
class Bipartition:
    """A two-coloring of a vertex set into disjoint parts X and Y.

    The same value describes one complete bipartite component of a chain.
    """

    x_part: frozenset[str]
    y_part: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_part", frozenset(self.x_part))
        object.__setattr__(self, "y_part", frozenset(self.y_part))
        overlap = self.x_part & self.y_part
        if overlap:
            raise ValueError(f"parts are not disjoint: {sorted(overlap)}")

    @property
    def vertices(self) -> frozenset[str]:
        return self.x_part | self.y_part

    @property
    def nx(self) -> int:
        return len(self.x_part)

    @property
    def ny(self) -> int:
        return len(self.y_part)


class Ordering:
    """Immutable bijection between a vertex set and positions 1..n."""

    __slots__ = ("_seq", "_pos", "_vertices")

    def __init__(self, sequence: Iterable[str]):
        seq = tuple(_checked_token(v) for v in sequence)
        pos = {v: k for k, v in enumerate(seq, start=1)}
        if len(pos) != len(seq):
            dupes = sorted(v for v, k in Counter(seq).items() if k > 1)
            raise ValueError(f"duplicate vertices in ordering: {dupes}")
        self._seq = seq
        self._pos = pos
        self._vertices = frozenset(pos)

    @property
    def sequence(self) -> tuple[str, ...]:
        return self._seq

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    def position(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"vertex {v!r} not in ordering") from None

    def positions(self) -> dict[str, int]:
        """Copy of the vertex -> position map (1-based)."""
        return dict(self._pos)

    def reverse(self) -> "Ordering":
        return Ordering(reversed(self._seq))

    def __iter__(self) -> Iterator[str]:
        return iter(self._seq)

    def __len__(self) -> int:
        return len(self._seq)

    def __contains__(self, v: object) -> bool:
        return v in self._pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self._seq == other._seq

    def __hash__(self) -> int:
        return hash(self._seq)

    def __repr__(self) -> str:
        return f"Ordering({', '.join(self._seq)})"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    `#` starts a comment to end of line, blank lines are ignored, a data line
    is either two whitespace-separated tokens (an edge) or one token (an
    isolated vertex). Duplicate edge lines are idempotent.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            vertices.append(tokens[0])
        elif len(tokens) == 2:
            if tokens[0] == tokens[1]:
                raise GraphParseError(f"self-loop on {tokens[0]!r}", line=lineno)
            edges.append((tokens[0], tokens[1]))
        else:
            raise GraphParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}: {line!r}", line=lineno
            )
    return Graph(vertices, edges)


def parse_ordering(text: str) -> Ordering:
    """Parse whitespace-separated vertex tokens in position order."""
    try:
        return Ordering(text.split())
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def _odd_cycle_witness(
    u: str, v: str, parent: dict[str, str | None], depth: dict[str, int]
) -> list[str]:
    """Cycle through the tree paths of u and v plus the conflicting edge uv."""
    path_u = [u]
    path_v = [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]  # type: ignore[assignment]
        path_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]  # type: ignore[assignment]
        path_v.append(b)
    while a != b:
        a = parent[a]  # type: ignore[assignment]
        b = parent[b]  # type: ignore[assignment]
        path_u.append(a)
        path_v.append(b)
    # path_u ends at the common ancestor; stitch the two paths into a cycle.
    return path_u + path_v[-2::-1]


def bipartition(g: Graph) -> Bipartition:
    """Two-color the graph, or raise NotBipartiteError with a witness cycle.

    Within each connected component the lexicographically smallest vertex is
    colored X; isolated vertices therefore land in X. Output is deterministic.
    """
    return _bipartition_and_roots(g)[0]


def _bipartition_and_roots(g: Graph) -> tuple[Bipartition, list[str], str | None]:
    """bipartition(g), the smallest vertex of each connected component, and the
    vertex the breadth-first search reached last (one farthest from its root).

    The roots come in sorted order, so the graph is connected iff there is at
    most one, and the second root is the smallest vertex unreachable from the
    first. The whole graph is two-colored before this returns, so a graph
    that is both disconnected and not bipartite raises NotBipartiteError.
    """
    roots: list[str] = []
    color: dict[str, bool] = {}
    parent: dict[str, str | None] = {}
    depth: dict[str, int] = {}
    for root in sorted(g.vertices):
        if root in color:
            continue
        roots.append(root)
        color[root] = True
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(g.neighbors(v)):
                if w not in color:
                    color[w] = not color[v]
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    queue.append(w)
                elif color[w] == color[v]:
                    raise NotBipartiteError(_odd_cycle_witness(v, w, parent, depth))
    x = frozenset(v for v, c in color.items() if c)
    y = frozenset(v for v, c in color.items() if not c)
    # color holds the vertices in the order the search reached them.
    return Bipartition(x, y), roots, next(reversed(color), None)


def _check_partition_of(g: Graph, b: Bipartition) -> None:
    if b.vertices != g.vertices:
        raise ValueError("bipartition does not cover exactly the graph's vertices")
    for u, v in g.edges():
        if (u in b.x_part) == (v in b.x_part):
            raise ValueError(f"edge {u}-{v} joins two vertices of the same part")


def is_complete_bipartite(g: Graph, b: Bipartition) -> bool:
    """True iff g has every cross edge of the bipartition."""
    _check_partition_of(g, b)
    return g.edge_count == len(b.x_part) * len(b.y_part)


def vertex_imbalance(v: str, o: Ordering, g: Graph) -> int:
    """|neighbors left of v| minus |neighbors right of v|, in absolute value."""
    if o.vertices != g.vertices:
        raise ValueError("ordering does not cover exactly the graph's vertices")
    p = o.position(v)
    left = sum(1 for u in g.neighbors(v) if o.position(u) < p)
    return abs(2 * left - g.degree(v))


def vertex_imbalances(o: Ordering, g: Graph) -> list[int]:
    """The imbalance of every vertex, in ordering order, in one pass."""
    if o.vertices != g.vertices:
        raise ValueError("ordering does not cover exactly the graph's vertices")
    pos = o.positions()
    out = []
    for p, v in enumerate(o, start=1):
        left = sum(1 for u in g.neighbors(v) if pos[u] < p)
        out.append(abs(2 * left - g.degree(v)))
    return out


def ordering_imbalance(o: Ordering, g: Graph) -> int:
    """Sum of vertex imbalances over all vertices."""
    return sum(vertex_imbalances(o, g))


def subordering(o: Ordering, keep: Iterable[str]) -> Ordering:
    """Order-preserving restriction of o to the given vertex subset."""
    keep_set = set(keep)
    missing = keep_set - o.vertices
    if missing:
        raise ValueError(f"vertices not in ordering: {sorted(missing)}")
    return Ordering(v for v in o if v in keep_set)


def concat_orderings(parts: Iterable[Ordering]) -> Ordering:
    """Concatenate orderings over pairwise-disjoint vertex sets."""
    seq: list[str] = []
    seen: set[str] = set()
    for part in parts:
        clash = part.vertices & seen
        if clash:
            raise ValueError(f"orderings overlap on: {sorted(clash)}")
        seen |= part.vertices
        seq.extend(part)
    return Ordering(seq)
