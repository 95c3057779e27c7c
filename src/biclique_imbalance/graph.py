"""Graph, bipartition, and vertex-ordering primitives plus the imbalance objective.

Vertices are opaque string tokens (non-empty, no whitespace); their
lexicographic order is the tie-breaker for every "arbitrary" choice in the
package. Ordering positions are 1-based. All values here are immutable after
construction, so they are safe to share across threads.

Reading an edge list first tests the whole text against one pattern of plain
`u v` lines. Text that matches is split once into its tokens; any other text
is read line by line, and only that reader raises parse errors. Both feed one
adjacency map of lists, two appends per edge, that the graph freezes into
sets. Everything after that works on whole sets: the bipartition search takes
one set difference per vertex, its neighbors minus the other color class,
which holds the clashing neighbors and the ones it newly reaches, and sorts
only the latter. Its whole state is the two color classes and a parent link
per reached vertex. The partition check tests each part's adjacency sets for
disjointness from the part. Both are linear in V + E apart from those sorts,
and build an error's witness only when they fail.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict, deque
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

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


def _checked_token(token: str) -> None:
    if not isinstance(token, str) or token.split() != [token]:
        raise ValueError(
            f"vertex token must be a non-empty string without whitespace, got {token!r}"
        )


def _tokens_ok(tokens: list[str]) -> bool:
    """True iff every token is a non-empty string without whitespace: joined
    by spaces, they split back into themselves. One C-level pass; callers that
    get False look at each token to raise the first error."""
    try:
        return " ".join(tokens).split() == tokens
    except TypeError:  # a token that is not a str
        return False


class Graph:
    """Undirected simple graph. Edge endpoints are added to the vertex set."""

    __slots__ = ("_adj", "_vertices", "_edge_count")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        adj: dict[str, set[str]] = {}
        for v in vertices:
            _checked_token(v)
            adj.setdefault(v, set())
        for u, v in edges:
            _checked_token(u)
            _checked_token(v)
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._freeze(adj)

    @classmethod
    def _from_adj(cls, adj: Mapping[str, Iterable[str]]) -> "Graph":
        """A graph over a symmetric adjacency map whose tokens are already valid."""
        g = cls.__new__(cls)
        g._freeze(adj)
        return g

    def _freeze(self, adj: Mapping[str, Iterable[str]]) -> None:
        self._adj: dict[str, frozenset[str]] = {
            v: frozenset(nb) for v, nb in adj.items()
        }
        self._vertices = frozenset(self._adj)
        self._edge_count = sum(map(len, self._adj.values())) // 2

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

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
        missing = keep_set - self._vertices
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing)}")
        return Graph._from_adj({u: self._adj[u] & keep_set for u in keep_set})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


class Bipartition:
    """A two-coloring of a vertex set into disjoint parts X and Y.

    The same value describes one complete bipartite component of a chain.
    Immutable; compared, hashed and shown by its parts like a frozen dataclass.
    """

    __slots__ = ("x_part", "y_part", "vertices")
    __match_args__ = ("x_part", "y_part")

    def __init__(self, x_part: Iterable[str], y_part: Iterable[str]):
        x, y = frozenset(x_part), frozenset(y_part)
        if not x.isdisjoint(y):
            raise ValueError(f"parts are not disjoint: {sorted(x & y)}")
        object.__setattr__(self, "x_part", x)
        object.__setattr__(self, "y_part", y)
        object.__setattr__(self, "vertices", x | y)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[frozenset[str], frozenset[str]]]:
        return type(self), (self.x_part, self.y_part)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x_part, self.y_part) == (other.x_part, other.y_part)

    def __hash__(self) -> int:
        return hash((self.x_part, self.y_part))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(x_part={self.x_part!r}, y_part={self.y_part!r})"

    @property
    def nx(self) -> int:
        return len(self.x_part)

    @property
    def ny(self) -> int:
        return len(self.y_part)


class Ordering:
    """Immutable bijection between a vertex set and positions 1..n."""

    # _matched caches the last vertex set found equal to _vertices.
    __slots__ = ("_seq", "_pos", "_vertices", "_matched")

    def __init__(self, sequence: Iterable[str]):
        seq = tuple(sequence)
        if not _tokens_ok(list(seq)):
            for v in seq:
                _checked_token(v)
        pos = dict(zip(seq, range(1, len(seq) + 1)))
        if len(pos) != len(seq):
            dupes = sorted(v for v, k in Counter(seq).items() if k > 1)
            raise ValueError(f"duplicate vertices in ordering: {dupes}")
        self._seq = seq
        self._pos = pos
        self._vertices = frozenset(pos)
        self._matched: frozenset[str] | None = None

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

    @property
    def position_map(self) -> Mapping[str, int]:
        """Read-only view of the vertex -> position map (1-based), no copy."""
        return MappingProxyType(self._pos)

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


# Text made only of `u v` lines: one space between two tokens, a newline after
# each line but maybe the last. For str patterns `\s` is `str.isspace`, the
# set `str.split()` splits on, and every `str.splitlines` boundary is in it.
# So on matching text the line reader sees exactly these lines, with no
# comment, blank line, or line of other than two tokens, and `text.split()`
# yields the same tokens in the same order. Only a self-loop can still be
# wrong. (No possessive quantifiers: they need Python 3.11.)
_PLAIN_EDGES = re.compile(r"(?:[^\s#]+ [^\s#]+\n)*(?:[^\s#]+ [^\s#]+)?")


def _tokenize_lines(text: str) -> tuple[list[str], list[str], list[str]]:
    """Edge endpoints and isolated vertices of an edge-list text, line by
    line; raises GraphParseError at the first bad line."""
    us: list[str] = []
    vs: list[str] = []
    isolated: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if len(tokens) == 2:
            u, v = tokens
            if u == v:
                raise GraphParseError(f"self-loop on {u!r}", line=lineno)
            us.append(u)
            vs.append(v)
        elif len(tokens) == 1:
            isolated.append(tokens[0])
        elif tokens:
            raise GraphParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}: {line.strip()!r}",
                line=lineno,
            )
    return us, vs, isolated


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    `#` starts a comment to end of line, blank lines are ignored, a data line
    is either two whitespace-separated tokens (an edge) or one token (an
    isolated vertex). Duplicate edge lines are idempotent.
    """
    # The longest match, not fullmatch: on text that is not plain, fullmatch
    # backtracks through every line it matched before giving up.
    plain = _PLAIN_EDGES.match(text).end() == len(text)  # type: ignore[union-attr]
    if plain:
        tokens = text.split()
        us, vs, isolated = tokens[0::2], tokens[1::2], []
    else:
        us, vs, isolated = _tokenize_lines(text)
    adj: defaultdict[str, list[str]] = defaultdict(list)
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    for v in isolated:
        adj.setdefault(v, [])
    # Tokens that str.split produced are non-empty and free of whitespace.
    g = Graph._from_adj(adj)
    if plain and any(v in nb for v, nb in g._adj.items()):
        _tokenize_lines(text)  # raises at the first self-loop, with its line
    return g


def parse_ordering(text: str) -> Ordering:
    """Parse whitespace-separated vertex tokens in position order."""
    try:
        return Ordering(text.split())
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def _odd_cycle_witness(u: str, v: str, parent: dict[str, str | None]) -> list[str]:
    """Cycle through the tree paths of u and v plus the conflicting edge uv.

    u's path runs up to its root; v's path runs up until it meets u's, at the
    two vertices' lowest common ancestor.
    """
    path_u = [u]
    while (a := parent[path_u[-1]]) is not None:
        path_u.append(a)
    on_path_u = set(path_u)
    path_v = [v]
    while path_v[-1] not in on_path_u:
        path_v.append(parent[path_v[-1]])  # type: ignore[arg-type]
    # Cut path_u at the common ancestor; stitch the two paths into a cycle.
    return path_u[: path_u.index(path_v[-1]) + 1] + path_v[-2::-1]


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

    The search keeps two records: the color classes, as the sets sides[True]
    (X) and sides[False] (Y), and the parent links, in the order the search
    reached the vertices. A vertex's color is its membership in sides[True].
    """
    roots: list[str] = []
    sides: dict[bool, set[str]] = {True: set(), False: set()}
    parent: dict[str, str | None] = {}
    for root in sorted(g.vertices):
        if root in parent:
            continue
        roots.append(root)
        sides[True].add(root)
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            c = v in sides[True]
            # Neighbors not in the other color class: the clashing ones and
            # the ones this search has not reached yet.
            rest = g._adj[v].difference(sides[not c])
            same = sides[c]
            if not rest.isdisjoint(same):
                # The smallest clashing neighbor is the one a scan of the
                # sorted neighbors would meet first.
                w = min(rest & same)
                raise NotBipartiteError(_odd_cycle_witness(v, w, parent))
            if not rest:
                continue
            reached = sorted(rest)
            sides[not c].update(reached)
            for w in reached:
                parent[w] = v
            queue.extend(reached)
    # parent holds the vertices in the order the search reached them.
    b = Bipartition(frozenset(sides[True]), frozenset(sides[False]))
    return b, roots, next(reversed(parent), None)


def _check_partition_of(g: Graph, b: Bipartition) -> None:
    if b.vertices != g.vertices:
        raise ValueError("bipartition does not cover exactly the graph's vertices")
    parts = (b.x_part, b.y_part)
    if all(g.neighbors(u).isdisjoint(part) for part in parts for u in part):
        return
    u, v = min(
        (u, v) for part in parts for u in part for v in g.neighbors(u) & part if u < v
    )
    raise ValueError(f"edge {u}-{v} joins two vertices of the same part")


def is_complete_bipartite(g: Graph, b: Bipartition) -> bool:
    """True iff g has every cross edge of the bipartition."""
    _check_partition_of(g, b)
    return g.edge_count == len(b.x_part) * len(b.y_part)


def _check_cover(o: Ordering, vertices: frozenset[str], owner: str) -> None:
    """Raise unless o orders exactly the vertices of its owner (a graph, a
    bipartition or a chain). A frozenset never changes, so o skips the
    comparison with the set it last matched."""
    if o._matched is vertices:
        return
    if o._vertices != vertices:
        raise ValueError(f"ordering does not cover exactly the {owner}'s vertices")
    o._matched = vertices


def vertex_imbalance(v: str, o: Ordering, g: Graph) -> int:
    """|neighbors left of v| minus |neighbors right of v|, in absolute value."""
    _check_cover(o, g._vertices, "graph")
    p = o.position(v)
    left = sum(1 for u in g.neighbors(v) if o.position(u) < p)
    return abs(2 * left - g.degree(v))


def vertex_imbalances(o: Ordering, g: Graph) -> list[int]:
    """The imbalance of every vertex, in ordering order, in one pass."""
    _check_cover(o, g._vertices, "graph")
    pos = o.position_map
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
