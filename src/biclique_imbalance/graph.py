"""Graph, bipartition, and vertex-ordering primitives plus the imbalance objective.

Vertices are opaque string tokens (non-empty, no whitespace); their
lexicographic order is the tie-breaker for every "arbitrary" choice in the
package. Ordering positions are 1-based. All values here are immutable after
construction, so they are safe to share across threads.

Reading an edge list splits text with one space per line and no `#`, tab or
carriage return into its tokens once; the text is plain `u v` lines iff it
equals those tokens rendered as such lines. Any other text is read line by
line, and only that reader raises parse errors. Both build the map of
adjacency sets that the graph keeps, one add per endpoint; Graph._from_adj
skips the token check. The graph hands out only copies of its sets. Everything after that works on
whole sets. The bipartition search starts at the smallest vertex, and sorts
all the vertices to find the next root only if it left one unreached. It
tests whether a vertex's neighbors all lie in the other color class, which
builds no set, and only if not takes their difference, the clashing
neighbors and the ones it newly reaches, and sorts the latter. It keeps only
the two color classes and the current component's queue; as every edge joins
the classes, the graph is complete iff it has nx * ny edges. The check of a
given partition tests each part's adjacency sets for disjointness from the
part. Both are linear in V + E apart from those sorts, and build an error's
witness only when they fail. The evaluator walks the ordering once with the
set of vertices not yet placed, and counts each vertex's later neighbors as
the size of one intersection with that set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator

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
]


def _check_tokens(tokens: list[str]) -> None:
    """Raise at the first token that is no non-empty string without whitespace."""
    try:
        if " ".join(tokens).split() == tokens:  # all are good: one C-level pass
            return
    except TypeError:  # a token that is not a str
        pass
    for token in tokens:
        if not isinstance(token, str) or token.split() != [token]:
            raise ValueError(
                f"vertex token must be a non-empty string without whitespace, got {token!r}"
            )


class Graph:
    """Undirected simple graph. Edge endpoints are added to the vertex set."""

    __slots__ = ("_adj", "_vertices", "_edge_count")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        vertices = list(vertices)
        edges = [(u, v) for u, v in edges]
        _check_tokens([*vertices, *(v for edge in edges for v in edge)])
        adj: dict[str, set[str]] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._freeze(adj)

    @classmethod
    def _from_adj(cls, adj: dict[str, set[str]]) -> "Graph":
        """A graph that keeps adj, a symmetric map of sets over valid tokens."""
        g = cls.__new__(cls)
        g._freeze(adj)
        return g

    def _freeze(self, adj: dict[str, set[str]]) -> None:
        self._adj = adj  # kept, never changed: neighbors() hands out copies
        self._vertices = frozenset(adj)
        self._edge_count = sum(map(len, adj.values())) // 2

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
            return frozenset(self._adj[v])  # a copy, O(deg v) a call
        except KeyError:
            raise ValueError(f"vertex {v!r} not in graph") from None

    def degree(self, v: str) -> int:
        return len(self._adj[v]) if v in self._adj else len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (min, max) token pairs, sorted."""
        out = [(u, v) for u, nb in self._adj.items() for v in nb if u < v]
        out.sort()
        return out

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
    """Immutable bijection between a vertex set and positions 1..n, kept as one
    position map in position order: sequence and vertices cost O(n) a call."""

    # _matched caches the last vertex set found equal to the map's keys.
    __slots__ = ("_pos", "_matched")

    def __init__(self, sequence: Iterable[str]):
        seq = list(sequence)
        _check_tokens(seq)
        pos = dict(zip(seq, range(1, len(seq) + 1)))
        if len(pos) != len(seq):
            dupes = sorted(v for v, k in Counter(seq).items() if k > 1)
            raise ValueError(f"duplicate vertices in ordering: {dupes}")
        self._pos = pos
        self._matched: frozenset[str] | None = None

    @property
    def sequence(self) -> tuple[str, ...]:
        return tuple(self._pos)

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._pos)

    def position(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"vertex {v!r} not in ordering") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._pos)

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, v: object) -> bool:
        return v in self._pos

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self._pos == other._pos  # same positions: same sequence

    def __hash__(self) -> int:
        return hash(tuple(self._pos))

    def __repr__(self) -> str:
        return f"Ordering({', '.join(self._pos)})"


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


def _plain_tokens(text: str) -> list[str] | None:
    """The tokens of text if it is only `u v` lines (one space between two
    tokens, a newline after each line but maybe the last), else None.

    `str.split` splits on `str.isspace`, a superset of the `splitlines`
    boundaries, so the line reader would see these lines and the same tokens:
    only a self-loop can still be wrong. C-level scans send text with a `#`,
    tab or carriage return, or not one space per line, to the line reader.
    """
    if "#" in text or "\t" in text or "\r" in text:
        return None
    if text.count(" ") != text.count("\n") + (text[-1:] not in ("", "\n")):
        return None
    tokens = text.split()
    n = len(tokens)
    if n % 2:
        return None
    parts = [" "] * (2 * n)
    parts[::2] = tokens
    parts[3::4] = ["\n"] * (n // 2)
    rendered = "".join(parts)
    return tokens if text == rendered or text == rendered[:-1] else None


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    `#` starts a comment to end of line, blank lines are ignored, a data line
    is either two whitespace-separated tokens (an edge) or one token (an
    isolated vertex). Duplicate edge lines are idempotent.
    """
    tokens = _plain_tokens(text)
    if tokens is not None:
        it = iter(tokens)
        pairs, isolated = zip(it, it), []
    else:
        us, vs, isolated = _tokenize_lines(text)
        pairs = zip(us, vs)
    adj: defaultdict[str, set[str]] = defaultdict(set)
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    for v in isolated:
        adj.setdefault(v, set())
    # Tokens that str.split produced are non-empty and free of whitespace.
    g = Graph._from_adj(dict(adj))
    if tokens is not None and any(map(set.__contains__, g._adj.values(), g._adj)):
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

    The search starts at the smallest vertex and scans the sorted vertices for
    more roots only if it left one unreached. So the roots come in sorted
    order, the graph is connected iff there is at most one, and the second
    root is the smallest vertex unreachable from the first. The whole graph is
    two-colored before this returns, so a graph that is both disconnected and
    not bipartite raises NotBipartiteError.

    The search keeps only the color classes xs (X) and ys (Y) and the current
    component's queue. A vertex's search parent is its neighbor queued first,
    so an odd-cycle witness rebuilds the parent links from queue ranks.
    """
    adj = g._adj
    roots: list[str] = []
    xs: set[str] = set()
    ys: set[str] = set()
    queue: list[str] = []

    def candidates() -> Iterator[str]:
        yield min(adj)
        if len(xs) + len(ys) < len(adj):
            yield from sorted(adj)

    for root in candidates() if adj else ():
        if root in xs or root in ys:
            continue
        roots.append(root)
        xs.add(root)
        queue = [root]
        for v in queue:  # the loop reads what it appends
            same, other = (xs, ys) if v in xs else (ys, xs)
            nb = adj[v]
            if nb <= other:  # no clash, and nothing new to reach
                continue
            # The clashing neighbors and the ones this search has not reached.
            rest = nb - other
            if not rest.isdisjoint(same):
                rank = dict(zip(queue, range(len(queue))))
                parent = {w: min(adj[w] & rank.keys(), key=rank.get) for w in queue}
                parent[root] = None
                # A scan of the sorted neighbors meets the smallest clash first.
                raise NotBipartiteError(_odd_cycle_witness(v, min(rest & same), parent))
            reached = sorted(rest)
            other.update(reached)
            queue += reached
    return Bipartition(xs, ys), roots, queue[-1] if queue else None


def is_complete_bipartite(g: Graph, b: Bipartition) -> bool:
    """True iff g has every cross edge of the bipartition."""
    if b.vertices != g.vertices:
        raise ValueError("bipartition does not cover exactly the graph's vertices")
    parts = (b.x_part, b.y_part)
    if not all(g._adj[u].isdisjoint(part) for part in parts for u in part):
        u, v = min(
            (u, v) for part in parts for u in part for v in g._adj[u] & part if u < v
        )
        raise ValueError(f"edge {u}-{v} joins two vertices of the same part")
    return g.edge_count == len(b.x_part) * len(b.y_part)


def _check_cover(o: Ordering, vertices: frozenset[str], owner: str) -> None:
    """Raise unless o orders exactly the vertices of its owner (a graph, a
    bipartition or a chain). A frozenset never changes, so o skips the
    comparison with the set it last matched."""
    if o._matched is vertices:
        return
    if o._pos.keys() != vertices:
        raise ValueError(f"ordering does not cover exactly the {owner}'s vertices")
    o._matched = vertices


def vertex_imbalance(v: str, o: Ordering, g: Graph) -> int:
    """|neighbors left of v| minus |neighbors right of v|, in absolute value."""
    _check_cover(o, g._vertices, "graph")
    p = o.position(v)
    left = sum(1 for u in g._adj[v] if o.position(u) < p)
    return abs(2 * left - g.degree(v))


def vertex_imbalances(o: Ordering, g: Graph) -> list[int]:
    """The imbalance of every vertex, in ordering order, in one pass. A
    vertex's later neighbors are those still unplaced when it is placed."""
    _check_cover(o, g._vertices, "graph")
    unplaced = set(g._vertices)
    out = []
    for v in o._pos:
        unplaced.remove(v)
        nb = g._adj[v]
        out.append(abs(len(nb) - 2 * len(nb & unplaced)))
    return out


def ordering_imbalance(o: Ordering, g: Graph) -> int:
    """Sum of vertex imbalances over all vertices."""
    return sum(vertex_imbalances(o, g))
