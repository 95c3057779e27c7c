"""Chained complete bipartite graphs.

A chained complete bigraph decomposes into maximal complete bipartite
components C_1..C_n where consecutive components share exactly one overlap
vertex and non-consecutive components are disjoint. Its minimum imbalance is

    sum_i ( |X_i|*|Y_i| + (|X_i| mod 2)*(|Y_i| mod 2) )
    - sum_i ( g(s_i, C_i) + g(s_i, C_{i+1}) )
    + sum_i | g(s_i, C_i) - g(s_i, C_{i+1}) |

where g(s, C) is the number of neighbors of overlap s inside C, i.e. the
size of C's opposite part. As |g1 - g2| - g1 - g2 = -2*min(g1, g2), each
overlap subtracts twice its smaller g, and the form reads only the chain's
sizes and overlap letters: ChainSpec.minimum() computes it with no graph.

The decomposer walks the chain in time linear in the graph up to sorting: it
starts from the component of a vertex that is no overlap on a chain, and
steps from each component to the next through the one vertex with neighbors
beyond it. Each component, the closure of a neighborhood, is one
intersection of adjacency sets, and a degree scan finds its exits. A walk
whose components cover every vertex and edge proves the graph connected and
bipartite, and guarantees every chain condition, maximality too except at an
overlap alone in its part of a component (see _walk_chain), so maximality is
a size test at each overlap; only exits and failure witnesses get sorted.
The bipartition search runs only to explain a rejection. Construction of
optimal orderings lays out each component between its two boundary vertices
as at most six alternating runs of its two parts, dealt by _fill_runs of the
complete case. Which vertices fill a run does not change the imbalance: the
rest go in sorted order, descending (the mirror image of the block built
from the far end) when the boundaries lie in different parts, the first
one's even and the last one's odd. Each block is checked against the closed
form before any is emitted.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import count, islice

from .complete import _fill_runs, min_imbalance_formula
from .errors import (
    ConstructionInvariantViolatedError,
    GraphParseError,
    NotChainedError,
    NotConnectedError,
    SpecInvalidError,
)
from .graph import Bipartition, Graph, Ordering, _bipartition_and_roots, _check_cover

__all__ = [
    "ChainComponent",
    "ChainDecomposition",
    "ChainSpec",
    "decompose",
    "g_count",
    "min_imbalance_chained",
    "construct_optimal_chained",
    "generate_chained",
    "interval_representation",
    "OverlapInequalityProbe",
    "overlap_inequality_probe",
    "parse_chain_spec",
    "format_decomposition",
]


# One maximal complete bipartite component, split along the bipartition.
ChainComponent = Bipartition
# interval_representation's result type, resolvable without importing fractions here.
_Intervals = 'dict[str, tuple[__import__("fractions").Fraction, __import__("fractions").Fraction]]'


# No __slots__, so that cached_property has a __dict__ to fill.
class ChainDecomposition(namedtuple("ChainDecomposition", "components overlaps")):
    """Ordered components C_1..C_n plus the overlap vertices s_1..s_{n-1}; s_i
    lies in the X parts of both C_i and C_{i+1}, or in both Y parts."""

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset().union(*(c.vertices for c in self.components))

    def profile(self) -> ChainSpec:
        """The chain's spec: component sizes and overlap part letters."""
        cs = self.components
        parts = tuple(["X" if s in c.x_part else "Y" for s, c in zip(self.overlaps, cs)])
        return ChainSpec(tuple([(len(c.x_part), len(c.y_part)) for c in cs]), parts)


class ChainSpec(namedtuple("ChainSpec", "sizes overlap_parts")):
    """Generator input: per-component part sizes and per-overlap part choice."""

    __slots__ = ()

    def validate(self) -> None:
        self._check_counts()
        for i, (nx_size, ny_size) in enumerate(self.sizes, start=1):
            if nx_size < 1 or ny_size < 1:
                raise SpecInvalidError(
                    f"component {i} has an empty part: ({nx_size}, {ny_size})"
                )
        if lone := _lone_overlap(self._overlap_sizes()):
            i, k = lone
            part = self.overlap_parts[i]
            raise SpecInvalidError(
                f"overlap {i + 1} in part {part} needs component {k + 1} to have "
                f"{part} size >= 2, got {self.sizes[k][part != 'X']}"
            )

    def _check_counts(self) -> None:
        if len(self.sizes) < 1:
            raise SpecInvalidError("spec needs at least one component")
        if len(self.overlap_parts) != len(self.sizes) - 1:
            raise SpecInvalidError(
                f"{len(self.sizes)} components need {len(self.sizes) - 1} overlaps, "
                f"got {len(self.overlap_parts)}"
            )

    def minimum(self) -> int:
        """The closed form of a valid spec from its sizes; checks only the counts."""
        self._check_counts()
        total = sum([min_imbalance_formula(nx, ny) for nx, ny in self.sizes])
        for left, right, part in zip(self.sizes, self.sizes[1:], self.overlap_parts):
            g1, g2 = left[part == "X"], right[part == "X"]  # sizes opposite the overlap
            total -= 2 * (g1 if g1 < g2 else g2)  # inline: min() cost 70 % more
        return total

    def _overlap_sizes(self) -> Iterator[tuple[int, int]]:
        """Each overlap's part sizes in its two components, in order, its letter
        checked first: a letter other than X or Y raises at its overlap."""
        for i, part in enumerate(self.overlap_parts):
            if part not in ("X", "Y"):
                raise SpecInvalidError(f"overlap {i + 1} part must be X or Y, got {part!r}")
            yield self.sizes[i][part != "X"], self.sizes[i + 1][part != "X"]


def _biclique_closure(g: Graph, side: set[str], side_is_x: bool) -> ChainComponent:
    """The maximal biclique with one part side, side_is_x telling which: the
    common neighbors of side, none in side, are the other part."""
    common = set.intersection(*map(g._adj.__getitem__, side))
    return ChainComponent(side, common) if side_is_x else ChainComponent(common, side)


def _exits(g: Graph, comp: ChainComponent, entry: str, limit: int) -> list[str]:
    """The vertices of comp other than entry with a neighbor outside comp: comp
    is complete, so their degree exceeds the size of the opposite part. More
    than limit of them means the chain branches at comp."""
    adj = g._adj
    x, y = comp.x_part, comp.y_part
    out = []
    for part, opposite in ((x, len(y)), (y, len(x))):
        for v in part:
            if len(adj[v]) > opposite and v != entry:
                out.append(v)
    out.sort()
    if len(out) > limit:
        raise NotChainedError(
            f"the chain branches at the component reached through {entry}: {', '.join(out)}"
        )
    return out


def _start(g: Graph, r: str) -> str:
    """Where the walk starts, r the smallest vertex: r unless r is lone, else
    the smallest vertex of least degree unless that is 2 and it is lone too,
    else the smallest vertex of degree 2 with a neighbor of another degree,
    or r if there is none (see _walk_chain)."""
    adj = g._adj

    def lone(v: str) -> bool:  # v is the only common neighbor of N(v)
        return len(set.intersection(*map(adj.__getitem__, adj[v]))) == 1

    if adj[r] and not lone(r):
        return r
    delta = min(map(len, adj.values()))
    if delta == 0:  # an isolated vertex in a graph with an edge
        raise NotChainedError("a vertex has no neighbors")
    v = min(v for v, nb in adj.items() if len(nb) == delta)
    if delta != 2 or not lone(v):
        return v
    mixed = (v for v, nb in adj.items() if len(nb) == 2 and any(len(adj[w]) != 2 for w in nb))
    return min(mixed, default=r)


def _walk_chain(g: Graph, start: str) -> tuple[list[ChainComponent], list[str]]:
    """Components and overlaps, walking out from the component of start.

    The first component is the closure of N(start), its Y part; from exit s
    the next is the closure of s's neighbors outside the last component, the
    part opposite s. It has at most one exit besides s and meets the earlier
    components only at s. The second direction, from the first component's
    second exit, runs on a valid chain whose start lies in a middle component.

    A walk that returns is accepted on its own certificate: its components
    cover the V vertices and hold the E edges. Each is complete with two
    nonempty parts, a side and its common neighbors, and two share at most
    one vertex, so no edge counts twice. So the graph is connected, and the
    colors, which put s in the same part of both its components, two-color
    it. Conversely, on a connected bipartite graph such a walk meets the
    certificate. Every edge p-q, and by connectivity every vertex, lies in a
    component: if p's component C lacks q, p is neither start nor C's entry,
    whose neighbors lie in C and the component before it, so p is an exit,
    and the walk branched or put p and q in the next component.

    An overlap alone in its part of C is extended by its neighbors in the
    other component, so C is not maximal, and nothing else breaks
    maximality. Write a component as (P, Q), P its side and Q all common
    neighbors of P, so only P can grow. Q holds the entry e, start or the
    overlap s it was entered through, so a v growing P lies in N(e) - P:
    empty for the first component, where P = N(start), and s's opposite part
    in the one before for a later one. Such v lies only in earlier
    components, which meet this one only at s, so v is adjacent to all of Q
    iff Q = {s}. An exit t is never alone in its part of the component it
    leaves: Q also holds the entry, and P = {t} makes Q = N(t). So
    maximality is a test on part sizes (_check_maximal).

    On a valid chain the walk returns if start is no overlap, as _start's
    choice never is. Call v lone if v is the only common neighbor of N(v).
    Every overlap is lone: the common neighbors of its two opposite parts are
    its two parts, which meet only at it. An overlap of least degree has
    degree 2 and two neighbors of degree 2: a non-overlap in its part of
    either component would have a smaller degree, so both its parts are
    pairs of overlaps, each adjacent only to the one vertex of the opposite
    part. If no vertex of degree 2 has a neighbor of another degree, a
    connected graph of least degree 2 is a cycle, a chain only as K(2, 2),
    which has no overlap.
    """
    adj = g._adj
    first = _biclique_closure(g, adj[start], False)
    comps, overlaps = [first], []
    seen = set(first.vertices)
    for s in _exits(g, first, start, 2):
        # Reversed, the first direction's components end at first, so the
        # second direction extends the chain on first's other side.
        comps.reverse()
        overlaps.reverse()
        while s is not None:
            side = adj[s] - comps[-1].vertices
            if not side:  # s has a neighbor in its own part: not bipartite
                raise NotChainedError(f"{s} has no neighbor outside its component")
            nxt = _biclique_closure(g, side, s in comps[-1].y_part)
            if len(seen & nxt.vertices) > 1:  # s lies in both
                raise NotChainedError(
                    f"the component entered through {s} meets an earlier one at "
                    f"{min(seen & nxt.vertices - {s})}"
                )
            seen |= nxt.vertices
            comps.append(nxt)
            overlaps.append(s)
            onward = _exits(g, nxt, s, 1)
            s = onward[0] if onward else None
    if len(seen) != len(adj) or sum([c.nx * c.ny for c in comps]) != g.edge_count:
        raise NotChainedError(f"the walk from {start} leaves vertices or edges uncovered")
    return comps, overlaps


def _lone_overlap(sizes: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """0-based (overlap, component) of the first overlap alone in its part of a
    component, left component first, read lazily from each overlap's sizes."""
    for i, (left, right) in enumerate(sizes):
        if left < 2 or right < 2:
            return i, i + (left >= 2)
    return None


def _check_maximal(d: ChainDecomposition) -> None:
    """Reject an overlap alone in its part of a component, which the overlap's
    opposite part in the other component extends (see _walk_chain). The
    overlap's part is the one holding it in its left component."""
    # Scanned lazily, not via profile(), which builds all sizes on a valid chain.
    cs = d.components
    sizes = (
        (len(a.x_part), len(c.x_part)) if s in a.x_part else (len(a.y_part), len(c.y_part))
        for s, a, c in zip(d.overlaps, cs, cs[1:])
    )
    if lone := _lone_overlap(sizes):
        i, k = lone
        s, other = d.overlaps[i], cs[2 * i + 1 - k]
        raise NotChainedError(
            f"component C{k + 1} is not maximal: extendable by "
            f"{min(other.y_part if s in other.x_part else other.x_part)}"
        )


def decompose(g: Graph) -> ChainDecomposition:
    """Decompose a connected chained complete bigraph into its components.

    The chain is normalized so that the lexicographically smallest
    end-component vertex lies in C_1; when both end components have the same
    smallest vertex (their shared overlap), the one whose sorted vertex list
    is lexicographically larger comes first, and the smallest vertex lies in
    an X part. The walk decides alone (see _walk_chain); the bipartition
    search runs only on a rejection, to raise NotBipartiteError, then
    NotConnectedError, before the walk's NotChainedError.
    """
    if g.vertex_count == 0:
        raise NotChainedError("graph has no vertices")
    if g.edge_count == 0:
        raise NotChainedError("graph has no edges for any component to cover")
    r = min(g._adj)
    try:
        start = _start(g, r)
        comps, overlaps = _walk_chain(g, start)
    except NotChainedError:
        roots = _bipartition_and_roots(g)[1]
        if len(roots) > 1:
            raise NotConnectedError(f"graph is not connected ({roots[1]} unreachable)") from None
        raise
    if start != r and any(r in c.y_part for c in comps):
        comps = [ChainComponent(c.y_part, c.x_part) for c in comps]
    head, tail = comps[0].vertices, comps[-1].vertices
    if min(tail) < min(head) or (min(tail) == min(head) and sorted(tail) > sorted(head)):
        comps.reverse()
        overlaps.reverse()
    d = ChainDecomposition(tuple(comps), tuple(overlaps))
    _check_maximal(d)
    return d


def g_count(d: ChainDecomposition, s: str, j: int) -> int:
    """Number of neighbors of overlap s inside component C_j (1-based j)."""
    try:
        i = d.overlaps.index(s) + 1
    except ValueError:
        raise ValueError(f"{s!r} is not an overlap vertex") from None
    if j not in (i, i + 1):
        raise ValueError(f"overlap {s!r} does not belong to component C{j}")
    spec = d.profile()
    return spec.sizes[j - 1][spec.overlap_parts[i - 1] == "X"]


def min_imbalance_chained(d: ChainDecomposition) -> int:
    """Closed-form minimum imbalance of the chained graph."""
    return d.profile().minimum()


def _validated_subordering(comp: ChainComponent, s_prev: str, s_next: str) -> list[str]:
    """The tokens of comp between its boundary vertices s_prev and s_next.

    The boundaries are two distinct vertices of comp: the real overlaps, or
    the synthesized endpoints for the first and last components. One deal into
    the run table builds the block. It must cover comp exactly, run from s_prev
    to s_next and evaluate to the closed form.
    """
    x, y, vertices = comp.x_part, comp.y_part, comp.vertices
    if s_prev == s_next or s_prev not in vertices or s_next not in vertices:
        raise ValueError(
            f"boundary vertices must be two distinct members of the component, "
            f"got {s_prev!r}, {s_next!r}"
        )
    a, b = (x, y) if s_prev in x else (y, x)
    same = s_next in a
    descending = not same and len(a) % 2 == 0 and len(b) % 2 == 1
    a_seq = [s_prev, *sorted(a - {s_prev, s_next}, reverse=descending)]
    b_seq = sorted(b - {s_next}, reverse=descending)
    (a_seq if same else b_seq).append(s_next)
    block = _fill_runs(a_seq, b_seq, same)
    if len(block) != len(vertices) or frozenset(block) != vertices:
        raise ConstructionInvariantViolatedError(
            "component subordering does not cover the component exactly"
        )
    if block[0] != s_prev or block[-1] != s_next:
        raise ConstructionInvariantViolatedError(
            f"component subordering does not run from {s_prev} to {s_next}"
        )
    # Its own loop: one shared with verify_optimal_complete slowed construction by 10 %.
    next_a, next_b, achieved = -len(b), -len(a), 0  # signed, for a's next: 2 * |b before| - |b|
    for v in block:
        if v in a:
            achieved += abs(next_a)
            next_b += 2
        else:
            achieved += abs(next_b)
            next_a += 2
    expected = min_imbalance_formula(len(x), len(y))
    if achieved != expected:
        raise ConstructionInvariantViolatedError(
            f"component subordering evaluates to {achieved}, expected {expected} "
            f"for K({comp.nx}, {comp.ny}) with boundaries {s_prev}, {s_next}"
        )
    return block[1:-1]


def _pick_endpoint(comp: ChainComponent, exclude: set[str]) -> str:
    """Deterministic synthesized chain endpoint.

    Lexicographically smallest vertex whose part has at least two members;
    a vertex in a singleton part cannot sit at the extreme of an optimal
    component ordering unless the component is a single edge, in which case
    any vertex works.
    """
    candidates = comp.vertices - exclude
    if not candidates:
        raise ValueError("component has no available endpoint vertex")
    lone = {v for part in (comp.x_part, comp.y_part) if len(part) == 1 for v in part}
    return min(candidates, key=lambda v: (v in lone, v))


def construct_optimal_chained(d: ChainDecomposition) -> Ordering:
    """An ordering of all vertices achieving min_imbalance_chained(d).

    Each overlap sits between the blocks of its two components, so its
    imbalance is |g(s_i, C_i) - g(s_i, C_{i+1})|; every component block is an
    optimal ordering of that component with the boundary vertices at its
    extremes.
    """
    s0 = _pick_endpoint(d.components[0], set(d.overlaps[:1]))
    bounds = [s0, *d.overlaps, _pick_endpoint(d.components[-1], set(d.overlaps[-1:]) or {s0})]
    seq = [s0]
    for comp, s_prev, s_next in zip(d.components, bounds, bounds[1:]):
        seq += [*_validated_subordering(comp, s_prev, s_next), s_next]
    return Ordering(seq)


def generate_chained(spec: ChainSpec) -> tuple[Graph, ChainDecomposition]:
    """Materialize a chain spec as a graph with deterministic x<k>/y<k> names.

    The overlap between components i and i+1 is the last freshly allocated
    vertex of the chosen part of component i.
    """
    spec.validate()
    names = {"X": map("x{}".format, count(1)), "Y": map("y{}".format, count(1))}
    comps, overlaps, edges = [], [], []
    for i, sizes in enumerate(spec.sizes):
        xs, ys = parts = [], []
        for letter, size, part in zip("XY", sizes, parts):
            if i and spec.overlap_parts[i - 1] == letter:
                part.append(overlaps[-1])
            part += islice(names[letter], size - len(part))
        if i < len(spec.overlap_parts):
            overlaps.append(parts[spec.overlap_parts[i] == "Y"][-1])
        comps.append(ChainComponent(frozenset(xs), frozenset(ys)))
        edges += [(x, y) for x in xs for y in ys]
    return Graph((), edges), ChainDecomposition(tuple(comps), tuple(overlaps))


def interval_representation(d: ChainDecomposition) -> _Intervals:
    """A proper-interval staircase realization of the chained graph.

    Component i occupies the window [4i, 4i+3]; its j-th non-overlap vertex
    is shifted right by j*eps with eps = 1/(2*(|C_i|+2)), so equal-length
    intervals never nest. Overlap s_i spans [4i+3, 4(i+1)+3], reaching both
    of its components' windows. Touching closed intervals count as
    intersecting.
    """
    from fractions import Fraction  # no CLI command needs it at import

    rep: dict[str, tuple[Fraction, Fraction]] = {}
    overlap_set = set(d.overlaps)
    for i, comp in enumerate(d.components, start=1):
        base = 4 * i
        eps = Fraction(1, 2 * (len(comp.vertices) + 2))
        for j, v in enumerate(sorted(comp.vertices - overlap_set), start=1):
            rep[v] = (base + j * eps, base + 3 + j * eps)
    for i, s in enumerate(d.overlaps, start=1):
        rep[s] = (Fraction(4 * i + 3), Fraction(4 * (i + 1) + 3))
    return rep


# Both sides of the two-component overlap inequality, plus the counts.
OverlapInequalityProbe = namedtuple(
    "OverlapInequalityProbe",
    "lhs rhs left_in_first right_in_first left_in_second right_in_second",
)


def overlap_inequality_probe(o: Ordering, d: ChainDecomposition) -> OverlapInequalityProbe:
    """Evaluate the overlap-vertex inequality on a two-component chain.

    lhs is the imbalance of s_1 on the whole ordering minus its imbalances on
    the supports restricted to each component; rhs depends only on the two
    g values. Every ordering satisfies lhs >= rhs.
    """
    if d.n != 2:
        raise ValueError(f"probe requires exactly two components, got {d.n}")
    _check_cover(o, d.vertices, "chain")
    s = d.overlaps[0]
    before = set(islice(o, o.position(s) - 1))
    counts = []
    for comp in d.components:
        neighbors = comp.y_part if s in comp.x_part else comp.x_part
        left = len(neighbors & before)
        counts.append((left, len(neighbors) - left))
    (l1, r1), (l2, r2) = counts
    lhs = abs(l1 - r1 + l2 - r2) - abs(l1 - r1) - abs(l2 - r2)
    g1, g2 = l1 + r1, l2 + r2  # s's neighbors in C_i number g(s, C_i)
    rhs = -2 * min(g1, g2)
    return OverlapInequalityProbe(lhs, rhs, l1, r1, l2, r2)


def parse_chain_spec(text: str) -> ChainSpec:
    """Parse the chain spec text format.

    One `component NX NY` line per component in order, with an `overlap X`
    or `overlap Y` line between consecutive components; `#` starts a comment.
    """
    sizes: list[tuple[int, int]] = []
    parts: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "component":
            if sizes and len(parts) != len(sizes):
                raise GraphParseError(
                    "expected an overlap line before the next component", line=lineno
                )
            if len(tokens) != 3:
                raise GraphParseError(
                    f"component line needs two sizes: {line!r}", line=lineno
                )
            # The digits int() reads, without signs or '_': '٣' is one, '²' is not.
            if not (tokens[1].isdecimal() and tokens[2].isdecimal()):
                raise GraphParseError(
                    f"component sizes must be decimal natural numbers: {line!r}", line=lineno
                )
            try:
                sizes.append((int(tokens[1]), int(tokens[2])))
            except ValueError as exc:  # past the interpreter's digit limit
                raise GraphParseError(f"component size too long: {exc}", line=lineno) from None
        elif tokens[0] == "overlap":
            if len(tokens) != 2 or tokens[1] not in ("X", "Y"):
                raise GraphParseError(
                    f"overlap line must be 'overlap X' or 'overlap Y': {line!r}",
                    line=lineno,
                )
            if len(parts) != len(sizes) - 1:
                raise GraphParseError(
                    "overlap line must follow a component line", line=lineno
                )
            parts.append(tokens[1])
        else:
            raise GraphParseError(f"unknown directive {tokens[0]!r}", line=lineno)
    if not sizes:
        raise GraphParseError("spec declares no components")
    if len(parts) != len(sizes) - 1:
        raise GraphParseError("spec ends with a dangling overlap line")
    return ChainSpec(tuple(sizes), tuple(parts))


def format_decomposition(d: ChainDecomposition) -> str:
    """Render the decomposition report (component lines, then overlap lines)."""
    lines = []
    for i, comp in enumerate(d.components, start=1):
        xs = ",".join(sorted(comp.x_part))
        ys = ",".join(sorted(comp.y_part))
        lines.append(f"C{i}: X={{{xs}}} Y={{{ys}}}")
    for i, (s, part) in enumerate(zip(d.overlaps, d.profile().overlap_parts), start=1):
        lines.append(f"s{i} = {s} ({part})")
    return "\n".join(lines)
