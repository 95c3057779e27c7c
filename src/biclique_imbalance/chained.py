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
beyond it. Inline, each component, the closure of a neighborhood, is one
set.intersection of adjacency sets, and one degree scan finds its exits. A
walk whose components cover every vertex and edge proves the graph connected
and bipartite, and guarantees every chain condition but maximality, which
fails only at an overlap alone in its part of the component the walk enters
through it, so the walk tests that size as it enters each component (see
_walk_chain); only the first component's exits, a branch's exits and failure
witnesses get sorted. The bipartition search runs only to explain a
rejection. Construction lays out each component between its two boundary
vertices as at most six alternating runs of its two parts, dealt by
_fill_runs of the complete case into an index table once per block shape in
a call. Which vertices fill a run does not change the imbalance: the
rest go in sorted order, descending (the mirror image of the block built
from the far end) when the boundaries lie in different parts, the first
one's even and the last one's odd. Each block is checked against the closed
form before any is emitted.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import compress, count, islice
from operator import itemgetter

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
        for i, part in enumerate(self.overlap_parts, start=1):
            if part not in ("X", "Y"):
                raise SpecInvalidError(f"overlap {i} part must be X or Y, got {part!r}")
            for k in (i, i + 1):
                if (size := self.sizes[k - 1][part != "X"]) < 2:
                    raise SpecInvalidError(
                        f"overlap {i} in part {part} needs component {k} to have "
                        f"{part} size >= 2, got {size}"
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
    delta = min(degrees := list(map(len, adj.values())))
    if delta == 0:  # an isolated vertex in a graph with an edge
        raise NotChainedError("a vertex has no neighbors")
    v = min(compress(adj, map(delta.__eq__, degrees)))
    if delta != 2 or not lone(v):
        return v
    mixed = (v for v, nb in adj.items() if len(nb) == 2 and any(len(adj[w]) != 2 for w in nb))
    return min(mixed, default=r)


def _walk_chain(g: Graph, start: str) -> tuple[list[ChainComponent], list[str]]:
    """Components and overlaps, walking out from the component of start.

    The first component is the closure of N(start), its Y part; from exit s
    the next is the closure of s's neighbors outside the last component, the
    part opposite s: one set.intersection of their adjacency sets. It has at
    most one exit besides s, a vertex of degree above the opposite part's
    size found by one scan, and meets the earlier components only at s. The
    second direction, from the first component's second exit, runs on a
    valid chain whose start lies in a middle component.

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
    leaves: Q also holds the entry, and P = {t} makes Q = N(t). So the walk
    tests maximality as it enters each component: s must not be alone in its
    part. The test follows the meet and branch tests, which keep precedence.

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
    get = adj.__getitem__
    side = adj[start]
    common = set.intersection(*map(get, side))  # holds start
    last = ChainComponent(common, side)
    comps, overlaps, seen = [last], [], set(last.vertices)
    ends = [v for v in side if len(adj[v]) > len(common)]
    ends = sorted(ends + [v for v in common if len(adj[v]) > len(side) and v != start])
    if len(ends) > 2:
        raise NotChainedError(
            f"the chain branches at the component reached through {start}: {', '.join(ends)}"
        )
    for s in ends:
        # Reversed, the first direction's components end at the first one, so
        # the second direction extends the chain on its other side.
        comps.reverse()
        overlaps.reverse()
        last = comps[-1]
        while s is not None:
            side = adj[s] - last.vertices
            if not side:  # s has a neighbor in its own part: not bipartite
                raise NotChainedError(f"{s} has no neighbor outside its component")
            common = set.intersection(*map(get, side))  # holds s
            in_y = s in last.y_part
            nxt = ChainComponent(side, common) if in_y else ChainComponent(common, side)
            if len(seen & nxt.vertices) > 1:  # s lies in both
                raise NotChainedError(
                    f"the component entered through {s} meets an earlier one at "
                    f"{min(seen & nxt.vertices - {s})}"
                )
            n_side, n_common = len(side), len(common)
            onward = []
            for v in side:
                if len(adj[v]) > n_common:
                    onward.append(v)
            for v in common:
                if len(adj[v]) > n_side and v != s:
                    onward.append(v)
            if len(onward) > 1:
                raise NotChainedError(
                    f"the chain branches at the component reached through {s}: "
                    f"{', '.join(sorted(onward))}"
                )
            if n_common == 1:  # s alone in its part
                raise NotChainedError(
                    f"the component entered through {s} is not maximal: extendable by "
                    f"{min(last.x_part if in_y else last.y_part)}"
                )
            seen |= nxt.vertices
            comps.append(nxt)
            overlaps.append(s)
            last = nxt
            s = onward[0] if onward else None
    edges = sum([len(c.x_part) * len(c.y_part) for c in comps])
    if len(seen) != len(adj) or edges != g.edge_count:
        raise NotChainedError(f"the walk from {start} leaves vertices or edges uncovered")
    return comps, overlaps


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
    return ChainDecomposition(tuple(comps), tuple(overlaps))


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


def _validated_subordering(
    comp: ChainComponent, s_prev: str, s_next: str, deals: dict
) -> tuple[str, ...]:
    """The tokens of comp between its boundary vertices s_prev and s_next.

    The boundaries are two distinct vertices of comp: the real overlaps, or
    the synthesized endpoints for the first and last components. Each part is
    sorted once, its boundaries moved to its ends, then dealt by
    deals[|A|, |B|, same]: an itemgetter of index ranges dealt by _fill_runs,
    added on first use and kept for one construction. The block must cover
    comp exactly, run from s_prev to s_next and evaluate to the closed form.
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
    a_seq, b_seq = sorted(a, reverse=descending), sorted(b, reverse=descending)
    a_seq.insert(0, a_seq.pop(a_seq.index(s_prev)))
    end = a_seq if same else b_seq
    end.append(end.pop(end.index(s_next)))
    shape = len(a), len(b), same
    if shape not in deals:
        ids = [*range(len(a) + len(b))]
        deals[shape] = itemgetter(*_fill_runs(ids[: len(a)], ids[len(a) :], same))
    block = deals[shape](a_seq + b_seq)
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
    seq, deals = [s0], {}
    for comp, s_prev, s_next in zip(d.components, bounds, bounds[1:]):
        seq += _validated_subordering(comp, s_prev, s_next, deals)
        seq.append(s_next)
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
    pos, at = o._pos, o.position(s)
    counts = []
    for comp in d.components:
        neighbors = comp.y_part if s in comp.x_part else comp.x_part  # g(s, C_i) of them
        left = 0
        for v in neighbors:  # count those placed before s
            left += pos[v] < at
        counts += (left, len(neighbors) - left)
    l1, r1, l2, r2 = counts
    lhs = abs(l1 - r1 + l2 - r2) - abs(l1 - r1) - abs(l2 - r2)
    return OverlapInequalityProbe(lhs, -2 * min(l1 + r1, l2 + r2), *counts)


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
