"""Chained complete bipartite graphs.

A chained complete bigraph decomposes into maximal complete bipartite
components C_1..C_n where consecutive components share exactly one overlap
vertex and non-consecutive components are disjoint. Its minimum imbalance is

    sum_i ( |X_i|*|Y_i| + (|X_i| mod 2)*(|Y_i| mod 2) )
    - sum_i ( g(s_i, C_i) + g(s_i, C_{i+1}) )
    + sum_i | g(s_i, C_i) - g(s_i, C_{i+1}) |

where g(s, C) is the number of neighbors of overlap s inside C, i.e. the
size of C's opposite part.

The decomposer walks the chain in time linear in the graph up to sorting: it
starts from the component of a vertex the bipartition search reached last
(never an overlap), and steps from each component to the next through the
one vertex with neighbors beyond it. Each component, the closure of a
neighborhood, is one intersection of adjacency sets, and a degree scan finds
its exits. The walk guarantees every chain condition, maximality too except
at an overlap alone in its part of a component (see _walk_chain), so
maximality is a size test at each overlap; only exits and failure witnesses
get sorted. Construction of optimal orderings lays out each component
between its two boundary vertices as at most six alternating runs of its two
parts, read off the run-length table of the complete case, and validates
each against the closed form before emitting anything.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import count, islice

from .complete import _fill_runs, _signed_imbalances, min_imbalance_formula
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


# No __slots__, so that cached_property has a __dict__ to fill.
class ChainDecomposition(namedtuple("ChainDecomposition", "components overlaps overlap_in_x")):
    """Ordered components C_1..C_n plus the overlap vertices s_1..s_{n-1}.

    overlap_in_x[i] is True iff s_{i+1} belongs to the global X part.
    """

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset().union(*(c.vertices for c in self.components))

    def profile(self) -> tuple[tuple[tuple[int, int], ...], tuple[str, ...]]:
        """(component sizes, overlap part letters) for round-trip comparisons."""
        sizes = tuple((c.nx, c.ny) for c in self.components)
        parts = tuple("X" if in_x else "Y" for in_x in self.overlap_in_x)
        return sizes, parts


class ChainSpec(namedtuple("ChainSpec", "sizes overlap_parts")):
    """Generator input: per-component part sizes and per-overlap part choice."""

    __slots__ = ()

    def validate(self) -> None:
        if len(self.sizes) < 1:
            raise SpecInvalidError("spec needs at least one component")
        if len(self.overlap_parts) != len(self.sizes) - 1:
            raise SpecInvalidError(
                f"{len(self.sizes)} components need {len(self.sizes) - 1} overlaps, "
                f"got {len(self.overlap_parts)}"
            )
        for i, (nx_size, ny_size) in enumerate(self.sizes, start=1):
            if nx_size < 1 or ny_size < 1:
                raise SpecInvalidError(
                    f"component {i} has an empty part: ({nx_size}, {ny_size})"
                )
        for i, part in enumerate(self.overlap_parts, start=1):
            if part not in ("X", "Y"):
                raise SpecInvalidError(f"overlap {i} part must be X or Y, got {part!r}")
            # The overlap is counted inside both components; a singleton part
            # cannot host an overlap without breaking maximality.
            for k in (i, i + 1):
                size = self.sizes[k - 1][0 if part == "X" else 1]
                if size < 2:
                    raise SpecInvalidError(
                        f"overlap {i} in part {part} needs component {k} to have "
                        f"{part} size >= 2, got {size}"
                    )


def _biclique_closure(g: Graph, b: Bipartition, side: frozenset[str]) -> ChainComponent:
    """The maximal biclique with one part generated by side, a color class: the
    common neighbors of side, all in the other class, are the other part."""
    pair = (side, frozenset.intersection(*map(g._adj.__getitem__, side)))
    return ChainComponent(*(pair if next(iter(side)) in b.x_part else pair[::-1]))


def _exits(g: Graph, comp: ChainComponent, entry: str, limit: int) -> list[str]:
    """The vertices of comp other than entry with a neighbor outside comp: comp
    is complete, so their degree exceeds the size of the opposite part. More
    than limit of them means the chain branches at comp."""
    adj = g._adj
    out = sorted(
        v
        for part, opposite in ((comp.x_part, comp.ny), (comp.y_part, comp.nx))
        for v in part
        if len(adj[v]) > opposite and v != entry
    )
    if len(out) > limit:
        raise NotChainedError(
            f"the chain branches at the component reached through {entry}: {', '.join(out)}"
        )
    return out


def _walk_chain(
    g: Graph, b: Bipartition, start: str
) -> tuple[list[ChainComponent], list[str]]:
    """Components and overlaps, walking out from the component of start.

    start is no overlap, so its component is the closure of its neighbors; it
    may lie mid-chain, with two exits. From exit s the next component is the
    closure of s's neighbors outside the last one. It has at most one exit
    besides s and meets the components found before it only at s.

    A walk that returns on a connected bipartite graph with an edge leaves
    only maximality to test. Each component is complete with both parts
    nonempty: a side (N(start), or an exit's neighbors outside the last
    component, which exist as its degree exceeds its opposite part) and the
    side's common neighbors, the generating vertex among them. Every edge
    p-q, and by connectivity every vertex, lies in a component: if p's
    component C lacks q, p is neither start nor C's entry, whose neighbors lie
    in C and the component before it, so p is an exit, and the walk branched
    or put p and q in the next component. An overlap alone in its part of C
    is extended by its neighbors in the other component, so C is not maximal.

    Conversely, that is the only way to lose maximality. Write a component as
    (P, Q), P its side and Q all common neighbors of P, so only P can grow.
    Q holds the entry e, start or the overlap s it was entered through, so a
    v growing P lies in N(e) - P: empty for the first component, where
    P = N(start), and s's opposite part in the one before for a later one.
    Such v lies only in earlier components, which meet this one only at s,
    so v is adjacent to all of Q iff Q = {s}. An exit t is never alone in its
    part of the component it leaves: Q also holds the entry, and P = {t}
    makes Q = N(t). So maximality is a test on part sizes (_check_maximal).
    """
    first = _biclique_closure(g, b, g._adj[start])
    comps, overlaps = [first], []
    seen = set(first.vertices)
    for s in _exits(g, first, start, 2):
        # Reversed, the first direction's components end at first, so the
        # second direction extends the chain on first's other side.
        comps.reverse()
        overlaps.reverse()
        while s is not None:
            nxt = _biclique_closure(g, b, g._adj[s] - comps[-1].vertices)
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
    return comps, overlaps


def _check_maximal(d: ChainDecomposition) -> None:
    """Reject an overlap alone in its part of a component, which the overlap's
    opposite part in the other component extends (see _walk_chain)."""
    for i, in_x in enumerate(d.overlap_in_x):
        # Left component first, so the first hit is the lowest-numbered one.
        for k, other in ((i, i + 1), (i + 1, i)):
            if (d.components[k].nx if in_x else d.components[k].ny) == 1:
                o = d.components[other]
                raise NotChainedError(
                    f"component C{k + 1} is not maximal: extendable by "
                    f"{min(o.y_part if in_x else o.x_part)}"
                )


def decompose(g: Graph) -> ChainDecomposition:
    """Decompose a connected chained complete bigraph into its components.

    The chain is normalized so that the lexicographically smallest
    end-component vertex lies in C_1; when both end components have the same
    smallest vertex (their shared overlap), the one whose sorted vertex list
    is lexicographically larger comes first. Raises NotBipartiteError,
    NotConnectedError, or NotChainedError (with a reason) otherwise.
    """
    if g.vertex_count == 0:
        raise NotChainedError("graph has no vertices")
    if g.edge_count == 0:
        raise NotChainedError("graph has no edges for any component to cover")
    b, roots, last = _bipartition_and_roots(g)
    if len(roots) > 1:
        raise NotConnectedError(f"graph is not connected ({roots[1]} unreachable)")
    # An overlap is a cut vertex with vertices strictly farther from the root
    # on its far side, so the vertex the search reached last is no overlap.
    comps, overlaps = _walk_chain(g, b, last)
    head, tail = comps[0].vertices, comps[-1].vertices
    if min(tail) < min(head) or (min(tail) == min(head) and sorted(tail) > sorted(head)):
        comps.reverse()
        overlaps.reverse()
    in_x = tuple(s in b.x_part for s in overlaps)
    d = ChainDecomposition(tuple(comps), tuple(overlaps), in_x)
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
    comp = d.components[j - 1]
    return comp.ny if d.overlap_in_x[i - 1] else comp.nx


def min_imbalance_chained(d: ChainDecomposition) -> int:
    """Closed-form minimum imbalance of the chained graph."""
    total = sum(min_imbalance_formula(c.nx, c.ny) for c in d.components)
    for a, c, in_x in zip(d.components, d.components[1:], d.overlap_in_x):
        left, right = (a.ny, c.ny) if in_x else (a.nx, c.nx)
        total += abs(left - right) - left - right
    return total


def _between(comp: ChainComponent, s_prev: str, s_next: str) -> list[str]:
    """Tokens between the boundary vertices of one component's subordering.

    The runs start with s_prev's part A and hold s_next last in its own part.
    """
    prev_x = s_prev in comp.x_part
    same = prev_x == (s_next in comp.x_part)
    a, b = (comp.x_part, comp.y_part) if prev_x else (comp.y_part, comp.x_part)
    # Across parts, the runs need s_prev's part odd unless both are even;
    # mirror (build from the other end, then flip) when only s_next's is odd.
    mirror = not same and len(a) % 2 == 0 and len(b) % 2 == 1
    if mirror:
        a, b, s_prev, s_next = b, a, s_next, s_prev
    if not same and len(a) == 1 < len(b):
        raise ConstructionInvariantViolatedError(
            f"boundary vertex in a singleton part of K({len(a)}, {len(b)}) admits no "
            "optimal ordering"
        )
    a_seq = [s_prev, *sorted(a - {s_prev, s_next})]
    b_seq = sorted(b - {s_next})
    (a_seq if same else b_seq).append(s_next)
    full = _fill_runs(a_seq, b_seq, same)
    if mirror:
        full.reverse()
    return full[1:-1]


def _validated_subordering(
    comp: ChainComponent, s_prev: str, s_next: str
) -> list[str]:
    """The tokens of comp between its boundary vertices s_prev and s_next.

    The boundaries are two distinct vertices of comp: the real overlaps, or
    the synthesized endpoints for the first and last components. s_prev, the
    tokens and s_next, in that order, make an imbalance-optimal ordering of
    comp with the boundaries at its extremes; it is validated by direct
    evaluation before being returned.
    """
    if s_prev == s_next or not {s_prev, s_next} <= comp.vertices:
        raise ValueError(
            f"boundary vertices must be two distinct members of the component, "
            f"got {s_prev!r}, {s_next!r}"
        )
    mid = _between(comp, s_prev, s_next)
    full = [s_prev, *mid, s_next]
    if len(full) != len(comp.vertices) or frozenset(full) != comp.vertices:
        raise ConstructionInvariantViolatedError(
            "component subordering does not cover the component exactly"
        )
    achieved = sum(abs(s) for part in _signed_imbalances(full, comp) for s in part)
    expected = min_imbalance_formula(comp.nx, comp.ny)
    if achieved != expected:
        raise ConstructionInvariantViolatedError(
            f"component subordering evaluates to {achieved}, expected {expected} "
            f"for K({comp.nx}, {comp.ny}) with boundaries {s_prev}, {s_next}"
        )
    return mid


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
    in_x = tuple(p == "X" for p in spec.overlap_parts)
    return Graph((), edges), ChainDecomposition(tuple(comps), tuple(overlaps), in_x)


def interval_representation(d: ChainDecomposition) -> dict[str, tuple[Fraction, Fraction]]:
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
    before = set(o.sequence[: o.position(s) - 1])
    counts = []
    for comp in d.components:
        neighbors = comp.y_part if d.overlap_in_x[0] else comp.x_part
        left = len(neighbors & before)
        counts.append((left, len(neighbors) - left))
    (l1, r1), (l2, r2) = counts
    lhs = abs(l1 - r1 + l2 - r2) - abs(l1 - r1) - abs(l2 - r2)
    g1, g2 = l1 + r1, l2 + r2  # s's neighbors in C_i number g(s, C_i)
    rhs = abs(g1 - g2) - g1 - g2
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
    for i, s in enumerate(d.overlaps, start=1):
        lines.append(f"s{i} = {s} ({'X' if d.overlap_in_x[i - 1] else 'Y'})")
    return "\n".join(lines)
