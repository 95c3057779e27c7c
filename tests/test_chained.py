"""Chain decomposition, the chained closed form, constructions, generation,
interval representations, and the overlap inequality probe."""

import collections
import decimal
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclique_imbalance import (
    ChainComponent,
    ChainDecomposition,
    ChainSpec,
    ConstructionInvariantViolatedError,
    Graph,
    GraphParseError,
    NotBipartiteError,
    NotChainedError,
    NotConnectedError,
    Ordering,
    SpecInvalidError,
    bipartition,
    brute_force_min,
    construct_optimal_chained,
    construct_optimal_complete,
    decompose,
    format_decomposition,
    g_count,
    generate_chained,
    interval_representation,
    min_imbalance_chained,
    min_imbalance_formula,
    ordering_imbalance,
    overlap_inequality_probe,
    parse_chain_spec,
    vertex_imbalance,
)
from biclique_imbalance import chained
from biclique_imbalance.chained import (
    _check_maximal,
    _pick_endpoint,
    _start,
    _validated_subordering,
    _walk_chain,
)
from biclique_imbalance.complete import _fill_runs
from biclique_imbalance.graph import _bipartition_and_roots
from conftest import chained_example_graph, complete_bigraph

FIG_SPEC = ChainSpec(((2, 2), (2, 2), (2, 3)), ("X", "Y"))
GLUED_SPEC = ChainSpec(((2, 2), (2, 2)), ("X",))


def random_chain_spec(rng, max_comps=12, max_total=400, max_part=30):
    n = rng.randint(1, max_comps)
    parts = [rng.choice("XY") for _ in range(n - 1)]
    sizes = []
    for i in range(n):
        min_x = 2 if (i > 0 and parts[i - 1] == "X") or (i < n - 1 and parts[i] == "X") else 1
        min_y = 2 if (i > 0 and parts[i - 1] == "Y") or (i < n - 1 and parts[i] == "Y") else 1
        sizes.append(
            (rng.randint(min_x, max(min_x, max_part)), rng.randint(min_y, max(min_y, max_part)))
        )
    if sum(a + b for a, b in sizes) - (n - 1) > max_total:
        return None
    return ChainSpec(tuple(sizes), tuple(parts))


def profiles_match_up_to_reversal(d1, d2):
    p1, p2 = d1.profile(), d2.profile()
    return p2 == p1 or p2 == (tuple(reversed(p1[0])), tuple(reversed(p1[1])))


def renamed(g, d, rng):
    """g and d with every vertex renamed by a random bijection onto v<k> names."""
    names = sorted(g.vertices)
    fresh = [f"v{k}" for k in range(1, len(names) + 1)]
    rng.shuffle(fresh)
    m = dict(zip(names, fresh))
    graph = Graph((), ((m[u], m[v]) for u, v in g.edges()))
    comps = tuple(
        ChainComponent(frozenset(m[v] for v in c.x_part), frozenset(m[v] for v in c.y_part))
        for c in d.components
    )
    return graph, ChainDecomposition(comps, tuple(m[s] for s in d.overlaps))


def unlabelled(comps):
    """Components as unordered pairs of parts: the smallest vertex decides
    which part of the graph is called X."""
    return [frozenset((c.x_part, c.y_part)) for c in comps]


def same_chain_up_to_reversal(d1, d2):
    comps1, comps2 = unlabelled(d1.components), unlabelled(d2.components)
    if comps2 == comps1 and d2.overlaps == d1.overlaps:
        return True
    return comps2 == comps1[::-1] and d2.overlaps == d1.overlaps[::-1]


def restrict(g, o, keep):
    """The subgraph of g induced by keep, and o restricted to keep."""
    keep = set(keep)
    edges = [(u, v) for u in keep for v in g.neighbors(u) & keep if u < v]
    return Graph(keep, edges), Ordering(v for v in o if v in keep)


def k33_chain(n):
    """n K(3,3) components glued alternately at X and Y overlaps."""
    return generate_chained(ChainSpec(((3, 3),) * n, tuple("XY"[i % 2] for i in range(n - 1))))


def rejects(reason):
    """pytest.raises for a NotChainedError whose whole message gives reason."""
    message = f"not a chained complete bipartite graph: {reason}"
    return pytest.raises(NotChainedError, match=f"^{re.escape(message)}$")


def glued_chain(sizes, parts, rng):
    """K(a, b)s in a row, each glued to the next at the last vertex of its
    part parts[i], then renamed onto shuffled v<k> names: generate_chained
    without the spec check, so a glued vertex may be alone in its part."""
    count = {"X": itertools.count(1), "Y": itertools.count(1)}
    edges, carry = [], None
    for i, (a, b) in enumerate(sizes):
        side = {p: [carry[1]] if carry and carry[0] == p else [] for p in "XY"}
        for p, size in zip("XY", (a, b)):
            side[p] += [f"{p}{next(count[p])}" for _ in range(size - len(side[p]))]
        edges += [(x, y) for x in side["X"] for y in side["Y"]]
        carry = (parts[i], side[parts[i]][-1]) if i < len(parts) else None
    names = sorted({v for e in edges for v in e})
    fresh = [f"v{k}" for k in range(1, len(names) + 1)]
    rng.shuffle(fresh)
    m = dict(zip(names, fresh))
    return Graph((), [(m[u], m[v]) for u, v in edges])


def lone_overlap_chains(seed=2468, per_kind=12):
    """(kind, graph) for glued chains of 2-6 K(a, b)s with one or two
    overlaps alone in their part of one of their two components; kind says
    which overlaps are lone: the first, a middle one, the last, or two."""
    rng = random.Random(seed)
    quota = dict.fromkeys(("first", "middle", "last", "two"), per_kind)
    while any(quota.values()):
        n = rng.randint(2, 6)
        parts = [rng.choice("XY") for _ in range(n - 1)]
        sizes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        ones = [
            [sizes[k]["XY".index(p)] == 1 for k in (i, i + 1)] for i, p in enumerate(parts)
        ]
        # Lone on both sides would merge the two stars; a part holding two
        # overlaps needs two vertices.
        if any(all(o) for o in ones) or any(
            p == q and sizes[i + 1]["XY".index(p)] < 2
            for i, (p, q) in enumerate(zip(parts, parts[1:]))
        ):
            continue
        lone = [i for i, o in enumerate(ones) if any(o)]
        if len(lone) == 2:
            kind = "two"
        elif len(lone) == 1:
            kind = "first" if lone == [0] else "last" if lone == [n - 2] else "middle"
        else:
            continue
        if quota[kind]:
            quota[kind] -= 1
            yield kind, glued_chain(sizes, parts, rng)


def maximal_bicliques(g, xs, ys):
    """Every maximal complete bipartite subgraph with two nonempty parts.

    Brute force over all pairs of nonempty subsets of the two parts, then
    drop every pair that one more vertex would extend.
    """
    def subsets(part):
        part = sorted(part)
        for r in range(1, len(part) + 1):
            yield from (frozenset(c) for c in itertools.combinations(part, r))

    out = []
    for a in subsets(xs):
        for b in subsets(ys):
            if all(g.has_edge(x, y) for x in a for y in b):
                grow_a = any(all(g.has_edge(x, y) for y in b) for x in xs - a)
                grow_b = any(all(g.has_edge(x, y) for x in a) for y in ys - b)
                if not grow_a and not grow_b:
                    out.append(ChainComponent(a, b))
    return out


def is_path_of_components(comps, vertices):
    """Consecutive members share one vertex, which sits in a part of size >= 2
    in both; non-consecutive members are disjoint; together they cover vertices."""
    if frozenset().union(*(c.vertices for c in comps)) != vertices:
        return False
    links = {i: [] for i in range(len(comps))}
    for i, j in itertools.combinations(range(len(comps)), 2):
        shared = comps[i].vertices & comps[j].vertices
        if len(shared) > 1:
            return False
        if shared:
            (s,) = shared
            for c in (comps[i], comps[j]):
                if len(c.x_part if s in c.x_part else c.y_part) < 2:
                    return False
            links[i].append(j)
            links[j].append(i)
    if sum(map(len, links.values())) != 2 * (len(comps) - 1):
        return False
    if any(len(nb) > 2 for nb in links.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        for j in links[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(comps)


def recognised_chains(g, xs, ys):
    """Every chain decomposition of g, as sets of components.

    Partitions the edges into maximal bicliques by backtracking and keeps the
    partitions whose members form a path of components.
    """
    cliques = [
        (c, frozenset((x, y) for x in c.x_part for y in c.y_part))
        for c in maximal_bicliques(g, xs, ys)
    ]
    oriented = frozenset((u, v) if u in xs else (v, u) for u, v in g.edges())
    found = []

    def split(uncovered, chosen):
        if not uncovered:
            if is_path_of_components(chosen, g.vertices):
                found.append(frozenset(unlabelled(chosen)))
            return
        e = min(uncovered)
        for c, edges in cliques:
            if e in edges and edges <= uncovered:
                split(uncovered - edges, chosen + [c])

    split(oriented, [])
    return found


def chain_condition_failures(g, d):
    """The chain conditions that d breaks as a decomposition of g, each tested
    from its definition in polynomial time: an empty list for a chain."""
    comps, n = d.components, len(d.components)
    xs = frozenset().union(*(c.x_part for c in comps))
    ys = frozenset().union(*(c.y_part for c in comps))

    def in_one(u, v):
        return any({u, v} <= c.vertices and (u in c.x_part) != (v in c.x_part) for c in comps)

    checks = [
        ("empty part", any(not c.x_part or not c.y_part for c in comps)),
        (
            "incomplete",
            any(not g.has_edge(x, y) for c in comps for x in c.x_part for y in c.y_part),
        ),
        (
            "not maximal",
            any(
                v not in c.vertices and (c.x_part <= g.neighbors(v) or c.y_part <= g.neighbors(v))
                for c in comps
                for v in g.vertices
            ),
        ),
        # The X parts lie in one color class and the Y parts in the other.
        ("sides", bool(xs & ys) or any({u, v} <= xs or {u, v} <= ys for u, v in g.edges())),
        (
            "overlaps",
            len(d.overlaps) != n - 1
            or any(
                comps[i].vertices & comps[j].vertices != ({d.overlaps[i]} if j == i + 1 else set())
                for i, j in itertools.combinations(range(n), 2)
            ),
        ),
        (
            "singleton overlap",
            any(
                len(c.x_part if s in c.x_part else c.y_part) < 2
                for i, s in enumerate(d.overlaps)
                for c in comps[i : i + 2]
                if s in c.vertices
            ),
        ),
        ("vertex cover", xs | ys != g.vertices),
        ("edge cover", not all(in_one(u, v) for u, v in g.edges())),
    ]
    return [name for name, broken in checks if broken]


def assert_decompose_matches_recogniser(g, xs, ys):
    """decompose(g), or None, after checking it against the recogniser and
    the chain conditions."""
    expected = recognised_chains(g, xs, ys)
    try:
        d = decompose(g)
    except (NotChainedError, NotConnectedError):
        assert expected == [], sorted(g.edges())
        return None
    assert frozenset(unlabelled(d.components)) in expected, sorted(g.edges())
    assert chain_condition_failures(g, d) == [], sorted(g.edges())
    return d


class TestDecompose:
    def test_paper_figure_graph(self):
        d = decompose(chained_example_graph())
        assert d.n == 3
        assert d.components[0] == ChainComponent(
            frozenset({"x1", "x2"}), frozenset({"y1", "y2"})
        )
        assert d.components[1] == ChainComponent(
            frozenset({"x2", "x3"}), frozenset({"y3", "y4"})
        )
        assert d.components[2] == ChainComponent(
            frozenset({"x4", "x5"}), frozenset({"y4", "y5", "y6"})
        )
        assert d.overlaps == ("x2", "y4")
        assert d.profile().overlap_parts == ("X", "Y")

    def test_single_component(self):
        g, _ = complete_bigraph(2, 2)
        d = decompose(g)
        assert d.n == 1
        assert d.overlaps == ()

    def test_glued_k22s_roundtrip(self):
        g, built = generate_chained(GLUED_SPEC)
        assert g.vertex_count == 7
        d = decompose(g)
        assert d.n == 2
        assert d.profile().overlap_parts == ("X",)
        assert profiles_match_up_to_reversal(built, d)

    def test_chain_orientation_is_normalized(self):
        d = decompose(chained_example_graph())
        # the smallest end-component vertex (x1) must sit in C_1
        assert "x1" in d.components[0].vertices

    def test_triangle_not_bipartite(self):
        with pytest.raises(NotBipartiteError):
            decompose(Graph((), [("a", "b"), ("b", "c"), ("a", "c")]))

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            decompose(Graph((), [("a", "b"), ("c", "d")]))

    def test_disconnected_names_smallest_unreachable_vertex(self):
        g = Graph((), [("a", "b"), ("e", "f"), ("d", "c")])
        with pytest.raises(NotConnectedError, match=r"^graph is not connected \(c unreachable\)$"):
            decompose(g)

    def test_disconnected_and_not_bipartite_reports_odd_cycle(self):
        g = Graph((), [("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")])
        with pytest.raises(NotBipartiteError):
            decompose(g)

    @pytest.mark.parametrize(
        "extra, error, message",
        [
            # The smallest vertex is isolated: no walk starts.
            ((["a"], []), NotConnectedError, "graph is not connected (x1 unreachable)"),
            # The walk meets the triangle's edge t1-t2 from the start t1.
            (
                ([], [("y4", "t1"), ("t1", "t2"), ("t2", "y4")]),
                NotBipartiteError,
                "graph is not bipartite; odd cycle: t2 t1 y4",
            ),
            # The walk returns over the chain and leaves z1-z2 uncovered.
            (([], [("z1", "z2")]), NotConnectedError, "graph is not connected (z1 unreachable)"),
        ],
        ids=["isolated-first", "triangle", "disjoint-edge"],
    )
    def test_search_explains_the_walks_rejection(self, extra, error, message):
        # The README chain, two K(2, 2)s glued at x2, plus vertices or edges.
        chain = [(x, y) for x in ("x1", "x2") for y in ("y1", "y2")]
        chain += [(x, y) for x in ("x2", "x3") for y in ("y3", "y4")]
        vertices, edges = extra
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            decompose(Graph(vertices, chain + edges))

    def test_six_cycle_rejected(self):
        g = Graph(
            (),
            [("x1", "y1"), ("y1", "x2"), ("x2", "y2"), ("y2", "x3"), ("x3", "y3"), ("y3", "x1")],
        )
        with rejects("the component entered through y2 meets an earlier one at y3"):
            decompose(g)

    def test_edgeless_rejected(self):
        with rejects("graph has no edges for any component to cover"):
            decompose(Graph(["a"]))

    def test_star_of_three_paths_rejected(self):
        # three K(1,2) arms sharing one center: the components pairwise share
        # the center, which is not a path-shaped chain
        g = Graph((), [("c", "a1"), ("c", "a2"), ("c", "b1")])
        d = decompose(g)  # a single star K(1,3) is itself one component
        assert d.n == 1
        g2 = Graph(
            (),
            [("c", "m1"), ("m1", "e1"), ("c", "m2"), ("m2", "e2"), ("c", "m3"), ("m3", "e3")],
        )
        with rejects("the chain branches at the component reached through c: m2, m3"):
            decompose(g2)

    def test_ring_of_k33s_rejected(self):
        # component i has X = {s(i-1), s(i), a(i)}; s(i) also lies in component i+1
        edges = [
            (x, f"{y}{i}")
            for i in range(4)
            for x in (f"s{(i - 1) % 4}", f"s{i}", f"a{i}")
            for y in "pqr"
        ]
        with rejects("the component entered through s2 meets an earlier one at s3"):
            decompose(Graph((), edges))

    def test_tree_of_components_rejected(self):
        # a K(3,3) hub with a K(3,3) arm at each of its three X vertices
        edges = [(h, y) for h in ("h1", "h2", "h3") for y in ("p", "q", "r")]
        for k in (1, 2, 3):
            edges += [(x, f"{y}{k}") for x in (f"h{k}", f"a{k}", f"b{k}") for y in "pqr"]
        with rejects("the chain branches at the component reached through h1: h2, h3"):
            decompose(Graph((), edges))

    def test_extra_edge_between_non_consecutive_components_rejected(self):
        g, d = k33_chain(3)
        overlaps = set(d.overlaps)
        x = min(d.components[0].x_part - overlaps)
        y = min(d.components[2].y_part - overlaps)
        with rejects("the chain branches at the component reached through x1: x6, x7, x8"):
            decompose(Graph((), [*g.edges(), (x, y)]))

    def test_k33_chain_missing_one_edge_rejected(self):
        g, d = k33_chain(3)
        overlaps = set(d.overlaps)
        x = min(d.components[1].x_part - overlaps)
        y = min(d.components[1].y_part - overlaps)
        with rejects("the chain branches at the component reached through x3: y5, y6"):
            decompose(Graph((), [e for e in g.edges() if set(e) != {x, y}]))


class TestVerifyChain:
    """Hand-built broken decompositions. The walk cannot build the first four
    (see decompose's proof), so the test-side checker names what each breaks;
    maximality is the one condition decompose tests after its walk."""

    @staticmethod
    def chain(graph_edges, comps, overlaps=(), vertices=()):
        g = Graph(vertices, graph_edges)
        built = tuple(ChainComponent(frozenset(x), frozenset(y)) for x, y in comps)
        return g, ChainDecomposition(built, tuple(overlaps))

    def test_component_missing_one_edge(self):
        # the path x1-y1-x2-y2 split along its color classes is K(2,2) less x1y2
        g, d = self.chain(
            [("x1", "y1"), ("y1", "x2"), ("x2", "y2")], [({"x1", "x2"}, {"y1", "y2"})]
        )
        assert chain_condition_failures(g, d) == ["incomplete"]

    def test_component_extendable_by_a_vertex(self):
        g, d = self.chain(
            [(x, y) for x in ("x1", "x2") for y in ("y1", "y2")],
            [({"x1"}, {"y1", "y2"}), ({"x2"}, {"y1", "y2"})],
        )
        # the two stars also share two vertices and have no overlap listed
        assert chain_condition_failures(g, d) == ["not maximal", "overlaps"]

    def test_overlap_in_a_singleton_part(self):
        # the path a-b-c-d as the stars b:{a,c} and c:{b,d}, glued at b and c
        g, d = self.chain(
            [("a", "b"), ("b", "c"), ("c", "d")],
            [({"b"}, {"a", "c"}), ({"b", "d"}, {"c"})],
            overlaps=["b"],
        )
        assert chain_condition_failures(g, d) == ["overlaps", "singleton overlap"]

    def test_vertex_in_no_component(self):
        g, d = self.chain(
            [(x, y) for x in ("x1", "x2") for y in ("y1", "y2")],
            [({"x1", "x2"}, {"y1", "y2"})],
            vertices=["z", "w"],
        )
        assert chain_condition_failures(g, d) == ["vertex cover"]

    def test_edges_outside_every_component(self):
        # the path a-b-c-d-e-f as the stars b:{a,c} and e:{d,f}, missing cd;
        # the stars put c and d, and b and e, on one side, with no overlap
        g, d = self.chain(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")],
            [({"b"}, {"a", "c"}), ({"e"}, {"d", "f"})],
        )
        assert chain_condition_failures(g, d) == ["sides", "overlaps", "edge cover"]


# decompose's messages on lone_overlap_chains(), recorded with the walk from
# the vertex _start picks. A lone overlap may be that vertex, so the walk may
# branch where a walk from an end component finds a component not maximal.
LONE_OVERLAP_REJECTIONS = [
    "component C1 is not maximal: extendable by v9",
    "component C2 is not maximal: extendable by v7",
    "component C2 is not maximal: extendable by v6",
    "the chain branches at the component reached through v6: v12, v14, v4",
    "component C3 is not maximal: extendable by v1",
    "component C3 is not maximal: extendable by v4",
    "component C3 is not maximal: extendable by v1",
    "component C4 is not maximal: extendable by v1",
    "the chain branches at the component reached through v5: v4, v9",
    "component C2 is not maximal: extendable by v8",
    "component C3 is not maximal: extendable by v12",
    "the chain branches at the component reached through v11: v13, v3, v8",
    "the chain branches at the component reached through v12: v18, v2",
    "component C3 is not maximal: extendable by v6",
    "the chain branches at the component reached through v1: v11, v3, v7, v8",
    "component C3 is not maximal: extendable by v2",
    "the chain branches at the component reached through v7: v4, v6",
    "component C1 is not maximal: extendable by v11",
    "the chain branches at the component reached through v7: v11, v12, v5",
    "component C4 is not maximal: extendable by v14",
    "component C3 is not maximal: extendable by v1",
    "component C2 is not maximal: extendable by v10",
    "component C3 is not maximal: extendable by v7",
    "component C1 is not maximal: extendable by v4",
    "component C3 is not maximal: extendable by v10",
    "the chain branches at the component reached through v11: v15, v2, v4, v8",
    "the chain branches at the component reached through v10: v11, v2",
    "component C1 is not maximal: extendable by v11",
    "the component entered through v2 meets an earlier one at v4",
    "the chain branches at the component reached through v12: v1, v2, v4",
    "component C4 is not maximal: extendable by v20",
    "component C4 is not maximal: extendable by v3",
    "component C3 is not maximal: extendable by v5",
    "the chain branches at the component reached through v18: v11, v13, v16, v2, v7",
    "the chain branches at the component reached through v1: v5, v7, v8",
    "component C2 is not maximal: extendable by v2",
    "component C1 is not maximal: extendable by v1",
    "the chain branches at the component reached through v1: v10, v12, v6",
    "the chain branches at the component reached through v14: v4, v8",
    "the chain branches at the component reached through v15: v5, v8",
    "the chain branches at the component reached through v12: v10, v8",
    "the chain branches at the component reached through v1: v13, v2, v8, v9",
    "component C4 is not maximal: extendable by v1",
    "the chain branches at the component reached through v1: v15, v17, v6, v8",
    "the chain branches at the component reached through v7: v17, v4",
    "component C1 is not maximal: extendable by v11",
    "the chain branches at the component reached through v5: v13, v7",
    "the chain branches at the component reached through v20: v22, v7, v9",
]


class TestLoneOverlap:
    """Chains glued at a vertex alone in its part of one component, which the
    other component's part opposite that vertex extends."""

    def test_glued_chains_rejected_with_pinned_messages(self):
        cases = list(lone_overlap_chains())
        assert [kind for kind, _ in cases].count("two") == 12
        assert len(cases) == len(LONE_OVERLAP_REJECTIONS) == 48
        for (_, g), reason in zip(cases, LONE_OVERLAP_REJECTIONS):
            with rejects(reason):
                decompose(g)

    def test_size_check_on_hand_built_decompositions(self):
        k22 = ChainComponent(frozenset({"x1", "x2"}), frozenset({"y1", "y2"}))
        star = ChainComponent(frozenset({"x2"}), frozenset({"y3", "y4"}))
        d = ChainDecomposition((k22, star), ("x2",))
        with rejects("component C2 is not maximal: extendable by y1"):
            _check_maximal(d)
        with rejects("component C1 is not maximal: extendable by y1"):
            _check_maximal(ChainDecomposition((star, k22), ("x2",)))
        _check_maximal(generate_chained(FIG_SPEC)[1])


class TestBruteForceRecogniser:
    """decompose accepts exactly the graphs an independent recogniser accepts."""

    def test_random_bipartite_graphs(self):
        rng = random.Random(6789)
        accepted = 0
        for _ in range(2000):
            n = rng.randint(6, 9)
            nx_size = rng.randint(1, n - 1)
            names = [f"v{k}" for k in range(1, n + 1)]
            rng.shuffle(names)
            xs, ys = frozenset(names[:nx_size]), frozenset(names[nx_size:])
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [(x, y) for x in sorted(xs) for y in sorted(ys) if rng.random() < density]
            d = assert_decompose_matches_recogniser(Graph(names, edges), xs, ys)
            accepted += d is not None
        assert accepted >= 100

    def test_mutated_chains(self):
        rng = random.Random(31)
        accepted = rejected = 0
        while accepted + rejected < 600:
            spec = random_chain_spec(rng, max_comps=4, max_total=9, max_part=3)
            if spec is None:
                continue
            g, d = renamed(*generate_chained(spec), rng)
            xs = frozenset().union(*(c.x_part for c in d.components))
            ys = frozenset().union(*(c.y_part for c in d.components))
            edges = set(g.edges())
            cross = sorted(tuple(sorted((x, y))) for x in xs for y in ys)
            mutation = rng.choice(("none", "add", "remove"))
            if mutation == "add" and len(edges) < len(cross):
                edges.add(rng.choice([e for e in cross if e not in edges]))
            elif mutation == "remove":
                edges.discard(rng.choice(sorted(edges)))
            ok = assert_decompose_matches_recogniser(Graph(g.vertices, edges), xs, ys) is not None
            accepted += ok
            rejected += not ok
        assert accepted >= 100 and rejected >= 100


@st.composite
def mutated_chains(draw):
    """A renamed generated chain of at most 10 vertices after 0-2 mutations,
    with its color classes: a cross edge added, an edge removed, a pendant
    vertex attached, or a K(a, b) glued at a vertex."""
    n = draw(st.integers(1, 3))
    parts = draw(st.lists(st.sampled_from("XY"), min_size=n - 1, max_size=n - 1))
    sizes = []
    for i in range(n):
        touching = parts[max(i - 1, 0) : i + 1]
        sizes.append(tuple(draw(st.integers(1 + (p in touching), 3)) for p in "XY"))
    while sum(a + b for a, b in sizes) - len(parts) > 10:  # drop the last component
        sizes.pop()
        parts.pop()
    spec = ChainSpec(tuple(sizes), tuple(parts))
    g, d = renamed(*generate_chained(spec), draw(st.randoms(use_true_random=False)))
    xs = set().union(*(c.x_part for c in d.components))
    ys = set().union(*(c.y_part for c in d.components))
    edges = set(g.edges())
    fresh = (f"w{k}" for k in itertools.count(1))
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(("add", "remove", "pendant", "glue")))
        cross = sorted(tuple(sorted((x, y))) for x in xs for y in ys)
        if mutation == "add" and len(edges) < len(cross):
            edges.add(draw(st.sampled_from([e for e in cross if e not in edges])))
        elif mutation == "remove" and edges:
            edges.discard(draw(st.sampled_from(sorted(edges))))
        elif mutation in ("pendant", "glue"):
            v = draw(st.sampled_from(sorted(xs | ys)))
            own, other = (xs, ys) if v in xs else (ys, xs)
            a, b = (1, 1) if mutation == "pendant" else draw(st.tuples(*[st.integers(1, 2)] * 2))
            side = [v, *(next(fresh) for _ in range(a - 1))]
            opposite = [next(fresh) for _ in range(b)]
            own.update(side)
            other.update(opposite)
            edges.update(tuple(sorted((u, w))) for u in side for w in opposite)
    return Graph(xs | ys, edges), frozenset(xs), frozenset(ys)


class TestMutationFuzz:
    """decompose on mutated chains: a rejection means no chain exists, an
    acceptance is a chain whose closed form meets the oracle."""

    @given(mutated_chains())
    @settings(max_examples=150, deadline=None)
    def test_decompose_agrees_with_recogniser_and_oracle(self, case):
        g, xs, ys = case
        d = assert_decompose_matches_recogniser(g, xs, ys)
        if d is not None:
            assert min_imbalance_chained(d) == brute_force_min(g, cap=g.vertex_count).minimum


def walk_from_last(g):
    """A decomposer that runs the bipartition search first: the search's
    verdict, then the walk from the vertex that a breadth-first search from
    the smallest vertex, over sorted neighbors, reaches last. That vertex has
    the greatest distance from the root, and an overlap has farther vertices
    on its far side, so it is no overlap."""
    if g.edge_count == 0:
        raise NotChainedError("graph has no edges for any component to cover")
    b, roots = _bipartition_and_roots(g)
    if len(roots) > 1:
        raise NotConnectedError(f"graph is not connected ({roots[1]} unreachable)")
    order, seen = [roots[0]], {roots[0]}
    for v in order:
        for w in sorted(g._adj[v] - seen):
            seen.add(w)
            order.append(w)
    comps, overlaps = _walk_chain(g, order[-1])
    if not comps[0].x_part <= b.x_part:
        comps = [ChainComponent(c.y_part, c.x_part) for c in comps]
    head, tail = comps[0].vertices, comps[-1].vertices
    if min(tail) < min(head) or (min(tail) == min(head) and sorted(tail) > sorted(head)):
        comps.reverse()
        overlaps.reverse()
    d = ChainDecomposition(tuple(comps), tuple(overlaps))
    _check_maximal(d)
    return d


def mutated_chain_graphs(rng, count):
    """(mutation, graph) for count renamed chains of 1-4 components with parts
    of 1-3 vertices, each after one mutation or none: an added or removed
    edge, a pendant vertex, a glued K(2, 2), a path of 1-3 new vertices
    between two vertices, which may close a ring, or an isolated vertex. New
    names start with a or w in turn, so some sort first."""
    bases = []
    while len(bases) < 400:
        spec = random_chain_spec(rng, max_comps=4, max_total=16, max_part=3)
        if spec is not None:
            g = renamed(*generate_chained(spec), rng)[0]
            bases.append((g._adj, sorted(g.vertices)))
    fresh = itertools.count(1)
    for _ in range(count):
        base, vertices = rng.choice(bases)
        adj = {v: set(nb) for v, nb in base.items()}

        def new():
            k = next(fresh)
            v = f"{'aw'[k % 2]}{k}"
            adj[v] = set()
            return v

        def link(*path):
            for u, v in zip(path, path[1:]):
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)

        mutation = rng.choice(("none", "add", "remove", "pendant", "glue", "path", "isolated"))
        if mutation == "add":
            link(*rng.sample(vertices, 2))
        elif mutation == "remove":
            u = rng.choice(vertices)
            v = rng.choice(sorted(adj[u]))
            adj[u].remove(v)
            adj[v].remove(u)
        elif mutation == "pendant":
            link(rng.choice(vertices), new())
        elif mutation == "glue":
            p, q = new(), new()
            link(p, rng.choice(vertices), q, new(), p)
        elif mutation == "path":
            inner = [new() for _ in range(rng.randint(1, 3))]
            link(rng.choice(vertices), *inner, rng.choice(vertices))
        elif mutation == "isolated":
            new()
        yield mutation, Graph._from_adj(adj)


class TestWalkFirst:
    """decompose walks first and runs the bipartition search only to explain a
    rejection."""

    def test_start_is_no_overlap_whichever_vertex_sorts_first(self):
        # Every valid spec of 1-4 components with parts of 1-3 vertices, with
        # each vertex in turn renamed 0, which sorts before every x and y.
        checked = 0
        for n in range(1, 5):
            for sizes in itertools.product(itertools.product((1, 2, 3), repeat=2), repeat=n):
                for parts in itertools.product("XY", repeat=n - 1):
                    try:
                        g, d = generate_chained(ChainSpec(sizes, parts))
                    except SpecInvalidError:
                        continue
                    for v in sorted(g.vertices):
                        adj = dict(g._adj)
                        adj["0"] = adj.pop(v)
                        adj.update((w, adj[w] - {v} | {"0"}) for w in adj["0"])
                        start = _start(Graph._from_adj(adj), "0")
                        assert (v if start == "0" else start) not in d.overlaps, (sizes, parts, v)
                        checked += 1
        assert checked == 119_916

    def test_agrees_with_the_walk_from_the_last_reached_vertex(self):
        def outcome(decomposer, g):
            try:
                return "chain", decomposer(g)
            except (NotBipartiteError, NotConnectedError) as exc:
                return type(exc).__name__, str(exc)
            except NotChainedError:  # each walk names what it met from its own start
                return "NotChainedError", None

        kinds = collections.Counter()
        for mutation, g in mutated_chain_graphs(random.Random(2032), 20_000):
            want = outcome(walk_from_last, g)
            assert outcome(decompose, g) == want, (mutation, sorted(g.edges()))
            kinds[want[0]] += 1
        assert min(kinds.values()) > 1000 and len(kinds) == 4, kinds

    def test_accepts_without_the_search(self, monkeypatch):
        def search(g):
            raise AssertionError("the search ran")

        monkeypatch.setattr(chained, "_bipartition_and_roots", search)
        assert decompose(chained_example_graph()) == generate_chained(FIG_SPEC)[1]
        rng = random.Random(4321)
        done = 0
        while done < 50:
            spec = random_chain_spec(rng, max_comps=8, max_total=80, max_part=5)
            if spec is not None:
                g, d = renamed(*generate_chained(spec), rng)
                assert same_chain_up_to_reversal(d, decompose(g)), spec
                done += 1


class TestGCount:
    def test_paper_figure_values(self):
        d = decompose(chained_example_graph())
        assert g_count(d, "x2", 1) == 2
        assert g_count(d, "x2", 2) == 2
        assert g_count(d, "y4", 2) == 2
        assert g_count(d, "y4", 3) == 2

    def test_glued_k22s(self):
        _, d = generate_chained(GLUED_SPEC)
        s = d.overlaps[0]
        assert g_count(d, s, 1) == 2
        assert g_count(d, s, 2) == 2

    def test_errors(self):
        d = decompose(chained_example_graph())
        with pytest.raises(ValueError):
            g_count(d, "x1", 1)  # not an overlap
        with pytest.raises(ValueError):
            g_count(d, "x2", 3)  # overlap of C1/C2, not C3


class TestChainedFormula:
    def test_paper_figure_value(self):
        d = decompose(chained_example_graph())
        assert min_imbalance_chained(d) == 6

    def test_glued_k22s_matches_oracle(self):
        g, d = generate_chained(GLUED_SPEC)
        assert min_imbalance_chained(d) == 4
        assert brute_force_min(g).minimum == 4

    def test_random_specs_with_12_to_14_vertices_match_oracle(self):
        rng = random.Random(1214)
        checked = 0
        while checked < 30:
            spec = random_chain_spec(rng, max_comps=4, max_total=14, max_part=5)
            if spec is None:
                continue
            g, d = generate_chained(spec)
            if g.vertex_count < 12:
                continue
            assert brute_force_min(g, cap=14).minimum == min_imbalance_chained(d), spec
            checked += 1

    def test_random_specs_with_15_to_25_vertices_match_oracle(self):
        rng = random.Random(1525)
        checked = 0
        while checked < 30:
            spec = random_chain_spec(rng, max_comps=4, max_total=25, max_part=8)
            if spec is None:
                continue
            g, d = generate_chained(spec)
            if g.vertex_count < 15:
                continue
            assert brute_force_min(g, cap=25).minimum == min_imbalance_chained(d), spec
            checked += 1

    def test_complete_graphs_up_to_60_vertices_match_oracle(self):
        for a in range(1, 31):
            for b in range(a, 61 - a):
                g, _ = complete_bigraph(a, b)
                assert brute_force_min(g, cap=a + b).minimum == min_imbalance_formula(a, b), (a, b)

    def test_single_component_degenerates_to_complete_formula(self):
        g, _ = complete_bigraph(3, 3)
        assert min_imbalance_chained(decompose(g)) == min_imbalance_formula(3, 3)

    @pytest.mark.parametrize(
        "comps, overlaps, message",
        [
            (0, (), "spec needs at least one component"),
            (3, ("b",), "3 components need 2 overlaps, got 1"),
            (2, (), "2 components need 1 overlaps, got 0"),
            (2, ("b", "e"), "2 components need 1 overlaps, got 2"),
        ],
    )
    def test_malformed_records_are_rejected(self, comps, overlaps, message):
        # K(2, 2)s, the first two glued at b; the third touches neither.
        k22s = (
            ChainComponent({"a", "b"}, {"c", "d"}),
            ChainComponent({"b", "e"}, {"f", "h"}),
            ChainComponent({"i", "j"}, {"k", "m"}),
        )
        d = ChainDecomposition(k22s[:comps], overlaps)
        with pytest.raises(SpecInvalidError) as exc:
            min_imbalance_chained(d)
        assert str(exc.value) == message


def three_sum_form(spec):
    """The paper's closed form, in its three sums, evaluated in decimal
    arithmetic that raises on any rounding."""
    ctx = decimal.Context(prec=1000, traps=[decimal.Inexact])
    first = second = third = decimal.Decimal(0)
    for nx, ny in spec.sizes:
        nx, ny = decimal.Decimal(nx), decimal.Decimal(ny)
        parity = ctx.multiply(ctx.remainder(nx, 2), ctx.remainder(ny, 2))
        first = ctx.add(first, ctx.add(ctx.multiply(nx, ny), parity))
    for i, part in enumerate(spec.overlap_parts):
        opposite = "XY".index(part) ^ 1  # g(s, C) is the size of C's other part
        g1 = decimal.Decimal(spec.sizes[i][opposite])
        g2 = decimal.Decimal(spec.sizes[i + 1][opposite])
        second = ctx.add(second, ctx.add(g1, g2))
        third = ctx.add(third, ctx.abs(ctx.subtract(g1, g2)))
    return int(ctx.add(ctx.subtract(first, second), third))


def all_valid_specs(max_total):
    """Every valid ChainSpec with at most max_total vertices. A valid spec
    without its last component is valid, so each extends a shorter one."""

    def fits(spec):
        try:
            spec.validate()
        except SpecInvalidError:
            return False
        return sum(a + b for a, b in spec.sizes) - len(spec.overlap_parts) <= max_total

    pairs = list(itertools.product(range(1, max_total), repeat=2))
    level = [spec for spec in (ChainSpec((pair,), ()) for pair in pairs) if fits(spec)]
    found = []
    while level:
        found += level
        longer = (
            ChainSpec((*spec.sizes, pair), (*spec.overlap_parts, part))
            for spec in level
            for pair in pairs
            for part in "XY"
        )
        level = [spec for spec in longer if fits(spec)]
    return found


class TestSpecMinimum:
    """ChainSpec.minimum(), the closed form on cardinalities alone."""

    def test_matches_the_three_sum_form_on_200_digit_sizes(self):
        rng = random.Random(2002)
        # A few sizes of each parity, so that overlaps tie and parities vary.
        bases = [rng.randrange(10**199, 10**200) for _ in range(3)]
        pool = [base + k for base in bases for k in range(3)]
        sizes = tuple((rng.choice(pool), rng.choice(pool)) for _ in range(1000))
        spec = ChainSpec(sizes, tuple(rng.choice("XY") for _ in range(999)))
        spec.validate()
        assert spec.minimum() == three_sum_form(spec)
        for n in (1, 2, 3, 10):
            head = ChainSpec(sizes[:n], spec.overlap_parts[: n - 1])
            assert head.minimum() == three_sum_form(head)

    def test_generated_chains_profile_to_their_spec(self):
        # So criterion 05's oracle check covers ChainSpec.minimum() too.
        from test_acceptance import _all_chain_specs  # it imports this module

        specs = all_valid_specs(9)
        assert set(_all_chain_specs(max_total=9, max_comps=3)) <= set(specs)
        for spec in specs:
            d = generate_chained(spec)[1]
            assert d.profile() == spec
            assert min_imbalance_chained(d) == spec.minimum() == three_sum_form(spec)

    def test_reversal_and_part_swap_keep_the_minimum(self):
        rng = random.Random(3131)
        checked = 0
        while checked < 300:
            spec = random_chain_spec(rng, max_comps=12, max_total=10**6, max_part=10**4)
            if spec is None:
                continue
            sizes, parts = spec
            reversed_spec = ChainSpec(sizes[::-1], parts[::-1])
            swapped = ChainSpec(
                tuple((ny, nx) for nx, ny in sizes), tuple("Y" if p == "X" else "X" for p in parts)
            )
            assert spec.minimum() == reversed_spec.minimum() == swapped.minimum(), spec
            checked += 1


class TestComponentSubordering:
    def test_k22_same_part(self):
        comp = ChainComponent(frozenset({"a", "s1"}), frozenset({"b", "c"}))
        assert _validated_subordering(comp, "a", "s1") == ["b", "c"]

    def test_k12_sandwich_on_singleton_x(self):
        comp = ChainComponent(frozenset({"x"}), frozenset({"y", "z"}))
        assert _validated_subordering(comp, "y", "z") == ["x"]

    def test_k77_same_part_evaluates_to_formula(self):
        g, bp = complete_bigraph(7, 7)
        mid = _validated_subordering(ChainComponent(bp.x_part, bp.y_part), "x1", "x7")
        full = Ordering(["x1", *mid, "x7"])
        assert ordering_imbalance(full, g) == 50
        assert vertex_imbalance("x1", full, g) == 7
        assert vertex_imbalance("x7", full, g) == 7

    def test_all_boundary_placements_of_small_components(self):
        def mirror_and_flip(comp, s_prev, s_next):
            # Reference layout: ascending deals, but across parts with only
            # s_next's part odd, build from s_next's end and flip the block.
            a, b = comp.x_part, comp.y_part
            if s_prev not in a:
                a, b = b, a
            same = s_next in a
            mirror = not same and len(a) % 2 == 0 and len(b) % 2 == 1
            if mirror:
                a, b, s_prev, s_next = b, a, s_next, s_prev
            a_seq = [s_prev, *sorted(a - {s_prev, s_next})]
            b_seq = sorted(b - {s_next})
            (a_seq if same else b_seq).append(s_next)
            full = _fill_runs(a_seq, b_seq, same)
            return full[::-1] if mirror else full

        # every legal boundary pair must produce that block, meeting the closed form
        for a, b in itertools.product(range(1, 7), repeat=2):
            g, bp = complete_bigraph(a, b)
            comp = ChainComponent(bp.x_part, bp.y_part)
            want = min_imbalance_formula(a, b)
            for s_prev, s_next in itertools.permutations(sorted(g.vertices), 2):
                part_of = lambda v: bp.x_part if v in bp.x_part else bp.y_part
                if (a, b) != (1, 1) and 1 in (len(part_of(s_prev)), len(part_of(s_next))):
                    # no optimal ordering pins a singleton-part vertex
                    with pytest.raises(ConstructionInvariantViolatedError):
                        _validated_subordering(comp, s_prev, s_next)
                    continue
                full = [s_prev, *_validated_subordering(comp, s_prev, s_next), s_next]
                assert full == mirror_and_flip(comp, s_prev, s_next), (a, b, s_prev, s_next)
                assert ordering_imbalance(Ordering(full), g) == want, (a, b, s_prev, s_next)
        # An overlap alone in its part of C1, which decompose never returns.
        lone = ChainDecomposition(
            (
                ChainComponent(frozenset({"s"}), frozenset({"y1", "y2"})),
                ChainComponent(frozenset({"s", "x2"}), frozenset({"y3", "y4"})),
            ),
            ("s",),
        )
        with pytest.raises(ConstructionInvariantViolatedError):
            construct_optimal_chained(lone)

    def test_golden_orderings(self):
        # One component per case (and parity) of the run table, the
        # descending deal included, then the complete constructor.
        cases = [
            (4, 3, "x1", "x4", "x2 y1 y2 y3 x3"),  # same part, even
            (5, 2, "x2", "x4", "x1 y1 x3 y2 x5"),  # same part, odd
            (3, 5, "x2", "y3", "y1 y2 x1 y4 y5 x3"),  # different parts, both odd
            (3, 4, "x1", "y2", "y1 y3 x2 x3 y4"),  # different, first odd
            (4, 2, "y2", "x3", "x1 x2 y1 x4"),  # different, both even
            (4, 3, "x3", "y1", "x4 y3 y2 x2 x1"),  # different, first even: descending
        ]
        for a, b, s_prev, s_next, want in cases:
            _, bp = complete_bigraph(a, b)
            mid = _validated_subordering(ChainComponent(bp.x_part, bp.y_part), s_prev, s_next)
            assert mid == want.split(), (a, b, s_prev, s_next)
        for a, b, want in [
            (3, 3, "y1 x1 y2 x2 x3 y3"),
            (2, 3, "x1 y1 y2 y3 x2"),
            (3, 1, "x1 y1 x2 x3"),
        ]:
            assert construct_optimal_complete(complete_bigraph(a, b)[1]) == Ordering(
                want.split()
            )

    def test_bad_boundaries_rejected(self):
        comp = ChainComponent(frozenset({"a"}), frozenset({"b"}))
        with pytest.raises(ValueError):
            _validated_subordering(comp, "a", "a")

    def test_empty_part_fails_the_closed_form_call(self):
        # The block of K(2, 0) deals, covers and runs end to end; only the
        # closed form's part-size check stops it.
        comp = ChainComponent(frozenset({"a", "b"}), frozenset())
        with pytest.raises(ValueError, match=r"^part sizes must be at least 1, got \(2, 0\)$"):
            _validated_subordering(comp, "a", "b")


class TestConstructChained:
    def test_no_endpoint_left_in_a_one_vertex_component(self):
        comp = ChainComponent(frozenset({"s"}), frozenset())
        with pytest.raises(ValueError, match="^component has no available endpoint vertex$"):
            _pick_endpoint(comp, {"s"})

    def test_hand_built_tokens_are_checked(self):
        # A hand-built decomposition, or a copy with a field replaced, gets the
        # full check of Ordering, like one that decompose built.
        bad = "token with spaces"
        message = re.escape(f"got {bad!r}")
        comp = ChainComponent(frozenset({"x1", bad}), frozenset({"y1", "y2"}))
        with pytest.raises(ValueError, match=message):
            construct_optimal_chained(ChainDecomposition((comp,), ()))
        d = decompose(Graph((), [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")]))
        with pytest.raises(ValueError, match=message):
            construct_optimal_chained(d._replace(components=(comp,)))
        assert construct_optimal_chained(d) == construct_optimal_chained(ChainDecomposition(*d))

    def test_glued_k22s_exact(self):
        g, d = generate_chained(GLUED_SPEC)
        o = construct_optimal_chained(d)
        assert o == Ordering(["x1", "y1", "y2", "x2", "y3", "y4", "x3"])
        assert ordering_imbalance(o, g) == 4

    def test_single_k23_is_sandwich(self):
        g, _ = complete_bigraph(2, 3)
        d = decompose(g)
        o = construct_optimal_chained(d)
        assert ordering_imbalance(o, g) == 6

    def test_paper_figure_graph(self):
        g = chained_example_graph()
        d = decompose(g)
        o = construct_optimal_chained(d)
        assert ordering_imbalance(o, g) == 6

    def test_single_star_k13(self):
        g, d = generate_chained(ChainSpec(((1, 3),), ()))
        o = construct_optimal_chained(d)
        assert ordering_imbalance(o, g) == min_imbalance_chained(d) == 4

    def test_overlap_imbalance_is_g_difference(self):
        spec = ChainSpec(((2, 2), (2, 5), (4, 2)), ("X", "Y"))
        g, d = generate_chained(spec)
        o = construct_optimal_chained(d)
        assert ordering_imbalance(o, g) == min_imbalance_chained(d)
        for i, s in enumerate(d.overlaps, start=1):
            want = abs(g_count(d, s, i) - g_count(d, s, i + 1))
            assert vertex_imbalance(s, o, g) == want

    def test_every_component_block_is_optimal(self):
        spec = ChainSpec(((3, 3), (2, 4), (5, 2), (2, 2)), ("Y", "X", "X"))
        g, d = generate_chained(spec)
        o = construct_optimal_chained(d)
        for comp in d.components:
            local, block = restrict(g, o, comp.vertices)
            assert ordering_imbalance(block, local) == min_imbalance_formula(
                comp.nx, comp.ny
            )


class TestGenerate:
    def test_figure_spec_reproduces_paper_names(self):
        g, d = generate_chained(FIG_SPEC)
        assert g == chained_example_graph()
        assert d.overlaps == ("x2", "y4")

    def test_single_star(self):
        g, d = generate_chained(ChainSpec(((1, 3),), ()))
        assert g.vertex_count == 4
        assert d.n == 1

    def test_roundtrip_through_decompose(self):
        g, built = generate_chained(FIG_SPEC)
        assert profiles_match_up_to_reversal(built, decompose(g))

    def test_overlap_in_singleton_part_rejected(self):
        with pytest.raises(SpecInvalidError, match="component 1"):
            generate_chained(ChainSpec(((1, 2), (2, 2)), ("X",)))
        with pytest.raises(SpecInvalidError, match="component 2"):
            generate_chained(ChainSpec(((2, 2), (2, 1)), ("Y",)))

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                ChainSpec(((1, 2), (2, 2)), ("X",)),
                "overlap 1 in part X needs component 1 to have X size >= 2, got 1",
            ),
            (
                ChainSpec(((2, 2), (2, 1)), ("Y",)),
                "overlap 1 in part Y needs component 2 to have Y size >= 2, got 1",
            ),
            (
                ChainSpec(((2, 2), (2, 2), (1, 3)), ("Y", "X")),
                "overlap 2 in part X needs component 3 to have X size >= 2, got 1",
            ),
            (ChainSpec(((2, 2), (2, 2)), ("Q",)), "overlap 1 part must be X or Y, got 'Q'"),
            (ChainSpec(((2, 2), (2, 2)), ()), "2 components need 1 overlaps, got 0"),
            # Two faults: the lower-numbered overlap's is reported, and an
            # overlap's letter before its sizes.
            (
                ChainSpec(((1, 2), (2, 2), (2, 2)), ("X", "Q")),
                "overlap 1 in part X needs component 1 to have X size >= 2, got 1",
            ),
            (
                ChainSpec(((2, 2), (2, 2), (2, 1)), ("Q", "Y")),
                "overlap 1 part must be X or Y, got 'Q'",
            ),
            (ChainSpec(((2, 1), (2, 2)), ("Q",)), "overlap 1 part must be X or Y, got 'Q'"),
        ],
    )
    def test_spec_rejection_messages(self, spec, message):
        with pytest.raises(SpecInvalidError) as exc:
            spec.validate()
        assert str(exc.value) == message

    def test_first_spec_fault_in_every_small_spec(self):
        # Every spec of 1-4 components with part sizes 1-3 and overlap letters
        # X, Y, Q or "". The rule: take the overlaps in order, and check each
        # one's letter, then its left component's size in that part, then its
        # right one's. A spec extends a one-shorter one, whose fault comes first.
        def fault(i, part, left, right):
            if part not in ("X", "Y"):
                return f"overlap {i} part must be X or Y, got {part!r}"
            for k, size in ((i, left["XY".index(part)]), (i + 1, right["XY".index(part)])):
                if size < 2:
                    return (
                        f"overlap {i} in part {part} needs component {k} to have "
                        f"{part} size >= 2, got {size}"
                    )
            return None

        def check(sizes, parts, want):
            try:
                ChainSpec(sizes, parts).validate()
                got = None
            except SpecInvalidError as exc:
                got = str(exc)
            assert got == want, (sizes, parts)
            checked.append(want is None)
            if len(sizes) < 4:
                for part in ("X", "Y", "Q", ""):
                    for pair in pairs:
                        more = want or fault(len(sizes), part, sizes[-1], pair)
                        check((*sizes, pair), (*parts, part), more)

        pairs = list(itertools.product((1, 2, 3), repeat=2))
        checked = []
        for pair in pairs:
            check((pair,), (), None)
        assert len(checked) == sum(9**n * 4 ** (n - 1) for n in range(1, 5))
        # Specs of 1, 2, 3 and 4 components: a part that holds an overlap is 2 or 3.
        assert sum(checked) == 9 + 72 + 720 + 7200

    def test_profile_is_the_chain_spec(self):
        d = generate_chained(FIG_SPEC)[1]
        assert type(d.profile()) is ChainSpec
        assert d.profile() == FIG_SPEC == (((2, 2), (2, 2), (2, 3)), ("X", "Y"))

    def test_malformed_specs_rejected(self):
        with pytest.raises(SpecInvalidError):
            generate_chained(ChainSpec((), ()))
        with pytest.raises(SpecInvalidError):
            generate_chained(ChainSpec(((2, 2),), ("X",)))
        with pytest.raises(SpecInvalidError):
            generate_chained(ChainSpec(((2, 2), (2, 2)), ("Q",)))
        with pytest.raises(SpecInvalidError):
            generate_chained(ChainSpec(((2, 0),), ()))


class TestRandomizedRoundTrips:
    def test_constructed_orderings_meet_formula(self):
        rng = random.Random(424242)
        done = 0
        while done < 25:
            spec = random_chain_spec(rng, max_comps=8, max_total=120, max_part=12)
            if spec is None:
                continue
            g, d = generate_chained(spec)
            o = construct_optimal_chained(d)
            assert ordering_imbalance(o, g) == min_imbalance_chained(d)
            dd = decompose(g)
            assert profiles_match_up_to_reversal(d, dd)
            assert chain_condition_failures(g, dd) == []
            done += 1

    @staticmethod
    def renamed_chains(rng):
        """60 random small chains, then star chains of 1 to 12 components,
        each under three random renamings. Names decide where the walk
        starts, so renaming moves the start. Star chains are paths, where a
        component centre and an overlap look the same locally."""
        specs = []
        while len(specs) < 60:
            spec = random_chain_spec(rng, max_comps=8, max_total=60, max_part=4)
            if spec is not None:
                specs.append(spec)
        for n in range(1, 13):
            specs.append(ChainSpec(((1, 2),) * n, ("Y",) * (n - 1)))
            specs.append(ChainSpec(((2, 1),) * n, ("X",) * (n - 1)))
        for spec in specs:
            for _ in range(3):
                yield spec, renamed(*generate_chained(spec), rng)

    def test_renamed_chains_roundtrip(self):
        for spec, (g, d) in self.renamed_chains(random.Random(5150)):
            dd = decompose(g)
            assert same_chain_up_to_reversal(d, dd), spec
            assert chain_condition_failures(g, dd) == [], spec

    def test_no_overlap_in_singleton_part(self):
        rng = random.Random(11)
        done = 0
        while done < 15:
            spec = random_chain_spec(rng, max_comps=6, max_total=60, max_part=6)
            if spec is None:
                continue
            g = generate_chained(spec)[0]
            assert chain_condition_failures(g, decompose(g)) == [], spec
            done += 1


class TestLocality:
    def test_imbalance_of_inner_vertices_is_component_local(self):
        rng = random.Random(9)
        spec = ChainSpec(((2, 3), (3, 2), (2, 2)), ("Y", "X"))
        g, d = generate_chained(spec)
        verts = sorted(g.vertices)
        overlap_set = set(d.overlaps)
        for _ in range(25):
            perm = verts[:]
            rng.shuffle(perm)
            o = Ordering(perm)
            for i, comp in enumerate(d.components, start=1):
                sub, local = restrict(g, o, comp.vertices)
                for v in comp.vertices - overlap_set:
                    assert vertex_imbalance(v, o, g) == vertex_imbalance(v, local, sub)
            for i, s in enumerate(d.overlaps, start=1):
                support = d.components[i - 1].vertices | d.components[i].vertices
                sub, local = restrict(g, o, support)
                assert vertex_imbalance(s, o, g) == vertex_imbalance(s, local, sub)


class TestIntervalRepresentation:
    def check_invariants(self, g, d):
        rep = interval_representation(d)
        b = bipartition(g)
        assert set(rep) == set(g.vertices)
        items = sorted(rep.items())
        for i, (u, (lu, ru)) in enumerate(items):
            for v, (lv, rv) in items[i + 1 :]:
                intersect = lu <= rv and lv <= ru
                if (u in b.x_part) != (v in b.x_part):
                    assert intersect == g.has_edge(u, v), (u, v)
                assert not (lv <= lu and ru <= rv), (u, v)
                assert not (lu <= lv and rv <= ru), (u, v)

    def test_single_edge(self):
        g, _ = complete_bigraph(1, 1)
        self.check_invariants(g, decompose(g))

    def test_glued_k22s(self):
        g, d = generate_chained(GLUED_SPEC)
        assert len(interval_representation(d)) == 7
        self.check_invariants(g, d)

    def test_paper_figure_staircase(self):
        g = chained_example_graph()
        d = decompose(g)
        self.check_invariants(g, d)
        rep = interval_representation(d)
        # overlap intervals span their two components' windows
        for i, s in enumerate(d.overlaps, start=1):
            left, right = rep[s]
            assert left < 4 * (i + 1) < right


class TestOverlapProbe:
    def test_constructed_optimum_attains_equality(self):
        g, d = generate_chained(GLUED_SPEC)
        o = construct_optimal_chained(d)
        p = overlap_inequality_probe(o, d)
        assert (p.lhs, p.rhs) == (-4, -4)
        assert (p.left_in_first, p.right_in_first) == (2, 0)
        assert (p.left_in_second, p.right_in_second) == (0, 2)

    def test_overlap_first_ordering(self):
        g, d = generate_chained(GLUED_SPEC)
        s = d.overlaps[0]
        rest = sorted(g.vertices - {s})
        p = overlap_inequality_probe(Ordering([s, *rest]), d)
        assert p.lhs == 0
        assert p.rhs == -4
        assert p.lhs >= p.rhs

    def test_single_component_rejected(self):
        g, _ = complete_bigraph(2, 2)
        with pytest.raises(ValueError):
            overlap_inequality_probe(Ordering(sorted(g.vertices)), decompose(g))

    def test_inequality_on_random_orderings(self):
        # Each ordering's counts are checked against position comparisons,
        # and lhs against the overlap's imbalance on the whole graph minus
        # its imbalances on the two component restrictions.
        rng = random.Random(2718)
        for spec in (ChainSpec(((2, 3), (3, 2)), ("Y",)), ChainSpec(((2, 3), (2, 4)), ("X",))):
            g, d = generate_chained(spec)
            s = d.overlaps[0]
            verts = sorted(g.vertices)
            for _ in range(300):
                perm = verts[:]
                rng.shuffle(perm)
                o = Ordering(perm)
                p = overlap_inequality_probe(o, d)
                assert p.lhs >= p.rhs
                counts, local = [], 0
                for comp in d.components:
                    neighbors = g.neighbors(s) & comp.vertices
                    left = sum(1 for v in neighbors if o.position(v) < o.position(s))
                    counts += [left, len(neighbors) - left]
                    sub, sub_o = restrict(g, o, comp.vertices)
                    local += vertex_imbalance(s, sub_o, sub)
                got = [p.left_in_first, p.right_in_first, p.left_in_second, p.right_in_second]
                assert got == counts, (spec, perm)
                assert p.lhs == vertex_imbalance(s, o, g) - local, (spec, perm)


class TestSpecTextFormat:
    def test_parse_roundtrip(self):
        text = "# demo chain\ncomponent 2 2\noverlap X\ncomponent 2 2\noverlap Y\ncomponent 2 3\n"
        assert parse_chain_spec(text) == FIG_SPEC

    def test_parse_errors(self):
        with pytest.raises(GraphParseError):
            parse_chain_spec("component 2\n")
        with pytest.raises(GraphParseError):
            parse_chain_spec("component 2 2\ncomponent 2 2\n")
        with pytest.raises(GraphParseError):
            parse_chain_spec("overlap X\n")
        with pytest.raises(GraphParseError):
            parse_chain_spec("component 2 2\noverlap X\n")
        with pytest.raises(GraphParseError):
            parse_chain_spec("widget 1 2\n")
        with pytest.raises(GraphParseError):
            parse_chain_spec("")

    @pytest.mark.parametrize("size", ["1_0", "+2", "-1", "²"])
    def test_sizes_must_be_decimal_natural_numbers(self, size):
        message = (
            f"line 2: component sizes must be decimal natural numbers: 'component 2 {size}'"
        )
        with pytest.raises(GraphParseError, match=f"^{re.escape(message)}$") as caught:
            parse_chain_spec(f"# spec\ncomponent 2 {size}\n")
        assert caught.value.line == 2

    def test_size_past_the_int_str_digit_limit_is_a_parse_error(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python converts integer strings of any length")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(GraphParseError, match="^line 2: component size too long: ") as caught:
                parse_chain_spec(f"# spec\ncomponent {'7' * 5000} 2\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert caught.value.line == 2

    def test_sizes_in_other_decimal_digits_are_read(self):
        assert parse_chain_spec("component ٣ 12\n") == ChainSpec(((3, 12),), ())

    def test_size_zero_parses_and_fails_validation(self):
        spec = parse_chain_spec("component 0 2\n")
        assert spec == ChainSpec(((0, 2),), ())
        with pytest.raises(SpecInvalidError, match=r"^component 1 has an empty part: \(0, 2\)$"):
            spec.validate()

    def test_format_report(self):
        d = decompose(chained_example_graph())
        assert format_decomposition(d) == (
            "C1: X={x1,x2} Y={y1,y2}\n"
            "C2: X={x2,x3} Y={y3,y4}\n"
            "C3: X={x4,x5} Y={y4,y5,y6}\n"
            "s1 = x2 (X)\n"
            "s2 = y4 (Y)"
        )
