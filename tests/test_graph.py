"""Core graph types, parsing, bipartition, and the imbalance evaluators."""

import math
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclique_imbalance import (
    Bipartition,
    Graph,
    GraphParseError,
    NotBipartiteError,
    Ordering,
    bipartition,
    concat_orderings,
    construct_optimal_chained,
    is_complete_bipartite,
    ordering_imbalance,
    parse_edge_list,
    parse_ordering,
    subordering,
    vertex_imbalance,
    vertex_imbalances,
)
from biclique_imbalance.graph import _bipartition_and_roots
from conftest import CHAINED_EDGES, chained_example_graph, complete_bigraph, example_graph
from test_chained import k33_chain


class TestParseEdgeList:
    def test_example_graph(self):
        g = parse_edge_list("a b\na c\nb c\nb d\nc e")
        assert g.vertex_count == 5
        assert g.edge_count == 5
        assert g.has_edge("b", "d")

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_duplicate_edge_collapses(self):
        g = parse_edge_list("u v\nu v")
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_isolated_vertex_and_comments(self):
        g = parse_edge_list("# header\nlonely\n\na b  # trailing\n")
        assert g.vertices == {"lonely", "a", "b"}
        assert g.degree("lonely") == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("a b\na b c")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_edge_list("a a")

    def test_three_tokens_before_a_comment_exact_message(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("a b\nc d e  # note\n")
        assert str(exc.value) == "line 2: expected 1 or 2 tokens, got 3: 'c d e'"
        assert exc.value.line == 2

    def test_self_loop_exact_message(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("a b\n\n  x\tx # loop\n")
        assert str(exc.value) == "line 3: self-loop on 'x'"
        assert exc.value.line == 3

    # Text of plain `u v` lines is split in one go; these pin that route.
    def test_self_loop_in_plain_text_exact_message(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("a b\nc d\ne e\nf g\n")
        assert str(exc.value) == "line 3: self-loop on 'e'"
        assert exc.value.line == 3

    def test_plain_text_without_final_newline(self):
        assert parse_edge_list("a b\nb c") == Graph((), [("a", "b"), ("b", "c")])

    def test_reversed_duplicate_edge_counts_once(self):
        g = parse_edge_list("a b\nb a\n")
        assert g.vertex_count == 2
        assert g.edge_count == 1

    # One character away from plain text, each is read line by line.
    @pytest.mark.parametrize(
        "text",
        [
            "a\tb\nc d\n",
            "a  b\nc d\n",
            "a b\r\nc d\r\n",
            "a b\x1cc d\n",
            "a b\x85c d\n",
            "a b\u2028c d\n",
            "a b\n\nc d\n",
            " a b\nc d\n",
        ],
    )
    def test_near_plain_text_is_read_line_by_line(self, text):
        assert parse_edge_list(text) == Graph((), [("a", "b"), ("c", "d")])

    def test_comment_inside_a_token_leaves_an_isolated_vertex(self):
        g = parse_edge_list("a#b c\nd e\n")
        assert g == Graph(["a"], [("d", "e")])
        assert g.degree("a") == 0

    @given(st.data())
    def test_equals_graph_built_line_by_line(self, data):
        token = st.sampled_from(["a", "b", "c", "x1", "y1", "é", "日本"])
        gap = st.sampled_from([" ", "\t", "  ", " \t "])
        comment = st.sampled_from(["", "#", "# note", "  # a b c"])
        vertices: list[str] = []
        edges: list[tuple[str, str]] = []
        lines = []
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["blank", "comment", "vertex", "edge"]))
            if kind == "blank":
                lines.append(data.draw(st.sampled_from(["", " ", "\t"])))
            elif kind == "comment":
                lines.append(data.draw(comment))
            elif kind == "vertex":
                v = data.draw(token)
                vertices.append(v)
                lines.append(data.draw(gap) + v + data.draw(comment))
            else:
                u, v = data.draw(st.lists(token, min_size=2, max_size=2, unique=True))
                edges.append((u, v))
                lines.append(u + data.draw(gap) + v + data.draw(comment))
        assert parse_edge_list("\n".join(lines)) == Graph(vertices, edges)


class TestOrdering:
    def test_positions_are_one_based(self):
        o = Ordering(["b", "a", "c"])
        assert o.position("b") == 1
        assert o.position("c") == 3

    def test_position_map_is_a_read_only_view(self):
        o = Ordering(["b", "a", "c"])
        assert o.position_map == o.positions() == {"b": 1, "a": 2, "c": 3}
        with pytest.raises(TypeError):
            o.position_map["b"] = 5  # type: ignore[index]
        assert o.position("b") == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Ordering(["a", "b", "a"])

    def test_duplicate_message_names_each_duplicate_once_in_sorted_order(self):
        with pytest.raises(ValueError) as exc:
            Ordering(["c", "a", "b", "a", "c", "c"])
        assert str(exc.value) == "duplicate vertices in ordering: ['a', 'c']"

    def test_parse_ordering_splits_on_any_whitespace(self):
        assert parse_ordering("a b\nc") == Ordering(["a", "b", "c"])

    def test_parse_ordering_duplicate_is_parse_error(self):
        with pytest.raises(GraphParseError):
            parse_ordering("a a")


@pytest.mark.parametrize("token", ["", "a b", "a\u2003b", "a\x85b", "a\x1cb", 7])
def test_graph_and_ordering_reject_bad_tokens(token):
    for build in (
        lambda: Graph([token]),
        lambda: Graph((), [(token, "z")]),
        lambda: Ordering(["z", token]),
    ):
        with pytest.raises(ValueError, match="vertex token must be a non-empty string"):
            build()


def _sorted_scan_bipartition(g):
    """Reference two-coloring: breadth-first from each smallest uncolored
    vertex, scanning every vertex's neighbors in sorted order. Returns the
    X part, the Y part, the roots and the vertex colored last."""
    color, parent, depth, roots = {}, {}, {}, []
    for root in sorted(g.vertices):
        if root in color:
            continue
        roots.append(root)
        color[root], parent[root], depth[root] = True, None, 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(g.neighbors(v)):
                if w not in color:
                    color[w], parent[w], depth[w] = not color[v], v, depth[v] + 1
                    queue.append(w)
                elif color[w] == color[v]:
                    # Walk both tree paths up to their common ancestor.
                    path_v, path_w = [v], [w]
                    while path_v[-1] != path_w[-1]:
                        if depth[path_v[-1]] >= depth[path_w[-1]]:
                            path_v.append(parent[path_v[-1]])
                        else:
                            path_w.append(parent[path_w[-1]])
                    raise NotBipartiteError(path_v + path_w[-2::-1])
    x = frozenset(v for v, c in color.items() if c)
    y = frozenset(v for v, c in color.items() if not c)
    return x, y, roots, next(reversed(color), None)


class TestBipartition:
    def test_path(self):
        g = Graph((), [("a", "b"), ("b", "c")])
        b = bipartition(g)
        assert b.x_part == {"a", "c"}
        assert b.y_part == {"b"}

    def test_triangle_raises_with_odd_cycle(self):
        g = Graph((), [("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(NotBipartiteError) as info:
            bipartition(g)
        cycle = info.value.cycle
        assert len(cycle) % 2 == 1
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(u, v)

    def test_chained_example_colors(self):
        b = bipartition(chained_example_graph())
        assert b.x_part == {f"x{i}" for i in range(1, 6)}
        assert b.y_part == {f"y{i}" for i in range(1, 7)}

    def test_isolated_vertex_goes_to_x(self):
        g = Graph(["z"], [("a", "b")])
        b = bipartition(g)
        assert "z" in b.x_part

    # The search meets roots and neighbors in sorted order, so each witness
    # cycle is fixed.
    @pytest.mark.parametrize(
        "edges, cycle",
        [
            ([("a", "b"), ("b", "c"), ("a", "c")], ["b", "a", "c"]),
            ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")], ["c", "b", "a", "e", "d"]),
            # b reaches c and d before it meets z, colored like b.
            ([("a", "b"), ("a", "z"), ("b", "c"), ("b", "d"), ("b", "z")], ["b", "a", "z"]),
            # y and z both clash with b; the smaller one is the witness.
            ([("a", "b"), ("a", "y"), ("a", "z"), ("b", "c"), ("b", "y"), ("b", "z")], ["b", "a", "y"]),
            (
                [("r", "a"), ("a", "c"), ("c", "e"), ("e", "g"), ("g", "d"), ("d", "b"), ("b", "r"), ("c", "h"), ("h", "i")],
                ["g", "e", "c", "a", "r", "b", "d"],
            ),
            # The first component is bipartite; the clash is in the second.
            ([("a", "b"), ("b", "c"), ("p", "q"), ("q", "s"), ("p", "s")], ["q", "p", "s"]),
        ],
    )
    def test_exact_odd_cycle_witness(self, edges, cycle):
        with pytest.raises(NotBipartiteError) as info:
            bipartition(Graph((), edges))
        assert info.value.cycle == cycle
        assert str(info.value) == "graph is not bipartite; odd cycle: " + " ".join(cycle)

    def test_roots_and_last_reached_vertex(self):
        g = Graph(["q", "h"], [("b", "a"), ("b", "c"), ("d", "e"), ("e", "f"), ("f", "g")])
        b, roots, last = _bipartition_and_roots(g)
        assert b.x_part == {"a", "c", "d", "f", "h", "q"}
        assert b.y_part == {"b", "e", "g"}
        assert roots == ["a", "d", "h", "q"]
        assert last == "q"
        assert _bipartition_and_roots(chained_example_graph())[1:] == (["x1"], "y6")
        assert _bipartition_and_roots(Graph())[1:] == ([], None)

    def test_matches_sorted_scan_reference_on_random_graphs(self):
        rng = random.Random(20211101)
        names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "v10", "v2", "v9"]
        for trial in range(2000):
            vertices = rng.sample(names, rng.randint(1, 10))
            if trial % 3 == 0:  # bipartite: cross edges of a random two-coloring
                side = {v: rng.random() < 0.5 for v in vertices}
                pairs = [(u, v) for u in vertices for v in vertices if u < v and side[u] != side[v]]
            else:
                pairs = [(u, v) for u in vertices for v in vertices if u < v]
            p = rng.choice([0.2, 0.4, 0.7, 1.0])
            g = Graph(vertices, [e for e in pairs if rng.random() < p])
            try:
                expected = _sorted_scan_bipartition(g)
            except NotBipartiteError as ref:
                with pytest.raises(NotBipartiteError) as info:
                    _bipartition_and_roots(g)
                assert info.value.cycle == ref.cycle
                assert str(info.value) == str(ref)
                continue
            b, roots, last = _bipartition_and_roots(g)
            assert (b.x_part, b.y_part, roots, last) == expected

    def test_matches_sorted_scan_reference_on_deep_graphs(self):
        # Long cycles, trees plus one edge and sparse random graphs of 50-600
        # vertices, under shuffled names: the witness walks long tree paths.
        rng = random.Random(20261018)
        outcomes = []
        for trial in range(48):
            n = rng.randint(50, 600)
            names = [f"v{k}" for k in range(n)]
            rng.shuffle(names)
            kind = trial % 4
            if kind == 0:  # one cycle, odd or even
                edges = [(k, (k + 1) % n) for k in range(n)]
            elif kind in (1, 2):  # a tree, shallow or path-like, plus one edge
                reach = n if kind == 1 else 3
                edges = [(k, rng.randint(max(0, k - reach), k - 1)) for k in range(1, n)]
                u, v = rng.sample(range(n), 2)
                if (u, v) not in edges and (v, u) not in edges:
                    edges.append((u, v))
            else:  # sparse random, bipartite on even trials of this kind
                side = [rng.random() < 0.5 for _ in range(n)]
                edges = []
                while len(edges) < n + n // 4:
                    u, v = rng.sample(range(n), 2)
                    if trial % 8 == 3 or side[u] != side[v]:
                        edges.append((u, v))
            g = Graph(names, [(names[u], names[v]) for u, v in edges])
            try:
                expected = _sorted_scan_bipartition(g)
            except NotBipartiteError as ref:
                with pytest.raises(NotBipartiteError) as info:
                    _bipartition_and_roots(g)
                assert info.value.cycle == ref.cycle
                assert str(info.value) == str(ref)
                outcomes.append(len(ref.cycle))
                continue
            b, roots, last = _bipartition_and_roots(g)
            assert (b.x_part, b.y_part, roots, last) == expected
            outcomes.append(0)
        # Both verdicts occur, and some witness cycles are long.
        assert 0 in outcomes and max(outcomes) > 100

    def test_parts_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            Bipartition(frozenset({"a"}), frozenset({"a"}))


class TestIsCompleteBipartite:
    def test_k22(self):
        g, b = complete_bigraph(2, 2)
        assert is_complete_bipartite(g, b)

    def test_path_of_four(self):
        g = Graph((), [("a", "b"), ("b", "c"), ("c", "d")])
        assert not is_complete_bipartite(g, bipartition(g))

    def test_chained_example_is_not_complete(self):
        g = chained_example_graph()
        assert g.edge_count == len(CHAINED_EDGES)
        assert not is_complete_bipartite(g, bipartition(g))

    def test_invalid_partition_rejected(self):
        g, _ = complete_bigraph(2, 2)
        bad = Bipartition(frozenset({"x1", "y1"}), frozenset({"x2", "y2"}))
        with pytest.raises(ValueError, match="same part"):
            is_complete_bipartite(g, bad)

    @pytest.mark.parametrize(
        "x_part, y_part, message",
        [
            # Same-part edges x2-y3, x3-y3 in X and x1-y1, x1-y2 in Y.
            ({"x2", "x3", "y3"}, {"x1", "y1", "y2"}, "edge x1-y1 joins two vertices of the same part"),
            ({"x1", "x2", "y2", "y3"}, {"x3", "y1"}, "edge x1-y2 joins two vertices of the same part"),
            ({"x1", "x2"}, {"y1", "y2", "y3"}, "bipartition does not cover exactly the graph's vertices"),
        ],
    )
    def test_wrong_partition_names_the_smallest_same_part_edge(self, x_part, y_part, message):
        g, _ = complete_bigraph(3, 3)
        with pytest.raises(ValueError) as exc:
            is_complete_bipartite(g, Bipartition(frozenset(x_part), frozenset(y_part)))
        assert str(exc.value) == message

    def test_swapped_parts_are_still_complete(self):
        g, b = complete_bigraph(3, 2)
        assert is_complete_bipartite(g, Bipartition(b.y_part, b.x_part))


class TestImbalance:
    def test_example_ordering_per_vertex(self):
        g = example_graph()
        o = Ordering(["a", "b", "c", "d", "e"])
        assert vertex_imbalance("a", o, g) == 2
        assert [vertex_imbalance(v, o, g) for v in "bcde"] == [1, 1, 1, 1]
        assert ordering_imbalance(o, g) == 6

    def test_isolated_vertex_is_balanced(self):
        g = Graph(["z"], [("a", "b")])
        assert vertex_imbalance("z", Ordering(["a", "z", "b"]), g) == 0

    def test_path_middle_vertex(self):
        g = Graph((), [("a", "b"), ("b", "c")])
        assert vertex_imbalance("b", Ordering(["a", "b", "c"]), g) == 0

    def test_edgeless_graph_is_zero(self):
        g = Graph(["a", "b", "c"])
        assert ordering_imbalance(Ordering(["c", "a", "b"]), g) == 0

    def test_k22_sample_ordering(self):
        g, _ = complete_bigraph(2, 2)
        assert ordering_imbalance(Ordering(["y1", "x1", "x2", "y2"]), g) == 4

    def test_vertex_not_in_ordering(self):
        g = example_graph()
        with pytest.raises(ValueError):
            ordering_imbalance(Ordering(["a", "b", "c", "d"]), g)

    def test_vertex_imbalances_sum_to_the_ordering_imbalance(self):
        g, d = k33_chain(800)
        o = construct_optimal_chained(d)
        assert sum(vertex_imbalance(v, o, g) for v in o) == ordering_imbalance(o, g)

    def test_cover_is_checked_against_each_graph(self):
        o = Ordering(["a", "b"])
        g_ab, g_ac = Graph((), [("a", "b")]), Graph((), [("a", "c")])
        assert vertex_imbalance("a", o, g_ab) == 1
        for _ in range(2):
            with pytest.raises(ValueError, match="does not cover exactly the graph's vertices"):
                vertex_imbalance("a", o, g_ac)
        with pytest.raises(ValueError, match="does not cover exactly the graph's vertices"):
            vertex_imbalances(o, Graph(["a", "b", "c"]))
        assert vertex_imbalance("b", o, g_ab) == 1
        assert vertex_imbalance("b", o, Graph(["a", "b"])) == 0

    def test_vertex_imbalance_checks_the_cover_once(self):
        # The cover check of the first call is not repeated on the next ones:
        # 4,001 calls on the 800-component K(3,3) chain took 0.31 s when every
        # call compared the two vertex sets.
        g, d = k33_chain(800)
        o = construct_optimal_chained(d)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            for v in o:
                vertex_imbalance(v, o, g)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05


class TestSuborderingConcat:
    def test_subordering(self):
        o = Ordering(["a", "b", "c", "d"])
        assert subordering(o, {"b", "d"}) == Ordering(["b", "d"])
        assert subordering(o, o.vertices) == o

    def test_subordering_unknown_vertex(self):
        with pytest.raises(ValueError):
            subordering(Ordering(["a"]), {"a", "q"})

    def test_concat(self):
        parts = [Ordering(["y1"]), Ordering(["x1", "x2"]), Ordering(["y2"])]
        assert concat_orderings(parts) == Ordering(["y1", "x1", "x2", "y2"])
        assert concat_orderings([]) == Ordering([])

    def test_concat_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            concat_orderings([Ordering(["a"]), Ordering(["a", "b"])])


@st.composite
def small_graphs(draw, max_vertices=7):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(verts, edges)


@st.composite
def graph_with_ordering(draw):
    g = draw(small_graphs())
    perm = draw(st.permutations(sorted(g.vertices)))
    return g, Ordering(perm)


class TestInvariants:
    @given(graph_with_ordering())
    def test_total_is_sum_of_vertex_imbalances(self, case):
        g, o = case
        assert ordering_imbalance(o, g) == sum(
            vertex_imbalance(v, o, g) for v in g.vertices
        )
        assert vertex_imbalances(o, g) == [vertex_imbalance(v, o, g) for v in o]

    @given(graph_with_ordering())
    def test_reversal_invariance(self, case):
        g, o = case
        assert ordering_imbalance(o.reverse(), g) == ordering_imbalance(o, g)

    @given(graph_with_ordering())
    def test_parity_matches_degree(self, case):
        g, o = case
        odd = 0
        for v in g.vertices:
            assert vertex_imbalance(v, o, g) % 2 == g.degree(v) % 2
            odd += g.degree(v) % 2
        assert ordering_imbalance(o, g) >= odd

    @given(graph_with_ordering(), st.data())
    def test_subordering_of_concat_recovers_part(self, case, data):
        _, o = case
        other = Ordering(f"w{i}" for i in range(data.draw(st.integers(0, 4))))
        joined = concat_orderings([o, other])
        assert subordering(joined, o.vertices) == o

    @given(small_graphs())
    @settings(max_examples=200)
    def test_bipartition_valid_or_witness_is_odd_cycle(self, g):
        try:
            b = bipartition(g)
        except NotBipartiteError as exc:
            assert len(exc.cycle) % 2 == 1
            for u, v in zip(exc.cycle, exc.cycle[1:] + exc.cycle[:1]):
                assert g.has_edge(u, v)
            return
        assert b.x_part | b.y_part == g.vertices
        for u, v in g.edges():
            assert (u in b.x_part) != (v in b.x_part)
