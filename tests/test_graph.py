"""Core graph types, parsing, bipartition, and the imbalance evaluators."""

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
    is_complete_bipartite,
    ordering_imbalance,
    parse_edge_list,
    parse_ordering,
    subordering,
    vertex_imbalance,
    vertex_imbalances,
)
from conftest import CHAINED_EDGES, chained_example_graph, complete_bigraph, example_graph


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


class TestOrdering:
    def test_positions_are_one_based(self):
        o = Ordering(["b", "a", "c"])
        assert o.position("b") == 1
        assert o.position("c") == 3

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
