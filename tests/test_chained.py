"""Chain decomposition, the chained closed form, constructions, generation,
interval representations, and the overlap inequality probe."""

import itertools
import random

import pytest

from biclique_imbalance import (
    ChainComponent,
    ChainDecomposition,
    ChainSpec,
    Graph,
    GraphParseError,
    NotBipartiteError,
    NotChainedError,
    NotConnectedError,
    Ordering,
    SpecInvalidError,
    bipartition,
    brute_force_min,
    construct_component_subordering,
    construct_optimal_chained,
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
    subordering,
    vertex_imbalance,
)
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
        assert d.overlap_in_x == (True, False)

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
        assert d.overlap_in_x == (True,)
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

    def test_six_cycle_rejected(self):
        g = Graph(
            (),
            [("x1", "y1"), ("y1", "x2"), ("x2", "y2"), ("y2", "x3"), ("x3", "y3"), ("y3", "x1")],
        )
        with pytest.raises(NotChainedError):
            decompose(g)

    def test_edgeless_rejected(self):
        with pytest.raises(NotChainedError):
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
        with pytest.raises(NotChainedError):
            decompose(g2)


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

    def test_single_component_degenerates_to_complete_formula(self):
        g, _ = complete_bigraph(3, 3)
        assert min_imbalance_chained(decompose(g)) == min_imbalance_formula(3, 3)


class TestComponentSubordering:
    def test_k22_same_part(self):
        d = ChainDecomposition(
            (ChainComponent(frozenset({"a", "s1"}), frozenset({"b", "c"})),), (), ()
        )
        mid = construct_component_subordering(d, 1, "a", "s1")
        assert mid == Ordering(["b", "c"])

    def test_k12_sandwich_on_singleton_x(self):
        d = ChainDecomposition(
            (ChainComponent(frozenset({"x"}), frozenset({"y", "z"})),), (), ()
        )
        mid = construct_component_subordering(d, 1, "y", "z")
        assert mid == Ordering(["x"])

    def test_k77_same_part_evaluates_to_formula(self):
        g, bp = complete_bigraph(7, 7)
        d = ChainDecomposition((ChainComponent(bp.x_part, bp.y_part),), (), ())
        mid = construct_component_subordering(d, 1, "x1", "x7")
        full = Ordering(["x1", *mid, "x7"])
        assert ordering_imbalance(full, g) == 50
        assert vertex_imbalance("x1", full, g) == 7
        assert vertex_imbalance("x7", full, g) == 7

    def test_all_boundary_placements_of_small_components(self):
        # every legal boundary pair must produce a block meeting the closed form
        for a, b in [(2, 2), (2, 3), (3, 3), (1, 3), (2, 4), (3, 4), (1, 1)]:
            g, bp = complete_bigraph(a, b)
            d = ChainDecomposition((ChainComponent(bp.x_part, bp.y_part),), (), ())
            want = min_imbalance_formula(a, b)
            for s_prev, s_next in itertools.permutations(sorted(g.vertices), 2):
                part_of = lambda v: bp.x_part if v in bp.x_part else bp.y_part
                if len(part_of(s_prev)) == 1 and (a, b) != (1, 1):
                    continue  # no optimal ordering pins a singleton-part vertex
                if len(part_of(s_next)) == 1 and (a, b) != (1, 1):
                    continue
                mid = construct_component_subordering(d, 1, s_prev, s_next)
                full = Ordering([s_prev, *mid, s_next])
                assert ordering_imbalance(full, g) == want, (a, b, s_prev, s_next)

    def test_bad_boundaries_rejected(self):
        d = ChainDecomposition(
            (ChainComponent(frozenset({"a"}), frozenset({"b"})),), (), ()
        )
        with pytest.raises(ValueError):
            construct_component_subordering(d, 1, "a", "a")
        with pytest.raises(ValueError):
            construct_component_subordering(d, 2, "a", "b")


class TestConstructChained:
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
            block = subordering(o, comp.vertices)
            local = g.subgraph(comp.vertices)
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
            done += 1

    def test_no_overlap_in_singleton_part(self):
        rng = random.Random(11)
        done = 0
        while done < 15:
            spec = random_chain_spec(rng, max_comps=6, max_total=60, max_part=6)
            if spec is None:
                continue
            d = decompose(generate_chained(spec)[0])
            for i, s in enumerate(d.overlaps, start=1):
                for j in (i, i + 1):
                    comp = d.components[j - 1]
                    part = comp.x_part if s in comp.x_part else comp.y_part
                    assert len(part) >= 2
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
                local = subordering(o, comp.vertices)
                sub = g.subgraph(comp.vertices)
                for v in comp.vertices - overlap_set:
                    assert vertex_imbalance(v, o, g) == vertex_imbalance(v, local, sub)
            for i, s in enumerate(d.overlaps, start=1):
                support = d.components[i - 1].vertices | d.components[i].vertices
                local = subordering(o, support)
                sub = g.subgraph(support)
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
        rng = random.Random(2718)
        spec = ChainSpec(((2, 3), (3, 2)), ("Y",))
        g, d = generate_chained(spec)
        verts = sorted(g.vertices)
        for _ in range(300):
            perm = verts[:]
            rng.shuffle(perm)
            p = overlap_inequality_probe(Ordering(perm), d)
            assert p.lhs >= p.rhs


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

    def test_format_report(self):
        d = decompose(chained_example_graph())
        assert format_decomposition(d) == (
            "C1: X={x1,x2} Y={y1,y2}\n"
            "C2: X={x2,x3} Y={y3,y4}\n"
            "C3: X={x4,x5} Y={y4,y5,y6}\n"
            "s1 = x2 (X)\n"
            "s2 = y4 (Y)"
        )
