"""Core graph types, parsing, bipartition, and the imbalance evaluators."""

import random
import sys
from collections import deque
from itertools import islice

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
    brute_force_min,
    construct_optimal_chained,
    construct_optimal_complete,
    decompose,
    format_decomposition,
    generate_chained,
    is_complete_bipartite,
    min_imbalance_chained,
    ordering_imbalance,
    parse_edge_list,
    parse_ordering,
    verify_optimal_complete,
    vertex_imbalance,
    vertex_imbalances,
)
from biclique_imbalance.graph import _bipartition_and_roots, _check_tokens, _tokenize_lines
from conftest import (
    CHAINED_EDGES,
    chained_example_graph,
    complete_bigraph,
    example_graph,
    k33_chain,
    random_chain_spec,
    renamed,
)


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

    @pytest.mark.parametrize(
        "text, line, vertex",
        [
            ("q q\na b\nb c\n", 1, "q"),
            ("a b\nb c\nc c\n", 3, "c"),
            ("a b\nb c\nc c", 3, "c"),
        ],
        ids=["first-line", "last-line", "last-line-without-newline"],
    )
    def test_self_loop_at_the_ends_of_plain_text(self, text, line, vertex):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == f"line {line}: self-loop on {vertex!r}"
        assert exc.value.line == line

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
            "a b \nc d\n",
        ],
    )
    def test_near_plain_text_is_read_line_by_line(self, text):
        assert parse_edge_list(text) == Graph((), [("a", "b"), ("c", "d")])

    # Plain lines but for one line, or the right token count in the wrong
    # shape: each is read line by line.
    @pytest.mark.parametrize(
        "text, graph",
        [
            ("a b\nc", Graph(["c"], [("a", "b")])),
            ("\n", Graph()),
            ("a b\n\n", Graph((), [("a", "b")])),
        ],
    )
    def test_plain_but_for_one_line_is_read_line_by_line(self, text, graph):
        assert parse_edge_list(text) == graph

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b c\nd\n", "line 1: expected 1 or 2 tokens, got 3: 'a b c'"),
            # U+00A0 splits tokens but does not end a line.
            ("a b\xa0c d\n", "line 1: expected 1 or 2 tokens, got 4: 'a b\\xa0c d'"),
        ],
    )
    def test_even_token_count_in_bad_lines_exact_message(self, text, message):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
        assert exc.value.line == 1

    @given(st.data())
    def test_equals_the_line_reader_on_raw_text(self, data):
        # Plain lines, maybe without the last newline, with up to three
        # raw characters put in place of a token or separator, or inserted.
        tokens = data.draw(st.lists(st.sampled_from(["a", "b", "c", "xy", "é"]), max_size=10))
        pieces = [p for i, t in enumerate(tokens) for p in (t, " \n"[i % 2])]
        if pieces and data.draw(st.booleans()):
            pieces.pop()
        raw = st.sampled_from(["a", " ", "\n", "\t", "\r", "#", "\x85", "\xa0"])
        for _ in range(data.draw(st.integers(0, 3))):
            k = data.draw(st.integers(0, len(pieces)))
            pieces[k : k + data.draw(st.integers(0, 1))] = [data.draw(raw)]
        text = "".join(pieces)
        try:
            us, vs, isolated = _tokenize_lines(text)
        except GraphParseError as want:
            with pytest.raises(GraphParseError) as got:
                parse_edge_list(text)
            assert (str(got.value), got.value.line) == (str(want), want.line)
        else:
            assert parse_edge_list(text) == Graph(isolated, zip(us, vs))

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

    def test_position_of_a_vertex_not_in_the_ordering(self):
        with pytest.raises(ValueError, match=r"^vertex 'z' not in ordering$"):
            Ordering(["a"]).position("z")

    def test_views_follow_the_sequence(self):
        o = Ordering(("c", "a", "b"))
        assert o.sequence == ("c", "a", "b")
        assert o.vertices == frozenset("abc")
        assert (list(o), len(o), "a" in o, "z" in o) == (["c", "a", "b"], 3, True, False)
        assert o == Ordering(["c", "a", "b"]) != Ordering(["a", "b", "c"])
        assert o != ("c", "a", "b")
        assert hash(o) == hash(("c", "a", "b"))
        assert repr(o) == "Ordering(c, a, b)"


class TestGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"^self-loop on 'a'$"):
            Graph((), [("a", "a")])

    def test_bad_token_is_reported_before_an_earlier_self_loop(self):
        with pytest.raises(ValueError, match="vertex token must be .*, got 'c d'$"):
            Graph((), [("a", "a"), ("b", "c d")])

    def test_neighbors_of_a_vertex_not_in_the_graph(self):
        with pytest.raises(ValueError, match=r"^vertex 'z' not in graph$"):
            Graph(["a"]).neighbors("z")
        with pytest.raises(ValueError, match=r"^vertex 'z' not in graph$"):
            Graph(["a"]).degree("z")

    def test_equality_and_repr(self):
        g = Graph(["d"], [("a", "b"), ("b", "c")])
        assert g == Graph(["d"], [("b", "c"), ("a", "b")]) != Graph((), [("a", "b")])
        assert g != {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set()}
        assert repr(g) == "Graph(4 vertices, 2 edges)"


def _held(obj):
    """obj and every object that its containers, slots and __dict__ hold."""
    stack, seen = [obj], {}
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (str, int)):
            continue
        seen[id(o)] = o
        if isinstance(o, dict):
            stack += [*o.keys(), *o.values()]
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack += o
        stack += [getattr(o, name) for name in getattr(type(o), "__slots__", ()) if hasattr(o, name)]
        stack += getattr(o, "__dict__", {}).values()
    return seen.values()


K32_EDGES = [(x, y) for x in ("x1", "x2", "x3") for y in ("y1", "y2")]


@pytest.mark.parametrize("edges", [K32_EDGES, CHAINED_EDGES], ids=["K(3,2)", "chain"])
@pytest.mark.parametrize("build", [
    lambda edges: parse_edge_list("".join(f"{u} {v}\n" for u, v in edges)),
    lambda edges: parse_edge_list("".join(f"{u}\t{v}\n" for u, v in edges)),  # the line reader
    lambda edges: Graph((), edges),
], ids=["plain", "lines", "Graph"])
class TestNoInternalSetEscapes:
    """A graph keeps the adjacency sets it was built with and hands out none
    of them, so no caller can change it."""

    def test_neighbors_are_frozen_copies(self, edges, build):
        g = build(edges)
        for v in g.vertices:
            nb = g.neighbors(v)
            assert type(nb) is frozenset and nb == g._adj[v]
            assert not any(nb is s for s in g._adj.values())

    def test_results_hold_only_frozen_copies(self, edges, build):
        g = build(edges)
        d = decompose(g)
        internal = set(map(id, g._adj.values()))
        for result in (bipartition(g), d, construct_optimal_chained(d)):
            for o in _held(result):
                assert not isinstance(o, (set, frozenset)) or type(o) is frozenset
                assert id(o) not in internal

    def test_every_cli_call_leaves_the_graph_as_parsed(self, edges, build):
        g = build(edges)
        fresh = parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))
        b, d = bipartition(g), decompose(g)
        assert g == fresh
        calls = [
            lambda: vertex_imbalances(construct_optimal_chained(d), g),
            lambda: construct_optimal_complete(b),
            lambda: verify_optimal_complete(construct_optimal_complete(b), b),
            lambda: min_imbalance_chained(d),
            lambda: format_decomposition(d),
            lambda: brute_force_min(g, cap=g.vertex_count, count_optima=True),
            lambda: [g.degree(v) for v in g.vertices],
            lambda: g.edges(),
        ]
        if g.edge_count != b.nx * b.ny:  # the complete commands reject the chain first
            del calls[1:3]
        for call in calls:
            call()
            assert g == fresh and type(g._adj) is dict


@pytest.mark.parametrize("token", ["", "a b", "a\u2003b", "a\x85b", "a\x1cb", 7])
def test_graph_and_ordering_reject_bad_tokens(token):
    for build in (
        lambda: Graph([token]),
        lambda: Graph((), [(token, "z")]),
        lambda: Ordering(["z", token]),
    ):
        with pytest.raises(ValueError, match="vertex token must be a non-empty string"):
            build()


def _split_token_rule(tokens):
    """The token check that the C-level test replaced, as the reference: join,
    split and compare, then name the first bad token."""
    try:
        if " ".join(tokens).split() == tokens:
            return None
    except TypeError:
        pass
    for token in tokens:
        if not isinstance(token, str) or token.split() != [token]:
            return f"vertex token must be a non-empty string without whitespace, got {token!r}"
    return None


def _token_verdict(tokens):
    try:
        _check_tokens(tokens)
    except ValueError as exc:
        return str(exc)
    return None


class TestTokenCheck:
    """_check_tokens gives the old rule's verdict: the same pass, or the same
    error naming the same first bad token."""

    def test_every_whitespace_code_point(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert " " in spaces and "\x85" in spaces
        for ch in spaces:
            for tokens in ([ch], [f"a{ch}b"], ["a", ch], [f"{ch}a", "b"], ["a", f"b{ch}"]):
                assert _token_verdict(tokens) == _split_token_rule(tokens), tokens

    def test_random_lists_agree_with_the_old_rule(self):
        rng = random.Random(31)
        # Letters, whitespace, and unprintable characters that split() keeps inside a token.
        chars = [*"abé", " ", "\t", "\x00", "\x1c", "\x85", "\xa0", "\u3000", "\u200b", "\u200e"]
        pool = ["", *chars, *(p + q for p in chars for q in chars)]
        pool += ["".join(rng.choices(chars, k=3)) for _ in range(200)]
        pool += [7, None, b"a", ("a",)]
        pool += ["a", "b", "ab", "é", "bé"] * 60  # so that many lists pass at once
        lengths = rng.choices(range(5), k=200_000)
        flat = iter(rng.choices(pool, k=sum(lengths)))
        passed = 0
        for n in lengths:
            tokens = list(islice(flat, n))
            verdict = _token_verdict(tokens)
            assert verdict == _split_token_rule(tokens), tokens
            passed += verdict is None
        assert 20_000 < passed < 180_000


def _sorted_scan_bipartition(g):
    """Reference two-coloring: breadth-first from each smallest uncolored
    vertex, scanning every vertex's neighbors in sorted order. Returns the
    X part, the Y part and the roots."""
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
    return x, y, roots


def _check_against_sorted_scan(g):
    """Check _bipartition_and_roots(g) against _sorted_scan_bipartition(g):
    the same parts and roots, or the same odd-cycle witness and message.
    Returns the witness, or None if g is bipartite."""
    try:
        expected = _sorted_scan_bipartition(g)
    except NotBipartiteError as ref:
        with pytest.raises(NotBipartiteError) as info:
            _bipartition_and_roots(g)
        assert info.value.cycle == ref.cycle
        assert str(info.value) == str(ref)
        return ref.cycle
    b, roots = _bipartition_and_roots(g)
    assert (b.x_part, b.y_part, roots) == expected
    return None


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

    def test_roots_in_sorted_order(self):
        g = Graph(["q", "h"], [("b", "a"), ("b", "c"), ("d", "e"), ("e", "f"), ("f", "g")])
        b, roots = _bipartition_and_roots(g)
        assert b.x_part == {"a", "c", "d", "f", "h", "q"}
        assert b.y_part == {"b", "e", "g"}
        assert roots == ["a", "d", "h", "q"]
        assert _bipartition_and_roots(chained_example_graph())[1] == ["x1"]
        assert _bipartition_and_roots(Graph())[1] == []

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
            _check_against_sorted_scan(Graph(vertices, [e for e in pairs if rng.random() < p]))

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
            cycle = _check_against_sorted_scan(Graph(names, [(names[u], names[v]) for u, v in edges]))
            outcomes.append(len(cycle) if cycle else 0)
        # Both verdicts occur, and some witness cycles are long.
        assert 0 in outcomes and max(outcomes) > 100

    def test_matches_sorted_scan_reference_on_chains_and_odd_cycles(self):
        # Renamed chains, random bipartite graphs with isolated vertices and
        # several components, and graphs with an odd cycle, some of them
        # also disconnected with a bipartite component sorted first.
        rng = random.Random(20261019)
        graphs = []
        while len(graphs) < 150:
            spec = random_chain_spec(rng, max_comps=10, max_total=80, max_part=5)
            if spec is not None:
                graphs.append(renamed(*generate_chained(spec), rng)[0])
        for _ in range(150):
            names = [f"v{k}" for k in range(rng.randint(1, 40))]
            side = {v: rng.random() < 0.5 for v in names}
            p = rng.choice([0.05, 0.15, 0.4, 1.0])
            cross = [(u, v) for u in names for v in names if u < v and side[u] != side[v]]
            graphs.append(Graph(names, [e for e in cross if rng.random() < p]))
        for trial in range(150):
            n = rng.randint(3, 30)
            cycle = [f"c{k}" for k in rng.sample(range(100), 2 * (n // 2) + 1)]
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            names = [f"c{k}" for k in range(100, 100 + rng.randint(0, 30))]
            edges += [(u, v) for u in cycle + names for v in names if u != v and rng.random() < 0.1]
            if trial % 2:  # and a bipartite component whose root sorts first
                edges += [("a0", "a1"), ("a1", "a2"), ("a2", "a3")]
            graphs.append(Graph(names, edges))
        verdicts = {True: 0, False: 0}
        for g in graphs:
            verdicts[_check_against_sorted_scan(g) is None] += 1
        assert verdicts == {True: 300, False: 150}

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
        # The cover check of the first call is not repeated on the next ones.
        # Comparing the ordering's keys with the graph's vertex set tests each
        # key for membership in the set, so the 4,001 calls on the
        # 800-component K(3,3) chain may make 4,001 membership tests in all.
        class CountingSet(frozenset):
            tests = 0

            def __contains__(self, v):
                CountingSet.tests += 1
                return frozenset.__contains__(self, v)

        g, d = k33_chain(800)
        o = construct_optimal_chained(d)
        g._vertices = CountingSet(g._vertices)
        for v in o:
            vertex_imbalance(v, o, g)
        assert CountingSet.tests == len(o) == 4001


def _edge_by_edge_imbalances(o, g):
    """Per-vertex imbalances in ordering order, counted edge by edge: of each
    edge's endpoints, the first in the ordering gains a later neighbor and the
    other an earlier one. Calls no evaluator of the package."""
    pos = {v: k for k, v in enumerate(o.sequence)}
    before_minus_after = dict.fromkeys(o.sequence, 0)
    for u, v in g.edges():
        first, second = (u, v) if pos[u] < pos[v] else (v, u)
        before_minus_after[first] -= 1
        before_minus_after[second] += 1
    return [abs(before_minus_after[v]) for v in o.sequence]


def _differential_graphs(rng):
    """Seeded graphs of four kinds, 12 of each, plus the empty graph."""
    yield Graph()
    for _ in range(12):
        # Random graphs on up to 60 vertices, some of them isolated.
        names = [f"v{k}" for k in range(rng.randint(1, 60))]
        wired = rng.sample(names, rng.randint(0, len(names)))
        p = rng.choice([0.05, 0.2, 0.6])
        yield Graph(names, [(u, v) for u in wired for v in wired if u < v and rng.random() < p])
        # Non-bipartite: a random graph plus a triangle.
        names = [f"n{k}" for k in range(rng.randint(3, 50))]
        a, b, c = rng.sample(names, 3)
        edges = [(u, v) for u in names for v in names if u < v and rng.random() < 0.3]
        yield Graph(names, edges + [(a, b), (b, c), (a, c)])
        yield complete_bigraph(rng.randint(1, 40), rng.randint(1, 40))[0]
        while (spec := random_chain_spec(rng, max_comps=300, max_total=2000, max_part=8)) is None:
            pass
        yield renamed(*generate_chained(spec), rng)[0]


def test_evaluators_match_an_edge_by_edge_count():
    rng = random.Random(20261018)
    checked = 0
    for g in _differential_graphs(rng):
        vertices = sorted(g.vertices)
        orderings = [Ordering(vertices)]
        for _ in range(2):
            rng.shuffle(vertices)
            orderings.append(Ordering(vertices))
        for o in orderings:
            expected = _edge_by_edge_imbalances(o, g)
            assert vertex_imbalances(o, g) == expected
            assert ordering_imbalance(o, g) == sum(expected)
            checked += 1
    assert checked == 147


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
        assert ordering_imbalance(Ordering(o.sequence[::-1]), g) == ordering_imbalance(o, g)

    @given(graph_with_ordering())
    def test_parity_matches_degree(self, case):
        g, o = case
        odd = 0
        for v in g.vertices:
            assert vertex_imbalance(v, o, g) % 2 == g.degree(v) % 2
            odd += g.degree(v) % 2
        assert ordering_imbalance(o, g) >= odd

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
