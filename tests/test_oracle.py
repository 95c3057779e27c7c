"""Exact oracle: minima, witnesses, optimum counts and enumeration."""

import itertools
import math
import random
import tracemalloc

import pytest

from biclique_imbalance import (
    ChainSpec,
    Graph,
    Ordering,
    SizeCapExceededError,
    brute_force_min,
    enumerate_optima,
    generate_chained,
    ordering_imbalance,
)
from biclique_imbalance import oracle
from conftest import (
    chained_example_graph,
    complete_bigraph,
    example_graph,
    random_chain_spec,
)


def test_k22_minimum():
    g, _ = complete_bigraph(2, 2)
    r = brute_force_min(g)
    assert r.minimum == 4
    assert ordering_imbalance(r.witness, g) == 4


def test_single_edge_witness_is_sorted():
    g = Graph((), [("v", "u")])
    r = brute_force_min(g)
    assert r.minimum == 2
    assert r.witness == Ordering(["u", "v"])


def test_example_graph_minimum():
    # The worked 5-vertex example: the ordering (a, b, c, d, e) gives 6, the
    # true minimum over all 120 orderings is 4.
    g = example_graph()
    r = brute_force_min(g)
    assert r.minimum == 4
    assert r.minimum <= 6


def test_witness_is_lexicographically_smallest():
    g, _ = complete_bigraph(2, 2)
    optima = enumerate_optima(g)
    assert brute_force_min(g).witness == optima[0]
    assert optima == sorted(optima, key=lambda o: o.sequence)


def test_enumerate_single_edge():
    g = Graph((), [("u", "v")])
    assert enumerate_optima(g) == [Ordering(["u", "v"]), Ordering(["v", "u"])]


def test_enumerate_edgeless_pair():
    g = Graph(["a", "b"])
    r = brute_force_min(g, count_optima=True)
    assert r.minimum == 0
    assert r.optima_count == 2


def test_enumerate_star_k12():
    g = Graph((), [("x", "y1"), ("x", "y2")])
    assert enumerate_optima(g) == [
        Ordering(["y1", "x", "y2"]),
        Ordering(["y2", "x", "y1"]),
    ]


def test_cap_enforced():
    g = chained_example_graph()
    with pytest.raises(SizeCapExceededError):
        brute_force_min(g)
    assert brute_force_min(g, cap=11).minimum == 6


def test_optima_count_not_computed_by_default():
    g = Graph((), [("u", "v")])
    assert brute_force_min(g).optima_count is None


def _random_graph(rng, n):
    verts = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    return Graph(verts, [p for p in pairs if rng.random() < 0.5])


def _permutation_reference(g):
    """(minimum, all optima in lexicographic order) by scoring every permutation."""
    scored = []
    for perm in itertools.permutations(sorted(g.vertices)):
        pos = {v: k for k, v in enumerate(perm)}
        cost = sum(
            abs(sum(1 if pos[u] < pos[v] else -1 for u in g.neighbors(v))) for v in perm
        )
        scored.append((cost, perm))
    best = min(cost for cost, _ in scored)
    return best, [Ordering(perm) for cost, perm in scored if cost == best]


def test_matches_permutation_reference():
    rng = random.Random(12)
    graphs = [Graph(), Graph(["c", "a", "b"])]
    graphs += [_random_graph(rng, rng.randint(0, 8)) for _ in range(40)]
    for g in graphs:
        minimum, optima = _permutation_reference(g)
        r = brute_force_min(g, count_optima=True)
        assert r.minimum == minimum, g.edges()
        assert r.witness == optima[0], g.edges()
        assert r.optima_count == len(optima), g.edges()
        assert enumerate_optima(g) == optima, g.edges()


def _blow_up(rng, h, copies, names):
    """Each vertex i of a random h-vertex graph replaced by copies[i] false
    twins, named from names in a shuffled order."""
    base = [(i, j) for i in range(h) for j in range(i + 1, h) if rng.random() < 0.5]
    names = rng.sample(names, sum(copies))
    twins = [[names.pop() for _ in range(k)] for k in copies]
    return Graph(
        itertools.chain.from_iterable(twins),
        [(u, v) for i, j in base for u in twins[i] for v in twins[j]],
    )


def test_matches_permutation_reference_on_twin_classes():
    rng = random.Random(2012)
    names = [f"t{i}" for i in range(12)]
    graphs = []
    while len(graphs) < 12:
        h = rng.randint(2, 4)
        copies = [rng.randint(1, 3) for _ in range(h)]
        if sum(copies) <= 8:
            graphs.append(_blow_up(rng, h, copies, names))
    for _ in range(6):  # several isolated vertices form one class
        g = _random_graph(rng, rng.randint(0, 5))
        isolated = [f"i{k}" for k in rng.sample(range(10), rng.randint(2, 3))]
        graphs.append(Graph(list(g.vertices) + isolated, g.edges()))
    graphs += [complete_bigraph(a, b)[0] for a in range(1, 8) for b in range(a, 9 - a)]
    for g in graphs:
        minimum, optima = _permutation_reference(g)
        r = brute_force_min(g, count_optima=True)
        assert r.minimum == minimum, g.edges()
        assert r.witness == optima[0], g.edges()
        assert r.optima_count == len(optima), g.edges()
        assert enumerate_optima(g) == optima, g.edges()


def test_star_count_needs_no_recursion():
    # The centre of K(1, 1200) sits exactly in the middle of every optimum,
    # with any order of the leaves around it.
    g, _ = complete_bigraph(1, 1200)
    r = brute_force_min(g, cap=1201, count_optima=True)
    assert r.minimum == 1200
    assert r.optima_count == math.factorial(1200)


def test_count_keeps_only_the_states_it_has_reached():
    # This 4 x K(3, 3) chain has 73,728 twin-class states; a count with a slot
    # per state would hold megabytes, the reached frontier a few entries.
    g, _ = generate_chained(ChainSpec(((3, 3),) * 4, ("X",) * 3))
    table = oracle._CostToGo(g, g.vertex_count)
    tracemalloc.start()
    try:
        table.count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_table_fill_allocates_nothing_per_state():
    # The table is one 8-byte slot per state; what the fill makes per state
    # must be freed before the next one.
    g, _ = generate_chained(ChainSpec(((3, 3),) * 4, ("X",) * 3))
    states = 73_728
    tracemalloc.start()
    try:
        table = oracle._CostToGo(g, g.vertex_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rest) == states
    assert peak < 8 * states + 64 * 1024


def _subset_cost_to_go(nbr):
    """ref[mask]: least imbalance of placing the vertices outside mask after
    those in it, by a plain dynamic program over all 2^n vertex subsets;
    nbr[i] is the neighbor mask of vertex i."""
    full = (1 << len(nbr)) - 1
    ref = [0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        ref[mask] = min(
            _step(nb, mask) + ref[mask | 1 << i]
            for i, nb in enumerate(nbr)
            if not mask >> i & 1
        )
    return ref


def _step(nbr, mask):
    """Imbalance of a vertex with neighbor mask nbr placed after the set mask."""
    return abs(2 * bin(nbr & mask).count("1") - bin(nbr).count("1"))


def _small_graphs(rng):
    """Empty, edgeless, random, twin-rich, complete bipartite and chained
    graphs of at most 9 vertices."""
    names = [f"t{i}" for i in range(12)]
    graphs = [Graph(), Graph(["c", "a", "b"]), Graph(["z"])]
    graphs += [_random_graph(rng, rng.randint(1, 9)) for _ in range(60)]
    twin_rich = 0
    while twin_rich < 15:
        h = rng.randint(2, 4)
        copies = [rng.randint(1, 3) for _ in range(h)]
        if sum(copies) <= 9:
            graphs.append(_blow_up(rng, h, copies, names))
            twin_rich += 1
    graphs += [complete_bigraph(a, b)[0] for a in range(1, 5) for b in range(a, 10 - a)]
    specs = 0
    while specs < 10:
        spec = random_chain_spec(rng, max_comps=3, max_total=9, max_part=3)
        if spec is not None and len(spec.sizes) > 1:
            graphs.append(generate_chained(spec)[0])
            specs += 1
    return graphs


def test_whole_table_matches_subset_cost_to_go():
    # Every state, not only the root: rest[index(p)] is the subset reference
    # at the first p[c] sorted members of each class, and tight(idx, p) names
    # exactly the classes whose next member is a tight step there.
    for g in _small_graphs(random.Random(1512)):
        verts = sorted(g.vertices)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        nbr = {v: sum(bit[u] for u in g.neighbors(v)) for v in verts}
        ref = _subset_cost_to_go([nbr[v] for v in verts])
        by_nbhd = {}
        for v in verts:
            by_nbhd.setdefault(g.neighbors(v), []).append(v)
        classes = list(by_nbhd.values())
        table = oracle._CostToGo(g, 9)
        assert table.members == classes, g.edges()
        sizes = [len(ms) for ms in classes]
        radix = [math.prod(k + 1 for k in sizes[c + 1 :]) for c in range(len(sizes))]
        assert len(table.rest) == math.prod(k + 1 for k in sizes)
        for p in itertools.product(*(range(k + 1) for k in sizes)):
            idx = sum(map(math.prod, zip(p, radix)))
            mask = sum(bit[v] for c, ms in enumerate(classes) for v in ms[: p[c]])
            assert table.rest[idx] == ref[mask], (g.edges(), p)
            tight = {}
            for c, ms in enumerate(classes):
                if p[c] < len(ms):
                    v = ms[p[c]]
                    if _step(nbr[v], mask) + ref[mask | bit[v]] == ref[mask]:
                        tight[c] = idx + radix[c]
            assert table.tight(idx, p + (0,)) == tight, (g.edges(), p)


def test_state_cap_refuses_before_allocating(monkeypatch):
    def no_table(*args):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(oracle, "array", no_table)
    path = Graph((), [(f"p{i}", f"p{i + 1}") for i in range(1, 40)])  # no twins
    with pytest.raises(SizeCapExceededError, match=f"^{2**40} twin-class states"):
        brute_force_min(path, cap=40)


def test_reversal_closure_of_optima():
    rng = random.Random(5)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 6))
        optima = set(enumerate_optima(g))
        assert {Ordering(o.sequence[::-1]) for o in optima} == optima


def test_minimum_invariant_under_relabeling():
    rng = random.Random(77)
    for _ in range(15):
        g = _random_graph(rng, rng.randint(2, 6))
        names = sorted(g.vertices)
        fresh = [f"w{i}" for i in range(len(names))]
        rng.shuffle(fresh)
        mapping = dict(zip(names, fresh))
        relabeled = Graph(
            [mapping[v] for v in names],
            [(mapping[u], mapping[v]) for u, v in g.edges()],
        )
        assert brute_force_min(relabeled).minimum == brute_force_min(g).minimum
