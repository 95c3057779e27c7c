"""Shared fixtures: the worked example graphs and small builders, and the
chain helpers that several test modules use."""

from __future__ import annotations

import gc

import pytest

from biclique_imbalance import (
    Bipartition,
    ChainComponent,
    ChainDecomposition,
    ChainSpec,
    Graph,
    generate_chained,
)


@pytest.fixture(autouse=True)
def _collector_restored():
    """Fail a test that leaves the cyclic collector off. Tests call cli.main in
    process, and main pauses the collector while a command runs."""
    yield
    assert gc.isenabled(), "the test left the cyclic garbage collector off"


# 5-vertex example used throughout: edges a-b, a-c, b-c, b-d, c-e. The
# ordering (a, b, c, d, e) has per-vertex imbalances 2, 1, 1, 1, 1 (total 6).
EXAMPLE_EDGES = [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "e")]

# 11-vertex chained example: K(2,2) + K(2,2) + K(2,3) glued at x2 and y4.
CHAINED_EDGES = [
    ("x1", "y1"), ("x1", "y2"),
    ("x2", "y1"), ("x2", "y2"), ("x2", "y3"), ("x2", "y4"),
    ("x3", "y3"), ("x3", "y4"),
    ("x4", "y4"), ("x4", "y5"), ("x4", "y6"),
    ("x5", "y4"), ("x5", "y5"), ("x5", "y6"),
]


def example_graph() -> Graph:
    return Graph((), EXAMPLE_EDGES)


def chained_example_graph() -> Graph:
    return Graph((), CHAINED_EDGES)


def complete_bigraph(a: int, b: int) -> tuple[Graph, Bipartition]:
    """K(a, b) on vertices x1..xa / y1..yb with the natural bipartition."""
    xs = [f"x{i}" for i in range(1, a + 1)]
    ys = [f"y{i}" for i in range(1, b + 1)]
    g = Graph((), [(x, y) for x in xs for y in ys])
    return g, Bipartition(frozenset(xs), frozenset(ys))


FIG_SPEC = ChainSpec(((2, 2), (2, 2), (2, 3)), ("X", "Y"))


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


def k33_chain(n):
    """n K(3,3) components glued alternately at X and Y overlaps."""
    return generate_chained(ChainSpec(((3, 3),) * n, tuple("XY"[i % 2] for i in range(n - 1))))
