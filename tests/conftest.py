"""Shared fixtures: the worked example graphs and small builders."""

from __future__ import annotations

import gc
import sys

import pytest

from biclique_imbalance import Bipartition, Graph


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture(autouse=True)
def _collector_and_digit_limit_restored():
    """Fail a test that leaves the cyclic collector off or the int/str digit
    limit changed. Tests call cli.main in process, and main pauses the one and
    lifts the other while a command runs."""
    limit = _digit_limit()
    yield
    assert gc.isenabled(), "the test left the cyclic garbage collector off"
    assert _digit_limit() == limit, "the test left the int/str digit limit changed"


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
