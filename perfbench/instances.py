"""Seeded instance generators for the four workloads.

Each generator writes its graph and ordering files into a work directory
and returns the CLI argument lists together with the checks built from
`reference`. Vertex names are random tokens, edge lines are shuffled and
their endpoints randomly swapped, so no code path can lean on generator
names or on file order.

Sizes come from fixed ladders; the seed picks names, orderings, part sizes
of mixed chains (except the eval chains of order_check), parities and overlap
parts. Run-to-run figures therefore compare like with like across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from reference import (
    Adjacency,
    Check,
    Memo,
    chained_minimum,
    complete_imbalance,
    complete_minimum,
    either,
    enumerate_orderings,
    exact,
    line_one_parse_error,
    optimal_ordering,
    oracle_answer,
    power_part,
    power_parts_minimum,
    rejection,
    verdict,
    vertex_imbalances,
)

NOT_CHAINED = "error: not a chained complete bipartite graph"


@dataclass
class Instance:
    label: str  # shape and size class, for the per-label report
    argv: list[str]
    size: int  # V + E of the graph file, 0 without one
    vertices: int
    check: Check
    defect: bool = False  # a known defect of the program: expected to fail today


class Writer:
    """Names vertices and writes instance files into one directory."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.rng = rng
        self._files = 0

    def names(self, count: int, pattern: str | None = None) -> list[str]:
        """Distinct random tokens; their relative order is random too, unless
        `pattern` fixes it (the tokens themselves still follow the seed)."""
        ids = self.rng.sample(range(1, 20 * count + 100), count)
        names = [f"n{k:x}" for k in ids]
        if pattern is not None:
            names.sort()
            random.Random(pattern).shuffle(names)
        return names

    def file(self, text: str, bom: bool = False) -> str:
        self._files += 1
        path = self.root / f"f{self._files}.txt"
        path.write_text(("﻿" if bom else "") + text, encoding="utf-8")
        return str(path)

    def edge_file(self, edges: Sequence[tuple[str, str]], bom: bool = False) -> str:
        rng = self.rng
        lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        rng.shuffle(lines)
        return self.file("\n".join(lines) + "\n", bom)

    def complete_file(self, xs: list[str], ys: list[str], bom: bool = False) -> str:
        """K(a, b) row by row, so no list of all a*b edges is ever held."""
        self._files += 1
        path = self.root / f"f{self._files}.txt"
        rng = self.rng
        with path.open("w", encoding="utf-8") as fh:
            if bom:
                fh.write("﻿")
            for x in rng.sample(xs, len(xs)):
                row = rng.sample(ys, len(ys))
                fh.write("".join(f"{x} {y}\n" if rng.random() < 0.5 else f"{y} {x}\n" for y in row))
        return str(path)


# ------------------------------------------------------------ graph shapes


@dataclass
class Graph:
    """A generated graph: adjacency by name plus its edge list."""

    adj: Adjacency
    edges: list[tuple[str, str]]
    components: list[tuple[list[str], list[str]]]

    @property
    def size(self) -> int:
        return len(self.adj) + len(self.edges)


def assemble(
    writer: Writer,
    sizes: Sequence[tuple[int, int]],
    links: Sequence[tuple[int, int, str]],
    pattern: str | None = None,
) -> Graph:
    """Complete bipartite components glued at single shared vertices.

    links[k] = (i, j, part) makes components i and j share one vertex that
    lies in `part` ("X" or "Y") of both. Parts are global, so the result is
    bipartite; it is connected when the links connect the components.
    """
    slots: list[tuple[list[int], list[int]]] = [([], []) for _ in sizes]
    count = 0
    for i, j, part in links:
        side = 0 if part == "X" else 1
        slots[i][side].append(count)
        slots[j][side].append(count)
        count += 1
    for (a, b), (xs, ys) in zip(sizes, slots):
        if len(xs) > a or len(ys) > b:
            raise ValueError(f"component K({a},{b}) cannot hold its shared vertices")
        while len(xs) < a:
            xs.append(count)
            count += 1
        while len(ys) < b:
            ys.append(count)
            count += 1
    names = writer.names(count, pattern)
    comps = [([names[v] for v in xs], [names[v] for v in ys]) for xs, ys in slots]
    nbrs: dict[str, set[str]] = {v: set() for v in names}
    edges = []
    for xs, ys in comps:
        for x in xs:
            for y in ys:
                nbrs[x].add(y)
                nbrs[y].add(x)
                edges.append((x, y))
    return Graph({v: frozenset(s) for v, s in nbrs.items()}, edges, comps)


def chain_links(parts: Sequence[str]) -> list[tuple[int, int, str]]:
    return [(i, i + 1, p) for i, p in enumerate(parts)]


def k33_spec(rng: random.Random, n: int):
    return [(3, 3)] * n, [rng.choice("XY") for _ in range(n - 1)]


def star_spec(rng: random.Random, m: int):
    """A path with 2m edges: m stars K(1,2) sharing leaves (or the mirror)."""
    if rng.random() < 0.5:
        return [(1, 2)] * m, ["Y"] * (m - 1)
    return [(2, 1)] * m, ["X"] * (m - 1)


def chain_vertices(sizes, parts) -> int:
    return sum(a + b for a, b in sizes) - len(parts)


def chain_size(sizes, parts) -> int:
    """V + E of the chain a spec describes."""
    return chain_vertices(sizes, parts) + sum(a * b for a, b in sizes)


def mixed_spec(rng: random.Random, target: int, measure=chain_size, low: int = 1, high: int = 6):
    """Random part sizes (every parity) and overlap parts, grown to measure >= target.

    An overlap must sit in a part of size at least 2 in both of its
    components, as the chain definition requires.
    """
    sizes = [[rng.randint(low, high), rng.randint(low, high)]]
    parts: list[str] = []
    while measure(sizes, parts) < target:
        nxt = [rng.randint(low, high), rng.randint(low, high)]
        part = rng.choice("XY")
        side = 0 if part == "X" else 1
        sizes[-1][side] = max(sizes[-1][side], 2)
        nxt[side] = max(nxt[side], 2)
        sizes.append(nxt)
        parts.append(part)
    return [tuple(s) for s in sizes], parts


def spine_with_branches(rng: random.Random, target: int):
    """A tree of components in which some components have three or more links.

    Every part keeps one unshared vertex, so each component owns an edge.
    """
    sizes: list[list[int]] = []
    links: list[tuple[int, int, str]] = []
    used = []  # shared vertices per component and side

    def add(parent: int | None) -> int:
        sizes.append([rng.randint(2, 5), rng.randint(2, 5)])
        used.append([0, 0])
        me = len(sizes) - 1
        if parent is not None:
            part = rng.choice("XY")
            side = 0 if part == "X" else 1
            for c in (parent, me):
                used[c][side] += 1
                sizes[c][side] = max(sizes[c][side], used[c][side] + 1)
            links.append((parent, me, part))
        return me

    def total() -> int:
        return sum(a + b + a * b for a, b in sizes) - len(links)

    spine = [add(None)]
    while total() < target:
        if len(spine) < 3 or rng.random() < 0.6:
            spine.append(add(spine[-1]))
        else:
            node = rng.choice(spine[1:-1])
            for _ in range(rng.randint(1, 4)):
                if total() >= target:
                    break
                node = add(node)
    if not any(sum(1 for link in links if c in link[:2]) >= 3 for c in range(len(sizes))):
        hub = spine[len(spine) // 2]
        add(hub)
        add(hub)
    return [tuple(s) for s in sizes], links


def ring(rng: random.Random, sizes: list[tuple[int, int]]):
    """Components in a cycle: the last one links back to the first.

    A part that hosts a shared vertex gets at least 3 vertices, so it keeps
    an unshared one even when it hosts both of its component's links.
    """
    n = len(sizes)
    parts = [rng.choice("XY") for _ in range(n)]
    grown = [list(s) for s in sizes]
    for i, part in enumerate(parts):
        side = 0 if part == "X" else 1
        for c in (i, (i + 1) % n):
            grown[c][side] = max(grown[c][side], 3)
    links = [(i, (i + 1) % n, p) for i, p in enumerate(parts)]
    return [tuple(s) for s in grown], links


# ---------------------------------------------------------------- workloads


def _chain_solve_instance(writer: Writer, label: str, sizes, parts) -> Instance:
    g = assemble(writer, sizes, chain_links(parts))
    minimum = chained_minimum(sizes, parts)
    path = writer.edge_file(g.edges)
    evaluate = lambda order: sum(vertex_imbalances(order, g.adj))  # noqa: E731
    return Instance(
        label,
        ["solve", "chained", path],
        g.size,
        len(g.adj),
        Memo(optimal_ordering(minimum, evaluate, g.adj)),
    )


# V + E, a 16x span. Five rungs of equal count put p50 inside the middle
# rung and p90 inside the top rung, and two of each shape per rung keep
# either from resting on a single random graph. A star chain takes about as
# long to decompose as a K(3,3) chain of twice its V + E, so star chains sit
# on the rung at half the size and every rung holds calls of similar length.
CHAIN_LADDER = (175, 350, 700, 1400, 2800)
CHAIN_REPLICAS = 2


def chain_solve(writer: Writer) -> list[Instance]:
    rng = writer.rng
    out = []
    for target in CHAIN_LADDER:
        for _ in range(CHAIN_REPLICAS):
            out.append(_chain_solve_instance(writer, f"k33-{target}", *k33_spec(rng, target // 14)))
            out.append(_chain_solve_instance(writer, f"star-{target // 2}", *star_spec(rng, target // 8)))
            out.append(_chain_solve_instance(writer, f"mixed-{target}", *mixed_spec(rng, target)))
    return out


def chain_reject(writer: Writer) -> list[Instance]:
    rng = writer.rng
    out = []
    for target in CHAIN_LADDER:
        for _ in range(CHAIN_REPLICAS):
            shapes = {
                "ring-k33": ring(rng, [(3, 3)] * max(3, target // 16)),
                "ring-mixed": ring(rng, mixed_spec(rng, target, low=2, high=5)[0]),
                "tree": spine_with_branches(rng, target),
            }
            for name, (sizes, links) in shapes.items():
                g = assemble(writer, sizes, links)
                argv = ["solve", "chained", writer.edge_file(g.edges)]
                out.append(Instance(f"{name}-{target}", argv, g.size, len(g.adj), rejection(3, NOT_CHAINED)))
    return out


def _eval_expected(order: list[str], adj: Adjacency, verbose: bool) -> str:
    per_vertex = vertex_imbalances(order, adj)
    lines = [str(sum(per_vertex))]
    if verbose:
        lines.extend(f"{v}\t{k}" for v, k in zip(order, per_vertex))
    return "\n".join(lines) + "\n"


def _block_order(rng: random.Random, g: Graph) -> list[str]:
    """Components in chain order, each shuffled: a near-optimal ordering."""
    order: list[str] = []
    seen: set[str] = set()
    for xs, ys in g.components:
        block = [v for v in xs + ys if v not in seen]
        rng.shuffle(block)
        seen.update(block)
        order.extend(block)
    return order


def _sandwich(rng: random.Random, xs: list[str], ys: list[str]) -> list[str]:
    """An optimal ordering of K(|xs|, |ys|) from the sandwich constructions."""
    xs = rng.sample(xs, len(xs))
    ys = rng.sample(ys, len(ys))
    a, b = len(xs), len(ys)
    if b % 2 == 0:
        return ys[: b // 2] + xs + ys[b // 2 :]
    if a % 2 == 0:
        return xs[: a // 2] + ys + xs[a // 2 :]
    k, h = (b - 1) // 2, a // 2
    return ys[:k] + xs[:h] + [ys[k]] + xs[h:] + ys[k + 1 :]


def _jitter(rng: random.Random, n: int) -> int:
    return n + rng.randint(-1, 1)


# The ladders are set so that, per pass, the four known-defect instances
# (5.1 %), K(300, 290) (1.3 %) and the three eval -v runs on 2,000 vertices
# (3.8 %) are the slowest tenth: p90 falls among the eval -v runs. K(20, 25)
# gets five sets of orderings at a fixed size, and as many instances are
# faster than it as slower, so p50 falls in the middle of its sixteen calls
# of the same work whatever the seed draws elsewhere.
EVAL_LADDER = (60, 125, 250, 500, 1000, 2000)  # vertices
EXTRA_VERBOSE_AT = 2000
COMPLETE_LADDER = ((6, 7), (10, 12), (20, 25), (40, 50), (80, 100), (150, 150))
MEDIAN_COMPLETE = (20, 25)
MEDIAN_SETS = 5
BIG_COMPLETE = (300, 290)
PARTS_DIGITS = (
    (1, 1), (2, 3), (3, 4), (5, 8), (7, 6), (12, 10), (20, 25), (30, 40), (50, 45), (80, 60),
    (150, 200), (250, 200), (400, 300), (700, 650), (1000, 999), (1500, 1600), (2000, 2100),
)
DEFECT_PARTS_DIGITS = ((2200, 2200), (5000, 3))  # answers over 4,300 digits


def _eval_instance(writer: Writer, label: str, g: Graph, graph_path: str, order: list[str], verbose: bool) -> Instance:
    argv = ["eval", graph_path, writer.file(" ".join(order) + "\n")] + (["-v"] if verbose else [])
    expected = _eval_expected(order, g.adj, verbose)
    return Instance(label, argv, g.size, len(g.adj), exact(0, expected))


def _complete_instances(
    writer: Writer, a0: int, b0: int, kinds: Sequence[str], solve: bool, jitter: bool = True
) -> list[Instance]:
    """verify on the given ordering kinds of K(a, b), and optionally solve complete.

    With `jitter` the part sizes move by up to one either way, so the seed
    varies their parities.
    """
    rng = writer.rng
    a, b = (_jitter(rng, a0), _jitter(rng, b0)) if jitter else (a0, b0)
    names = writer.names(a + b)
    xs, ys = names[:a], names[a:]
    x_part = frozenset(xs)
    graph_path = writer.complete_file(xs, ys)
    size = a + b + a * b
    minimum = complete_minimum(a, b)
    constructed = _sandwich(rng, xs, ys)
    if complete_imbalance(constructed, x_part, a, b) != minimum:
        raise AssertionError(f"reference sandwich is not optimal on K({a},{b})")
    shifted = list(constructed)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(shifted) - 1)
        shifted[k], shifted[k + 1] = shifted[k + 1], shifted[k]
    orders = {"random": rng.sample(names, len(names)), "constructed": constructed, "shifted": shifted}
    out = []
    for kind in kinds:
        order = orders[kind]
        achieved = complete_imbalance(order, x_part, a, b)
        argv = ["verify", graph_path, writer.file(" ".join(order) + "\n")]
        out.append(Instance(f"verify-{kind}-{a0}", argv, size, a + b, verdict(achieved, minimum)))
    if solve:
        evaluate = lambda order: complete_imbalance(order, x_part, a, b)  # noqa: E731
        check = Memo(optimal_ordering(minimum, evaluate, names))
        out.append(Instance(f"solve-complete-{a0}", ["solve", "complete", graph_path], size, a + b, check))
    return out


def order_check(writer: Writer) -> list[Instance]:
    rng = writer.rng
    out = []
    for n in EVAL_LADDER:
        # The shape of each rung's chain is the same under every seed; the
        # seed draws its names and orderings. The three eval -v calls on the
        # top rung set p90, and random shapes moved them by a sixth.
        sizes, parts = mixed_spec(random.Random(f"order_check/eval-{n}"), n, measure=chain_vertices)
        g = assemble(writer, sizes, chain_links(parts))
        graph_path = writer.edge_file(g.edges)
        names = list(g.adj)
        out.append(_eval_instance(writer, f"eval-random-{n}", g, graph_path, rng.sample(names, len(names)), False))
        out.append(_eval_instance(writer, f"eval-blocks-{n}", g, graph_path, _block_order(rng, g), False))
        out.append(_eval_instance(writer, f"eval-v-random-{n}", g, graph_path, rng.sample(names, len(names)), True))
        if n == EXTRA_VERBOSE_AT:
            out.append(_eval_instance(writer, f"eval-v-random-{n}", g, graph_path, rng.sample(names, len(names)), True))
            out.append(_eval_instance(writer, f"eval-v-blocks-{n}", g, graph_path, _block_order(rng, g), True))

    kinds = ("random", "constructed", "shifted")
    for a0, b0 in COMPLETE_LADDER:
        if (a0, b0) != MEDIAN_COMPLETE:
            out += _complete_instances(writer, a0, b0, kinds, solve=True)
            continue
        for k in range(MEDIAN_SETS):
            out += _complete_instances(writer, a0, b0, kinds, solve=k == 0, jitter=False)
    out += _complete_instances(writer, *BIG_COMPLETE, ("constructed",), solve=False)

    for (k, m), defect in [(d, False) for d in PARTS_DIGITS] + [(d, True) for d in DEFECT_PARTS_DIGITS]:
        c1 = rng.randrange(10 ** min(k, 4))
        c2 = rng.randrange(10 ** min(m, 4))
        argv = ["solve", "complete", "--parts", power_part(k, c1), power_part(m, c2)]
        expected = power_parts_minimum(k, c1, m, c2) + "\n"
        out.append(Instance(f"parts-{k}x{m}", argv, 0, 0, exact(0, expected), defect))

    # Graph files saved with a UTF-8 byte-order mark: valid UTF-8 text.
    a, b = _jitter(rng, 20), _jitter(rng, 30)
    names = writer.names(a + b)
    x_part = frozenset(names[:a])
    evaluate = lambda order: complete_imbalance(order, x_part, a, b)  # noqa: E731
    good = optimal_ordering(complete_minimum(a, b), evaluate, names)
    out.append(
        Instance(
            "bom-solve-complete",
            ["solve", "complete", writer.complete_file(names[:a], names[a:], bom=True)],
            a + b + a * b,
            a + b,
            Memo(either(good, line_one_parse_error)),
            defect=True,
        )
    )
    sizes, parts = mixed_spec(rng, 400)
    g = assemble(writer, sizes, chain_links(parts))
    order = rng.sample(list(g.adj), len(g.adj))
    argv = ["eval", writer.edge_file(g.edges, bom=True), writer.file(" ".join(order) + "\n")]
    good = exact(0, _eval_expected(order, g.adj, False))
    out.append(Instance("bom-eval", argv, g.size, len(g.adj), Memo(either(good, line_one_parse_error)), defect=True))
    return out


# The branch-and-bound search visits vertices in name order, and one graph
# under different name orders takes from 1x to 10x the time. So each graph of
# this workload keeps a fixed relative order of its names; the seed draws the
# tokens and the file order. Complete graphs with 10 vertices (4-6 s each)
# and chains holding a K(4,4) (about 3 s) stay out, like graphs with 11
# vertices and more, until the oracle is faster.
#
# Nine instances take less time than the first chain (8 vertices, about
# 18 ms on the reference host) and eleven take more, but the seed moves a few
# of the chains near it by a third. So that chain runs five times under
# different tokens, and p50 falls among those five calls of the same work.
ORACLE_CAP = "10"
MEDIAN_CHAIN_COPIES = 5
ORACLE_COMPLETE = ((1, 7), (2, 6), (3, 5), (4, 4), (2, 7), (3, 6), (4, 5), (1, 8), (1, 9))
ORACLE_CHAINS = (
    # 8 vertices
    ([(2, 2), (2, 3)], "X"), ([(3, 2), (2, 2)], "Y"), ([(1, 2), (2, 2), (1, 2)], "YY"), ([(3, 3), (1, 2)], "Y"),
    # 9 vertices
    ([(2, 3), (2, 3)], "X"), ([(3, 3), (2, 2)], "X"), ([(2, 2), (2, 2), (2, 1)], "XX"), ([(1, 3), (3, 3)], "Y"),
    # 10 vertices
    ([(3, 3), (3, 2)], "X"), ([(2, 3), (3, 3)], "Y"), ([(2, 4), (2, 3)], "X"), ([(2, 2), (2, 2), (2, 2)], "XY"),
)
ENUMERATE_UP_TO = 8


def oracle_cross(writer: Writer) -> list[Instance]:
    graphs = []
    for k, (a, b) in enumerate(ORACLE_COMPLETE):
        g = assemble(writer, [(a, b)], [], pattern=f"oracle-complete-{k}")
        graphs.append((f"complete-{a + b}", g, complete_minimum(a, b)))
    for k, (sizes, parts) in enumerate(ORACLE_CHAINS):
        for _ in range(MEDIAN_CHAIN_COPIES if k == 0 else 1):
            g = assemble(writer, sizes, chain_links(parts), pattern=f"oracle-chain-{k}")
            graphs.append((f"chain-{len(g.adj)}", g, chained_minimum(sizes, parts)))
    out = []
    for label, g, minimum in graphs:
        n = len(g.adj)
        argv = ["oracle", writer.edge_file(g.edges), "--max-n", ORACLE_CAP]
        full = None
        if n <= ENUMERATE_UP_TO:
            full = enumerate_orderings(g.adj)
            if full.minimum != minimum:
                raise AssertionError(f"closed form {minimum} != enumeration {full.minimum}")
            argv.append("--enumerate")
        out.append(Instance(label, argv, g.size, n, Memo(oracle_answer(minimum, g.adj, full))))
    return out


WORKLOADS = {
    "chain_solve": chain_solve,
    "chain_reject": chain_reject,
    "order_check": order_check,
    "oracle_cross": oracle_cross,
}
