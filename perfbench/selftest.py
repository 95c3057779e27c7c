"""Self-test of the benchmark's reference checker.

Corrupted outputs must each be counted as a failure, correct ones must pass,
and the reference formulas must agree with each other and with the README's
seven-vertex example. `run.py` runs this before every benchmark run;
`python3 perfbench/selftest.py` runs it alone.
"""

from __future__ import annotations

import sys

from reference import (
    Outcome,
    chained_minimum,
    complete_imbalance,
    complete_minimum,
    decimal_sum,
    enumerate_orderings,
    exact,
    optimal_ordering,
    oracle_answer,
    power_part,
    power_parts_minimum,
    verdict,
    vertex_imbalances,
)

# README: two K(2,2) glued at x2, and its optimal ordering.
README_EDGES = [
    ("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2"),
    ("x2", "y3"), ("x2", "y4"), ("x3", "y3"), ("x3", "y4"),
]
README_ORDER = ["x1", "y1", "y2", "x2", "y3", "y4", "x3"]


def _adjacency(edges):
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return {v: frozenset(s) for v, s in adj.items()}


def _ok(stdout: str, code: int = 0) -> Outcome:
    return Outcome(code, stdout, "")


def problems() -> list[str]:
    found = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            found.append(what)

    adj = _adjacency(README_EDGES)
    readme_value = sum(vertex_imbalances(README_ORDER, adj))
    expect(readme_value == 4, f"README example evaluates to {readme_value}, not 4")
    expect(chained_minimum([(2, 2), (2, 2)], ["X"]) == 4, "README chain closed form is not 4")
    full = enumerate_orderings(adj)
    expect(full.minimum == 4, f"enumeration of the README example gives {full.minimum}")

    for a in range(1, 5):
        for b in range(1, 8 - a):
            xs = [f"x{i}" for i in range(a)]
            ys = [f"y{j}" for j in range(b)]
            k = _adjacency([(x, y) for x in xs for y in ys])
            e = enumerate_orderings(k)
            expect(e.minimum == complete_minimum(a, b), f"K({a},{b}) closed form != enumeration")
            scan = complete_imbalance(list(e.witness), frozenset(xs), a, b)
            expect(scan == e.minimum, f"K({a},{b}) scan evaluator != general evaluator")

    for k, c1, m, c2 in ((1, 3, 1, 5), (4, 17, 2, 0), (12, 999, 7, 4), (3, 0, 5, 31)):
        want = str((10**k + c1) * (10**m + c2) + (c1 % 2) * (c2 % 2))
        expect(power_parts_minimum(k, c1, m, c2) == want, f"digit arithmetic wrong for {k},{c1},{m},{c2}")
        expect(power_part(k, c1) == str(10**k + c1), f"power_part({k}, {c1}) wrong")
    expect(decimal_sum([(9, 0), (1, 0)]) == "10", "decimal_sum carry wrong")

    # The chained `solve` check: right answer passes, each corruption fails.
    evaluate = lambda order: sum(vertex_imbalances(order, adj))  # noqa: E731
    solve = optimal_ordering(4, evaluate, adj)
    good = "4\n" + " ".join(README_ORDER) + "\n"
    expect(solve(_ok(good)) is None, "a correct solve output was rejected")
    expect(solve(_ok("5\n" + " ".join(README_ORDER) + "\n")) is not None, "minimum off by one accepted")
    expect(solve(_ok("4\n" + " ".join(README_ORDER[:-1]) + "\n")) is not None, "ordering missing a vertex accepted")
    worse = ["x1", "x2", "x3", "y1", "y2", "y3", "y4"]
    expect(solve(_ok("4\n" + " ".join(worse) + "\n")) is not None, "non-optimal ordering accepted")
    expect(solve(_ok(good, code=3)) is not None, "wrong exit code accepted")

    oracle = oracle_answer(4, adj, full)
    witness = " ".join(full.witness)
    expect(oracle(_ok(f"4\n{witness}\n{full.count}\n")) is None, "a correct oracle output was rejected")
    expect(oracle(_ok(f"4\n{' '.join(worse)}\n{full.count}\n")) is not None, "non-optimal witness accepted")
    expect(oracle(_ok(f"4\n{witness}\n{full.count + 1}\n")) is not None, "wrong optimum count accepted")
    if tuple(README_ORDER) != full.witness:
        expect(oracle(_ok(f"4\n{' '.join(README_ORDER)}\n{full.count}\n")) is not None,
               "an optimal witness that is not the smallest accepted")

    optimal = verdict(4, 4)
    expect(optimal(_ok("optimal\n")) is None, "a correct optimal verdict was rejected")
    expect(optimal(_ok("not-optimal property=P1 achieved=4 minimum=4\n")) is not None,
           "not-optimal verdict on an optimal ordering accepted")
    not_optimal = verdict(6, 4)
    expect(not_optimal(_ok("not-optimal property=P2 achieved=6 minimum=4\n")) is None,
           "a correct not-optimal verdict was rejected")
    expect(not_optimal(_ok("optimal\n")) is not None, "optimal verdict on a non-optimal ordering accepted")
    expect(not_optimal(_ok("not-optimal property=P2 achieved=5 minimum=4\n")) is not None,
           "wrong achieved value accepted")

    parts = exact(0, "12\n")
    expect(parts(_ok("12\n")) is None, "a correct exact output was rejected")
    expect(parts(Outcome(2, "", "error: too many digits\n")) is not None, "exit 2 accepted for exit 0")
    return found


if __name__ == "__main__":
    failures = problems()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)
