"""Independent reference answers and output checks for the benchmark.

Nothing here imports the package under test. Every answer the benchmark
expects is derived from the definitions in the README: the imbalance of a
vertex is |left neighbours - right neighbours|, K(a, b) has minimum
a*b + (a mod 2)*(b mod 2), and a chain's minimum is the component sum minus
the overlap savings plus the overlap penalties. Small instances are also
enumerated exhaustively.

A check returns None when the output is right and a one-line reason when it
is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

Adjacency = dict[str, frozenset[str]]


# ---------------------------------------------------------------- evaluators


def vertex_imbalances(order: Sequence[str], adj: Adjacency) -> list[int]:
    """Per-vertex imbalance, in ordering order, in O(V + E)."""
    pos = {v: k for k, v in enumerate(order)}
    out = []
    for k, v in enumerate(order):
        nbrs = adj[v]
        left = sum(1 for u in nbrs if pos[u] < k)
        out.append(abs(2 * left - len(nbrs)))
    return out


def complete_imbalance(order: Sequence[str], x_part: frozenset[str], a: int, b: int) -> int:
    """Imbalance of an ordering of K(a, b), whose adjacency is implicit, in O(V)."""
    total = seen_x = seen_y = 0
    for v in order:
        if v in x_part:
            total += abs(2 * seen_y - b)
            seen_x += 1
        else:
            total += abs(2 * seen_x - a)
            seen_y += 1
    return total


# -------------------------------------------------------------- closed forms


def complete_minimum(a: int, b: int) -> int:
    return a * b + (a % 2) * (b % 2)


def chained_minimum(sizes: Sequence[tuple[int, int]], overlap_parts: Sequence[str]) -> int:
    """Closed form of a chain from its spec: component sizes and overlap parts.

    An overlap in part X has the Y part of each of its components as
    neighbours there, and vice versa.
    """
    total = sum(complete_minimum(a, b) for a, b in sizes)
    for i, part in enumerate(overlap_parts):
        side = 1 if part == "X" else 0
        left = sizes[i][side]
        right = sizes[i + 1][side]
        total += abs(left - right) - left - right
    return total


def decimal_sum(terms: Sequence[tuple[int, int]]) -> str:
    """Decimal digits of sum(v * 10**shift) for small non-negative v.

    Digit-wise addition, so the result can have any number of digits without
    a big-integer multiply or an int/str conversion of a big number.
    """
    width = max(len(str(v)) + shift for v, shift in terms) + 1
    digits = [0] * width
    for v, shift in terms:
        for j, ch in enumerate(reversed(str(v))):
            digits[shift + j] += int(ch)
    carry = 0
    for i in range(width):
        carry, digits[i] = divmod(digits[i] + carry, 10)
    text = "".join(map(str, reversed(digits))).lstrip("0")
    return text or "0"


def power_part(k: int, c: int) -> str:
    """Decimal digits of 10**k + c, for 0 <= c < 10**k."""
    tail = str(c)
    if len(tail) > k:
        raise ValueError(f"offset {c} does not fit under 10**{k}")
    return "1" + "0" * (k - len(tail)) + tail


def power_parts_minimum(k: int, c1: int, m: int, c2: int) -> str:
    """Minimum imbalance of K(10**k + c1, 10**m + c2), as decimal digits.

    (10^k + c1)(10^m + c2) = 10^(k+m) + c2*10^k + c1*10^m + c1*c2, and for
    k, m >= 1 the parities of the parts are those of c1 and c2.
    """
    parity = (c1 % 2) * (c2 % 2)
    return decimal_sum([(1, k + m), (c2, k), (c1, m), (c1 * c2 + parity, 0)])


# ------------------------------------------------------------ exhaustive search


@dataclass(frozen=True)
class Enumeration:
    minimum: int
    witness: tuple[str, ...]
    count: int


def enumerate_orderings(adj: Adjacency) -> Enumeration:
    """Every ordering of a small graph, visited in lexicographic name order.

    Returns the minimum, the lexicographically smallest optimal ordering and
    the number of optimal orderings. No pruning: all n! leaves are visited.
    """
    names = sorted(adj)
    n = len(names)
    if n > 8:
        raise ValueError(f"exhaustive reference is limited to 8 vertices, got {n}")
    index = {v: i for i, v in enumerate(names)}
    nbr_mask = [sum(1 << index[u] for u in adj[v]) for v in names]
    degree = [len(adj[v]) for v in names]
    full = (1 << n) - 1
    best = [-1, 0]  # minimum, count
    witness: list[int] = []
    path: list[int] = []

    def walk(placed: int, cost: int) -> None:
        if placed == full:
            if best[0] < 0 or cost < best[0]:
                best[0], best[1] = cost, 1
                witness[:] = path
            elif cost == best[0]:
                best[1] += 1
            return
        for i in range(n):
            bit = 1 << i
            if placed & bit:
                continue
            left = bin(nbr_mask[i] & placed).count("1")
            path.append(i)
            walk(placed | bit, cost + abs(2 * left - degree[i]))
            path.pop()

    walk(0, 0)
    return Enumeration(best[0], tuple(names[i] for i in witness), best[1])


# -------------------------------------------------------------------- checks


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced."""

    code: int | None
    stdout: str
    stderr: str


Check = Callable[[Outcome], "str | None"]


def _success(out: Outcome, lines: int) -> list[str] | str:
    if out.code != 0:
        return f"exit code {out.code}, expected 0 (stderr {out.stderr[:120]!r})"
    if out.stderr:
        return f"unexpected stderr {out.stderr[:120]!r}"
    got = out.stdout.split("\n")
    if len(got) != lines + 1 or got[-1] != "":
        return f"expected {lines} stdout lines, got {out.stdout[:120]!r}"
    return got[:-1]


def _permutation_error(tokens: list[str], vertices) -> str | None:
    if len(tokens) != len(vertices) or set(tokens) != set(vertices):
        return f"ordering of {len(tokens)} tokens is not a permutation of the {len(vertices)} vertices"
    return None


def exact(code: int, stdout: str) -> Check:
    """Exit code and stdout byte for byte, empty stderr."""

    def check(out: Outcome) -> str | None:
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        if out.stdout != stdout:
            return f"stdout {out.stdout[:80]!r} differs from expected {stdout[:80]!r}"
        if out.stderr:
            return f"unexpected stderr {out.stderr[:120]!r}"
        return None

    return check


def rejection(code: int, prefix: str) -> Check:
    """A refusal: exit code, empty stdout, stderr starting with prefix."""

    def check(out: Outcome) -> str | None:
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        if out.stdout:
            return f"unexpected stdout {out.stdout[:80]!r}"
        if not out.stderr.startswith(prefix):
            return f"stderr {out.stderr[:120]!r} does not start with {prefix!r}"
        return None

    return check


def optimal_ordering(minimum: int, evaluate: Callable[[list[str]], int], vertices) -> Check:
    """`solve`: the minimum, then an ordering of every vertex that achieves it."""

    def check(out: Outcome) -> str | None:
        lines = _success(out, 2)
        if isinstance(lines, str):
            return lines
        if lines[0] != str(minimum):
            return f"minimum {lines[0]!r}, expected {minimum}"
        tokens = lines[1].split(" ")
        bad = _permutation_error(tokens, vertices)
        if bad:
            return bad
        achieved = evaluate(tokens)
        if achieved != minimum:
            return f"ordering achieves {achieved}, not the minimum {minimum}"
        return None

    return check


def verdict(achieved: int, minimum: int) -> Check:
    """`verify`: optimal iff the ordering achieves the closed form."""
    if achieved == minimum:
        expected_prefix = "optimal"
    else:
        expected_prefix = "not-optimal property="
    tail = f" achieved={achieved} minimum={minimum}"

    def check(out: Outcome) -> str | None:
        lines = _success(out, 1)
        if isinstance(lines, str):
            return lines
        line = lines[0]
        if achieved == minimum:
            return None if line == "optimal" else f"verdict {line!r} on an optimal ordering"
        if not line.startswith(expected_prefix) or not line.endswith(tail):
            return f"verdict {line!r}, expected not-optimal with{tail}"
        prop = line[len(expected_prefix) : -len(tail)]
        if prop not in ("P1", "P2", "P3"):
            return f"verdict names unknown property {prop!r}"
        return None

    return check


def oracle_answer(minimum: int, adj: Adjacency, full: Enumeration | None) -> Check:
    """`oracle`: minimum, witness, and with the enumeration also the count."""
    vertices = list(adj)

    def check(out: Outcome) -> str | None:
        lines = _success(out, 2 if full is None else 3)
        if isinstance(lines, str):
            return lines
        if lines[0] != str(minimum):
            return f"minimum {lines[0]!r}, expected {minimum}"
        tokens = lines[1].split(" ")
        bad = _permutation_error(tokens, vertices)
        if bad:
            return bad
        achieved = sum(vertex_imbalances(tokens, adj))
        if achieved != minimum:
            return f"witness achieves {achieved}, not the minimum {minimum}"
        if full is not None:
            if tuple(tokens) != full.witness:
                return "witness is not the lexicographically smallest optimum"
            if lines[2] != str(full.count):
                return f"optimum count {lines[2]!r}, expected {full.count}"
        return None

    return check


def either(first: Check, second: Check) -> Check:
    """Accept either outcome; report the first check's reason otherwise."""

    def check(out: Outcome) -> str | None:
        reason = first(out)
        if reason is None or second(out) is None:
            return None
        return reason

    return check


def line_one_parse_error(out: Outcome) -> str | None:
    """A format error (exit 2) that names line 1 of the input."""
    if out.code != 2 or out.stdout or not out.stderr.startswith("error: ") or "line 1" not in out.stderr:
        return "not a line-1 format error"
    return None


@dataclass
class Memo:
    """Outputs already checked for one instance, so a repeat costs one compare.

    The program is deterministic, so a pass usually repeats the previous
    pass's output byte for byte; anything new goes through the full check.
    """

    check: Check
    seen: dict[tuple, str | None] = field(default_factory=dict)

    def __call__(self, out: Outcome) -> str | None:
        key = (out.code, out.stdout, out.stderr)
        if key not in self.seen:
            self.seen[key] = self.check(out)
        return self.seen[key]
