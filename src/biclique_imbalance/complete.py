"""Closed-form solver for complete bipartite graphs.

Minimum imbalance of K(a, b) is a*b + (a mod 2)*(b mod 2). This module also
builds optimal orderings (sandwich / pseudo-sandwich) as at most six
alternating runs of the two parts, dealt by one slice expression; computes
the profile of Y positions and the X blocks between them; applies the median
shifts that preserve optimality, each of which moves one Y vertex to an end
of the ordering; and verifies optimality of arbitrary orderings in one
linear pass via the three block-sum properties.

Part sizes are ints or, as `solve complete --parts` passes them, integral
Decimals in an exact context, so the formula is exact at any length.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import Bipartition, Ordering, _check_cover

__all__ = [
    "min_imbalance_formula",
    "construct_optimal_complete",
    "YPositionProfile",
    "y_position_profile",
    "shift_left",
    "shift_right",
    "OptimalityVerdict",
    "verify_optimal_complete",
]


def min_imbalance_formula(nx: int, ny: int) -> int:
    """Minimum imbalance of the complete bipartite graph with part sizes nx, ny."""
    if nx < 1 or ny < 1:
        raise ValueError(f"part sizes must be at least 1, got ({nx}, {ny})")
    return nx * ny + (nx % 2) * (ny % 2)


def _fill_runs(a: list[str], b: list[str], same: bool) -> list[str]:
    """Deal the lists a (part A) and b, in order, into the runs of an optimal
    ordering of K(|a|, |b|) that starts in A; same says it ends in A as well.

    This is the run table: the runs alternate A, B, A, B, A, B and take
    a[:h], b[:j], a[h:p-h], b[j:m], a[p-h:], b[m:], some of them empty.
    """
    p, q = len(a), len(b)
    h = p // 2
    if same:
        j, m = q // 2, q
    elif p % 2 and q % 2:
        j, m = q // 2, q - 1
    else:
        j = m = q - q // 2
    return a[:h] + b[:j] + a[h : p - h] + b[j:m] + a[p - h :] + b[m:]


def construct_optimal_complete(b: Bipartition) -> Ordering:
    """An ordering of X ∪ Y whose imbalance on K(|X|, |Y|) meets the formula.

    The ordering is at most five runs that start and end in the same part:
    an even part is split into two halves that sandwich the other part; if
    both sizes are odd, the pseudo-sandwich places one median Y vertex
    between two near-equal halves of X, flanked by the rest of Y. Ties
    resolve by sorted vertex order, first half left.
    """
    xs = sorted(b.x_part)
    ys = sorted(b.y_part)
    if not xs or not ys:
        raise ValueError("both parts must be non-empty")
    if len(ys) % 2 == 0 or len(xs) % 2 == 1:
        return Ordering(_fill_runs(ys, xs, True))
    return Ordering(_fill_runs(xs, ys, True))


class YPositionProfile(namedtuple("YPositionProfile", "positions blocks y_vertices")):
    """Positions of the Y vertices and the X blocks between them.

    positions[i] is the position of the i-th Y vertex (by position order),
    padded with the sentinels positions[0] == 0 and positions[-1] == n + 1.
    blocks[i] counts the X vertices strictly between positions[i] and
    positions[i+1]; y_vertices[i-1] is the vertex sitting at positions[i].
    """

    __slots__ = ()

    def y_at(self, rank: int) -> str:
        """The Y vertex with the rank-th smallest position (1-based)."""
        if not 1 <= rank <= len(self.y_vertices):
            raise ValueError(f"rank {rank} out of range 1..{len(self.y_vertices)}")
        return self.y_vertices[rank - 1]


def y_position_profile(o: Ordering, b: Bipartition) -> YPositionProfile:
    """Sentinel-padded Y positions and between-gap X block sizes of an ordering."""
    _check_cover(o, b.vertices, "bipartition")
    n = len(o)
    positions = [0]
    y_vertices = []
    for k, v in enumerate(o, start=1):
        if v in b.y_part:
            positions.append(k)
            y_vertices.append(v)
    positions.append(n + 1)
    blocks = tuple(
        positions[i + 1] - positions[i] - 1 for i in range(len(positions) - 1)
    )
    return YPositionProfile(tuple(positions), blocks, tuple(y_vertices))


def shift_left(o: Ordering, b: Bipartition) -> Ordering:
    """Move the Y vertex of rank floor(|Y|/2) to the leftmost position.

    Taking a Y vertex out merges the two X blocks beside it, exactly per the
    displayed formula; on an optimal ordering the result is optimal again.
    """
    ys = y_position_profile(o, b).y_vertices
    m = len(ys) // 2
    if m < 1:
        raise ValueError(f"shift_left undefined for |Y| = {len(ys)}: rank {m} does not exist")
    v = ys[m - 1]
    return Ordering([v, *(u for u in o if u != v)])


def shift_right(o: Ordering, b: Bipartition) -> Ordering:
    """Move the Y vertex of rank ceil(|Y|/2) + 1 to the rightmost position."""
    ys = y_position_profile(o, b).y_vertices
    moved = (len(ys) + 1) // 2 + 1
    if moved > len(ys):
        raise ValueError(
            f"shift_right undefined for |Y| = {len(ys)}: rank {moved} does not exist"
        )
    v = ys[moved - 1]
    return Ordering([*(u for u in o if u != v), v])


# failed_property is "P1", "P2", "P3" or None.
OptimalityVerdict = namedtuple("OptimalityVerdict", "optimal failed_property achieved minimum")


def _property_failure(signed: list[int], other: int) -> str | None:
    """First failing property for one profile part, from its signed imbalances.

    The blocks left of the rank-r profile vertex hold L of the other vertices,
    the rest other - L, so each block-sum comparison is the sign of 2L - other,
    the vertex's signed imbalance (rank 0 reads -other, rank n + 1 +other).
    P1: rank floor(n/2) is not positive. P2: rank ceil(n/2) + 1 is not
    negative. P3 (both parts odd): rank ceil(n/2) has imbalance exactly 1.
    """
    n = len(signed)
    padded = [-other, *signed, other]
    if padded[n // 2] > 0:
        return "P1"
    if padded[(n + 1) // 2 + 1] < 0:
        return "P2"
    if n % 2 == other % 2 == 1 and abs(padded[(n + 1) // 2]) != 1:
        return "P3"
    return None


def verify_optimal_complete(o: Ordering, b: Bipartition) -> OptimalityVerdict:
    """Check the block-sum properties that characterize optimal orderings.

    They are checked with the given Y designation first, then with the parts
    swapped: each is necessary (its median shift would otherwise strictly
    improve the ordering), and one designation alone misses degenerate
    profiles such as (x1, y1, x2, y2, y3) on K(2, 3). One pass, linear time:
    P1-P3 are sign tests on the signed imbalances whose absolute values sum
    to the achieved value. The independent checks are the graph evaluator,
    the exhaustive oracle and the balanced-halves test in the test suite
    (TestBalancedHalves, which shares no code with P1-P3); they
    cross-validate the properties as exactly equivalent to optimality.
    """
    nx, ny = len(b.x_part), len(b.y_part)
    if nx < 1 or ny < 1:
        raise ValueError("verification requires both parts non-empty")
    _check_cover(o, b.vertices, "bipartition")
    x, xs, ys = b.x_part, [], []  # signed imbalances: neighbors before minus after
    for v in o:
        if v in x:
            xs.append(2 * len(ys) - ny)
        else:
            ys.append(2 * len(xs) - nx)
    failed = _property_failure(ys, nx) or _property_failure(xs, ny)
    return OptimalityVerdict(
        optimal=failed is None,
        failed_property=failed,
        achieved=sum(map(abs, xs)) + sum(map(abs, ys)),
        minimum=min_imbalance_formula(nx, ny),
    )
