"""Closed-form solver for complete bipartite graphs.

Minimum imbalance of K(a, b) is a*b + (a mod 2)*(b mod 2). This module also
builds optimal orderings (sandwich / pseudo-sandwich) as at most six
alternating runs of the two parts, read off one run-length table; computes
the profile of Y positions and the X blocks between them; applies the median
shifts that preserve optimality, each of which moves one Y vertex to an end
of the ordering; and verifies optimality of arbitrary orderings in one
linear pass via the three block-sum properties.

Part sizes are plain Python ints, so the formula works unchanged on inputs
with thousands of digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Bipartition, Ordering

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


def _run_lengths(p: int, q: int, same: bool) -> tuple[int, ...]:
    """Run lengths of an optimal ordering of K(p, q) that starts in part A.

    Runs alternate A, B, A, ... from the part A (size p) of the first
    vertex; same says the last vertex lies in A as well.
    """
    if same:
        return (p // 2, q // 2, p % 2, q - q // 2, p // 2)
    if p % 2 and q % 2:
        return (p // 2, q // 2, 1, q // 2, p // 2, 1)
    return (p // 2, q - q // 2, p - p // 2, q // 2)


def _fill_runs(a: list[str], b: list[str], same: bool) -> list[str]:
    """Deal the lists a (part A) and b, in order, into the runs of K(|a|, |b|)."""
    lists = (a, b)
    taken = [0, 0]
    out: list[str] = []
    for k, length in enumerate(_run_lengths(len(a), len(b), same)):
        part = k % 2
        out += lists[part][taken[part] : taken[part] + length]
        taken[part] += length
    return out


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


@dataclass(frozen=True)
class YPositionProfile:
    """Positions of the Y vertices and the X blocks between them.

    positions[i] is the position of the i-th Y vertex (by position order),
    padded with the sentinels positions[0] == 0 and positions[-1] == n + 1.
    blocks[i] counts the X vertices strictly between positions[i] and
    positions[i+1]; y_vertices[i-1] is the vertex sitting at positions[i].
    """

    positions: tuple[int, ...]
    blocks: tuple[int, ...]
    y_vertices: tuple[str, ...]

    def y_at(self, rank: int) -> str:
        """The Y vertex with the rank-th smallest position (1-based)."""
        if not 1 <= rank <= len(self.y_vertices):
            raise ValueError(f"rank {rank} out of range 1..{len(self.y_vertices)}")
        return self.y_vertices[rank - 1]


def y_position_profile(o: Ordering, b: Bipartition) -> YPositionProfile:
    """Sentinel-padded Y positions and between-gap X block sizes of an ordering."""
    if o.vertices != b.vertices:
        raise ValueError("ordering does not cover exactly the bipartition's vertices")
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


@dataclass(frozen=True)
class OptimalityVerdict:
    optimal: bool
    failed_property: str | None  # "P1" | "P2" | "P3" | None
    achieved: int
    minimum: int


def _complete_imbalance_by_scan(o: Iterable[str], b: Bipartition) -> int:
    """Imbalance of a vertex sequence on the complete bigraph of b, one pass."""
    nx = len(b.x_part)
    ny = len(b.y_part)
    total = 0
    seen_x = 0
    seen_y = 0
    for v in o:
        if v in b.x_part:
            total += abs(2 * seen_y - ny)
            seen_x += 1
        else:
            total += abs(2 * seen_x - nx)
            seen_y += 1
    return total


def _property_failure(blocks: tuple[int, ...], nx: int, ny: int) -> str | None:
    """First failing property name for one choice of profile part, or None.

    P1: the blocks left of rank floor(ny/2) weigh at most as much as the
    rest. P2: the blocks up to rank ceil(ny/2) weigh at least as much as the
    rest. P3 (both parts odd): the profile-part vertex at rank ceil(ny/2)
    has imbalance exactly 1.
    """
    floor_half = ny // 2
    ceil_half = (ny + 1) // 2
    if sum(blocks[:floor_half]) > sum(blocks[floor_half:]):
        return "P1"
    if sum(blocks[: ceil_half + 1]) < sum(blocks[ceil_half + 1 :]):
        return "P2"
    if nx % 2 == 1 and ny % 2 == 1:
        left_of_median = sum(blocks[:ceil_half])
        if abs(2 * left_of_median - nx) != 1:
            return "P3"
    return None


def verify_optimal_complete(o: Ordering, b: Bipartition) -> OptimalityVerdict:
    """Check the block-sum properties that characterize optimal orderings.

    The properties are evaluated for the given Y designation first and then
    with the parts swapped: each direction is necessary (the median shift
    that motivates it would otherwise strictly improve the ordering), and
    one designation alone misses degenerate profiles that the other
    catches, e.g. (x1, y1, x2, y2, y3) on K(2, 3). The conjunction is
    cross-validated as exactly equivalent to optimality against the
    exhaustive oracle in the test suite.

    The achieved/minimum diagnostics are computed independently of the
    property logic, so a disagreement between the two paths is itself a bug
    signal. Two passes over the ordering, linear time.
    """
    nx = len(b.x_part)
    ny = len(b.y_part)
    if nx < 1 or ny < 1:
        raise ValueError("verification requires both parts non-empty")
    profile = y_position_profile(o, b)
    failed = _property_failure(profile.blocks, nx, ny)
    if failed is None:
        swapped = y_position_profile(o, Bipartition(b.y_part, b.x_part))
        failed = _property_failure(swapped.blocks, ny, nx)
    return OptimalityVerdict(
        optimal=failed is None,
        failed_property=failed,
        achieved=_complete_imbalance_by_scan(o, b),
        minimum=min_imbalance_formula(nx, ny),
    )
