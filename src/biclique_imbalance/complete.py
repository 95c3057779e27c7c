"""Closed-form solver for complete bipartite graphs.

Minimum imbalance of K(a, b) is a*b + (a mod 2)*(b mod 2). This module also
builds optimal orderings (sandwich / pseudo-sandwich), computes the profile
of Y positions and the X blocks between them, applies the median shifts that
preserve optimality, and verifies optimality of arbitrary orderings in one
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


def construct_optimal_complete(b: Bipartition) -> Ordering:
    """An ordering of X ∪ Y whose imbalance on K(|X|, |Y|) meets the formula.

    If a part has even size it is split into two halves that sandwich the
    other part. If both sizes are odd, the pseudo-sandwich places one median
    Y vertex between two near-equal halves of X, flanked by the rest of Y.
    Ties resolve by sorted vertex order, first half left.
    """
    xs = sorted(b.x_part)
    ys = sorted(b.y_part)
    if not xs or not ys:
        raise ValueError("both parts must be non-empty")
    if len(ys) % 2 == 0:
        outside, inside = ys, xs
    elif len(xs) % 2 == 0:
        outside, inside = xs, ys
    else:
        k = (len(ys) - 1) // 2
        h = len(xs) // 2
        return Ordering(ys[:k] + xs[:h] + [ys[k]] + xs[h:] + ys[k + 1 :])
    half = len(outside) // 2
    return Ordering(outside[:half] + inside + outside[half:])


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


def _check_orders_parts(o: Ordering, b: Bipartition) -> None:
    if o.vertices != b.vertices:
        raise ValueError("ordering does not cover exactly the bipartition's vertices")


def y_position_profile(o: Ordering, b: Bipartition) -> YPositionProfile:
    """Sentinel-padded Y positions and between-gap X block sizes of an ordering."""
    _check_orders_parts(o, b)
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


def _runs(o: Ordering, b: Bipartition) -> tuple[list[list[str]], list[str]]:
    """Split the ordering into X runs around the Y vertices.

    Returns (blocks, ys) with len(blocks) == len(ys) + 1; blocks[i] holds the
    X vertices between the i-th and (i+1)-th Y vertices.
    """
    _check_orders_parts(o, b)
    blocks: list[list[str]] = [[]]
    ys: list[str] = []
    for v in o:
        if v in b.y_part:
            ys.append(v)
            blocks.append([])
        else:
            blocks[-1].append(v)
    return blocks, ys


def shift_left(o: Ordering, b: Bipartition) -> Ordering:
    """Move the Y vertex of rank floor(|Y|/2) to the leftmost position.

    The X blocks are re-concatenated around it exactly per the displayed
    formula; on an optimal ordering the result is optimal again.
    """
    blocks, ys = _runs(o, b)
    m = len(ys) // 2
    if m < 1:
        raise ValueError(f"shift_left undefined for |Y| = {len(ys)}: rank {m} does not exist")
    seq: list[str] = [ys[m - 1]]
    seq.extend(blocks[0])
    for i in range(1, m):
        seq.append(ys[i - 1])
        seq.extend(blocks[i])
    seq.extend(blocks[m])
    for i in range(m + 1, len(ys) + 1):
        seq.append(ys[i - 1])
        seq.extend(blocks[i])
    return Ordering(seq)


def shift_right(o: Ordering, b: Bipartition) -> Ordering:
    """Move the Y vertex of rank ceil(|Y|/2) + 1 to the rightmost position."""
    blocks, ys = _runs(o, b)
    ceil_half = (len(ys) + 1) // 2
    moved = ceil_half + 1
    if moved > len(ys):
        raise ValueError(
            f"shift_right undefined for |Y| = {len(ys)}: rank {moved} does not exist"
        )
    seq: list[str] = list(blocks[0])
    for i in range(1, ceil_half + 1):
        seq.append(ys[i - 1])
        seq.extend(blocks[i])
    seq.extend(blocks[moved])
    for i in range(moved + 1, len(ys) + 1):
        seq.append(ys[i - 1])
        seq.extend(blocks[i])
    seq.append(ys[moved - 1])
    return Ordering(seq)


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
