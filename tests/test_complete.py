"""Closed form, optimal constructions, shifts, and the optimality verifier."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biclique_imbalance import (
    Bipartition,
    Ordering,
    brute_force_min,
    construct_optimal_complete,
    min_imbalance_formula,
    ordering_imbalance,
    shift_left,
    shift_right,
    verify_optimal_complete,
    vertex_imbalance,
    y_position_profile,
)
from biclique_imbalance.complete import _fill_runs
from conftest import complete_bigraph


class TestFormula:
    @pytest.mark.parametrize(
        "a,b,want",
        [(1, 1, 2), (2, 2, 4), (1, 2, 2), (3, 3, 10), (4, 9, 36)],
    )
    def test_known_values(self, a, b, want):
        assert min_imbalance_formula(a, b) == want

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (1, 2), (3, 3)])
    def test_matches_oracle(self, a, b):
        g, _ = complete_bigraph(a, b)
        assert brute_force_min(g).minimum == min_imbalance_formula(a, b)

    def test_zero_part_rejected(self):
        with pytest.raises(ValueError):
            min_imbalance_formula(0, 3)

    @given(st.integers(1, 10**30), st.integers(1, 10**30))
    def test_symmetry(self, a, b):
        assert min_imbalance_formula(a, b) == min_imbalance_formula(b, a)

    def test_arbitrary_precision(self):
        a = 10**199 + 7  # odd
        b = 10**199 + 9  # odd
        assert min_imbalance_formula(a, b) == a * b + 1
        assert min_imbalance_formula(a, b + 1) == a * (b + 1)


class TestConstructor:
    def test_k22_exact(self):
        _, b = complete_bigraph(2, 2)
        assert construct_optimal_complete(b) == Ordering(["y1", "x1", "x2", "y2"])

    def test_k11_single_edge(self):
        g, b = complete_bigraph(1, 1)
        o = construct_optimal_complete(b)
        assert ordering_imbalance(o, g) == 2

    def test_k33_pseudo_sandwich(self):
        g, b = complete_bigraph(3, 3)
        o = construct_optimal_complete(b)
        assert ordering_imbalance(o, g) == 10

    def test_k49_sandwich_value(self):
        g, b = complete_bigraph(4, 9)
        o = construct_optimal_complete(b)
        assert ordering_imbalance(o, g) == 36

    def test_even_part_plays_outside_role(self):
        # exactly one even part: it must flank the other part
        _, b = complete_bigraph(4, 9)
        seq = construct_optimal_complete(b).sequence
        assert seq[0].startswith("x") and seq[-1].startswith("x")
        _, b = complete_bigraph(3, 2)
        seq = construct_optimal_complete(b).sequence
        assert seq[0].startswith("y") and seq[-1].startswith("y")

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            construct_optimal_complete(Bipartition(frozenset({"x"}), frozenset()))

    @pytest.mark.parametrize("a", range(1, 13))
    def test_soundness_small_grid(self, a):
        for b in range(1, 13):
            g, bp = complete_bigraph(a, b)
            o = construct_optimal_complete(bp)
            assert ordering_imbalance(o, g) == min_imbalance_formula(a, b)

    def test_deal_matches_a_run_length_loop(self):
        def run_length_deal(a, b, same):
            # A run-length table and a loop that deals each run in turn.
            p, q = len(a), len(b)
            if same:
                lengths = (p // 2, q // 2, p % 2, q - q // 2, p // 2)
            elif p % 2 and q % 2:
                lengths = (p // 2, q // 2, 1, q // 2, p // 2, 1)
            else:
                lengths = (p // 2, q - q // 2, p - p // 2, q // 2)
            lists, taken, out = (a, b), [0, 0], []
            for k, length in enumerate(lengths):
                part = k % 2
                out += lists[part][taken[part] : taken[part] + length]
                taken[part] += length
            return out

        for p, q in itertools.product(range(1, 13), repeat=2):
            a = [f"a{i}" for i in range(1, p + 1)]
            b = [f"b{i}" for i in range(1, q + 1)]
            for same in (True, False):
                dealt = _fill_runs(a, b, same)
                assert dealt == run_length_deal(a, b, same), (p, q, same)
                assert sorted(dealt) == sorted(a + b), (p, q, same)


FIG_SEQ = ["x1", "x2", "y1", "x3", "y2", "x4", "x5", "x6", "y3", "x7", "x8", "y4", "x9", "x10"]


def _fig_parts():
    return Bipartition(
        frozenset(f"x{i}" for i in range(1, 11)),
        frozenset(f"y{i}" for i in range(1, 5)),
    )


class TestProfile:
    def test_k10_4_figure(self):
        prof = y_position_profile(Ordering(FIG_SEQ), _fig_parts())
        assert prof.positions == (0, 3, 5, 9, 12, 15)
        assert prof.blocks == (2, 1, 3, 2, 2)
        assert prof.y_vertices == ("y1", "y2", "y3", "y4")
        assert prof.y_at(2) == "y2"

    def test_small_cases(self):
        b = Bipartition(frozenset({"x1"}), frozenset({"y1", "y2"}))
        prof = y_position_profile(Ordering(["y1", "x1", "y2"]), b)
        assert prof.positions == (0, 1, 3, 4)
        assert prof.blocks == (0, 1, 0)

        b = Bipartition(frozenset({"x1", "x2"}), frozenset({"y1"}))
        prof = y_position_profile(Ordering(["x1", "x2", "y1"]), b)
        assert prof.positions == (0, 3, 4)
        assert prof.blocks == (2, 0)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            y_position_profile(Ordering(["x1"]), _fig_parts())


class TestShifts:
    def test_k10_4_figure_rows(self):
        o = Ordering(FIG_SEQ)
        b = _fig_parts()
        assert shift_left(o, b).sequence == (
            "y2", "x1", "x2", "y1", "x3", "x4", "x5", "x6", "y3", "x7", "x8", "y4", "x9", "x10",
        )
        assert shift_right(o, b).sequence == (
            "x1", "x2", "y1", "x3", "y2", "x4", "x5", "x6", "x7", "x8", "y4", "x9", "x10", "y3",
        )

    def test_k22_shift_left(self):
        g, b = complete_bigraph(2, 2)
        assert shift_left(Ordering(["y1", "x1", "x2", "y2"]), b) == Ordering(
            ["y1", "x1", "x2", "y2"]
        )
        moved = shift_left(Ordering(["x1", "y1", "x2", "y2"]), b)
        assert moved == Ordering(["y1", "x1", "x2", "y2"])
        assert ordering_imbalance(moved, g) == 4

    def test_k22_shift_right_is_reconcatenation(self):
        g, b = complete_bigraph(2, 2)
        o = Ordering(["x1", "y1", "x2", "y2"])
        assert shift_right(o, b) == o
        assert ordering_imbalance(shift_right(o, b), g) == 4

    def test_single_y_is_undefined(self):
        _, b = complete_bigraph(2, 1)
        o = Ordering(["x1", "y1", "x2"])
        with pytest.raises(ValueError):
            shift_left(o, b)
        with pytest.raises(ValueError):
            shift_right(o, b)


class TestVerifier:
    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="^verification requires both parts non-empty$"):
            verify_optimal_complete(Ordering(["a"]), Bipartition({"a"}, ()))

    def test_optimal_k22(self):
        _, b = complete_bigraph(2, 2)
        v = verify_optimal_complete(Ordering(["y1", "x1", "x2", "y2"]), b)
        assert v.optimal and v.failed_property is None
        assert (v.achieved, v.minimum) == (4, 4)

    def test_blocked_k22(self):
        _, b = complete_bigraph(2, 2)
        v = verify_optimal_complete(Ordering(["x1", "x2", "y1", "y2"]), b)
        assert not v.optimal
        assert v.failed_property == "P1"
        assert (v.achieved, v.minimum) == (8, 4)

    def test_k11_median_property(self):
        _, b = complete_bigraph(1, 1)
        v = verify_optimal_complete(Ordering(["x1", "y1"]), b)
        assert v.optimal and v.achieved == 2

    def test_degenerate_profiles_are_caught(self):
        # These pass the block-sum checks under one designation only; the
        # verifier must reject them regardless.
        _, b = complete_bigraph(2, 1)
        assert not verify_optimal_complete(Ordering(["x1", "x2", "y1"]), b).optimal
        _, b = complete_bigraph(2, 3)
        assert not verify_optimal_complete(
            Ordering(["x1", "y1", "x2", "y2", "y3"]), b
        ).optimal

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (3, 3), (1, 4)])
    def test_agrees_with_ground_truth_swapped_designation(self, a, b):
        # Criterion 03 runs the given designation; here Y is designated X.
        g, bp = complete_bigraph(a, b)
        swapped = Bipartition(bp.y_part, bp.x_part)
        want = min_imbalance_formula(a, b)
        for perm in itertools.permutations(sorted(g.vertices)):
            o = Ordering(perm)
            truth = ordering_imbalance(o, g) == want
            assert verify_optimal_complete(o, swapped).optimal == truth

    def test_verdict_coherence(self):
        g, bp = complete_bigraph(3, 2)
        for perm in itertools.permutations(sorted(g.vertices)):
            v = verify_optimal_complete(Ordering(perm), bp)
            assert v.optimal == (v.failed_property is None)
            assert v.optimal == (v.achieved == v.minimum)
            assert v.achieved == ordering_imbalance(Ordering(perm), g)

    def test_failed_property_matches_the_block_sum_statement(self):
        # The properties as the paper states them, on the X blocks between
        # the Y positions, with Y designated first and then X.
        def block_failure(blocks, nx, ny):
            floor_half, ceil_half = ny // 2, (ny + 1) // 2
            if sum(blocks[:floor_half]) > sum(blocks[floor_half:]):
                return "P1"
            if sum(blocks[: ceil_half + 1]) < sum(blocks[ceil_half + 1 :]):
                return "P2"
            if nx % 2 == 1 and ny % 2 == 1:
                if abs(2 * sum(blocks[:ceil_half]) - nx) != 1:
                    return "P3"
            return None

        def reference(o, bp):
            nx, ny = len(bp.x_part), len(bp.y_part)
            swapped = Bipartition(bp.y_part, bp.x_part)
            return block_failure(y_position_profile(o, bp).blocks, nx, ny) or (
                block_failure(y_position_profile(o, swapped).blocks, ny, nx)
            )

        seen = set()
        for a, b in ((a, b) for a in range(1, 7) for b in range(1, 8 - a)):
            g, bp = complete_bigraph(a, b)
            swapped = Bipartition(bp.y_part, bp.x_part)
            for perm in itertools.permutations(sorted(g.vertices)):
                o = Ordering(perm)
                for designation in (bp, swapped):
                    want = reference(o, designation)
                    assert verify_optimal_complete(o, designation).failed_property == want
                    seen.add(want)
        assert seen == {None, "P1", "P2", "P3"}


class TestShiftInvarianceOnOptima:
    @pytest.mark.parametrize("a,b", [(2, 2), (1, 3), (3, 2), (2, 3), (3, 3)])
    def test_shifts_preserve_optimal_imbalance(self, a, b):
        from biclique_imbalance import enumerate_optima

        g, bp = complete_bigraph(a, b)
        want = min_imbalance_formula(a, b)
        for o in enumerate_optima(g):
            if b >= 2:
                assert ordering_imbalance(shift_left(o, bp), g) == want
                assert ordering_imbalance(shift_right(o, bp), g) == want

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_median_vertex_has_unit_imbalance_when_both_odd(self, a, b):
        from biclique_imbalance import enumerate_optima

        g, bp = complete_bigraph(a, b)
        for o in enumerate_optima(g):
            prof = y_position_profile(o, bp)
            median = prof.y_at((b + 1) // 2)
            assert vertex_imbalance(median, o, g) == 1


def _halves_balanced(pattern: str, a: int, b: int) -> bool:
    """The balanced-halves test on an X/Y pattern of K(a, b), X the a-part:
    the first and the last h = p + q places, p = a // 2 and q = b // 2, each
    hold exactly p X's. It shares no code or proof with P1-P3."""
    p, h = a // 2, a // 2 + b // 2
    return pattern[:h].count("X") == p == pattern[len(pattern) - h :].count("X")


def _ordering_of(pattern: str, bp: Bipartition) -> Ordering:
    xs, ys = iter(sorted(bp.x_part)), iter(sorted(bp.y_part))
    return Ordering([next(xs) if c == "X" else next(ys) for c in pattern])


def _step_passes(rank: int, signed: int, n: int, other: int) -> bool:
    """P1-P3 as a rule on one step: the rank-r vertex of a profile part of n
    vertices, placed after L of the other part's `other` vertices, has the
    signed imbalance 2L - other. Ranks 0 and n + 1 are the pads, -other and
    +other."""
    if rank == n // 2 and signed > 0:
        return False  # P1
    if rank == (n + 1) // 2 + 1 and signed < 0:
        return False  # P2
    return not (rank == (n + 1) // 2 and n % 2 == other % 2 == 1 and abs(signed) != 1)  # P3


def _pads_pass(a: int, b: int) -> bool:
    return all(_step_passes(0, -m, n, m) and _step_passes(n + 1, m, n, m) for n, m in ((a, b), (b, a)))


def _step_rule_accepts(pattern: str, a: int, b: int) -> bool:
    """The step rule under both designations, along an X/Y pattern of K(a, b)."""
    i = j = 0
    accepted = _pads_pass(a, b)
    for c in pattern:
        if c == "X":
            i += 1
            accepted = accepted and _step_passes(i, 2 * j - b, a, b)
        else:
            j += 1
            accepted = accepted and _step_passes(j, 2 * i - a, b, a)
    return accepted


# A grid cell: the least cost of a path into it, and how many paths into it
# cost least, pass the step rule, and both.
_NO_PATH = (math.inf, 0, 0, 0)


def _path_counts(a: int, b: int) -> tuple[int, int, int, int]:
    """The least cost of an X/Y pattern of K(a, b), and how many patterns have
    it (T), pass the step rule (A), and both (A and T).

    A pattern is a lattice path from (0, 0) to (a, b). The X step from (i, j)
    is the (i + 1)-th X, placed after j Y's: it costs |2j - b|. The Y step
    costs |2i - a|. A path costs least iff each step keeps it at the least
    cost of the cell it enters.
    """
    pads = int(_pads_pass(a, b))
    up = [_NO_PATH] * (b + 1)  # the cells of row i - 1
    for i in range(a + 1):
        row, left = [], _NO_PATH
        y_signed = 2 * i - a
        for j in range(b + 1):
            if i == j == 0:
                left = (0, 1, pads, pads)
                row.append(left)
                continue
            x_signed = 2 * j - b
            cx, tx, ax, atx = up[j]
            cx += abs(x_signed)
            if not _step_passes(i, x_signed, a, b):
                ax = atx = 0
            cy, ty, ay, aty = left
            cy += abs(y_signed)
            if not _step_passes(j, y_signed, b, a):
                ay = aty = 0
            least = min(cx, cy)
            if cx != least:
                tx = atx = 0
            if cy != least:
                ty = aty = 0
            left = (least, tx + ty, ax + ay, atx + aty)
            row.append(left)
        up = row
    return up[b]


class TestBalancedHalves:
    """An ordering of K(a, b) is optimal iff its first h and its last h
    vertices each hold p vertices of the a-part. On each half the imbalances
    sum to 2pq + p(b mod 2) + q(a mod 2), and the middle adds
    2(a mod 2)(b mod 2), so the total is ab + (a mod 2)(b mod 2)."""

    def test_equals_the_verifier_on_every_pattern_up_to_k88(self):
        for a, b in itertools.product(range(1, 9), repeat=2):
            _, bp = complete_bigraph(a, b)
            for xs in itertools.combinations(range(a + b), a):
                pattern = "".join("X" if i in xs else "Y" for i in range(a + b))
                got = verify_optimal_complete(_ordering_of(pattern, bp), bp).optimal
                assert got == _halves_balanced(pattern, a, b), (a, b, pattern)
                assert got == _step_rule_accepts(pattern, a, b), (a, b, pattern)

    def test_equals_the_verifier_on_random_and_near_optimal_orderings(self):
        rng = random.Random(5)
        verdicts = set()
        for _ in range(1500):
            a, b = rng.randint(1, 400), rng.randint(1, 400)
            bp = Bipartition([f"x{i}" for i in range(a)], [f"y{i}" for i in range(b)])
            p, q = a // 2, b // 2
            if rng.random() < 0.25:
                pattern = list("X" * a + "Y" * b)
                rng.shuffle(pattern)
            else:
                # A balanced layout: each half holds p X's and q Y's.
                first, middle, last = (
                    rng.sample("X" * p + "Y" * q, p + q),
                    rng.sample("X" * (a % 2) + "Y" * (b % 2), a % 2 + b % 2),
                    rng.sample("X" * p + "Y" * q, p + q),
                )
                pattern = first + middle + last
                if rng.random() < 0.5:
                    i, j = rng.sample(range(a + b), 2)
                    pattern[i], pattern[j] = pattern[j], pattern[i]
            pattern = "".join(pattern)
            want = _halves_balanced(pattern, a, b)
            assert verify_optimal_complete(_ordering_of(pattern, bp), bp).optimal == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_optimum_count_equals_the_oracle(self):
        # K(b, a) is K(a, b) with the parts renamed, so a <= b covers them all.
        for a in range(1, 31):
            for b in range(a, 61 - a):
                p, q = a // 2, b // 2
                want = (
                    (1 + (a % 2 == b % 2 == 1))
                    * math.comb(p + q, p) ** 2
                    * math.factorial(a)
                    * math.factorial(b)
                )
                g, _ = complete_bigraph(a, b)
                got = brute_force_min(g, cap=a + b, count_optima=True).optima_count
                assert got == want, (a, b)


class TestStepRule:
    """P1-P3 read step by step along an X/Y pattern, under both designations,
    accept exactly the least-cost patterns: counted over every pattern of
    K(a, b), A = T = A and T proves it for each (a, b), and with it the
    characterization over all C(a + b, a) * a! * b! orderings."""

    def test_counts_prove_the_characterization_up_to_k40_40(self):
        for a, b in itertools.product(range(1, 41), repeat=2):
            least, tight, accepted, both = _path_counts(a, b)
            assert least == a * b + (a % 2) * (b % 2), (a, b)
            assert accepted == tight == both, (a, b)
            # Times a! * b!, the count that test_optimum_count_equals_the_oracle
            # checks against the oracle.
            p, q = a // 2, b // 2
            assert tight == (1 + (a % 2 == b % 2 == 1)) * math.comb(p + q, p) ** 2, (a, b)
