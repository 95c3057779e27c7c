"""CLI behavior: outputs, exit codes, and the generate/solve pipeline."""

import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from biclique_imbalance import (
    ChainSpec,
    bipartition,
    generate_chained,
    is_complete_bipartite,
    min_imbalance_formula,
    parse_edge_list,
    parse_ordering,
    verify_optimal_complete,
)
from biclique_imbalance import chained, cli
from biclique_imbalance.cli import main
from biclique_imbalance.graph import vertex_imbalances
from conftest import CHAINED_EDGES
from test_chained import FIG_SPEC, k33_chain, random_chain_spec, renamed

EXAMPLE = "a b\na c\nb c\nb d\nc e\n"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


def _schoolbook_product_plus_one(a, b):
    """Decimal string of a*b + 1, by schoolbook multiplication in base 10**9.

    Works on 9-digit limbs so that no Python int ever has more digits than
    the int/str conversion limit allows.
    """
    base = 10**9
    x = [int(a[max(0, k - 9) : k]) for k in range(len(a), 0, -9)]
    y = [int(b[max(0, k - 9) : k]) for k in range(len(b), 0, -9)]
    out = [0] * (len(x) + len(y) + 1)
    out[0] = 1
    for i, dx in enumerate(x):
        carry = 0
        for j, dy in enumerate(y):
            carry, out[i + j] = divmod(out[i + j] + dx * dy + carry, base)
        k = i + len(y)
        while carry:
            carry, out[k] = divmod(out[k] + carry, base)
            k += 1
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return str(out[-1]) + "".join(f"{d:09d}" for d in reversed(out[:-1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_total(self, capsys, write):
        g = write("g.txt", EXAMPLE)
        o = write("o.txt", "a b c d e\n")
        code, out, _ = run(capsys, "eval", g, o)
        assert code == 0
        assert out == "6\n"

    def test_verbose_table(self, capsys, write):
        g = write("g.txt", EXAMPLE)
        o = write("o.txt", "a b c d e\n")
        code, out, _ = run(capsys, "eval", g, o, "--verbose")
        assert code == 0
        assert out.splitlines() == ["6", "a\t2", "b\t1", "c\t1", "d\t1", "e\t1"]

    def test_edgeless(self, capsys, write):
        g = write("g.txt", "a\nb\n")
        o = write("o.txt", "b a\n")
        assert run(capsys, "eval", g, o) == (0, "0\n", "")

    @pytest.mark.parametrize(
        "graph, ordering, stdout",
        [
            (EXAMPLE, "a b c d e\n", "6\na\t2\nb\t1\nc\t1\nd\t1\ne\t1\n"),
            ("a\nb\n", "b a\n", "0\nb\t0\na\t0\n"),
            ("", "", "0\n"),
        ],
        ids=["example", "edgeless", "empty"],
    )
    def test_verbose_report_bytes(self, capsys, write, graph, ordering, stdout):
        g = write("g.txt", graph)
        o = write("o.txt", ordering)
        assert run(capsys, "eval", g, o, "-v") == (0, stdout, "")

    def test_missing_vertex_exits_2(self, capsys, write):
        g = write("g.txt", EXAMPLE)
        o = write("o.txt", "a b c d\n")
        code, _, err = run(capsys, "eval", g, o)
        assert code == 2
        assert "error" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", str(tmp_path / "nope"), str(tmp_path / "nope"))
        assert code == 2


class TestUnreadableInput:
    """A file that cannot be read or decoded is named in the error, exit 2."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"\xffa b\n")
        (tmp_path / "g.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "o.txt").write_text("a b\n", encoding="utf-8")
        return {name: str(tmp_path / name) for name in ("bad.txt", "g.txt", "o.txt", "nope")}

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "bad.txt", "o.txt"],
            ["eval", "g.txt", "bad.txt"],
            ["verify", "bad.txt", "o.txt"],
            ["verify", "g.txt", "bad.txt"],
            ["decompose", "bad.txt"],
            ["solve", "chained", "bad.txt"],
            ["oracle", "bad.txt"],
        ],
    )
    def test_undecodable_file(self, capsys, files, argv):
        bad = files["bad.txt"]
        assert run(capsys, *(files.get(a, a) for a in argv)) == (
            2,
            "",
            f"error: cannot read {bad}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        )

    def test_missing_file(self, capsys, files):
        nope = files["nope"]
        assert run(capsys, "eval", files["g.txt"], nope) == (
            2,
            "",
            f"error: cannot read {nope}: [Errno 2] No such file or directory: {nope!r}\n",
        )


class TestSolveComplete:
    def test_parts(self, capsys):
        assert run(capsys, "solve", "complete", "--parts", "4", "9") == (0, "36\n", "")
        assert run(capsys, "solve", "complete", "--parts", "3", "3") == (0, "10\n", "")

    def test_parts_arbitrary_precision(self, capsys):
        a = str(10**200 + 1)
        b = str(10**200 + 3)
        code, out, _ = run(capsys, "solve", "complete", "--parts", a, b)
        assert code == 0
        assert out.strip() == str(int(a) * int(b) + 1)

    def test_parts_beyond_the_int_str_digit_limit(self, capsys):
        # 5,000-digit odd parts: the answer has 10,000 digits, past the 4,300
        # that Python 3.10.7+ converts by default.
        a = "1" + "234567890" * 555 + "1231"
        b = "9" + "876543210" * 555 + "9873"
        assert len(a) == len(b) == 5000
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "solve", "complete", "--parts", a, b)
        assert (code, err) == (0, "")
        assert out.strip() == _schoolbook_product_plus_one(a, b)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_runs_on_an_interpreter_without_a_digit_limit(self, capsys, monkeypatch):
        # Before Python 3.10.7 sys has no int/str digit limit to lift.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert run(capsys, "solve", "complete", "--parts", "3", "3") == (0, "10\n", "")

    def test_parts_reject_garbage(self, capsys):
        code, _, _ = run(capsys, "solve", "complete", "--parts", "-3", "4")
        assert code == 2
        code, _, _ = run(capsys, "solve", "complete", "--parts", "0", "4")
        assert code == 2

    def test_parts_reject_digits_that_are_not_decimal(self, capsys):
        assert run(capsys, "solve", "complete", "--parts", "²", "3") == (
            2,
            "",
            "error: expected a decimal natural number, got '²'\n",
        )

    def test_parts_accept_decimal_digits_of_any_script(self, capsys):
        assert run(capsys, "solve", "complete", "--parts", "٣", "3") == (0, "10\n", "")

    def test_graph_input(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        code, out, _ = run(capsys, "solve", "complete", g)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "4"
        assert sorted(lines[1].split()) == ["x1", "x2", "y1", "y2"]

    def test_path_graph_exits_3(self, capsys, write):
        g = write("p.txt", "a b\nb c\nc d\n")
        assert run(capsys, "solve", "complete", g)[0] == 3

    def test_no_input_exits_2(self, capsys):
        assert run(capsys, "solve", "complete")[0] == 2

    def test_graph_and_parts_together_exit_2(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        assert run(capsys, "solve", "complete", g, "--parts", "2", "2") == (
            2,
            "",
            "error: solve complete takes a graph file or --parts NX NY, not both\n",
        )


class TestEdgelessGraph:
    """A graph without edges has no two nonempty parts: exit 3, not exit 2."""

    @pytest.mark.parametrize("text", ["", "a\n", "a\nb\n"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_rejected_as_not_complete_bipartite(self, capsys, write, text, command):
        g = write("g.txt", text)
        argv = ["solve", "complete", g] if command == "solve" else ["verify", g, g]
        assert run(capsys, *argv) == (
            3,
            "",
            "error: graph is not a complete bipartite graph: it has no edges\n",
        )


class TestSolveChained:
    def test_paper_figure(self, capsys, write):
        g = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        out = "6\nx1 y1 y2 x2 y3 x3 y4 x5 y5 y6 x4\n"
        assert run(capsys, "solve", "chained", g) == (0, out, "")

    def test_disconnected_exits_3(self, capsys, write):
        g = write("disc.txt", "a b\nc d\n")
        assert run(capsys, "solve", "chained", g)[0] == 3

    def test_byte_order_mark_is_not_read_as_part_of_a_vertex(self, capsys, write):
        g = write("bom.txt", "\ufeffx1 y1\nx1 y2\n")
        code, out, err = run(capsys, "solve", "chained", g)
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert lines[0] == "2"
        assert sorted(lines[1].split()) == ["x1", "y1", "y2"]

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda full: [full[0], *sorted(full[1:-1]), full[-1]],
                "internal error: component subordering evaluates to ",
            ),
            (
                lambda full: [full[0], *full[2:]],
                "internal error: component subordering does not cover the component exactly\n",
            ),
        ],
        ids=["suboptimal layout", "layout missing a vertex"],
    )
    def test_layout_that_fails_the_self_check_exits_5_and_prints_nothing(
        self, capsys, write, monkeypatch, damage, message
    ):
        fill_runs = chained._fill_runs
        monkeypatch.setattr(
            chained, "_fill_runs", lambda a, b, same: damage(fill_runs(a, b, same))
        )
        g = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        code, out, err = run(capsys, "solve", "chained", g)
        assert (code, out) == (5, "")
        assert err.startswith(message)
        assert err.count("\n") == 1


class TestVerify:
    def test_optimal(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        o = write("o.txt", "y1 x1 x2 y2\n")
        assert run(capsys, "verify", g, o) == (0, "optimal\n", "")

    def test_not_optimal_still_exits_0(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        o = write("o.txt", "x1 x2 y1 y2\n")
        code, out, _ = run(capsys, "verify", g, o)
        assert code == 0
        assert out == "not-optimal property=P1 achieved=8 minimum=4\n"

    def test_triangle_exits_3(self, capsys, write):
        g = write("tri.txt", "a b\nb c\nc a\n")
        o = write("o.txt", "a b c\n")
        assert run(capsys, "verify", g, o)[0] == 3

    @pytest.mark.parametrize("ordering", ["y1 x1 x2\n", "y1 x1 x2 y2 z\n"])
    def test_ordering_missing_or_adding_a_vertex_exits_2(self, capsys, write, ordering):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        o = write("o.txt", ordering)
        assert run(capsys, "verify", g, o) == (
            2,
            "",
            "error: ordering does not cover exactly the bipartition's vertices\n",
        )


class TestCompletenessByEdgeCount:
    """bipartition colors every edge across its parts, so a graph is complete
    bipartite iff it has nx * ny edges; solve complete and verify use that."""

    @staticmethod
    def _k(rng, a, b, tag):
        edges = [(f"{tag}x{i}", f"{tag}y{j}") for i in range(a) for j in range(b)]
        return [e[:: rng.choice((1, -1))] for e in edges]

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_count_decides_and_the_commands_agree(self, capsys, write, seed):
        rng = random.Random(seed)
        a, b = rng.randint(1, 6), rng.randint(2, 6)
        complete = self._k(rng, a, b, "")
        rng.shuffle(complete)
        cases = [
            (complete, True),
            # Each endpoint of the removed edge stays, as a one-token line.
            (complete[1:] + [complete[0][:1], complete[0][1:]], False),
            (complete + [("z",)], False),
            (complete + self._k(rng, rng.randint(1, 4), rng.randint(1, 4), "u"), False),
        ]
        for lines, want in cases:
            text = "".join(" ".join(line) + "\n" for line in lines)
            g = parse_edge_list(text)
            bp = bipartition(g)
            assert (g.edge_count == bp.nx * bp.ny) == is_complete_bipartite(g, bp) == want
            order = sorted(g.vertices)
            rng.shuffle(order)
            gf, of = write("g.txt", text), write("o.txt", " ".join(order) + "\n")
            solved = run(capsys, "solve", "complete", gf)
            verified = run(capsys, "verify", gf, of)
            if not want:
                rejected = (3, "", "error: graph is not a complete bipartite graph\n")
                assert solved == verified == rejected
                continue
            code, out, err = solved
            value, optimum = out.splitlines()
            assert (code, value, err) == (0, str(min_imbalance_formula(a, b)), "")
            assert verify_optimal_complete(parse_ordering(optimum), bp).optimal
            v = verify_optimal_complete(parse_ordering(" ".join(order)), bp)
            report = (
                "optimal"
                if v.optimal
                else f"not-optimal property={v.failed_property} "
                f"achieved={v.achieved} minimum={v.minimum}"
            )
            assert verified == (0, report + "\n", "")


class TestDecompose:
    def test_paper_figure_report(self, capsys, write):
        g = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        code, out, _ = run(capsys, "decompose", g)
        assert code == 0
        assert out == (
            "C1: X={x1,x2} Y={y1,y2}\n"
            "C2: X={x2,x3} Y={y3,y4}\n"
            "C3: X={x4,x5} Y={y4,y5,y6}\n"
            "s1 = x2 (X)\n"
            "s2 = y4 (Y)\n"
        )

    def test_k33_single_component(self, capsys, write):
        g = write("k33.txt", "".join(f"x{i} y{j}\n" for i in range(1, 4) for j in range(1, 4)))
        code, out, _ = run(capsys, "decompose", g)
        assert code == 0
        assert out == "C1: X={x1,x2,x3} Y={y1,y2,y3}\n"

    def test_six_cycle_exits_3(self, capsys, write):
        g = write("c6.txt", "a b\nb c\nc d\nd e\ne f\nf a\n")
        assert run(capsys, "decompose", g)[0] == 3

    @pytest.mark.parametrize("command", [["decompose"], ["solve", "chained"]])
    def test_empty_file_exits_3(self, capsys, write, command):
        assert run(capsys, *command, write("empty.txt", "")) == (
            3,
            "",
            "error: not a chained complete bipartite graph: graph has no vertices\n",
        )

    def test_orientation_tie_puts_the_larger_vertex_list_first(self, capsys, write):
        # both end components have the overlap a as their smallest vertex
        g = write("tie.txt", "a y1\na y2\nc y1\nc y2\na z1\na z2\nb z1\nb z2\n")
        assert run(capsys, "decompose", g) == (
            0,
            "C1: X={a,c} Y={y1,y2}\n"
            "C2: X={a,b} Y={z1,z2}\n"
            "s1 = a (X)\n",
            "",
        )


class TestOracle:
    def test_k22(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        code, out, _ = run(capsys, "oracle", g)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "4"
        assert sorted(lines[1].split()) == ["x1", "x2", "y1", "y2"]

    def test_cap_without_flag_exits_4(self, capsys, write):
        g = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        assert run(capsys, "oracle", g)[0] == 4
        code, out, _ = run(capsys, "oracle", g, "--max-n", "11")
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_enumerate_single_edge(self, capsys, write):
        g = write("e.txt", "u v\n")
        code, out, _ = run(capsys, "oracle", g, "--enumerate")
        assert code == 0
        assert out.splitlines() == ["2", "u v", "2"]

    def test_enumerate_large_star(self, capsys, write):
        g = write("star.txt", "".join(f"x1 y{i}\n" for i in range(1, 1201)))
        code, out, _ = run(capsys, "oracle", g, "--max-n", "1201", "--enumerate")
        assert code == 0
        minimum, witness, count = out.splitlines()
        assert minimum == "1200"
        assert witness.split()[600] == "x1"
        assert count == str(math.factorial(1200))

    @pytest.mark.parametrize("cap", ["-1", "abc"])
    def test_cap_that_is_no_natural_number_exits_2(self, capsys, write, cap):
        g = write("e.txt", "u v\n")
        assert run(capsys, "oracle", g, "--max-n", cap) == (
            2,
            "",
            f"error: expected a decimal natural number, got {cap!r}\n",
        )

    def test_zero_cap_exits_4(self, capsys, write):
        g = write("e.txt", "u v\n")
        assert run(capsys, "oracle", g, "--max-n", "0") == (
            4,
            "",
            "error: 2 vertices exceeds the search cap of 0\n",
        )

    def test_state_cap_exits_4(self, capsys, write):
        g = write("path.txt", "".join(f"p{i} p{i + 1}\n" for i in range(1, 40)))
        assert run(capsys, "oracle", g, "--max-n", "40") == (
            4,
            "",
            "error: 1099511627776 twin-class states exceeds the table cap of 4194304\n",
        )

    def test_enumerate_paper_figure_bytes(self, capsys, write):
        g = write("fig.txt", _edge_text(generate_chained(FIG_SPEC)[0].edges()))
        assert run(capsys, "oracle", g, "--max-n", "11", "--enumerate") == (
            0,
            "6\nx1 y1 y2 x2 y3 x3 y4 x4 y5 x5 y6\n64\n",
            "",
        )

    def test_enumerate_k23_bytes(self, capsys, write):
        g = write("k23.txt", "".join(f"x{i} y{j}\n" for i in (1, 2) for j in (1, 2, 3)))
        assert run(capsys, "oracle", g, "--enumerate") == (0, "6\nx1 y1 y2 x2 y3\n48\n", "")


class TestGen:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "2", "2")
        assert code == 0
        assert out.splitlines() == ["x1 y1", "x1 y2", "x2 y1", "x2 y2"]

    def test_complete_stdout_bytes(self, capsys):
        assert run(capsys, "gen", "complete", "2", "3") == (
            0,
            "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\n",
            "",
        )

    def test_chained_paper_figure_bytes(self, capsys, write):
        spec = write(
            "spec.txt", "component 2 2\noverlap X\ncomponent 2 2\noverlap Y\ncomponent 2 3\n"
        )
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            0,
            "x1 y1\nx1 y2\nx2 y1\nx2 y2\nx2 y3\nx2 y4\nx3 y3\nx3 y4\n"
            "x4 y4\nx4 y5\nx4 y6\nx5 y4\nx5 y5\nx5 y6\n",
            "C1: X={x1,x2} Y={y1,y2}\nC2: X={x2,x3} Y={y3,y4}\nC3: X={x4,x5} Y={y4,y5,y6}\n"
            "s1 = x2 (X)\ns2 = y4 (Y)\n",
        )

    def test_complete_rejects_digits_that_are_not_decimal(self, capsys):
        assert run(capsys, "gen", "complete", "3", "²") == (
            2,
            "",
            "error: expected a decimal natural number, got '²'\n",
        )

    def test_complete_with_an_empty_part_exits_2(self, capsys):
        assert run(capsys, "gen", "complete", "0", "3") == (
            2,
            "",
            "error: part sizes must be at least 1\n",
        )

    def test_chained_with_sidecar_report(self, capsys, write):
        spec = write(
            "spec.txt", "component 2 2\noverlap X\ncomponent 2 2\noverlap Y\ncomponent 2 3\n"
        )
        code, out, err = run(capsys, "gen", "chained", "--spec", spec)
        assert code == 0
        assert "x2 y3" in out
        assert "s1 = x2 (X)" in err
        assert "s2 = y4 (Y)" in err

    def test_shuffle_names_is_deterministic(self, capsys, write):
        spec = write("spec.txt", "component 2 2\noverlap X\ncomponent 2 2\n")
        _, out1, _ = run(capsys, "gen", "chained", "--spec", spec, "--shuffle-names", "7")
        _, out2, _ = run(capsys, "gen", "chained", "--spec", spec, "--shuffle-names", "7")
        _, out3, _ = run(capsys, "gen", "chained", "--spec", spec, "--shuffle-names", "8")
        assert out1 == out2
        assert out1 != out3

    def test_singleton_overlap_spec_exits_3(self, capsys, write):
        spec = write("bad.txt", "component 1 2\noverlap X\ncomponent 2 2\n")
        assert run(capsys, "gen", "chained", "--spec", spec)[0] == 3

    def test_overlap_in_no_part_exits_2(self, capsys, write):
        spec = write("bad.txt", "component 2 2\noverlap Z\ncomponent 2 2\n")
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            2,
            "",
            "error: line 2: overlap line must be 'overlap X' or 'overlap Y': 'overlap Z'\n",
        )

    @pytest.mark.parametrize("size", ["1_0", "+2", "-1", "²"])
    def test_spec_size_that_is_no_decimal_natural_number_exits_2(self, capsys, write, size):
        spec = write("bad.txt", f"component 2 2\noverlap X\ncomponent {size} 2\n")
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            2,
            "",
            f"error: line 3: component sizes must be decimal natural numbers: "
            f"'component {size} 2'\n",
        )

    def test_spec_size_in_other_decimal_digits_is_read(self, capsys, write):
        spec = write("spec.txt", "component ٣ 1\n")
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            0,
            "x1 y1\nx2 y1\nx3 y1\n",
            "C1: X={x1,x2,x3} Y={y1}\n",
        )

    def test_spec_size_beyond_the_int_str_digit_limit_is_read_exactly(self, capsys, write):
        size = "1" + "234567890" * 555 + "1231"
        assert len(size) == 5000
        spec = write("big.txt", f"component {size} 0\n")
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            3,
            "",
            f"error: component 1 has an empty part: ({size}, 0)\n",
        )

    def test_spec_size_zero_exits_3(self, capsys, write):
        spec = write("bad.txt", "component 0 2\n")
        assert run(capsys, "gen", "chained", "--spec", spec) == (
            3,
            "",
            "error: component 1 has an empty part: (0, 2)\n",
        )


class TestRepeatedCalls:
    """One process, several main calls: no option leaks into the next call."""

    def test_options_do_not_carry_over(self, capsys, write):
        g = write("g.txt", EXAMPLE)
        o = write("o.txt", "a b c d e\n")
        assert run(capsys, "eval", "-v", g, o)[1].splitlines()[1:2] == ["a\t2"]
        assert run(capsys, "eval", g, o) == (0, "6\n", "")
        # argparse reads the abbreviated flag; the next, plain call leaves it out.
        assert run(capsys, "eval", "--verb", g, o)[1].splitlines()[1:2] == ["a\t2"]
        assert run(capsys, "eval", g, o) == (0, "6\n", "")
        assert main(("eval", "-v", g, o)) == 0 and capsys.readouterr().out.startswith("6\na\t2\n")
        assert main(("eval", g, o)) == 0 and capsys.readouterr().out == "6\n"

        k22 = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        assert run(capsys, "oracle", "--enumerate", k22) == (0, "4\nx1 y1 x2 y2\n16\n", "")
        assert run(capsys, "oracle", k22) == (0, "4\nx1 y1 x2 y2\n", "")

        spec = write("spec.txt", "component 2 2\noverlap X\ncomponent 2 2\n")
        code, out, _ = run(capsys, "gen", "chained", "--spec", spec, "--shuffle-names", "7")
        assert code == 0 and out.startswith("v1 v6\n")
        code, out, err = run(capsys, "gen", "chained", "--spec", spec)
        assert code == 0
        assert out.splitlines() == [
            "x1 y1", "x1 y2", "x2 y1", "x2 y2", "x2 y3", "x2 y4", "x3 y3", "x3 y4"
        ]
        assert err == "C1: X={x1,x2} Y={y1,y2}\nC2: X={x2,x3} Y={y3,y4}\ns1 = x2 (X)\n"


class TestPipelineClosure:
    def test_eight_thousand_components_through_gen_and_solve(self, capsys, write):
        # Mixed K(a, b) components with 1 <= a, b <= 3, two vertices at least
        # in each part that holds an overlap.
        rng = random.Random(8000)
        n = 8000
        overlap_parts = [rng.choice("XY") for _ in range(n - 1)]
        sizes = []
        for i in range(n):
            held = {overlap_parts[j] for j in (i - 1, i) if 0 <= j < n - 1}
            sizes.append((rng.randint(1 + ("X" in held), 3), rng.randint(1 + ("Y" in held), 3)))
        lines = []
        for i, (a, b) in enumerate(sizes):
            lines.append(f"component {a} {b}")
            if i < n - 1:
                lines.append(f"overlap {overlap_parts[i]}")
        # The closed form. g(s, C) of an overlap s in part X is C's |Y|, and
        # the two overlap terms of s add up to -2 min(g(s, C_i), g(s, C_i+1)).
        closed_form = sum(a * b + a % 2 * (b % 2) for a, b in sizes) - 2 * sum(
            min(sizes[i][k], sizes[i + 1][k]) for i, k in enumerate(map("YX".index, overlap_parts))
        )

        spec = write("spec.txt", "\n".join(lines) + "\n")
        assert main(["gen", "chained", "--spec", spec]) == 0
        text = capsys.readouterr().out
        assert main(["solve", "chained", write("chain.txt", text)]) == 0
        value, ordering = capsys.readouterr().out.splitlines()
        assert int(value) == closed_form
        g, o = parse_edge_list(text), parse_ordering(ordering)
        assert g.vertex_count == sum(a + b for a, b in sizes) - (n - 1)
        assert o.vertices == g.vertices
        assert sum(vertex_imbalances(o, g)) == closed_form

    def test_gen_decompose_solve_eval_agree(self, capsys, tmp_path):
        rng = random.Random(1234)
        done = 0
        while done < 100:
            spec = random_chain_spec(rng, max_comps=4, max_total=24, max_part=4)
            if spec is None:
                continue
            lines = []
            for k, (a, b) in enumerate(spec.sizes):
                lines.append(f"component {a} {b}")
                if k < len(spec.overlap_parts):
                    lines.append(f"overlap {spec.overlap_parts[k]}")
            spec_path = tmp_path / "spec.txt"
            spec_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

            assert main(["gen", "chained", "--spec", str(spec_path),
                         "--shuffle-names", str(done)]) == 0
            captured = capsys.readouterr()
            graph_path = tmp_path / "graph.txt"
            graph_path.write_text(captured.out, encoding="utf-8")

            assert main(["decompose", str(graph_path)]) == 0
            report = capsys.readouterr().out
            assert report.count("C") >= len(spec.sizes)

            assert main(["solve", "chained", str(graph_path)]) == 0
            minimum, ordering_line = capsys.readouterr().out.splitlines()

            ordering_path = tmp_path / "ordering.txt"
            ordering_path.write_text(ordering_line + "\n", encoding="utf-8")
            assert main(["eval", str(graph_path), str(ordering_path)]) == 0
            assert capsys.readouterr().out.strip() == minimum
            done += 1


class TestOutputHygiene:
    def test_single_trailing_newline(self, capsys, write):
        g = write("k22.txt", "x1 y1\nx1 y2\nx2 y1\nx2 y2\n")
        o = write("o.txt", "y1 x1 x2 y2\n")
        for argv in (
            ["eval", g, o],
            ["solve", "complete", g],
            ["verify", g, o],
            ["decompose", g],
            ["oracle", g],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.endswith("\n")
            assert not out.endswith("\n\n")


# The files the pinned runs read; an argv tuple stands for that command's stdout.
PIN_FILES = {
    "path.txt": "a b\nb c\n",
    # The same path with tabs, and with CRLF line ends, takes the line reader.
    "tabs.txt": "a\tb\nb\tc\n",
    "crlf.txt": "a b\r\nb c\r\n",
    "order.txt": "a b c\n",
    "repeat.txt": "a b a\n",
    "chain.txt": "x1 y1\nx1 y2\nx2 y1\nx2 y2\nx2 y3\nx2 y4\nx3 y3\nx3 y4\n",  # the README chain
    # A K(3,2) block dealt in descending order; a K(1,2) between two K(3,3)s,
    # which deals odd by odd parts in six runs and a part of one vertex.
    "spec.txt": "component 2 2\noverlap Y\ncomponent 3 2\n",
    "gen.txt": ("gen", "chained", "--spec", "spec.txt"),
    "spec6.txt": "component 3 3\noverlap Y\ncomponent 1 2\noverlap Y\ncomponent 3 3\n",
    "gen6.txt": ("gen", "chained", "--spec", "spec6.txt"),
    "k23.txt": "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\n",
    "k23-optimal.txt": "x1 y1 y2 y3 x2\n",
    "k23-p1.txt": "x1 x2 y1 y2 y3\n",
}
PATH_REPORT = (0, "2\na\t1\nb\t0\nc\t1\n", "")
# Each run's argv (file names stand for their paths) -> exit code, stdout, stderr.
CLI_PINS = {
    "eval -v path.txt order.txt": PATH_REPORT,
    "eval -v tabs.txt order.txt": PATH_REPORT,
    "eval -v crlf.txt order.txt": PATH_REPORT,
    "eval path.txt repeat.txt": (2, "", "error: duplicate vertices in ordering: ['a']\n"),
    "oracle path.txt --enumerate": (0, "2\na b c\n2\n", ""),
    "solve chained chain.txt": (0, "4\nx1 y1 y2 x2 y3 y4 x3\n", ""),
    "decompose chain.txt": (
        0, "C1: X={x1,x2} Y={y1,y2}\nC2: X={x2,x3} Y={y3,y4}\ns1 = x2 (X)\n", ""
    ),
    "solve chained gen.txt": (0, "6\nx1 y1 x2 y2 x5 x4 y3 x3\n", ""),
    "solve chained gen6.txt": (0, "18\nx1 y1 x2 y2 x3 y3 x4 y4 x6 y5 x7 y6 x5\n", ""),
    "verify k23.txt k23-optimal.txt": (0, "optimal\n", ""),
    "verify k23.txt k23-p1.txt": (0, "not-optimal property=P1 achieved=12 minimum=6\n", ""),
}


@pytest.fixture
def pinned(capsys, write):
    paths = {}
    for name, text in PIN_FILES.items():
        if isinstance(text, tuple):
            code, text, _ = run(capsys, *(paths.get(a, a) for a in text))
            assert code == 0
        paths[name] = write(name, text)
    return lambda argv: [paths.get(a, a) for a in argv.split()]


class TestPinnedBytes:
    """Also pinned: `solve complete --parts 3 3` by TestSolveComplete::test_parts
    and an empty graph file by TestDecompose::test_empty_file_exits_3."""

    @pytest.mark.parametrize("argv, want", CLI_PINS.items(), ids=list(CLI_PINS))
    def test_run(self, capsys, pinned, argv, want):
        assert run(capsys, *pinned(argv)) == want

    @pytest.mark.parametrize(
        "argv",
        [
            "solve complete --parts 3 3",
            "eval path.txt repeat.txt",
            "-h",
            "solve sideways path.txt",
            "oracle path.txt --enumerate",
        ],
    )
    def test_module_entry_point_matches_main(self, capsys, monkeypatch, pinned, argv):
        # `python -m` runs the module's __main__ guard, and so main_exit.
        monkeypatch.setenv("COLUMNS", "80")
        argv, env = pinned(argv), {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-m", "biclique_imbalance.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_caught(capsys, *argv)


def run_caught(capsys, *argv):
    """run, but a SystemExit that argparse raises gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE = "usage: biclique-imbalance [-h] {eval,solve,verify,decompose,oracle,gen} ...\n"
GEN_CHAINED_USAGE = (
    "usage: biclique-imbalance gen chained [-h] --spec SPEC [--shuffle-names SEED]\n"
)
ORACLE_USAGE = "usage: biclique-imbalance oracle [-h] [--max-n MAX_N] [--enumerate] graph\n"
# The argv that argparse answers itself, help and usage errors, at a terminal
# width of 80 columns -> exit code, stdout, stderr. No file is read.
ARGPARSE_PINS = {
    "": (2, "", USAGE + "biclique-imbalance: error: the following arguments are required: command\n"),
    "-h": (
        0,
        USAGE + "\n"
        "Minimum-imbalance orderings of (chained) complete bipartite graphs.\n"
        "\n"
        "positional arguments:\n"
        "  {eval,solve,verify,decompose,oracle,gen}\n"
        "    eval                evaluate the imbalance of an ordering\n"
        "    solve               closed-form minimum imbalance\n"
        "    verify              check an ordering for optimality\n"
        "    decompose           report the chain decomposition\n"
        "    oracle              exhaustive search on a small graph\n"
        "    gen                 generate instance edge lists\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "solve -h": (
        0,
        "usage: biclique-imbalance solve [-h] {complete,chained} ...\n"
        "\n"
        "positional arguments:\n"
        "  {complete,chained}\n"
        "    complete          complete bipartite graph\n"
        "    chained           chained complete bipartite graph\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    "solve complete -h": (
        0,
        "usage: biclique-imbalance solve complete [-h] [--parts NX NY] [graph]\n"
        "\n"
        "positional arguments:\n"
        "  graph\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --parts NX NY\n",
        "",
    ),
    "gen -h": (
        0,
        "usage: biclique-imbalance gen [-h] {complete,chained} ...\n"
        "\n"
        "positional arguments:\n"
        "  {complete,chained}\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    "gen chained -h": (
        0,
        GEN_CHAINED_USAGE + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --spec SPEC\n"
        "  --shuffle-names SEED\n",
        "",
    ),
    "oracle -h": (
        0,
        ORACLE_USAGE + "\n"
        "positional arguments:\n"
        "  graph\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --max-n MAX_N\n"
        "  --enumerate\n",
        "",
    ),
    "solve sideways path.txt": (
        2,
        "",
        "usage: biclique-imbalance solve [-h] {complete,chained} ...\n"
        "biclique-imbalance solve: error: argument solve_kind: invalid choice: 'sideways'"
        " (choose from 'complete', 'chained')\n",
    ),
    "eval path.txt": (
        2,
        "",
        "usage: biclique-imbalance eval [-h] [-v] graph ordering\n"
        "biclique-imbalance eval: error: the following arguments are required: ordering\n",
    ),
    "oracle path.txt --max-n": (
        2,
        "",
        ORACLE_USAGE + "biclique-imbalance oracle: error: argument --max-n: expected one argument\n",
    ),
    "gen chained": (
        2,
        "",
        GEN_CHAINED_USAGE
        + "biclique-imbalance gen chained: error: the following arguments are required: --spec\n",
    ),
    "gen chained --spec s --shuffle-names x": (
        2,
        "",
        GEN_CHAINED_USAGE
        + "biclique-imbalance gen chained: error: argument --shuffle-names: invalid int value: 'x'\n",
    ),
    "decompose path.txt --bogus": (
        2, "", USAGE + "biclique-imbalance: error: unrecognized arguments: --bogus\n"
    ),
}


class TestArgparseBytes:
    @pytest.mark.parametrize(
        "argv, want", ARGPARSE_PINS.items(), ids=[a or "no-arguments" for a in ARGPARSE_PINS]
    )
    def test_run(self, capsys, monkeypatch, argv, want):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        got = run_caught(capsys, *argv.split())
        # argparse up to 3.13.0 quotes the choices of an invalid choice; 3.13.13 does not.
        unquoted = want[2].replace("'complete', 'chained'", "complete, chained")
        assert got in [want, (*want[:2], unquoted)]


# Each leaf command: its words, how many positionals a plain argv gives, and
# its option spellings with the number of values each takes.
LEAVES = [
    ("eval", 2, [("-v", 0), ("--verbose", 0)]),
    ("solve complete", 1, [("--parts", 2)]),
    ("solve chained", 1, []),
    ("verify", 2, []),
    ("decompose", 1, []),
    ("oracle", 1, [("--max-n", 1), ("--enumerate", 0)]),
    ("gen complete", 2, []),
    ("gen chained", 0, [("--spec", 1), ("--shuffle-names", 1)]),
]
VALUES = ["x", "", "-1", "-", "--", "-x", "a b", "\u0663", "+7", "7_0"]
ABBREVIATIONS = {"--max-n": "--max", "--enumerate": "--enum", "--verbose": "--verb",
                 "--shuffle-names": "--shuffle"}


def _leaf_argvs(words, n_pos, options):
    """Every interleaving of the positionals with each subset of the options,
    each value slot drawn from VALUES in turn (the others "x"); then the plain
    argv with all options, varied: an option repeated, abbreviated, in its
    "=" form or short of a value, a positional too few or too many, "-h" in
    every slot, and as a tuple."""
    words = words.split()
    for k in range(len(options) + 1):
        for chosen in itertools.combinations(options, k):
            for order in sorted(set(itertools.permutations(["P"] * n_pos + list(chosen))), key=str):
                template = []
                for unit in order:
                    template += [None] if unit == "P" else [unit[0]] + [None] * unit[1]
                yield words + [t or "x" for t in template]
                for slot in (i for i, t in enumerate(template) if t is None):
                    for value in VALUES:
                        yield words + [value if i == slot else t or "x" for i, t in enumerate(template)]
    plain = words + ["x"] * n_pos + [t for flag, n in options for t in [flag] + ["7"] * n]
    for flag, n in options:
        i = plain.index(flag)
        yield plain + [flag] + ["7"] * n  # repeated
        if flag in ABBREVIATIONS:
            yield plain[:i] + [ABBREVIATIONS[flag]] + plain[i + 1 :]
        yield plain[:i] + [flag + "=7"] + plain[i + 1 + min(n, 1) :]
        if n:
            yield plain[:i] + plain[i + 1 + n :] + [flag] + ["7"] * (n - 1)  # a value short
    if n_pos:
        yield plain[: len(words)] + plain[len(words) + 1 :]  # one positional too few
    yield plain + ["x"]  # one too many
    for i in range(len(plain) + 1):
        yield plain[:i] + ["-h"] + plain[i:]
    yield tuple(plain)


class TestDirectArgs:
    def test_agrees_with_argparse(self, capsys):
        """_direct_args gives None or what argparse gives, and None wherever
        argparse exits; this interpreter's own argparse is the reference."""
        argvs = [[], ["solve"], ["gen"], ["sideways"], ["solve", "sideways", "x"], ["-h"]]
        argvs += [argv for leaf in LEAVES for argv in _leaf_argvs(*leaf)]
        direct = 0
        for argv in argvs:
            got = cli._direct_args(argv)
            try:
                want = vars(cli._build_parser().parse_args(argv))
            except SystemExit:
                want = None
            assert got is None or vars(got) == want, argv
            direct += got is not None
        capsys.readouterr()
        assert 0 < direct < len(argvs)
        assert cli._direct_args(["decompose", Path("g.txt")]) is None

    # The plain argv of the README and of perfbench/instances.py.
    DOCUMENTED = [
        "eval path.txt order.txt",
        "eval path.txt order.txt -v",
        "solve complete k23.txt",
        "solve complete --parts 3 3",
        "oracle path.txt",
        "oracle path.txt --max-n 10",
        "oracle path.txt --max-n 10 --enumerate",
        "gen complete 2 3",
        "gen chained --spec spec.txt",
        "gen chained --spec spec.txt --shuffle-names 7",
    ]

    @pytest.mark.parametrize("argv", DOCUMENTED + list(CLI_PINS))
    def test_plain_argv_does_not_build_the_parser(self, capsys, monkeypatch, pinned, argv):
        def build():
            raise AssertionError("argparse parsed a plain argv")

        monkeypatch.setattr(cli, "_build_parser", build)
        assert run(capsys, *pinned(argv))[0] == CLI_PINS.get(argv, (0,))[0]
        assert cli._direct_args(tuple(pinned(argv))) is not None


def _ring_of_k33s(k):
    """k K(3,3)s in a ring, each sharing the X vertex h<j+1> with the next."""
    return "".join(
        f"{x} b{j}_{t}\n"
        for j in range(k)
        for x in (f"h{j}", f"h{(j + 1) % k}", f"a{j}")
        for t in range(3)
    )


# Each exit path of main: the argv (file names stand for their paths), the
# exit code it returns, or the SystemExit code argparse raises.
EXIT_PATHS = {
    "solve chained chain.txt": 0,
    "eval path.txt repeat.txt": 2,
    "solve chained ring.txt": 3,
    "oracle --max-n 0 path.txt": 4,
    "solve sideways path.txt": SystemExit(2),
    "-h": SystemExit(0),
}


class TestCollectorPause:
    """main pauses the cyclic collector and lifts the int/str digit limit while
    a command runs, and gives both back as the caller had them."""

    @pytest.fixture
    def paths(self, pinned, write):
        ring = write("ring.txt", _ring_of_k33s(4))
        return lambda argv: [ring if a == "ring.txt" else a for a in pinned(argv)]

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        if not request.param:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("argv, want", EXIT_PATHS.items(), ids=list(EXIT_PATHS))
    def test_main_restores_the_callers_state(self, paths, collecting, argv, want):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(5001)  # a limit that is no default
        try:
            if isinstance(want, SystemExit):
                with pytest.raises(SystemExit) as exc:
                    main(paths(argv))
                assert exc.value.code == want.code
            else:
                assert main(paths(argv)) == want
            assert gc.isenabled() is collecting
            if limit is not None:
                assert sys.get_int_max_str_digits() == 5001
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("solve chained chain.txt", 0),
            ("solve chained ring.txt", 3),
            ("decompose chain.txt", 0),
            ("verify k23.txt k23-p1.txt", 0),
            ("eval -v path.txt order.txt", 0),
            ("oracle --enumerate chain.txt", 0),
            ("gen chained --spec spec6.txt", 0),
        ],
    )
    def test_a_command_leaves_no_cycles_to_collect(self, paths, argv, code):
        # The premise of the pause: what a command leaves behind is freed by
        # reference counting alone.
        argv = paths(argv)
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_collection_starts_while_a_large_chain_is_solved(self, capsys, write):
        chain = write("chain.txt", "".join(f"{u} {v}\n" for u, v in k33_chain(4000)[0].edges()))
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            assert main(["solve", "chained", chain]) == 0
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert len(capsys.readouterr().out.split()) == 1 + 20001


# Run in a fresh `python -I` as: python -I -c COLD_START_PROBE SRC GRAPH CHAIN
# ORDERING. Its last stdout line lists the modules that no well-formed CLI
# command needs but the import or the calls loaded; argparse, and gettext with
# it, loads only for help and usage errors.
COLD_START_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from biclique_imbalance.cli import main
graph, chain, ordering = sys.argv[2:]
for argv in (
    ["eval", "-v", graph, ordering],
    ["solve", "complete", graph],
    ["solve", "chained", chain],
    ["verify", graph, ordering],
    ["decompose", chain],
    ["oracle", "--enumerate", graph],
):
    assert main(argv) == 0, argv
loaded = set(sys.modules) - before
try:
    main(["-h"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
else:
    raise AssertionError("-h returned")
unused = {"dataclasses", "inspect", "fractions", "decimal", "pathlib", "random", "typing"}
unused |= {"argparse", "gettext"}
print("unused modules loaded:", sorted(unused & loaded))
"""


class TestColdStart:
    def test_cli_loads_only_what_its_commands_use(self, write):
        graph = write("k23.txt", "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\n")
        chain = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        ordering = write("o.txt", "y1 x1 y2 x2 y3\n")
        proc = subprocess.run(
            [sys.executable, "-I", "-c", COLD_START_PROBE, str(SRC), graph, chain, ordering],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "unused modules loaded: []"


# Run as: python -c HASH_SEED_PROBE SRC ARGV_LISTS_JSON. Prints the hash of a
# fixed string, then one line per command: its argv, exit code, stdout, stderr.
HASH_SEED_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from biclique_imbalance.cli import main
print(hash("biclique"))
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue(), err.getvalue()]))
"""


def _edge_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


class TestHashSeedDeterminism:
    """Set iteration order changes with the hash seed; the output must not."""

    def test_outputs_are_identical_under_three_hash_seeds(self, write):
        sizes = tuple((2 + k % 3, 2 + k % 4) for k in range(40))
        spec = ChainSpec(sizes, tuple("XY"[k % 3 == 0] for k in range(39)))
        chain_graph = renamed(*generate_chained(spec), random.Random(5))[0]
        chain = write("chain.txt", _edge_text(chain_graph.edges()))
        xs, ys = [f"x{i}" for i in range(1, 6)], [f"y{j}" for j in range(1, 5)]
        k54 = write("k54.txt", _edge_text((x, y) for x in xs for y in ys))
        slow = write("o.txt", " ".join(xs + ys))
        # A seven-cycle with a pendant vertex.
        odd = write("odd.txt", _edge_text(zip("qcmazkbz", "cmazkbqp")))
        # Six K(2,2)s {u_k, u_k+1} x {a_k, b_k} glued into a ring at the u's.
        ring = write("ring.txt", _edge_text(
            (f"u{j % 6}", f"{y}{k}") for k in range(6) for y in "ab" for j in (k, k + 1)
        ))
        commands = [
            ["solve", "chained", chain],
            ["decompose", chain],
            ["solve", "complete", k54],
            ["verify", k54, slow],
            ["oracle", "--enumerate", write("small.txt", EXAMPLE)],
            ["decompose", odd],
            ["solve", "complete", odd],
            ["decompose", ring],
        ]
        runs = []
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE, str(SRC), json.dumps(commands)],
                capture_output=True,
                text=True,
                timeout=60,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.splitlines())
        hashes = {lines[0] for lines in runs}
        assert len(hashes) == 3, "the hash seeds did not take effect"
        results = [lines[1:] for lines in runs]
        assert results[0] == results[1] == results[2]
        codes = [json.loads(line)[1] for line in results[0]]
        assert codes == [0, 0, 0, 0, 0, 3, 3, 3]
