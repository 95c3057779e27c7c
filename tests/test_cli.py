"""CLI behavior: outputs, exit codes, and the generate/solve pipeline."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from biclique_imbalance import ChainSpec, generate_chained
from biclique_imbalance.cli import main
from conftest import CHAINED_EDGES
from test_chained import random_chain_spec, renamed

EXAMPLE = "a b\na c\nb c\nb d\nc e\n"


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
        code, out, _ = run(capsys, "solve", "chained", g)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "6"
        assert len(lines[1].split()) == 11

    def test_glued_k22s(self, capsys, write):
        g = write(
            "glued.txt",
            "x1 y1\nx1 y2\nx2 y1\nx2 y2\nx2 y3\nx2 y4\nx3 y3\nx3 y4\n",
        )
        code, out, _ = run(capsys, "solve", "chained", g)
        assert code == 0
        assert out.splitlines()[0] == "4"

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


class TestGen:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "2", "2")
        assert code == 0
        assert out.splitlines() == ["x1 y1", "x1 y2", "x2 y1", "x2 y2"]

    def test_complete_rejects_digits_that_are_not_decimal(self, capsys):
        assert run(capsys, "gen", "complete", "3", "²") == (
            2,
            "",
            "error: expected a decimal natural number, got '²'\n",
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


# Run in a fresh `python -I` as: python -I -c COLD_START_PROBE SRC GRAPH CHAIN
# ORDERING. Its last stdout line lists the modules that no CLI command needs
# but the import or the calls loaded.
COLD_START_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from biclique_imbalance.cli import main
assert {"argparse", "re"} <= set(sys.modules), "argparse and re load at import"
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
unused = {"dataclasses", "inspect", "fractions", "decimal", "pathlib", "random", "typing"}
print("unused modules loaded:", sorted(unused & (set(sys.modules) - before)))
"""


class TestColdStart:
    def test_cli_loads_only_what_its_commands_use(self, write):
        graph = write("k23.txt", "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\n")
        chain = write("chain.txt", "".join(f"{u} {v}\n" for u, v in CHAINED_EDGES))
        ordering = write("o.txt", "y1 x1 y2 x2 y3\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-I", "-c", COLD_START_PROBE, str(src), graph, chain, ordering],
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
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE, str(src), json.dumps(commands)],
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
