"""CLI behavior: outputs, exit codes, and the generate/solve pipeline.

CLI_PINS is the one table of fixed CLI runs: each row maps an argv on the
files of PIN_FILES to its exit code, stdout and stderr. A row is checked once,
by TestPinnedBytes if cli._direct_args reads it, or else by TestArgparseBytes.
TestCollectorPause and TestDirectArgs run every row again for the properties
no single output shows.
"""

import contextlib
import gc
import io
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
    NotBipartiteError,
    NotCompleteBipartiteError,
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
from test_chained import k33_chain, random_chain_spec, renamed

EXAMPLE = "a b\na c\nb c\nb d\nc e\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def _edge_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


def _spec_text(sizes, overlap_parts):
    overlaps = [f"overlap {part}\n" for part in overlap_parts] + [""]
    return "".join(f"component {a} {b}\n{o}" for (a, b), o in zip(sizes, overlaps))


def _ring_of_k33s(k):
    """k K(3,3)s in a ring, each sharing the X vertex h<j+1> with the next."""
    return "".join(
        f"{x} b{j}_{t}\n"
        for j in range(k)
        for x in (f"h{j}", f"h{(j + 1) % k}", f"a{j}")
        for t in range(3)
    )


# Component sizes that are no decimal natural number.
BAD_SIZES = ["1_0", "+2", "-1", "²"]
# The files the pinned runs read, written once; a tuple stands for that
# command's stdout.
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
    # The ordering a b c d e of the example has imbalances 2, 1, 1, 1, 1.
    "example.txt": EXAMPLE,
    "example-order.txt": "a b c d e\n",
    "example-short.txt": "a b c d\n",
    "empty.txt": "",
    "lone.txt": "a\n",
    "pair.txt": "a\nb\n",
    "pair-order.txt": "b a\n",
    "edge.txt": "u v\n",
    "k22.txt": "x1 y1\nx1 y2\nx2 y1\nx2 y2\n",
    "k22-optimal.txt": "y1 x1 x2 y2\n",
    "k22-p1.txt": "x1 x2 y1 y2\n",
    "k22-short.txt": "y1 x1 x2\n",
    "k22-long.txt": "y1 x1 x2 y2 z\n",
    "k33.txt": _edge_text((f"x{i}", f"y{j}") for i in range(1, 4) for j in range(1, 4)),
    "p4.txt": "a b\nb c\nc d\n",
    "p40.txt": _edge_text((f"p{i}", f"p{i + 1}") for i in range(1, 40)),
    "triangle.txt": "a b\nb c\nc a\n",
    "c6.txt": "a b\nb c\nc d\nd e\ne f\nf a\n",
    "disc.txt": "a b\nc d\n",
    "bom.txt": "\ufeffx1 y1\nx1 y2\n",
    # Both end components have the overlap a as their smallest vertex.
    "tie.txt": "a y1\na y2\nc y1\nc y2\na z1\na z2\nb z1\nb z2\n",
    "ring.txt": _ring_of_k33s(4),
    "figure.txt": _edge_text(CHAINED_EDGES),  # the paper's figure
    "figure-spec.txt": "component 2 2\noverlap X\ncomponent 2 2\noverlap Y\ncomponent 2 3\n",
    "singleton-spec.txt": "component 1 2\noverlap X\ncomponent 2 2\n",
    "overlap-z-spec.txt": "component 2 2\noverlap Z\ncomponent 2 2\n",
    **{f"size{s}-spec.txt": f"component 2 2\noverlap X\ncomponent {s} 2\n" for s in BAD_SIZES},
    "arabic-spec.txt": "component ٣ 1\n",
    "zero-spec.txt": "component 0 2\n",
}

ARGPARSE = "argparse"  # ends a row that argparse reads, not cli._direct_args
PATH_REPORT = (0, "2\na\t1\nb\t0\nc\t1\n", "")
EXAMPLE_REPORT = (0, "6\na\t2\nb\t1\nc\t1\nd\t1\ne\t1\n", "")
NOT_DECIMAL = "error: expected a decimal natural number, got {!r}\n"
# A graph without edges has no two nonempty parts: exit 3, not 2.
NO_EDGES = (3, "", "error: graph is not a complete bipartite graph: it has no edges\n")
NO_VERTICES = (3, "", "error: not a chained complete bipartite graph: graph has no vertices\n")
NOT_COVERED = (2, "", "error: ordering does not cover exactly the bipartition's vertices\n")
FIGURE_REPORT = (
    "C1: X={x1,x2} Y={y1,y2}\nC2: X={x2,x3} Y={y3,y4}\nC3: X={x4,x5} Y={y4,y5,y6}\n"
    "s1 = x2 (X)\ns2 = y4 (Y)\n"
)
FIGURE_ORACLE = "6\nx1 y1 y2 x2 y3 x3 y4 x4 y5 x5 y6\n"
USAGE = "usage: biclique-imbalance [-h] {eval,solve,verify,decompose,oracle,gen} ...\n"
GEN_CHAINED_USAGE = (
    "usage: biclique-imbalance gen chained [-h] --spec SPEC [--shuffle-names SEED]\n"
)
ORACLE_USAGE = "usage: biclique-imbalance oracle [-h] [--max-n MAX_N] [--enumerate] graph\n"
# Each run's argv (file names stand for their paths) -> exit code, stdout,
# stderr, at a terminal width of 80 columns.
CLI_PINS = {
    "eval path.txt order.txt": (0, "2\n", ""),
    "eval path.txt order.txt -v": PATH_REPORT,
    "eval -v path.txt order.txt": PATH_REPORT,
    "eval -v tabs.txt order.txt": PATH_REPORT,
    "eval -v crlf.txt order.txt": PATH_REPORT,
    "eval path.txt repeat.txt": (2, "", "error: duplicate vertices in ordering: ['a']\n"),
    "eval example.txt example-order.txt": (0, "6\n", ""),
    "eval example.txt example-order.txt --verbose": EXAMPLE_REPORT,
    "eval example.txt example-order.txt -v": EXAMPLE_REPORT,
    "eval example.txt example-short.txt": (
        2, "", "error: ordering does not cover exactly the graph's vertices\n"
    ),
    "eval k22.txt k22-optimal.txt": (0, "4\n", ""),
    "eval pair.txt pair-order.txt": (0, "0\n", ""),
    "eval pair.txt pair-order.txt -v": (0, "0\nb\t0\na\t0\n", ""),
    "eval empty.txt empty.txt -v": (0, "0\n", ""),
    "solve complete --parts 3 3": (0, "10\n", ""),
    "solve complete --parts 4 9": (0, "36\n", ""),
    "solve complete --parts ٣ 3": (0, "10\n", ""),
    "solve complete --parts ² 3": (2, "", NOT_DECIMAL.format("²")),
    "solve complete --parts 0 4": (2, "", "error: part sizes must be at least 1, got (0, 4)\n"),
    "solve complete --parts -3 4": (2, "", NOT_DECIMAL.format("-3"), ARGPARSE),
    "solve complete": (2, "", "error: solve complete needs a graph file or --parts NX NY\n"),
    "solve complete k22.txt --parts 2 2": (
        2, "", "error: solve complete takes a graph file or --parts NX NY, not both\n"
    ),
    "solve complete k22.txt": (0, "4\ny1 x1 x2 y2\n", ""),
    "solve complete k23.txt": (0, "6\nx1 y1 y2 y3 x2\n", ""),
    "solve complete p4.txt": (3, "", "error: graph is not a complete bipartite graph\n"),
    "solve complete empty.txt": NO_EDGES,
    "solve complete lone.txt": NO_EDGES,
    "solve complete pair.txt": NO_EDGES,
    "solve chained chain.txt": (0, "4\nx1 y1 y2 x2 y3 y4 x3\n", ""),
    "solve chained gen.txt": (0, "6\nx1 y1 x2 y2 x5 x4 y3 x3\n", ""),
    "solve chained gen6.txt": (0, "18\nx1 y1 x2 y2 x3 y3 x4 y4 x6 y5 x7 y6 x5\n", ""),
    "solve chained figure.txt": (0, "6\nx1 y1 y2 x2 y3 x3 y4 x5 y5 y6 x4\n", ""),
    "solve chained bom.txt": (0, "2\ny1 x1 y2\n", ""),
    "solve chained disc.txt": (3, "", "error: graph is not connected (c unreachable)\n"),
    "solve chained ring.txt": (
        3, "",
        "error: not a chained complete bipartite graph: "
        "the component entered through h0 meets an earlier one at h3\n",
    ),
    "solve chained empty.txt": NO_VERTICES,
    "verify k23.txt k23-optimal.txt": (0, "optimal\n", ""),
    "verify k23.txt k23-p1.txt": (0, "not-optimal property=P1 achieved=12 minimum=6\n", ""),
    "verify k22.txt k22-optimal.txt": (0, "optimal\n", ""),
    "verify k22.txt k22-p1.txt": (0, "not-optimal property=P1 achieved=8 minimum=4\n", ""),
    "verify k22.txt k22-short.txt": NOT_COVERED,
    "verify k22.txt k22-long.txt": NOT_COVERED,
    "verify triangle.txt order.txt": (3, "", "error: graph is not bipartite; odd cycle: b a c\n"),
    "verify empty.txt empty.txt": NO_EDGES,
    "verify lone.txt lone.txt": NO_EDGES,
    "verify pair.txt pair.txt": NO_EDGES,
    "decompose k22.txt": (0, "C1: X={x1,x2} Y={y1,y2}\n", ""),
    "decompose chain.txt": (
        0, "C1: X={x1,x2} Y={y1,y2}\nC2: X={x2,x3} Y={y3,y4}\ns1 = x2 (X)\n", ""
    ),
    "decompose figure.txt": (0, FIGURE_REPORT, ""),
    "decompose k33.txt": (0, "C1: X={x1,x2,x3} Y={y1,y2,y3}\n", ""),
    "decompose tie.txt": (
        0, "C1: X={a,c} Y={y1,y2}\nC2: X={a,b} Y={z1,z2}\ns1 = a (X)\n", ""
    ),
    "decompose c6.txt": (
        3, "",
        "error: not a chained complete bipartite graph: "
        "the component entered through a meets an earlier one at e\n",
    ),
    "decompose empty.txt": NO_VERTICES,
    "oracle path.txt": (0, "2\na b c\n", ""),
    "oracle path.txt --enumerate": (0, "2\na b c\n2\n", ""),
    "oracle path.txt --max-n 10": (0, "2\na b c\n", ""),
    "oracle path.txt --max-n 10 --enumerate": (0, "2\na b c\n2\n", ""),
    "oracle --max-n 0 path.txt": (4, "", "error: 3 vertices exceeds the search cap of 0\n"),
    "oracle --enumerate chain.txt": (0, "4\nx1 y1 y2 x2 y3 x3 y4\n32\n", ""),
    "oracle k22.txt": (0, "4\nx1 y1 x2 y2\n", ""),
    "oracle k23.txt --enumerate": (0, "6\nx1 y1 y2 x2 y3\n48\n", ""),
    "oracle edge.txt --enumerate": (0, "2\nu v\n2\n", ""),
    "oracle edge.txt --max-n 0": (4, "", "error: 2 vertices exceeds the search cap of 0\n"),
    "oracle edge.txt --max-n abc": (2, "", NOT_DECIMAL.format("abc")),
    "oracle edge.txt --max-n -1": (2, "", NOT_DECIMAL.format("-1"), ARGPARSE),
    "oracle figure.txt": (4, "", "error: 11 vertices exceeds the search cap of 10\n"),
    "oracle figure.txt --max-n 11": (0, FIGURE_ORACLE, ""),
    "oracle figure.txt --max-n 11 --enumerate": (0, FIGURE_ORACLE + "64\n", ""),
    "oracle p40.txt --max-n 40": (
        4, "", "error: 1099511627776 twin-class states exceeds the table cap of 4194304\n"
    ),
    "gen complete 2 2": (0, "x1 y1\nx1 y2\nx2 y1\nx2 y2\n", ""),
    "gen complete 2 3": (0, "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\n", ""),
    "gen complete 3 ²": (2, "", NOT_DECIMAL.format("²")),
    "gen complete 0 3": (2, "", "error: part sizes must be at least 1\n"),
    "gen chained --spec spec.txt": (
        0,
        "x1 y1\nx1 y2\nx2 y1\nx2 y2\nx3 y2\nx3 y3\nx4 y2\nx4 y3\nx5 y2\nx5 y3\n",
        "C1: X={x1,x2} Y={y1,y2}\nC2: X={x3,x4,x5} Y={y2,y3}\ns1 = y2 (Y)\n",
    ),
    "gen chained --spec spec.txt --shuffle-names 7": (
        0,
        "v1 v2\nv1 v6\nv2 v3\nv2 v5\nv2 v7\nv2 v8\nv3 v6\nv4 v7\nv4 v8\nv5 v6\n",
        "C1: X={v1,v3,v5} Y={v2,v6}\nC2: X={v7,v8} Y={v2,v4}\ns1 = v2 (Y)\n",
    ),
    "gen chained --spec spec6.txt": (
        0,
        "x1 y1\nx1 y2\nx1 y3\nx2 y1\nx2 y2\nx2 y3\nx3 y1\nx3 y2\nx3 y3\nx4 y3\n"
        "x4 y4\nx5 y4\nx5 y5\nx5 y6\nx6 y4\nx6 y5\nx6 y6\nx7 y4\nx7 y5\nx7 y6\n",
        "C1: X={x1,x2,x3} Y={y1,y2,y3}\nC2: X={x4} Y={y3,y4}\n"
        "C3: X={x5,x6,x7} Y={y4,y5,y6}\ns1 = y3 (Y)\ns2 = y4 (Y)\n",
    ),
    "gen chained --spec figure-spec.txt": (
        0,
        "x1 y1\nx1 y2\nx2 y1\nx2 y2\nx2 y3\nx2 y4\nx3 y3\nx3 y4\n"
        "x4 y4\nx4 y5\nx4 y6\nx5 y4\nx5 y5\nx5 y6\n",
        FIGURE_REPORT,
    ),
    "gen chained --spec singleton-spec.txt": (
        3, "", "error: overlap 1 in part X needs component 1 to have X size >= 2, got 1\n"
    ),
    "gen chained --spec overlap-z-spec.txt": (
        2, "", "error: line 2: overlap line must be 'overlap X' or 'overlap Y': 'overlap Z'\n"
    ),
    **{
        f"gen chained --spec size{s}-spec.txt": (
            2,
            "",
            f"error: line 3: component sizes must be decimal natural numbers: 'component {s} 2'\n",
        )
        for s in BAD_SIZES
    },
    "gen chained --spec arabic-spec.txt": (0, "x1 y1\nx2 y1\nx3 y1\n", "C1: X={x1,x2,x3} Y={y1}\n"),
    "gen chained --spec zero-spec.txt": (3, "", "error: component 1 has an empty part: (0, 2)\n"),
    # Help and usage errors, which argparse prints.
    "": (
        2, "", USAGE + "biclique-imbalance: error: the following arguments are required: command\n",
        ARGPARSE,
    ),
    "-h": (
        0,
        USAGE + "\n"
        "Minimum-imbalance orderings of (chained) complete bipartite graphs.\n"
        "\npositional arguments:\n"
        "  {eval,solve,verify,decompose,oracle,gen}\n"
        "    eval                evaluate the imbalance of an ordering\n"
        "    solve               closed-form minimum imbalance\n"
        "    verify              check an ordering for optimality\n"
        "    decompose           report the chain decomposition\n"
        "    oracle              exhaustive search on a small graph\n"
        "    gen                 generate instance edge lists\n"
        "\noptions:\n"
        "  -h, --help            show this help message and exit\n",
        "", ARGPARSE,
    ),
    "solve -h": (
        0,
        "usage: biclique-imbalance solve [-h] {complete,chained} ...\n"
        "\npositional arguments:\n"
        "  {complete,chained}\n"
        "    complete          complete bipartite graph\n"
        "    chained           chained complete bipartite graph\n"
        "\noptions:\n"
        "  -h, --help          show this help message and exit\n",
        "", ARGPARSE,
    ),
    "solve complete -h": (
        0,
        "usage: biclique-imbalance solve complete [-h] [--parts NX NY] [graph]\n"
        "\npositional arguments:\n"
        "  graph\n"
        "\noptions:\n"
        "  -h, --help     show this help message and exit\n"
        "  --parts NX NY\n",
        "", ARGPARSE,
    ),
    "gen -h": (
        0,
        "usage: biclique-imbalance gen [-h] {complete,chained} ...\n"
        "\npositional arguments:\n"
        "  {complete,chained}\n"
        "\noptions:\n"
        "  -h, --help          show this help message and exit\n",
        "", ARGPARSE,
    ),
    "gen chained -h": (
        0,
        GEN_CHAINED_USAGE + "\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --spec SPEC\n"
        "  --shuffle-names SEED\n",
        "", ARGPARSE,
    ),
    "oracle -h": (
        0,
        ORACLE_USAGE + "\npositional arguments:\n"
        "  graph\n"
        "\noptions:\n"
        "  -h, --help     show this help message and exit\n"
        "  --max-n MAX_N\n"
        "  --enumerate\n",
        "", ARGPARSE,
    ),
    "solve sideways path.txt": (
        2, "",
        "usage: biclique-imbalance solve [-h] {complete,chained} ...\n"
        "biclique-imbalance solve: error: argument solve_kind: invalid choice: 'sideways'"
        " (choose from 'complete', 'chained')\n",
        ARGPARSE,
    ),
    "eval path.txt": (
        2, "",
        "usage: biclique-imbalance eval [-h] [-v] graph ordering\n"
        "biclique-imbalance eval: error: the following arguments are required: ordering\n",
        ARGPARSE,
    ),
    "oracle path.txt --max-n": (
        2, "",
        ORACLE_USAGE + "biclique-imbalance oracle: error: argument --max-n: expected one argument\n",
        ARGPARSE,
    ),
    "gen chained": (
        2, "",
        GEN_CHAINED_USAGE
        + "biclique-imbalance gen chained: error: the following arguments are required: --spec\n",
        ARGPARSE,
    ),
    "gen chained --spec s --shuffle-names x": (
        2, "",
        GEN_CHAINED_USAGE
        + "biclique-imbalance gen chained: error: argument --shuffle-names: invalid int value: 'x'\n",
        ARGPARSE,
    ),
    "decompose path.txt --bogus": (
        2, "", USAGE + "biclique-imbalance: error: unrecognized arguments: --bogus\n", ARGPARSE
    ),
}
DIRECT = [argv for argv, want in CLI_PINS.items() if want[3:] != (ARGPARSE,)]
BY_ARGPARSE = [argv for argv in CLI_PINS if argv not in DIRECT]


def _row_id(argv):
    return argv or "no-arguments"


@pytest.fixture(scope="module")
def pin_paths(tmp_path_factory):
    """The path of each file of PIN_FILES, written once for the module."""
    root, paths = tmp_path_factory.mktemp("pins"), {}
    for name, text in PIN_FILES.items():
        if isinstance(text, tuple):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main([paths.get(word, word) for word in text]) == 0
            text = out.getvalue()
        paths[name] = str(root / name)
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


@pytest.fixture
def run(capsys, monkeypatch, pin_paths):
    """Runs main on words, where a name in PIN_FILES stands for its path:
    exit code, stdout, stderr. A SystemExit that argparse raises gives its code."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    def _run(*words):
        try:
            code = main([pin_paths.get(word, word) for word in words])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def pinned(run):
    """Checks one row of CLI_PINS."""
    def check(argv):
        code, out, err = CLI_PINS[argv][:3]
        # argparse up to 3.13.0 quotes the choices of an invalid choice; 3.13.13 does not.
        unquoted = err.replace("'complete', 'chained'", "complete, chained")
        assert run(*argv.split()) in [(code, out, err), (code, out, unquoted)]

    return check


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
    def test_undecodable_file(self, run, files, argv):
        bad = files["bad.txt"]
        assert run(*(files.get(a, a) for a in argv)) == (
            2,
            "",
            f"error: cannot read {bad}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        )

    def test_missing_file(self, run, files):
        nope = files["nope"]
        for graph in (files["g.txt"], nope):  # a missing ordering, then a missing graph
            assert run("eval", graph, nope) == (
                2,
                "",
                f"error: cannot read {nope}: [Errno 2] No such file or directory: {nope!r}\n",
            )


class TestSolveComplete:
    def test_parts_arbitrary_precision(self, run):
        a = str(10**200 + 1)
        b = str(10**200 + 3)
        code, out, _ = run("solve", "complete", "--parts", a, b)
        assert code == 0
        assert out.strip() == str(int(a) * int(b) + 1)

    def test_parts_beyond_the_int_str_digit_limit(self, run):
        # 5,000-digit odd parts: the answer has 10,000 digits, past the 4,300
        # that Python 3.10.7+ converts by default.
        a = "1" + "234567890" * 555 + "1231"
        b = "9" + "876543210" * 555 + "9873"
        assert len(a) == len(b) == 5000
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run("solve", "complete", "--parts", a, b)
        assert (code, err) == (0, "")
        assert out.strip() == _schoolbook_product_plus_one(a, b)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_runs_on_an_interpreter_without_a_digit_limit(self, run, monkeypatch):
        # Before Python 3.10.7 sys has no int/str digit limit to lift.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert run("solve", "complete", "--parts", "3", "3") == (0, "10\n", "")


class TestSolveChained:
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
            (
                lambda full: [full[-1], *full[1:-1], full[0]],
                "internal error: component subordering does not run from ",
            ),
            (
                lambda full: [*full[:2], full[1], *full[3:]],
                "internal error: component subordering does not cover the component exactly\n",
            ),
        ],
        ids=[
            "suboptimal layout",
            "layout missing a vertex",
            "layout with its ends swapped",
            "layout repeating a vertex in place of another",
        ],
    )
    def test_layout_that_fails_the_self_check_exits_5_and_prints_nothing(
        self, run, monkeypatch, damage, message
    ):
        fill_runs = chained._fill_runs
        monkeypatch.setattr(
            chained, "_fill_runs", lambda a, b, same: damage(fill_runs(a, b, same))
        )
        code, out, err = run("solve", "chained", "figure.txt")
        assert (code, out) == (5, "")
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_prints_the_library_construction(self, run, write, seed):
        # The command orders tokens that the parsed graph checked; the library
        # call on a hand-built copy of the decomposition checks them again.
        if seed is None:
            text = _edge_text(CHAINED_EDGES)
        else:
            rng = random.Random(seed)
            while (spec := random_chain_spec(rng, max_comps=6, max_total=60, max_part=6)) is None:
                pass
            g, _ = renamed(*generate_chained(spec), rng)
            text = _edge_text(g.edges())
        d = chained.decompose(parse_edge_list(text))
        code, out, err = run("solve", "chained", write("g.txt", text))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            str(chained.min_imbalance_chained(d)),
            " ".join(chained.construct_optimal_chained(chained.ChainDecomposition(*d))),
        ]


class TestCompletenessByEdgeCount:
    """bipartition colors every edge across its parts, so a graph is complete
    bipartite iff it has nx * ny edges. solve complete and verify decide by a
    certificate instead: Y = N(min V), every other vertex has neighbors Y, and
    there are |X| * |Y| edges. It gives the search's value; the search runs
    only on a graph that fails it, to name an odd cycle if there is one."""

    @staticmethod
    def _searched(g):
        """What the commands did before the certificate: the search, then the
        edge count."""
        b = bipartition(g)
        if g.edge_count != b.nx * b.ny:
            raise NotCompleteBipartiteError("graph is not a complete bipartite graph")
        return b

    @pytest.mark.parametrize("seed", range(20))
    def test_near_misses_agree_with_the_search(self, monkeypatch, seed):
        rng = random.Random(seed)
        a, b = rng.randint(2, 6), rng.randint(2, 6)
        xs, ys = [f"x{i}" for i in range(a)], [f"y{j}" for j in range(b)]
        complete = [(x, y) for x in xs for y in ys]
        rng.shuffle(complete)
        cases = {
            "complete": complete,
            "duplicated edge lines": complete + rng.sample(complete, 3),
            "one edge missing": complete[1:] + [complete[0][:1], complete[0][1:]],
            "an edge inside X": complete + [(xs[0], xs[-1])],
            "a pendant vertex": complete + [(rng.choice(xs + ys), "p")],
            "an isolated smallest vertex": complete + [("a",)],
            "an isolated vertex": complete + [("z",)],
            # x0 = min V sees all of Y and every x sees only Y, but y0-y1
            # closes a triangle: only the edge count fails the certificate.
            "an odd cycle behind a complete-looking min V": complete + [(ys[0], ys[1])],
        }
        for name, lines in cases.items():
            g = parse_edge_list("".join(" ".join(line) + "\n" for line in lines))
            try:
                want = self._searched(g)
            except (NotBipartiteError, NotCompleteBipartiteError) as exc:
                with pytest.raises(type(exc)) as got:
                    cli._complete_bipartition(g)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), name
                continue
            assert name in ("complete", "duplicated edge lines")
            # The certificate alone accepts it: the search is not run.
            with monkeypatch.context() as m:
                m.setattr(cli, "bipartition", None)
                assert cli._complete_bipartition(g) == want, name

    @staticmethod
    def _k(rng, a, b, tag):
        edges = [(f"{tag}x{i}", f"{tag}y{j}") for i in range(a) for j in range(b)]
        return [e[:: rng.choice((1, -1))] for e in edges]

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_count_decides_and_the_commands_agree(self, run, write, seed):
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
            solved = run("solve", "complete", gf)
            verified = run("verify", gf, of)
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


class TestOracle:
    def test_enumerate_large_star(self, run, write):
        g = write("star.txt", "".join(f"x1 y{i}\n" for i in range(1, 1201)))
        code, out, _ = run("oracle", g, "--max-n", "1201", "--enumerate")
        assert code == 0
        minimum, witness, count = out.splitlines()
        assert minimum == "1200"
        assert witness.split()[600] == "x1"
        assert count == str(math.factorial(1200))


class TestGen:
    def test_shuffle_names_is_deterministic(self, run):
        _, out1, _ = run("gen", "chained", "--spec", "spec.txt", "--shuffle-names", "7")
        _, out2, _ = run("gen", "chained", "--spec", "spec.txt", "--shuffle-names", "7")
        _, out3, _ = run("gen", "chained", "--spec", "spec.txt", "--shuffle-names", "8")
        assert out1 == out2
        assert out1 != out3

    def test_prints_only_the_sorted_edges(self, run, write):
        # Both parts of every component are nonempty, so each vertex has an
        # edge: the edge lines name them all, and no line is a lone vertex.
        rng, specs = random.Random(30), []
        while len(specs) < 20:
            specs += filter(None, [random_chain_spec(rng, max_comps=6, max_total=60, max_part=6)])
        for n, spec in enumerate(specs):
            path = write(f"spec{n}.txt", _spec_text(*spec))
            g, _ = generate_chained(spec)
            names = sorted(g.vertices)
            fresh = [f"v{k}" for k in range(1, len(names) + 1)]
            random.Random(n).shuffle(fresh)
            for options, new_names in {(): names, ("--shuffle-names", str(n)): fresh}.items():
                m = dict(zip(names, new_names))
                code, out, _ = run("gen", "chained", "--spec", path, *options)
                lines = [line.split() for line in out.splitlines()]
                assert code == 0 and {len(tokens) for tokens in lines} == {2}
                assert lines == sorted(sorted([m[u], m[v]]) for u, v in g.edges())

    def test_spec_size_beyond_the_int_str_digit_limit_is_read_exactly(self, run, write):
        size = "1" + "234567890" * 555 + "1231"
        assert len(size) == 5000
        spec = write("big.txt", f"component {size} 0\n")
        assert run("gen", "chained", "--spec", spec) == (
            3,
            "",
            f"error: component 1 has an empty part: ({size}, 0)\n",
        )


class TestRepeatedCalls:
    """One process, several main calls: no option leaks into the next call."""

    def test_options_do_not_carry_over(self, capsys, run, pinned, pin_paths):
        pinned("eval example.txt example-order.txt -v")
        pinned("eval example.txt example-order.txt")
        # argparse reads the abbreviated flag; the next, plain call leaves it out.
        assert run("eval", "--verb", "example.txt", "example-order.txt") == EXAMPLE_REPORT
        pinned("eval example.txt example-order.txt")
        g, o = pin_paths["example.txt"], pin_paths["example-order.txt"]
        assert main(("eval", "-v", g, o)) == 0 and capsys.readouterr().out.startswith("6\na\t2\n")
        assert main(("eval", g, o)) == 0 and capsys.readouterr().out == "6\n"

        assert run("oracle", "--enumerate", "k22.txt") == (0, "4\nx1 y1 x2 y2\n16\n", "")
        pinned("oracle k22.txt")

        pinned("gen chained --spec spec.txt --shuffle-names 7")
        pinned("gen chained --spec spec.txt")


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
        # The closed form. g(s, C) of an overlap s in part X is C's |Y|, and
        # the two overlap terms of s add up to -2 min(g(s, C_i), g(s, C_i+1)).
        closed_form = sum(a * b + a % 2 * (b % 2) for a, b in sizes) - 2 * sum(
            min(sizes[i][k], sizes[i + 1][k]) for i, k in enumerate(map("YX".index, overlap_parts))
        )

        spec = write("spec.txt", _spec_text(sizes, overlap_parts))
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
            spec_path = tmp_path / "spec.txt"
            spec_path.write_text(_spec_text(spec.sizes, spec.overlap_parts), encoding="utf-8")

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


class TestPinnedBytes:
    """test_run checks the rows that cli._direct_args reads; the other tests
    run main_exit, through `python -m`."""

    @pytest.mark.parametrize("argv", DIRECT)
    def test_run(self, pinned, argv):
        pinned(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            "solve complete --parts 3 3",
            "eval path.txt repeat.txt",
            "-h",
            "solve sideways path.txt",
            "oracle path.txt --enumerate",
            "solve chained disc.txt",
            "oracle edge.txt --max-n 0",
        ],
    )
    def test_module_entry_point_matches_main(self, run, pin_paths, argv):
        # `python -m` runs the module's __main__ guard, and so main_exit.
        words = [pin_paths.get(word, word) for word in argv.split()]
        cmd = [sys.executable, "-m", "biclique_imbalance.cli", *words]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(*words)

    @pytest.mark.parametrize("words", [["-h"], ["gen", "complete", "2000", "2000"]], ids=" ".join)
    def test_a_closed_pipe_exits_1_with_empty_stderr(self, words):
        # The pipe's read end is closed before the child starts: no race.
        read_end, write_end = os.pipe()
        os.close(read_end)
        cmd = [sys.executable, "-m", "biclique_imbalance.cli", *words]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        try:
            proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestArgparseBytes:
    """test_run checks the rows that argparse reads."""

    @pytest.mark.parametrize("argv", BY_ARGPARSE, ids=_row_id)
    def test_run(self, pinned, argv):
        pinned(argv)


def _leaves(node=cli._GRAMMAR, words=()):
    """Each leaf command of cli._GRAMMAR: its words, how many positionals a
    plain argv gives, and its option spellings with the number of values each takes."""
    if isinstance(node[0], str):  # a group
        for word, (_, child) in node[1].items():
            yield from _leaves(child, (*words, word))
        return
    _, positionals, options = node
    yield words, len(positionals), [
        (flag, 0 if kw.get("action") == "store_true" else kw.get("nargs") or 1)
        for flags, kw in options.items()
        for flag in flags
    ]


VALUES = ["x", "", "-1", "-", "--", "-x", "a b", "٣", "+7", "7_0"]


def _leaf_argvs(words, n_pos, options):
    """Every interleaving of the positionals with each subset of the options,
    each value slot drawn from VALUES in turn (the others "x"); then the plain
    argv with all options, varied: an option repeated, a long one abbreviated
    by its last two characters, in its "=" form or short of a value, a
    positional too few or too many, "-h" in every slot, and as a tuple."""
    words = list(words)
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
        if flag.startswith("--"):
            yield plain[:i] + [flag[:-2]] + plain[i + 1 :]
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
        argvs += [argv for leaf in _leaves() for argv in _leaf_argvs(*leaf)]
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

    @pytest.mark.parametrize("argv", DIRECT)
    def test_plain_argv_does_not_build_the_parser(self, run, pin_paths, monkeypatch, argv):
        def build():
            raise AssertionError("argparse parsed a plain argv")

        monkeypatch.setattr(cli, "_build_parser", build)
        assert run(*argv.split())[0] == CLI_PINS[argv][0]
        words = tuple(pin_paths.get(word, word) for word in argv.split())
        assert cli._direct_args(words) is not None


# Run in a fresh interpreter as: python -c RUN_PROBE SRC ARGV_LISTS_JSON. Prints
# the hash of a fixed string, then one JSON line per argv: the argv, its exit
# code, stdout and stderr, and what a full collection found after it. The
# collector is off, and a full collection also runs before each argv. Little
# outlives the import in a fresh interpreter, so a full collection there
# costs about a millisecond, where the test process's heap makes it cost ten.
RUN_PROBE = """
import contextlib, gc, io, json, sys
sys.path.insert(0, sys.argv[1])
from biclique_imbalance.cli import main
gc.disable()
print(hash("biclique"))
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue(), err.getvalue(), gc.collect()]))
"""


class TestCollectorPause:
    """main pauses the cyclic collector and lifts the int/str digit limit while
    a command runs, and gives both back as the caller had them."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        if not request.param:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.fixture
    def digit_limit(self):
        """Sets an int/str digit limit that is no default, and gives it (None
        where sys has no limit); the old limit is set back afterwards."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is None:
            yield None
            return
        sys.set_int_max_str_digits(5001)
        yield 5001
        sys.set_int_max_str_digits(limit)

    @staticmethod
    def _caller_state():
        return gc.isenabled(), getattr(sys, "get_int_max_str_digits", lambda: None)()

    @pytest.mark.parametrize("argv", CLI_PINS, ids=_row_id)
    def test_main_restores_the_callers_state(self, run, collecting, digit_limit, argv):
        assert run(*argv.split())[0] == CLI_PINS[argv][0]
        assert self._caller_state() == (collecting, digit_limit)

    def test_a_bug_in_a_command_propagates(self, collecting, digit_limit, monkeypatch, pin_paths):
        # _run turns only the package's errors and ValueError into exit codes.
        def bug(args):
            raise KeyError("bug")

        help_text, (_, positionals, options) = cli._GRAMMAR[1]["decompose"]
        monkeypatch.setitem(cli._GRAMMAR[1], "decompose", (help_text, (bug, positionals, options)))
        with pytest.raises(KeyError, match="bug"):
            main(["decompose", pin_paths["k22.txt"]])
        assert self._caller_state() == (collecting, digit_limit)

    @pytest.fixture(scope="class")
    def cycles_left(self, pin_paths):
        """Each row that argparse does not read: its exit code and what a full
        collection found after it, from one run of RUN_PROBE."""
        argvs = [[pin_paths.get(word, word) for word in argv.split()] for argv in DIRECT]
        cmd = [sys.executable, "-c", RUN_PROBE, str(SRC), json.dumps(argvs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        probed = map(json.loads, proc.stdout.splitlines()[1:])
        return {argv: [line[1], line[4]] for argv, line in zip(DIRECT, probed)}

    @pytest.mark.parametrize("argv, code", [(argv, CLI_PINS[argv][0]) for argv in DIRECT])
    def test_a_command_leaves_no_cycles_to_collect(self, cycles_left, argv, code):
        # The premise of the pause: what a command leaves behind is freed by
        # reference counting alone.
        assert cycles_left[argv] == [code, 0]

    def test_no_collection_starts_while_a_large_chain_is_solved(self, capsys, write):
        chain = write("chain.txt", _edge_text(k33_chain(4000)[0].edges()))
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
    def test_cli_loads_only_what_its_commands_use(self, pin_paths):
        names = ("k23.txt", "figure.txt", "k23-optimal.txt")
        graph, chain, ordering = (pin_paths[name] for name in names)
        cmd = [sys.executable, "-I", "-c", COLD_START_PROBE, str(SRC), graph, chain, ordering]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "unused modules loaded: []"


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
            cmd = [sys.executable, "-c", RUN_PROBE, str(SRC), json.dumps(commands)]
            env = {**os.environ, "PYTHONHASHSEED": seed}
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.splitlines())
        hashes = {lines[0] for lines in runs}
        assert len(hashes) == 3, "the hash seeds did not take effect"
        results = [lines[1:] for lines in runs]
        assert results[0] == results[1] == results[2]
        codes = [json.loads(line)[1] for line in results[0]]
        assert codes == [0, 0, 0, 0, 0, 3, 3, 3]
