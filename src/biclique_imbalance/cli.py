"""Command-line front end.

Subcommands: eval, solve complete, solve chained, verify, decompose, oracle,
gen. Data goes to stdout, diagnostics to stderr. A command exits 0, or with
the `exit_code` of the error it raised (`errors.py` lists them). `main` pauses
the cyclic garbage collector while a command runs, and turns it back on only
if it was on.

`_GRAMMAR` states the commands once. `_direct_args` reads a plain argv from it
into the namespace argparse would make; argparse is imported, and its parser
built from the same table, only for help, usage errors and unusual spellings.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import types

from . import errors
from .chained import (
    construct_optimal_chained,
    decompose,
    format_decomposition,
    generate_chained,
    min_imbalance_chained,
    parse_chain_spec,
)
from .complete import (
    construct_optimal_complete,
    min_imbalance_formula,
    verify_optimal_complete,
)
from .errors import GraphParseError, NotCompleteBipartiteError
from .graph import (
    Bipartition,
    Graph,
    bipartition,
    parse_edge_list,
    parse_ordering,
    vertex_imbalances,
)
from .oracle import DEFAULT_CAP, brute_force_min

# The package's errors, each with its exit code, and a bare ValueError (exit 2).
_ERRORS = (ValueError, *(getattr(errors, name) for name in errors.__all__))
_GEN_BLOCK = 4096  # the most lines that gen complete writes at once


def _read(path: str) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stick to the first token.
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _complete_bipartition(g: Graph):
    # K(n, 0) is complete bipartite, but the commands need two parts.
    if not g.edge_count:
        raise NotCompleteBipartiteError(
            "graph is not a complete bipartite graph: it has no edges"
        )
    # g is complete bipartite iff it is K(X, Y) with Y = N(min V): each x in
    # X = V - Y has N(x) = Y, and there is no other edge. That is the search's
    # value, as it colors min V as X; it runs only to report an odd cycle.
    y = g._adj[min(g._adj)]
    x = g.vertices - y
    if len(x) * len(y) == g.edge_count and all(g._adj[v] == y for v in x):
        return Bipartition(x, y)
    bipartition(g)
    raise NotCompleteBipartiteError("graph is not a complete bipartite graph")


def _parse_nat(text: str, read=int):
    # Exactly the digits int() and Decimal() read: '٣' is one, '²' is not.
    if not text.isdecimal():
        raise GraphParseError(f"expected a decimal natural number, got {text!r}")
    try:
        return read(text)
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise GraphParseError(f"number too long: {exc}") from None


def _cmd_eval(args) -> None:
    g = _load_graph(args.graph)
    o = parse_ordering(_read(args.ordering))
    per_vertex = vertex_imbalances(o, g)
    report = [str(sum(per_vertex))]
    if args.verbose:
        report += map("{}\t{}".format, o, per_vertex)
    print("\n".join(report))


def _cmd_solve_complete(args) -> None:
    if args.parts is not None:
        if args.graph is not None:
            raise GraphParseError("solve complete takes a graph file or --parts NX NY, not both")
        # decimal reads, multiplies and prints in near-linear time; traps make rounding an error.
        from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
        nx_size, ny_size = (_parse_nat(text, Decimal) for text in args.parts)
        with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])):
            print(min_imbalance_formula(nx_size, ny_size))
        return
    if args.graph is None:
        raise GraphParseError("solve complete needs a graph file or --parts NX NY")
    b = _complete_bipartition(_load_graph(args.graph))
    print(min_imbalance_formula(len(b.x_part), len(b.y_part)))
    print(" ".join(construct_optimal_complete(b)))


def _cmd_solve_chained(args) -> None:
    g = _load_graph(args.graph)
    d = decompose(g)
    print(min_imbalance_chained(d), " ".join(construct_optimal_chained(d)), sep="\n")


def _cmd_verify(args) -> None:
    g = _load_graph(args.graph)
    o = parse_ordering(_read(args.ordering))
    b = _complete_bipartition(g)
    verdict = verify_optimal_complete(o, b)
    if verdict.optimal:
        print("optimal")
    else:
        print(
            f"not-optimal property={verdict.failed_property} "
            f"achieved={verdict.achieved} minimum={verdict.minimum}"
        )


def _cmd_decompose(args) -> None:
    g = _load_graph(args.graph)
    print(format_decomposition(decompose(g)))


def _cmd_oracle(args) -> None:
    g = _load_graph(args.graph)
    cap = _parse_nat(args.max_n) if args.max_n is not None else DEFAULT_CAP
    result = brute_force_min(g, cap=cap, count_optima=args.enumerate)
    print(result.minimum, " ".join(result.witness), sep="\n")
    if args.enumerate:
        try:
            print(result.optima_count)
        except ValueError:  # str() of an int past the interpreter's digit limit
            from decimal import Decimal  # converts without that limit
            print(Decimal(result.optima_count))


def _cmd_gen_complete(args) -> None:
    nx_size, ny_size = map(_parse_nat, (args.nx, args.ny))
    if nx_size < 1 or ny_size < 1:
        raise GraphParseError("part sizes must be at least 1")
    # One write per block of up to _GEN_BLOCK lines of a row: "x{i}" joins the
    # block's line tails. The first block's tails are built once.
    def tails(j):
        return [f" y{k}\n" for k in range(j, min(j + _GEN_BLOCK, ny_size + 1))]
    first = tails(1)
    for i in range(1, nx_size + 1):
        x = f"x{i}"
        for j in range(1, ny_size + 1, _GEN_BLOCK):
            sys.stdout.write(x + x.join(first if j == 1 else tails(j)))


def _cmd_gen_chained(args) -> None:
    graph, _ = generate_chained(parse_chain_spec(_read(args.spec)))
    if args.shuffle_names is not None:
        names = sorted(graph.vertices)
        fresh = [f"v{k}" for k in range(1, len(names) + 1)]
        import random  # only this option needs it
        random.Random(args.shuffle_names).shuffle(fresh)
        mapping = dict(zip(names, fresh))
        graph = Graph((), ((mapping[u], mapping[v]) for u, v in graph.edges()))
    print("\n".join(map(" ".join, graph.edges())))
    # Sidecar report: re-derived from the emitted graph so names and chain
    # orientation always agree with what was printed.
    print(format_decomposition(decompose(graph)), file=sys.stderr)


# The command grammar, stated once. A group is (dest, {word: (help, node)});
# a word without help gets no line of its own in its group's -h. A leaf is
# (handler, positionals, {option strings: add_argument keywords}); a
# positional ending in "?" may be left out.
_GRAMMAR = ("command", {
    "eval": ("evaluate the imbalance of an ordering", (_cmd_eval, ("graph", "ordering"), {
        ("-v", "--verbose"): {"dest": "verbose", "action": "store_true"},
    })),
    "solve": ("closed-form minimum imbalance", ("solve_kind", {
        "complete": ("complete bipartite graph", (_cmd_solve_complete, ("graph?",), {
            ("--parts",): {"dest": "parts", "nargs": 2, "metavar": ("NX", "NY")},
        })),
        "chained": ("chained complete bipartite graph", (_cmd_solve_chained, ("graph",), {})),
    })),
    "verify": ("check an ordering for optimality", (_cmd_verify, ("graph", "ordering"), {})),
    "decompose": ("report the chain decomposition", (_cmd_decompose, ("graph",), {})),
    "oracle": ("exhaustive search on a small graph", (_cmd_oracle, ("graph",), {
        ("--max-n",): {"dest": "max_n"},
        ("--enumerate",): {"dest": "enumerate", "action": "store_true"},
    })),
    "gen": ("generate instance edge lists", ("kind", {
        "complete": (None, (_cmd_gen_complete, ("nx", "ny"), {})),
        "chained": (None, (_cmd_gen_chained, (), {
            ("--spec",): {"dest": "spec", "required": True},
            ("--shuffle-names",): {"dest": "shuffle_names", "type": int, "metavar": "SEED"},
        })),
    })),
})


def _direct_args(argv: list) -> types.SimpleNamespace | None:
    """The namespace argparse makes from a plain argv: str words, subcommands
    and options spelled out, no option twice, no value or positional that
    starts with "-". None for any other argv, which argparse then reads."""
    if not all(isinstance(word, str) for word in argv):
        return None
    found, node, words = {}, _GRAMMAR, iter(argv)
    while isinstance(node[0], str):  # a group
        found[node[0]] = word = next(words, None)
        if word not in node[1]:
            return None
        node = node[1][word][1]
    func, positionals, options = node
    by_flag = {flag: kw for flags, kw in options.items() for flag in flags}
    # argparse's defaults; store_true is the only action in the grammar.
    found.update((kw["dest"], False if "action" in kw else None) for kw in options.values())
    given, seen = [], set()
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        kw = by_flag.get(word)
        if kw is None or kw["dest"] in seen:
            return None
        seen.add(kw["dest"])
        if "action" in kw:
            found[kw["dest"]] = True
            continue
        # A missing value reads as "-", which is left to argparse too.
        values = [next(words, "-") for _ in range(kw.get("nargs") or 1)]
        if any(value.startswith("-") for value in values):
            return None
        try:
            values = list(map(kw.get("type", str), values))
        except ValueError:
            return None
        found[kw["dest"]] = values if "nargs" in kw else values[0]
    names = [name.rstrip("?") for name in positionals]
    if not sum(not name.endswith("?") for name in positionals) <= len(given) <= len(names):
        return None
    if any(kw.get("required") and kw["dest"] not in seen for kw in options.values()):
        return None
    found.update(zip(names, given + [None] * (len(names) - len(given))))
    return types.SimpleNamespace(**found, func=func)


def _add_subcommands(parser, group) -> None:
    dest, children = group
    sub = parser.add_subparsers(dest=dest, required=True)
    for word, (help_text, node) in children.items():
        p = sub.add_parser(word, **({"help": help_text} if help_text else {}))
        if isinstance(node[0], str):
            _add_subcommands(p, node)
            continue
        func, positionals, options = node
        for name in positionals:
            p.add_argument(name.rstrip("?"), nargs="?" if name.endswith("?") else None)
        for flags, kw in options.items():
            p.add_argument(*flags, **kw)
        p.set_defaults(func=func)


# parse_args leaves the parser unchanged, so one parser serves every call.
@functools.cache
def _build_parser():
    import argparse  # only help, usage errors and unusual spellings need it

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse's own writer drops an OSError: let main_exit see a closed pipe.
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="biclique-imbalance",
        description="Minimum-imbalance orderings of (chained) complete bipartite graphs.",
    )
    _add_subcommands(parser, _GRAMMAR)
    return parser


def _run(args) -> int:
    try:
        args.func(args)
    except _ERRORS as exc:
        print(f"{getattr(exc, 'label', 'error')}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command makes no reference cycles, so pause the cyclic collector, whose
    # full passes rescan every container made so far. Restore it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(_direct_args(argv) or _build_parser().parse_args(argv))
    finally:
        if collecting:
            gc.enable()


def main_exit() -> None:
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: stop quietly, and point stdout at devnull
        # so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_exit()
