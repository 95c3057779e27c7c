"""Command-line front end.

Subcommands: eval, solve complete, solve chained, verify, decompose, oracle,
gen. Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 parse/format error, 3 structural rejection, 4 size cap exceeded,
5 internal construction-invariant violation. `main` pauses the cyclic garbage
collector while a command runs, and turns it back on only if it was on.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

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
from .errors import (
    ConstructionInvariantViolatedError,
    GraphParseError,
    NotBipartiteError,
    NotChainedError,
    NotCompleteBipartiteError,
    NotConnectedError,
    SizeCapExceededError,
    SpecInvalidError,
)
from .graph import (
    Graph,
    bipartition,
    parse_edge_list,
    parse_ordering,
    vertex_imbalances,
)
from .oracle import DEFAULT_CAP, brute_force_min

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURAL = 3
EXIT_SIZE_CAP = 4
EXIT_INTERNAL = 5

_STRUCTURAL = (
    NotBipartiteError,
    NotCompleteBipartiteError,
    NotConnectedError,
    NotChainedError,
    SpecInvalidError,
)


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
    # Every edge joins b's parts, so g is complete iff it has nx * ny edges.
    b = bipartition(g)
    if g.edge_count != b.nx * b.ny:
        raise NotCompleteBipartiteError("graph is not a complete bipartite graph")
    return b


def _parse_nat(text: str) -> int:
    # Exactly the digits int() reads: '٣' is one, '²' is not.
    if not text.isdecimal():
        raise GraphParseError(f"expected a decimal natural number, got {text!r}")
    return int(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    o = parse_ordering(_read(args.ordering))
    per_vertex = vertex_imbalances(o, g)
    report = [str(sum(per_vertex))]
    if args.verbose:
        report += map("{}\t{}".format, o, per_vertex)
    print("\n".join(report))
    return EXIT_OK


def _cmd_solve_complete(args: argparse.Namespace) -> int:
    if args.parts is not None:
        if args.graph is not None:
            raise GraphParseError("solve complete takes a graph file or --parts NX NY, not both")
        nx_size, ny_size = map(_parse_nat, args.parts)
        print(min_imbalance_formula(nx_size, ny_size))
        return EXIT_OK
    if args.graph is None:
        raise GraphParseError("solve complete needs a graph file or --parts NX NY")
    g = _load_graph(args.graph)
    b = _complete_bipartition(g)
    print(min_imbalance_formula(len(b.x_part), len(b.y_part)))
    print(" ".join(construct_optimal_complete(b)))
    return EXIT_OK


def _cmd_solve_chained(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    d = decompose(g)
    print(min_imbalance_chained(d), " ".join(construct_optimal_chained(d)), sep="\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    print(format_decomposition(decompose(g)))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cap = _parse_nat(args.max_n) if args.max_n is not None else DEFAULT_CAP
    result = brute_force_min(g, cap=cap, count_optima=args.enumerate)
    print(result.minimum)
    print(" ".join(result.witness))
    if args.enumerate:
        print(result.optima_count)
    return EXIT_OK


def _emit_edge_list(g: Graph) -> None:
    lines = sorted(v for v in g.vertices if g.degree(v) == 0)
    lines += map(" ".join, g.edges())
    print("\n".join(lines))


def _cmd_gen_complete(args: argparse.Namespace) -> int:
    nx_size, ny_size = map(_parse_nat, (args.nx, args.ny))
    if nx_size < 1 or ny_size < 1:
        raise GraphParseError("part sizes must be at least 1")
    # One write per row: "x{i}" joins the row's line tails.
    tails = [f" y{j}\n" for j in range(1, ny_size + 1)]
    for i in range(1, nx_size + 1):
        x = f"x{i}"
        sys.stdout.write(x + x.join(tails))
    return EXIT_OK


def _cmd_gen_chained(args: argparse.Namespace) -> int:
    spec = parse_chain_spec(_read(args.spec))
    graph, _ = generate_chained(spec)
    if args.shuffle_names is not None:
        names = sorted(graph.vertices)
        fresh = [f"v{k}" for k in range(1, len(names) + 1)]
        import random  # only this option needs it
        random.Random(args.shuffle_names).shuffle(fresh)
        mapping = dict(zip(names, fresh))
        graph = Graph((), ((mapping[u], mapping[v]) for u, v in graph.edges()))
    _emit_edge_list(graph)
    # Sidecar report: re-derived from the emitted graph so names and chain
    # orientation always agree with what was printed.
    print(format_decomposition(decompose(graph)), file=sys.stderr)
    return EXIT_OK


# parse_args leaves the parser unchanged, so one parser serves every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biclique-imbalance",
        description="Minimum-imbalance orderings of (chained) complete bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the imbalance of an ordering")
    p_eval.add_argument("graph")
    p_eval.add_argument("ordering")
    p_eval.add_argument("-v", "--verbose", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_solve = sub.add_parser("solve", help="closed-form minimum imbalance")
    solve_sub = p_solve.add_subparsers(dest="solve_kind", required=True)
    p_sc = solve_sub.add_parser("complete", help="complete bipartite graph")
    p_sc.add_argument("graph", nargs="?")
    p_sc.add_argument("--parts", nargs=2, metavar=("NX", "NY"))
    p_sc.set_defaults(func=_cmd_solve_complete)
    p_sch = solve_sub.add_parser("chained", help="chained complete bipartite graph")
    p_sch.add_argument("graph")
    p_sch.set_defaults(func=_cmd_solve_chained)

    p_verify = sub.add_parser("verify", help="check an ordering for optimality")
    p_verify.add_argument("graph")
    p_verify.add_argument("ordering")
    p_verify.set_defaults(func=_cmd_verify)

    p_dec = sub.add_parser("decompose", help="report the chain decomposition")
    p_dec.add_argument("graph")
    p_dec.set_defaults(func=_cmd_decompose)

    p_oracle = sub.add_parser("oracle", help="exhaustive search on a small graph")
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--max-n", default=None)
    p_oracle.add_argument("--enumerate", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate instance edge lists")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_gc = gen_sub.add_parser("complete")
    p_gc.add_argument("nx")
    p_gc.add_argument("ny")
    p_gc.set_defaults(func=_cmd_gen_complete)
    p_gch = gen_sub.add_parser("chained")
    p_gch.add_argument("--spec", required=True)
    p_gch.add_argument("--shuffle-names", type=int, default=None, metavar="SEED")
    p_gch.set_defaults(func=_cmd_gen_chained)

    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except _STRUCTURAL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except SizeCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except ConstructionInvariantViolatedError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    # A command makes no reference cycles, so pause the cyclic collector, whose
    # full passes rescan every container made so far. Answers are exact at any
    # size, so lift Python 3.10.7+'s int/str digit limit after parsing. Restore both.
    collecting = gc.isenabled()
    gc.disable()
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = _build_parser().parse_args(argv)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return _run(args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
