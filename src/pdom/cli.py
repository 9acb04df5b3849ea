"""Command-line surface: compute, enumerate, scan, and export.

Exit codes: 0 success, 1 scan found a failing pair, 2 parse error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from .conjecture import MAX_ENUM_ORDER, REPORT_HEADER, enumerate_graphs, scan_conjecture
from .domination import (
    all_minimum_sets,
    as_proportion,
    coverage_target,
    influencing_set,
    influencing_sweep,
    partial_domination_number,
)
from .formats import _decimal, _lines, parse_edge_list, parse_graph6, read_graph6_lines, write_dot, write_graph6
from .graphs import (
    Graph,
    VertexCapError,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    format_vertex_set,
    path,
    pendant_wheel_graph,
    star,
    subdivided_star,
    twin_broom_tree,
    twin_hub_graph,
)

EXIT_OK = 0
EXIT_SCAN_FAILURE = 1
EXIT_PARSE = 2
EXIT_CAP = 3

_GENERATORS = {  # name: (builder, number of integer arguments)
    "complete": (complete, 1),
    "complete-bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
    "subdivided-star": (subdivided_star, 1),
    "fig2": (twin_hub_graph, 0),
    "fig3": (pendant_wheel_graph, 0),
    "fig4": (twin_broom_tree, 0),
}


def parse_proportion(text: str) -> Fraction:
    """Exact 'num/den' only; decimals are rejected to keep p rational end to end."""
    m = re.fullmatch(r"([0-9]+)/([0-9]+)", text)
    if not m:
        raise ValueError(f"p must be written as num/den, got {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError("p cannot have denominator 0")
    return as_proportion(Fraction(num, den))


def graph_from_generator(spec: str) -> Graph:
    name, sep, argstr = spec.partition(":")
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r} (known: {', '.join(_GENERATORS)})")
    builder, arity = _GENERATORS[name]
    if sep and not arity:
        raise ValueError(f"generator {name} takes no arguments")
    tokens = argstr.split(",") if argstr else []
    if len(tokens) != arity:
        raise ValueError(f"generator {name} needs {arity} integer argument(s), got {len(tokens)}")
    try:
        args = [_decimal(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"generator arguments must be integers, got {argstr!r}") from None
    return builder(*args)


def _order_option(text: str) -> int:
    """argparse type for --max-order: ASCII digits, as the graph parsers read them."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_input_flags(cmd: argparse.ArgumentParser, suffix: str = "") -> None:
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--gen{suffix}", metavar="NAME[:ARGS]", help="generator spec, e.g. path:6 or fig3")
    group.add_argument(f"--g6{suffix}", metavar="GRAPH6", help="inline graph6 string")
    group.add_argument(f"--file{suffix}", metavar="PATH", help="graph file (.g6 for graph6, otherwise edge list)")


def _load_graph(args: argparse.Namespace, suffix: str = "") -> Graph:
    gen = getattr(args, f"gen{suffix}")
    g6 = getattr(args, f"g6{suffix}")
    file_path = getattr(args, f"file{suffix}")
    if gen is not None:
        return graph_from_generator(gen)
    if g6 is not None:
        return parse_graph6(g6)
    text = Path(file_path).read_bytes().decode()  # as written: no newline translation
    if file_path.endswith(".g6"):
        found = read_graph6_lines(text)
        if len(found) != 1:
            raise ValueError(f"{file_path} holds {len(found)} graphs; expected exactly one")
        return found[0]
    return parse_edge_list(text)


def _cmd_gamma(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    p = parse_proportion(args.p)
    result = partial_domination_number(g, p)
    covered = g.closed_neighborhood_of_set(result.witness).bit_count()
    print(f"gamma_p = {result.size}")
    print(f"witness = {format_vertex_set(result.witness)}")
    print(f"covered = {covered} of {g.order} (target {coverage_target(g.order, p)})")
    return EXIT_OK


def _cmd_influence(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.all_p:
        if g.order < 1:
            raise ValueError("--all-p needs at least one vertex")
        intersection = g.full_mask
        for k, found in enumerate(influencing_sweep(g), start=1):
            intersection &= found
            print(f"p={k}/{g.order} influencing = {format_vertex_set(found)}")
        print(f"intersection = {format_vertex_set(intersection)}")
    else:
        p = parse_proportion(args.p)
        print(f"influencing = {format_vertex_set(influencing_set(g, p))}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    p = parse_proportion(args.p)
    print("\n".join(map(format_vertex_set, all_minimum_sets(g, p).sets)))  # never empty
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.graphs is not None and args.include_disconnected:
        raise ValueError("--include-disconnected applies only to --max-order scans")
    p = parse_proportion(args.p)
    if args.graphs is not None:
        family = "external"
        text = Path(args.graphs).read_bytes().decode()
        members = read_graph6_lines(text)
        if not members:
            raise ValueError(f"{args.graphs} holds 0 graphs; expected at least one")
        for (lineno, _), g in zip(_lines(text), members):  # the lines read_graph6_lines read
            if not g.order:
                raise ValueError(f"{args.graphs}, line {lineno}: a scan factor needs at least one vertex, got order 0")
    else:
        if not 1 <= args.max_order <= MAX_ENUM_ORDER:
            raise ValueError(f"--max-order must be in 1..{MAX_ENUM_ORDER}, got {args.max_order}")
        family = "all" if args.include_disconnected else "connected"
        members = enumerate_graphs(args.max_order, connected=not args.include_disconnected)
    outcome = scan_conjecture(p, members)
    print(REPORT_HEADER)
    print(f"# family={family}")
    for report in outcome.failures:
        print(report.record())
    print(f"pairs={outcome.pairs}, failures={len(outcome.failures)}")
    return EXIT_SCAN_FAILURE if outcome.failures else EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    h = _load_graph(args, "2")
    product = cartesian_product(g, h)
    if args.dot:
        sys.stdout.write(write_dot(product))
    else:
        print(write_graph6(product))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdom", description="Partial domination toolkit for small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("gamma", help="minimum p-dominating set size and witness")
    _add_input_flags(cmd)
    cmd.add_argument("--p", required=True, metavar="NUM/DEN")
    cmd.set_defaults(func=_cmd_gamma)

    cmd = sub.add_parser("influence", help="union of all minimum p-dominating sets")
    _add_input_flags(cmd)
    mode = cmd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", metavar="NUM/DEN")
    mode.add_argument("--all-p", action="store_true", help="sweep p = k/n and print the intersection")
    cmd.set_defaults(func=_cmd_influence)

    cmd = sub.add_parser("enumerate", help="all minimum p-dominating sets, one per line")
    _add_input_flags(cmd)
    cmd.add_argument("--p", required=True, metavar="NUM/DEN")
    cmd.set_defaults(func=_cmd_enumerate)

    cmd = sub.add_parser("scan", help="product lower-bound scan over a graph family")
    source = cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--max-order", type=_order_option, metavar="N", help="enumerate graphs up to this order")
    source.add_argument("--graphs", metavar="PATH", help="graph6 file, one graph per line")
    cmd.add_argument("--include-disconnected", action="store_true", help="enumerate disconnected graphs too")
    cmd.add_argument("--p", required=True, metavar="NUM/DEN")
    cmd.set_defaults(func=_cmd_scan)

    cmd = sub.add_parser("product", help="Cartesian product of two graphs")
    _add_input_flags(cmd)
    _add_input_flags(cmd, "2")
    cmd.add_argument("--dot", action="store_true", help="write DOT instead of graph6")
    cmd.set_defaults(func=_cmd_product)

    return parser


_PARSER = build_parser()  # built once: building costs far more than a parse


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VertexCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
