"""Command-line surface tying the toolkit together.

Subcommands: analyze (per-vertex neighborhood statistics), filter (the
minimal-counterexample condition checks), product (the counterexample
multiplying construction), search (exhaustive / random sweeps) and
generate (one seeded random graph).

All structured output is JSON with sorted keys, so identical inputs give
byte-identical output except for the elapsed-time field.  Randomized
commands require an explicit --seed; there is no implicit entropy.

Exit codes: 0 success, 1 usage or input error, 2 a search found a graph
without a satisfactory vertex, whether or not it survived the filter (so
scripts notice).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

from .digraph import Digraph
from .errors import DigraphError
from .filtering import run_filter
from .product import build_product, is_valid_second_factor
from .search import (
    DEFAULT_CEILING,
    DEFAULT_MAX_RETRIES,
    RANDOM_MODELS,
    SearchSpec,
    random_graph,
    run_search,
)
from .textio import parse_digraph, write_digraph
from .version import __version__


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; exit 1 instead, 2 means 'counterexample found'."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps({"version": __version__, **payload}, indent=2, sort_keys=True))


def _read_graph(path: str) -> Digraph:
    return parse_digraph(Path(path).read_text())


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    profiles = g.profiles()
    rows = [
        {**asdict(p), "anti_satisfaction": p.anti_satisfaction, "satisfactory": p.satisfactory}
        for p in profiles
    ]
    satisfactory = [p.vertex for p in profiles if p.satisfactory]
    _emit(
        {
            "n": g.n,
            "m": g.m,
            "vertices": rows,
            "satisfactory_vertices": satisfactory,
            "satisfactory_count": len(satisfactory),
        }
    )
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    report = run_filter(g, short_circuit=not args.no_short_circuit)
    _emit({"n": g.n, "m": g.m, "report": report.as_dict()})
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    d_graph = _read_graph(args.file_d)
    h_graph = _read_graph(args.file_h)
    valid_second_factor = is_valid_second_factor(h_graph)
    if not valid_second_factor:
        print(
            "warning: second factor has a vertex with negative anti-satisfaction; "
            "the product need not preserve counterexamples",
            file=sys.stderr,
        )
    product, labeling = build_product(d_graph, h_graph)
    _write_text(args.output, write_digraph(product))
    if args.labels:
        lines = ["# product-vertex d-vertex h-vertex"]
        lines.extend(f"{pid} {d} {h}" for pid, (d, h) in labeling.pairs())
        _write_text(args.labels, "\n".join(lines) + "\n")
    _emit(
        {
            "d_vertices": d_graph.n,
            "h_vertices": h_graph.n,
            "product_vertices": product.n,
            "product_edges": product.m,
            "valid_second_factor": valid_second_factor,
            "output": args.output,
            "labels": args.labels,
        }
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    for flag in ("seed", "count", "model"):
        if args.mode == "random" and getattr(args, flag) is None:
            print(f"search --mode random requires an explicit --{flag}", file=sys.stderr)
            return 1
    spec = SearchSpec(
        mode=args.mode,
        n=args.n,
        model=args.model,
        p=args.p,
        count=args.count,
        seed=args.seed if args.seed is not None else 0,
        workers=args.workers,
        filter_enabled=not args.no_filter,
        ceiling=args.ceiling,
        max_retries=args.max_retries,
    )
    report = run_search(spec)
    _emit(report.as_dict())
    return 2 if report.counterexamples_found else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    g = random_graph(args.model, args.n, args.p, args.seed, args.max_retries)
    _write_text(args.output, write_digraph(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seymour", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="per-vertex neighborhood statistics")
    p_analyze.add_argument("file")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_filter = sub.add_parser("filter", help="minimal-counterexample condition checks")
    p_filter.add_argument("file")
    p_filter.add_argument("--no-short-circuit", action="store_true")
    p_filter.set_defaults(func=_cmd_filter)

    p_product = sub.add_parser("product", help="build the graph product D x H")
    p_product.add_argument("file_d")
    p_product.add_argument("file_h")
    p_product.add_argument("-o", "--output", required=True)
    p_product.add_argument("--labels")
    p_product.set_defaults(func=_cmd_product)

    p_search = sub.add_parser("search", help="exhaustive or random counterexample search")
    p_search.add_argument("--mode", choices=("exhaustive", "random"), required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--model", choices=RANDOM_MODELS)
    p_search.add_argument("--count", type=int)
    p_search.add_argument("--seed", type=int)
    p_search.add_argument("--p", type=float, help="edge probability (no default)")
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--no-filter", action="store_true")
    p_search.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p_search.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    p_search.set_defaults(func=_cmd_search)

    p_generate = sub.add_parser("generate", help="emit one seeded random graph")
    p_generate.add_argument("--model", choices=RANDOM_MODELS, required=True)
    p_generate.add_argument("--n", type=int, required=True)
    p_generate.add_argument("--seed", type=int, required=True)
    p_generate.add_argument(  # a one-off graph gets a default; a sweep must choose
        "--p", type=float, default=0.5, help="edge probability, default 0.5 (search has none)"
    )
    p_generate.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    p_generate.add_argument("-o", "--output", required=True)
    p_generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DigraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
