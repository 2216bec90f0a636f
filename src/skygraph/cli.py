"""Command-line interface: build a graph from a manifest, query it, and
report stats.

    skygraph build testbed/manifest.yaml --out graph.json
    skygraph query graph.json @queries/weak-transport-encryption.cypher
    skygraph stats graph.json
"""

from __future__ import annotations

import argparse
import sys
from operator import getitem
from pathlib import Path

from skygraph.build import build_graph, graph_counts, load_manifest, render_counts
from skygraph.errors import GraphError, QueryError, SkygraphError
from skygraph.graph import Path as GraphPath
from skygraph.graph import PropertyGraph, export_graph, import_graph
from skygraph.query import evaluate, parse_query
from skygraph.yamlfile import DEFAULT_STAR_MAX, check_positive_int, in_file, input_file


def render_path(graph: PropertyGraph, path: GraphPath) -> str:
    """`name(Class) -[TYPE]-> name(Class) ...` with direction-aware arrows:
    the first node's kept text, then each step's kept text, picked from
    its edge's pair in `graph.step_texts` by the step's forward flag. A
    step along its edge reaches the edge's `to_id` and one against it the
    `from_id`, so the edge and the flag fix the step's text."""
    steps = map(graph.step_texts.__getitem__, path.edge_ids)
    return graph.node_texts[path.node_ids[0]] + "".join(map(getitem, steps, path.forward))


def _cmd_build(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    graph, _ontology, report = build_graph(manifest)
    out = Path(args.out)
    out.write_text(export_graph(graph), encoding="utf-8")
    print(report.render())
    print(f"Wrote {out}")
    return 0


def _load_query_text(raw: str) -> str:
    if not raw.startswith("@"):
        return raw
    with input_file(raw[1:], QueryError) as fh:
        return fh.read()


def _read_graph(path: str) -> PropertyGraph:
    """Import the export at `path`; every error raised names the file."""
    with input_file(path, GraphError) as fh:
        text = fh.read()
    try:
        # through the module global, which bench/tracing.py wraps
        return import_graph(text)
    except SkygraphError as exc:
        raise in_file(path, exc)


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    text = _load_query_text(args.query)
    ast = parse_query(text)
    star_max = args.star_max or graph.settings.get("star_max", DEFAULT_STAR_MAX)
    results = evaluate(graph, ast, star_max=star_max)
    texts = graph.node_texts
    if args.format == "paths":
        for result in results:
            if result.path is not None:
                print(render_path(graph, result.path))
            else:
                print(", ".join(f"{var}={texts[node_id]}" for var, node_id in sorted(result.bindings.items())))
    print(f"{len(results)} results")
    if args.fail_if_found and results:
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    print(render_counts(*graph_counts(graph)))
    return 0


def _positive_int(raw: str) -> int:
    value = int(raw) if raw.lstrip("-").isdigit() else raw
    return check_positive_int(value, argparse.ArgumentTypeError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skygraph",
        description="Build and query a property graph of a cloud deployment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a graph from a manifest")
    p_build.add_argument("manifest")
    p_build.add_argument("--out", default="graph.json", help="export file path")
    p_build.set_defaults(fn=_cmd_build)

    p_query = sub.add_parser("query", help="run a query against an exported graph")
    p_query.add_argument("graph")
    p_query.add_argument("query", help="query text, or @file to read it from a file")
    p_query.add_argument("--format", choices=("paths", "count"), default="paths")
    p_query.add_argument("--star-max", type=_positive_int, default=None, dest="star_max")
    p_query.add_argument(
        "--fail-if-found",
        action="store_true",
        help="exit nonzero when the query returns any result (CI gating)",
    )
    p_query.set_defaults(fn=_cmd_query)

    p_stats = sub.add_parser("stats", help="node and edge counts of an exported graph")
    p_stats.add_argument("graph")
    p_stats.set_defaults(fn=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SkygraphError, OSError) as exc:
        message = str(exc)
    # a runaway query; reported once the handler has let go of what it made
    except MemoryError:
        message = f"{args.command} ran out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
