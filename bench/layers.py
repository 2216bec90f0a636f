"""Per-layer metrics from one traced run.

Every value is per operation (one CI-gate cycle, or one query on
query-mix, where operation 0 is the traced set-up cycle): the median over
the traced operations that exercised the layer, 0 when none did. Timed
entries are self time in seconds with their call count. Ratios are taken
over the whole traced run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import expected
from tracing import Tracer, self_times

PASSES = (
    "create_proxied_endpoints",
    "resolve_http_requests",
    "resolve_storage_requests",
    "propagate_log_flows",
)

TIMED = (
    "cli.main",
    "build.load_manifest",
    "build.build_graph",
    "build.graph_counts",
    "yaml.load",
    "ontology.load",
    "codefacts.load",
    "codefacts.ingest",
    "discovery.load",
    "discovery.ingest_inventory",
    "discovery.ingest_workflow",
    "discovery.resolve_links",
    "discovery.link_applications",
    "discovery.lookup",
    *(f"dataflow.{name}" for name in PASSES),
    "graph.export",
    "graph.import",
    "graph.has_edge",
    "query.parse",
    "query.evaluate",
)

QUERIES = (*expected.BUNDLED, *expected.OWNED)

UNITS: dict[str, str] = {}
for _name in TIMED:
    UNITS[f"{_name}_s"] = "s"
    UNITS[f"{_name}_calls"] = "count"
for _name in PASSES:
    UNITS[f"dataflow.{_name}_added"] = "count"
for _query in QUERIES:
    UNITS[f"query.{_query}.evaluate_s"] = "s"
    UNITS[f"query.{_query}.evaluate_calls"] = "count"
UNITS.update(
    {
        "cli.render_s": "s",
        "cli.paths_rendered": "count",
        "yaml.bytes": "bytes",
        "ontology.is_subclass_calls": "count",
        "graph.nodes": "count",
        "graph.edges": "count",
        "graph.add_edge_calls": "count",
        "dataflow.resolve_http_requests.node_reads": "count",
        "dataflow.http_to_per_node_read": "ratio",
        "query.results": "count",
        "query.adjacency_calls": "count",
        "query.edges_scanned": "count",
        "query.label_checks": "count",
        "query.results_per_edge_scanned": "ratio",
        "trace.spans": "count",
        "trace.overhead_share": "share",
    }
)

# counter metric -> (counter, innermost span it is counted under, or None
# for every span)
_COUNTED = {
    "ontology.is_subclass_calls": ("ontology.is_subclass", None),
    "graph.add_edge_calls": ("graph.add_edge", None),
    "dataflow.resolve_http_requests.node_reads": (
        "graph.node",
        "dataflow.resolve_http_requests",
    ),
    "query.adjacency_calls": ("graph.adjacency", "query.evaluate"),
    "query.edges_scanned": ("graph.adjacency.items", "query.evaluate"),
    "query.label_checks": ("graph.label_check", "query.evaluate"),
}


def per_op(tracer: Tracer) -> dict[str, dict[int, float]]:
    """metric -> operation -> value, for every metric a span or counter gives."""
    table: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, op = span.name, span.op
        table[f"{name}_s"][op] += own
        table[f"{name}_calls"][op] += 1
        table["trace.spans"][op] += 1
        if name == "query.evaluate":
            table[f"query.{span.label}.evaluate_s"][op] += own
            table[f"query.{span.label}.evaluate_calls"][op] += 1
            table["query.results"][op] += span.value
        elif name == "yaml.load":
            table["yaml.bytes"][op] += span.value
        elif name == "build.build_graph":
            table["graph.nodes"][op] = span.value[0]
            table["graph.edges"][op] = span.value[1]
        elif name.startswith("dataflow."):
            table[f"{name}_added"][op] += span.value
    for (counter, scope, op), count in tracer.counts.items():
        for metric, (wanted, wanted_scope) in _COUNTED.items():
            if counter == wanted and wanted_scope in (None, scope):
                table[metric][op] += count
    table["cli.paths_rendered"] = table["cli.render_calls"]
    return table


def _total(table: dict[str, dict[int, float]], metric: str) -> float:
    return sum(table.get(metric, {}).values())


def per_layer(tracer: Tracer, plain, traced) -> dict[str, float]:
    """Every per-layer metric from the traced run;
    `plain` and `traced` are the untraced and traced measurements."""
    table = per_op(tracer)
    metrics = {}
    for metric in UNITS:
        values = table.get(metric)
        metrics[metric] = statistics.median(values.values()) if values else 0
    reads = _total(table, "dataflow.resolve_http_requests.node_reads")
    scanned = _total(table, "query.edges_scanned")
    metrics["dataflow.http_to_per_node_read"] = (
        _total(table, "dataflow.resolve_http_requests_added") / reads if reads else 0
    )
    metrics["query.results_per_edge_scanned"] = (
        _total(table, "query.results") / scanned if scanned else 0
    )
    metrics["trace.overhead_share"] = (
        statistics.median(c.verdict(0) for c in traced.cycles)
        / statistics.median(c.verdict(0) for c in plain.cycles)
        - 1
    )
    return metrics
