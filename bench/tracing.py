"""In-memory tracing of skygraph's layers from outside the package.

`Tracer.install` replaces each traced function at the attribute its
callers look up (a module global such as ``skygraph.cli.import_graph``, or
a class attribute such as ``PropertyGraph.has_edge``) and `uninstall`
puts the originals back. Layer boundaries become spans; hot accessors only
count calls, keyed by the innermost open span, so no span is paid for
every ``graph.node`` read.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _yaml_bytes(args: tuple, result) -> int:
    stream = args[0] if args else None
    if isinstance(stream, bytes):
        return len(stream)
    if isinstance(stream, str):
        return len(stream.encode("utf-8"))
    return os.fstat(stream.fileno()).st_size


def _size(args: tuple, result) -> int:
    return len(result)


def _graph_size(args: tuple, result) -> tuple[int, int]:
    graph = result[0]
    return graph.node_count, graph.edge_count


def _returned(args: tuple, result) -> int:
    return result


# span name -> (targets, observer). An observer turns (args, result) into a
# value kept on the span.
SPANS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "cli.main": (("skygraph.cli:main",), None),
    "cli.render": (("skygraph.cli:render_path",), None),
    "build.load_manifest": (("skygraph.cli:load_manifest",), None),
    "build.build_graph": (("skygraph.cli:build_graph",), _graph_size),
    "build.graph_counts": (("skygraph.build:graph_counts",), None),
    "yaml.load": (("yaml:load",), _yaml_bytes),
    "ontology.load": (
        (
            "skygraph.build:load_ontology",
            "skygraph.ontology:ontology_from_documents",
            "skygraph.graph:ontology_from_documents",
        ),
        None,
    ),
    "codefacts.load": (("skygraph.codefacts:load_code_facts",), None),
    "codefacts.ingest": (
        (
            "skygraph.codefacts:ingest_code_facts",
            "skygraph.codefacts:build_http_server_nodes",
            "skygraph.codefacts:build_http_client_nodes",
            "skygraph.codefacts:build_storage_request_nodes",
        ),
        None,
    ),
    "discovery.load": (("skygraph.build:load_inventory", "skygraph.build:load_workflow"), None),
    "discovery.ingest_inventory": (("skygraph.discovery:Discovery.ingest_inventory",), None),
    "discovery.ingest_workflow": (("skygraph.discovery:Discovery.ingest_workflow",), None),
    "discovery.resolve_links": (("skygraph.discovery:Discovery.resolve_inventory_links",), None),
    "discovery.link_applications": (("skygraph.discovery:Discovery.link_applications",), None),
    "discovery.lookup": (
        (
            "skygraph.graph:PropertyGraph.find_by_provider_id",
            "skygraph.graph:PropertyGraph.find_by_name",
        ),
        None,
    ),
    "dataflow.create_proxied_endpoints": (
        ("skygraph.dataflow:create_proxied_endpoints",),
        _returned,
    ),
    "dataflow.resolve_http_requests": (("skygraph.dataflow:resolve_http_requests",), _returned),
    "dataflow.resolve_storage_requests": (
        ("skygraph.dataflow:resolve_storage_requests",),
        _returned,
    ),
    "dataflow.propagate_log_flows": (("skygraph.dataflow:propagate_log_flows",), _returned),
    "graph.export": (("skygraph.cli:export_graph",), None),
    "graph.import": (("skygraph.cli:import_graph", "skygraph.graph:import_graph"), None),
    "graph.has_edge": (("skygraph.graph:PropertyGraph.has_edge",), None),
    "query.parse": (("skygraph.cli:parse_query", "skygraph.query:parse_query"), None),
    "query.evaluate": (("skygraph.cli:evaluate", "skygraph.query:evaluate"), _size),
}

# counter name -> (targets, whether to also add up the length of the result)
COUNTERS: dict[str, tuple[tuple[str, ...], bool]] = {
    "graph.node": (("skygraph.graph:PropertyGraph.node",), False),
    "graph.adjacency": (
        ("skygraph.graph:PropertyGraph.out_edges", "skygraph.graph:PropertyGraph.in_edges"),
        True,
    ),
    "graph.add_edge": (("skygraph.graph:PropertyGraph.add_edge",), False),
    "graph.label_check": (("skygraph.graph:PropertyGraph.node_matches_label",), False),
    "ontology.is_subclass": (("skygraph.ontology:Ontology.is_subclass",), False),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # operation the span belongs to
    label: str  # what the operation was running, e.g. a query name
    value: object = None  # what the span's observer kept


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # (counter, innermost span name, op) -> count
    counts: dict[tuple[str, str, int], int] = field(default_factory=dict)
    op: int = 0
    label: str = ""
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _span(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op, self.label)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.value = observe(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, sized: bool):
        spans, stack, counts = self.spans, self._stack, self.counts
        items = f"{name}.items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, spans[stack[-1]].name if stack else "", self.op)
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if sized:
                key = (items, key[1], key[2])
                counts[key] = counts.get(key, 0) + len(result)
            return result

        return wrapper

    def _patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (targets, observe) in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for name, (targets, sized) in COUNTERS.items():
            for target in targets:
                self._patch(target, lambda fn, n=name, s=sized: self._counter(n, fn, s))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans and counts, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "label": span.label,
                    "self_s": own,
                }
                if span.value is not None:
                    record["value"] = span.value
                fh.write(json.dumps(record) + "\n")
            for (name, scope, op), count in sorted(self.counts.items()):
                record = {"counter": name, "scope": scope, "op": op, "count": count}
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest (one thread), so children never overlap one another.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own
