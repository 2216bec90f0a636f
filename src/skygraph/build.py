"""Full graph construction from a build manifest.

Pass order: ontology load, code facts, inventories, workflows, application
linking, then the data-flow resolution passes; the graph is frozen at the
end. Two builds from the same manifest produce byte-identical exports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from skygraph import codefacts, dataflow
from skygraph.discovery import Discovery, load_inventory, load_workflow
from skygraph.errors import ManifestError, UnknownClassError
from skygraph.graph import PropertyGraph
from skygraph.ontology import Ontology, load_ontology
from skygraph.yamlfile import DEFAULT_STAR_MAX, check_fields, check_positive_int, in_file, ingesting, load_document

_FILE_LISTS = ("mappings", "inventories", "workflows", "codefacts")
# (required, optional) manifest fields; star_max has its own rule
_MANIFEST = (
    {"ontology": str},
    {**dict.fromkeys(_FILE_LISTS, [str]), "registry_locations": {str: str}, "star_max": object},
)


@dataclass
class BuildManifest:
    ontology: Path
    mappings: list[Path] = field(default_factory=list)
    inventories: list[Path] = field(default_factory=list)
    workflows: list[Path] = field(default_factory=list)
    codefacts: list[Path] = field(default_factory=list)
    registry_locations: dict[str, str] = field(default_factory=dict)
    star_max: int = DEFAULT_STAR_MAX


def load_manifest(path: str | Path) -> BuildManifest:
    """Read a manifest; relative paths resolve against the manifest file."""
    path = Path(path)
    return load_document(path, ManifestError, lambda doc: manifest_from_document(doc, path.parent))


def manifest_from_document(doc: dict, base: Path) -> BuildManifest:
    check_fields(doc, "manifest", ManifestError, *_MANIFEST)
    star_max = check_positive_int(doc.get("star_max", DEFAULT_STAR_MAX), ManifestError, "star_max")

    def resolve(raw: str) -> Path:
        candidate = base / raw
        if not candidate.exists():
            raise ManifestError(f"manifest references missing file {candidate}")
        return candidate

    return BuildManifest(
        ontology=resolve(doc["ontology"]),
        **{key: [resolve(p) for p in doc.get(key) or []] for key in _FILE_LISTS},
        registry_locations=dict(doc.get("registry_locations") or {}),
        star_max=star_max,
    )


@dataclass
class BuildReport:
    node_counts: dict[str, int]
    edge_counts: dict[str, int]
    pass_timings: list[tuple[str, float]]

    def render(self) -> str:
        lines = [render_counts(self.node_counts, self.edge_counts), "Pass timings:"]
        for name, seconds in self.pass_timings:
            lines.append(f"  {name}: {seconds * 1000:.1f} ms")
        return "\n".join(lines)


def render_counts(node_counts: dict[str, int], edge_counts: dict[str, int]) -> str:
    """The `Nodes:` and `Edges:` totals, each followed by its per-class or
    per-type counts; `build` and `stats` both print this block."""
    lines = []
    for title, counts in (("Nodes", node_counts), ("Edges", edge_counts)):
        lines.append(f"{title}: {sum(counts.values())}")
        lines.extend(f"  {name}: {count}" for name, count in sorted(counts.items()))
    return "\n".join(lines)


def graph_counts(graph: PropertyGraph) -> tuple[dict[str, int], dict[str, int]]:
    nodes: dict[str, int] = {}
    for node in graph.nodes():
        nodes[node.class_name] = nodes.get(node.class_name, 0) + 1
    edges: dict[str, int] = {}
    for edge in graph.edges():
        edges[edge.type] = edges.get(edge.type, 0) + 1
    return nodes, edges


def build_graph(manifest: BuildManifest) -> tuple[PropertyGraph, Ontology, BuildReport]:
    """Run the whole pipeline and freeze the resulting graph. An error names
    the input file being ingested, but a class the build writes that the
    ontology lacks is reported in the ontology file."""
    timings: list[tuple[str, float]] = []

    def timed(name: str, fn):
        start = time.perf_counter()
        result = fn()
        timings.append((name, time.perf_counter() - start))
        return result

    ontology = timed("ontology", lambda: load_ontology(manifest.ontology, manifest.mappings))
    graph = PropertyGraph(ontology)

    def run_codefacts() -> None:
        for path in manifest.codefacts:
            doc = codefacts.load_code_facts(path)
            with ingesting(path):
                codefacts.ingest_code_facts(graph, doc)

    discovery = Discovery(graph, manifest.registry_locations)

    def run_inventories() -> None:
        for path in manifest.inventories:
            discovery.ingest_inventory(load_inventory(path), path)
        discovery.resolve_inventory_links()

    try:
        timed("codefacts", run_codefacts)
        timed("inventories", run_inventories)
        timed(
            "workflows",
            lambda: [discovery.ingest_workflow(load_workflow(p), p) for p in manifest.workflows],
        )
        timed("link_applications", discovery.link_applications)
        for name in dataflow._PASSES:
            timed(name, lambda: getattr(dataflow, name)(graph))
    except UnknownClassError as exc:
        raise in_file(manifest.ontology, exc)
    graph.settings = {"star_max": manifest.star_max}
    graph.freeze()

    node_counts, edge_counts = graph_counts(graph)
    return graph, ontology, BuildReport(node_counts, edge_counts, timings)
