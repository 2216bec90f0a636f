"""In-memory labeled property graph holding all analysis nodes and edges.

Nodes are classed either by an ontology class or by one of the fixed
code-graph classes; edges carry a type from a closed vocabulary. The graph
is built single-threaded by the pipeline passes, then frozen; queries only
ever see a frozen graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from skygraph.errors import GraphError, UnknownClassError
from skygraph.ontology import Ontology, ontology_from_documents

Scalar = str | bool | int

#: Classes that come from code facts rather than the ontology.
CODE_CLASSES = frozenset(
    {"FunctionDeclaration", "CallExpression", "Expression", "Literal"}
)

#: Code-graph subtyping: call expressions and literals are expressions.
EXPRESSION_CLASSES = frozenset({"Expression", "CallExpression", "Literal"})

#: Closed edge-type vocabulary. EOG is registered for compatibility with
#: code-analysis tooling but never produced by the passes here.
EDGE_TYPES = frozenset(
    {
        "DFG",
        "EOG",
        "TO",
        "SOURCE",
        "RUNS_ON",
        "AUTHENTICITY",
        "TRANSPORT_ENCRYPTION",
        "AT_REST_ENCRYPTION",
        "GEO_LOCATION",
        "OFFERS",
        "HAS_ENDPOINT",
        "PROXIES",
        "TARGETS",
        "USES_IMAGE",
        "PUSHES_TO",
        "CONTAINS",
        "CALLS",
        "LOGS_TO",
    }
)

#: Property keys allowed on every node regardless of class.
UNIVERSAL_PROPERTY_KEYS = frozenset({"name", "provider_id"})


@dataclass
class Node:
    id: int
    class_name: str
    name: str
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class Edge:
    id: int
    type: str
    from_id: int
    to_id: int
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass(frozen=True)
class Path:
    """Alternating node/edge walk; `forward[i]` is False when edge i was
    traversed against its direction. Edge ids never repeat."""

    node_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    forward: tuple[bool, ...]


class PropertyGraph:
    """Labeled property graph with by-from / by-to / by-type adjacency, a
    concrete-class label index (inheritance is resolved at query time), and
    `provider_id` and `(class, name)` lookup indexes in which the
    first-inserted node wins.

    Once frozen, a node's edges are also grouped by the neighbour's concrete
    class, the first time a labelled `out_edges`/`in_edges` call reaches the
    node, so a hub's edges to other classes are not listed again.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self.settings: dict = {}
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        self._by_from: dict[int, list[int]] = {}
        self._by_to: dict[int, list[int]] = {}
        self._by_type: dict[str, list[int]] = {}
        self._label_index: dict[str, list[int]] = {}
        self._by_provider_id: dict[Scalar, int] = {}
        # class -> name -> id: no key tuple per node to allocate on import
        self._by_name: dict[str, dict[str, int]] = {}
        # label -> concrete classes it matches (None: every class)
        self._label_classes: dict[str, frozenset[str] | None] = {}
        # frozen only: node -> neighbour class -> edges, filled on first use
        self._out_by_class: dict[int, dict[str, list[Edge]]] = {}
        self._in_by_class: dict[int, dict[str, list[Edge]]] = {}
        self._next_node = 0
        self._next_edge = 0
        self._frozen = False

    # -- construction ----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; no further construction allowed")

    def _check_properties(self, class_name: str, properties: dict[str, Scalar]) -> None:
        if self.ontology.has_class(class_name):
            allowed = self.ontology.data_property_keys(class_name) | UNIVERSAL_PROPERTY_KEYS
            for key in properties:
                if key not in allowed:
                    raise GraphError(
                        f"property {key!r} not allowed on class {class_name!r}"
                    )
        for key, value in properties.items():
            if not isinstance(value, (str, bool, int)):
                raise GraphError(
                    f"property {key!r} must be string/boolean/integer, "
                    f"got {type(value).__name__}"
                )

    def add_node(
        self,
        class_name: str,
        name: str,
        properties: dict[str, Scalar] | None = None,
    ) -> int:
        self._check_mutable()
        if not self.ontology.has_class(class_name) and class_name not in CODE_CLASSES:
            raise UnknownClassError(f"unknown node class {class_name!r}")
        properties = dict(properties or {})
        self._check_properties(class_name, properties)
        node_id = self._next_node
        self._index_node(Node(node_id, class_name, name, properties))
        return node_id

    def _index_node(self, node: Node) -> None:
        """Enter `node` in the node table and every node index; an index
        entry already taken by an earlier node is kept. Raises TypeError
        when the name or provider id is unhashable."""
        self._nodes[node.id] = node
        self._by_from[node.id] = []
        self._by_to[node.id] = []
        self._label_index.setdefault(node.class_name, []).append(node.id)
        names = self._by_name.get(node.class_name)
        if names is None:
            names = self._by_name[node.class_name] = {}
        names.setdefault(node.name, node.id)
        if "provider_id" in node.properties:
            self._by_provider_id.setdefault(node.properties["provider_id"], node.id)
        self._next_node = max(self._next_node, node.id + 1)

    def add_edge(
        self,
        from_id: int,
        to_id: int,
        type: str,
        properties: dict[str, Scalar] | None = None,
    ) -> int:
        self._check_mutable()
        if type not in EDGE_TYPES:
            raise GraphError(f"unregistered edge type {type!r}")
        if from_id not in self._nodes:
            raise GraphError(f"edge source {from_id!r} does not exist")
        if to_id not in self._nodes:
            raise GraphError(f"edge target {to_id!r} does not exist")
        edge_id = self._next_edge
        self._next_edge += 1
        self._edges[edge_id] = Edge(edge_id, type, from_id, to_id, dict(properties or {}))
        self._by_from[from_id].append(edge_id)
        self._by_to[to_id].append(edge_id)
        self._by_type.setdefault(type, []).append(edge_id)
        return edge_id

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- access ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def out_edges(
        self, node_id: int, type: str | None = None, label: str | None = None
    ) -> list[Edge]:
        """Edges leaving `node_id`, of `type` if given, and whose target
        matches `label` if given (grouped by the target's class then)."""
        if label is not None:
            return self._edges_to_label(node_id, type, label, outgoing=True)
        edges = [self._edges[e] for e in self._by_from[node_id]]
        if type is not None:
            edges = [e for e in edges if e.type == type]
        return edges

    def in_edges(
        self, node_id: int, type: str | None = None, label: str | None = None
    ) -> list[Edge]:
        """Edges entering `node_id`; `type` and `label` (on the source) as
        in `out_edges`."""
        if label is not None:
            return self._edges_to_label(node_id, type, label, outgoing=False)
        edges = [self._edges[e] for e in self._by_to[node_id]]
        if type is not None:
            edges = [e for e in edges if e.type == type]
        return edges

    def _edges_to_label(
        self, node_id: int, type: str | None, label: str, outgoing: bool
    ) -> list[Edge]:
        adjacency, buckets = (
            (self._by_from, self._out_by_class) if outgoing else (self._by_to, self._in_by_class)
        )
        classes = self._classes_of(label)
        if classes is None:
            edges = [self._edges[e] for e in adjacency[node_id]]
        else:
            by_class = buckets.get(node_id) if self._frozen else None
            if by_class is None:
                by_class = {}
                for e in adjacency[node_id]:
                    edge = self._edges[e]
                    other = edge.to_id if outgoing else edge.from_id
                    by_class.setdefault(self._nodes[other].class_name, []).append(edge)
                if self._frozen:
                    buckets[node_id] = by_class
            edges = [e for cls, group in by_class.items() if cls in classes for e in group]
        if type is not None:
            edges = [e for e in edges if e.type == type]
        return edges

    def edges_of_type(self, type: str) -> list[Edge]:
        return [self._edges[e] for e in self._by_type.get(type, [])]

    def has_edge(self, from_id: int, to_id: int, type: str) -> bool:
        return any(
            e.to_id == to_id and e.type == type for e in self.out_edges(from_id)
        )

    def nodes_with_class(self, class_name: str) -> list[int]:
        """Node ids whose concrete class is exactly `class_name`."""
        return list(self._label_index.get(class_name, []))

    def _classes_of(self, label: str) -> frozenset[str] | None:
        """The concrete classes matching `label`: the label itself, its
        ontology descendants, and for `Expression` the code-graph
        expression classes; None for the universal `Node` label."""
        if label in self._label_classes:
            return self._label_classes[label]
        classes: frozenset[str] | None = None
        if label != "Node":
            ontology = self.ontology
            classes = frozenset(ontology.descendants(label) if ontology.has_class(label) else {label})
            if label == "Expression":
                classes |= EXPRESSION_CLASSES
        self._label_classes[label] = classes
        return classes

    def label_candidates(self, label: str) -> list[int]:
        """Node ids matching `label` with inheritance resolved."""
        classes = self._classes_of(label)
        if classes is None:
            return list(self._nodes)
        out: list[int] = []
        for cls in classes:
            out.extend(self._label_index.get(cls, []))
        out.sort()
        return out

    def node_matches_label(self, node_id: int, label: str) -> bool:
        """Label matching: the universal Node label, the concrete class,
        ontology ancestors, and code-graph expression subtyping."""
        classes = self._classes_of(label)
        return classes is None or self._nodes[node_id].class_name in classes

    def property_value(self, node_id: int, key: str) -> Scalar | None:
        """Scalar property lookup; `name` falls back to the display name."""
        node = self._nodes[node_id]
        if key in node.properties:
            return node.properties[key]
        if key == "name":
            return node.name
        return None

    # -- convenience lookups used by the pipeline passes -------------------

    def find_by_name(self, class_name: str, name: str) -> int | None:
        return self._by_name.get(class_name, {}).get(name)

    def find_by_provider_id(self, provider_id: str) -> int | None:
        return self._by_provider_id.get(provider_id)

    # -- serialization ------------------------------------------------------

    def to_document(self, settings: dict | None = None) -> dict:
        ontology_doc, mapping_docs = self.ontology.to_documents()
        return {
            "ontology": ontology_doc,
            "mappings": mapping_docs,
            "settings": dict(settings if settings is not None else self.settings),
            "nodes": [
                {
                    "id": str(n.id),
                    "class": n.class_name,
                    "name": n.name,
                    "properties": dict(n.properties),
                }
                for n in sorted(self._nodes.values(), key=lambda n: n.id)
            ],
            "edges": [
                {
                    "id": str(e.id),
                    "type": e.type,
                    "from": str(e.from_id),
                    "to": str(e.to_id),
                    "properties": dict(e.properties),
                }
                for e in sorted(self._edges.values(), key=lambda e: e.id)
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "PropertyGraph":
        for key in ("ontology", "nodes", "edges"):
            if key not in doc:
                raise GraphError(f"graph document missing {key!r} section")
        ontology = ontology_from_documents(doc["ontology"], doc.get("mappings", []))
        graph = cls(ontology)
        settings = doc.get("settings") or {}
        if not isinstance(settings, dict):
            raise GraphError(f"settings must be a mapping, got {type(settings).__name__}")
        graph.settings = dict(settings)
        star_max = graph.settings.get("star_max", 10)
        if not isinstance(star_max, int) or isinstance(star_max, bool) or star_max < 1:
            raise GraphError(f"settings.star_max must be a positive integer, got {star_max!r}")
        for entry in doc["nodes"]:
            try:
                node = Node(int(entry["id"]), entry["class"], entry["name"], dict(entry.get("properties", {})))
            except (KeyError, TypeError, ValueError) as exc:
                raise GraphError(f"malformed node entry {entry!r}") from exc
            if not isinstance(node.class_name, str):
                raise GraphError(f"node {node.id} class must be a string, got {node.class_name!r}")
            if not ontology.has_class(node.class_name) and node.class_name not in CODE_CLASSES:
                raise UnknownClassError(f"unknown node class {node.class_name!r}")
            if node.id in graph._nodes:
                raise GraphError(f"duplicate node id {node.id}")
            try:
                graph._index_node(node)
            except TypeError as exc:  # an unhashable name or provider_id
                raise GraphError(f"malformed node entry {entry!r}") from exc
        for entry in doc["edges"]:
            try:
                edge = Edge(
                    int(entry["id"]),
                    entry["type"],
                    int(entry["from"]),
                    int(entry["to"]),
                    dict(entry.get("properties", {})),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise GraphError(f"malformed edge entry {entry!r}") from exc
            if not isinstance(edge.type, str) or edge.type not in EDGE_TYPES:
                raise GraphError(f"unregistered edge type {edge.type!r}")
            if edge.from_id not in graph._nodes or edge.to_id not in graph._nodes:
                raise GraphError(
                    f"edge {edge.id} references missing node "
                    f"{edge.from_id if edge.from_id not in graph._nodes else edge.to_id}"
                )
            if edge.id in graph._edges:
                raise GraphError(f"duplicate edge id {edge.id}")
            graph._edges[edge.id] = edge
            graph._by_from[edge.from_id].append(edge.id)
            graph._by_to[edge.to_id].append(edge.id)
            graph._by_type.setdefault(edge.type, []).append(edge.id)
            graph._next_edge = max(graph._next_edge, edge.id + 1)
        graph.freeze()
        return graph


def export_graph(graph: PropertyGraph, settings: dict | None = None) -> str:
    """Serialize to the JSON export format, deterministically ordered."""
    return json.dumps(graph.to_document(settings), indent=2, sort_keys=True) + "\n"


def import_graph(text: str | dict) -> PropertyGraph:
    """Rebuild a frozen graph from an export document."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"graph document is not valid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    return PropertyGraph.from_document(doc)
