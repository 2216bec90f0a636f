"""In-memory labeled property graph holding all analysis nodes and edges.

Nodes are classed either by an ontology class or by one of the fixed
code-graph classes; edges carry a type from a closed vocabulary. The graph
is built single-threaded by the pipeline passes, then frozen; queries only
ever see a frozen graph.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from typing import Iterator

from skygraph.errors import GraphError, UnknownClassError
from skygraph.ontology import Ontology, ontology_from_documents
from skygraph.yamlfile import DEFAULT_STAR_MAX, SCALAR, check_fields, check_positive_int

Scalar = str | bool | int

#: Classes that come from code facts rather than the ontology.
CODE_CLASSES = frozenset(
    {"FunctionDeclaration", "CallExpression", "Expression", "Literal"}
)

#: Code-graph subtyping: call expressions and literals are expressions.
EXPRESSION_CLASSES = frozenset({"Expression", "CallExpression", "Literal"})

#: Closed edge-type vocabulary.
EDGE_TYPES = frozenset(
    {
        "DFG",
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

# (required, optional) sections of an export and its settings; the
# ontology is read by `ontology_from_documents`, star_max by its own rule
_EXPORT = (
    {"ontology": object, "nodes": list, "edges": list},
    {"mappings": list, "settings": object},
)
_SETTINGS = ({}, {"star_max": object})
# the keys `export_graph` writes in each node and edge entry
_NODE_KEYS = ("id", "class", "name", "properties")
_EDGE_KEYS = ("id", "type", "from", "to", "properties")


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


def _edge_key(from_id: int, to_id: int, type: str) -> str:
    # A string, not a tuple: strings are not tracked by the cyclic collector,
    # while one long-lived tuple per edge moved a full collection into the
    # build and added one to the `query` commands after it.
    return f"{from_id} {to_id} {type}"


def _id(text: str) -> int:
    """An id as `export_graph` writes it, a string of ASCII digits; `int`
    alone would also take `1.9`, `true`, `" 1 "` and `"-1"`."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"id {text!r} is not a string of digits")


def _entry_properties(entry: dict, keys: tuple[str, ...]) -> dict:
    """A copy of an export entry's `properties`, which must be a mapping.
    The entry must hold as many keys as `keys`, which its reader reads
    each of, so it holds exactly those. A count, because a key-set
    comparison made an import of the N=100 fleet export about 8 % slower."""
    props = entry["properties"]
    if type(props) is not dict or len(entry) != len(keys):
        raise ValueError("not an entry as export_graph writes it")
    return dict(props)


def _not_scalar(key: str, value) -> GraphError:
    return GraphError(
        f"property {key!r} must be string/boolean/integer, got {type(value).__name__}"
    )


class PropertyGraph:
    """Labeled property graph with by-from / by-to adjacency, a
    concrete-class label index (inheritance is resolved at query time), and
    `provider_id` and `(class, name)` lookup indexes in which the
    first-inserted node wins.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self.settings: dict = {}
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        self._by_from: dict[int, list[int]] = {}
        self._by_to: dict[int, list[int]] = {}
        self._label_index: dict[str, list[int]] = {}
        self._by_provider_id: dict[Scalar, int] = {}
        # class -> name -> id: no key tuple per node to allocate on import
        self._by_name: dict[str, dict[str, int]] = {}
        # class -> property keys its nodes may carry (None: any key)
        self._property_keys: dict[str, frozenset[str] | None] = {}
        # label -> concrete classes it matches (None: every class)
        self._label_classes: dict[str, frozenset[str] | None] = {}
        # `_edge_key` of every edge, from the first `has_edge` call on
        self._edge_keys: set[str] | None = None
        self._next_node = 0
        self._next_edge = 0
        self._frozen = False

    # -- construction ----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; no further construction allowed")

    def property_keys(self, class_name: str) -> frozenset[str] | None:
        """Property keys a node of `class_name` may carry: its ontology data
        properties plus the universal keys, or None (any key) for a code
        class. Raises UnknownClassError for any other class."""
        if class_name not in self._property_keys:
            if self.ontology.has_class(class_name):
                keys = self.ontology.data_property_keys(class_name) | UNIVERSAL_PROPERTY_KEYS
                self._property_keys[class_name] = frozenset(keys)
            elif class_name in CODE_CLASSES:
                self._property_keys[class_name] = None
            else:
                raise UnknownClassError(f"unknown node class {class_name!r}")
        return self._property_keys[class_name]

    def add_node(
        self, class_name: str, name: str, properties: dict[str, Scalar] | None = None
    ) -> int:
        self._check_mutable()
        node_id = self._next_node
        self._insert_node(Node(node_id, class_name, name, dict(properties or {})))
        return node_id

    def _insert_node(self, node: Node) -> None:
        """The one way into the node table: check `node`, then index it; an
        index entry already taken by an earlier node is kept."""
        if not isinstance(node.class_name, str):
            raise GraphError(f"node {node.id} class must be a string, got {node.class_name!r}")
        allowed = self.property_keys(node.class_name)
        if not isinstance(node.name, str):
            raise GraphError(f"node {node.id} name must be a string, got {node.name!r}")
        for key, value in node.properties.items():
            if allowed is not None and key not in allowed:
                raise GraphError(f"property {key!r} not allowed on class {node.class_name!r}")
            if not isinstance(value, SCALAR):
                raise _not_scalar(key, value)
        if node.id in self._nodes:
            raise GraphError(f"duplicate node id {node.id}")
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
        self, from_id: int, to_id: int, type: str, properties: dict[str, Scalar] | None = None
    ) -> int:
        self._check_mutable()
        edge_id = self._next_edge
        self._insert_edge(Edge(edge_id, type, from_id, to_id, dict(properties or {})))
        return edge_id

    def _insert_edge(self, edge: Edge) -> None:
        """The one way into the edge table: check the edge and index it."""
        if not isinstance(edge.type, str) or edge.type not in EDGE_TYPES:
            raise GraphError(f"unregistered edge type {edge.type!r}")
        if edge.from_id not in self._nodes:
            raise GraphError(f"edge source {edge.from_id!r} does not exist")
        if edge.to_id not in self._nodes:
            raise GraphError(f"edge target {edge.to_id!r} does not exist")
        for key, value in edge.properties.items():
            if not isinstance(value, SCALAR):
                raise _not_scalar(key, value)
        if edge.id in self._edges:
            raise GraphError(f"duplicate edge id {edge.id}")
        self._edges[edge.id] = edge
        self._by_from[edge.from_id].append(edge.id)
        self._by_to[edge.to_id].append(edge.id)
        if self._edge_keys is not None:
            self._edge_keys.add(_edge_key(edge.from_id, edge.to_id, edge.type))
        self._next_edge = max(self._next_edge, edge.id + 1)

    def add_edge_once(self, from_id: int, to_id: int, type: str) -> bool:
        """Add an edge of `type` from `from_id` to `to_id` unless one exists;
        True when it was added. The resolution passes insert through this,
        so rerunning a pass adds nothing."""
        if self.has_edge(from_id, to_id, type):
            return False
        self.add_edge(from_id, to_id, type)
        return True

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
        matches `label` if given."""
        edges = [self._edges[e] for e in self._by_from[node_id]]
        if type is not None:
            edges = [e for e in edges if e.type == type]
        if label is not None and (classes := self._classes_of(label)) is not None:
            edges = [e for e in edges if self._nodes[e.to_id].class_name in classes]
        return edges

    def in_edges(
        self, node_id: int, type: str | None = None, label: str | None = None
    ) -> list[Edge]:
        """Edges entering `node_id`; `type` and `label` (on the source) as
        in `out_edges`."""
        edges = [self._edges[e] for e in self._by_to[node_id]]
        if type is not None:
            edges = [e for e in edges if e.type == type]
        if label is not None and (classes := self._classes_of(label)) is not None:
            edges = [e for e in edges if self._nodes[e.from_id].class_name in classes]
        return edges

    def has_edge(self, from_id: int, to_id: int, type: str) -> bool:
        """Whether an edge of `type` leads from `from_id` to `to_id`; a set
        lookup, so `add_edge_once` does not list a hub's edges."""
        if self._edge_keys is None:
            edges = self._edges.values()
            self._edge_keys = {_edge_key(e.from_id, e.to_id, e.type) for e in edges}
        return _edge_key(from_id, to_id, type) in self._edge_keys

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

    @classmethod
    def from_document(cls, doc: dict) -> "PropertyGraph":
        check_fields(doc, "graph document", GraphError, *_EXPORT)
        graph = cls(ontology_from_documents(doc["ontology"], doc.get("mappings") or []))
        settings = check_fields(doc.get("settings") or {}, "settings", GraphError, *_SETTINGS)
        graph.settings = dict(settings)
        check_positive_int(graph.settings.get("star_max", DEFAULT_STAR_MAX), GraphError, "settings.star_max")
        for entry in doc["nodes"]:
            try:
                props = _entry_properties(entry, _NODE_KEYS)
                node = Node(_id(entry["id"]), entry["class"], entry["name"], props)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise GraphError(f"malformed node entry {entry!r}") from exc
            graph._insert_node(node)
        for entry in doc["edges"]:
            try:
                props = _entry_properties(entry, _EDGE_KEYS)
                edge = Edge(
                    _id(entry["id"]), entry["type"], _id(entry["from"]), _id(entry["to"]), props
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise GraphError(f"malformed edge entry {entry!r}") from exc
            graph._insert_edge(edge)
        graph.freeze()
        return graph


# Encodes a node's or edge's properties at their depth in the export. With
# `indent` left at None `encode` runs the C encoder; any `indent` makes the
# json module fall back to its pure-Python encoder.
_PROPERTIES = json.JSONEncoder(sort_keys=True, separators=(",\n" + " " * 8, ": "))
_string = json.encoder.encode_basestring_ascii


def _properties(props: dict) -> str:
    if not props:
        return "{}"
    return "{\n        " + _PROPERTIES.encode(props)[1:-1] + "\n      }"


def _section(value) -> str:
    # a JSON string never holds a raw newline, so every newline is layout
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _entries(lines: list[str]) -> str:
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def export_graph(graph: PropertyGraph, settings: dict | None = None) -> str:
    """Serialize to the JSON export format, deterministically ordered.

    The text is exactly ``json.dumps(doc, indent=2, sort_keys=True) +
    "\\n"`` of the document with the graph's `ontology` and `mappings`
    documents, `settings` (the graph's own when None), and one entry per
    node (`id`, `class`, `name`, `properties`) and per edge (`id`, `type`,
    `from`, `to`, `properties`) sorted by id, ids as strings. It is laid
    out here straight from the node and edge tables, so that strings and
    property dicts go through the C encoder and no document is built.
    """
    ontology_doc, mapping_docs = graph.ontology.to_documents()
    nodes = [
        "    {\n"
        f'      "class": {_string(n.class_name)},\n'
        f'      "id": "{n.id}",\n'
        f'      "name": {_string(n.name)},\n'
        f'      "properties": {_properties(n.properties)}\n'
        "    }"
        for n in map(graph._nodes.__getitem__, sorted(graph._nodes))
    ]
    edges = [
        "    {\n"
        f'      "from": "{e.from_id}",\n'
        f'      "id": "{e.id}",\n'
        f'      "properties": {_properties(e.properties)},\n'
        f'      "to": "{e.to_id}",\n'
        f'      "type": {_string(e.type)}\n'
        "    }"
        for e in map(graph._edges.__getitem__, sorted(graph._edges))
    ]
    return (
        "{\n"
        f'  "edges": {_entries(edges)},\n'
        f'  "mappings": {_section(mapping_docs)},\n'
        f'  "nodes": {_entries(nodes)},\n'
        f'  "ontology": {_section(ontology_doc)},\n'
        f'  "settings": {_section(graph.settings if settings is None else settings)}\n'
        "}\n"
    )


def import_graph(text: str | dict) -> PropertyGraph:
    """Rebuild a frozen graph from an export document.

    The cyclic collector is paused meanwhile: import builds acyclic data
    only, so a collection during it could free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(text, str):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GraphError(f"graph document is not valid JSON: {exc}") from exc
        else:
            doc = text
        return PropertyGraph.from_document(doc)
    finally:
        if enabled:
            gc.enable()
