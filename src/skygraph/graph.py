"""In-memory labeled property graph holding all analysis nodes and edges.

Nodes are classed either by an ontology class or by one of the fixed
code-graph classes; edges carry a type from a closed vocabulary. The graph
is built single-threaded by the pipeline passes, then frozen. Only a
frozen graph keeps the query engine's memos, in `hop_steps`: a query on a
graph still being built makes its own, so no insert has a memo to empty.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from skygraph.errors import GraphError, UnknownClassError
from skygraph.ontology import KIND_OF, PROPERTY_KINDS, Ontology, ontology_from_documents
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

#: Property keys allowed on every node regardless of class, with the type
#: of their values.
UNIVERSAL_PROPERTY_KEYS = {"name": str, "provider_id": str}

# (required, optional) sections of an export and its settings; the
# ontology is read by `ontology_from_documents`, star_max by its own rule
_EXPORT = (
    {"ontology": object, "nodes": list, "edges": list},
    {"mappings": list, "settings": object},
)
_SETTINGS = ({}, {"star_max": object})


@dataclass(slots=True)
class Node:
    id: int
    class_name: str
    name: str
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass(slots=True)
class Edge:
    id: int
    type: str
    from_id: int
    to_id: int
    properties: dict[str, Scalar] = field(default_factory=dict)


class Path(NamedTuple):
    """Alternating node/edge walk; `forward[i]` is False when edge i was
    traversed against its direction. Edge ids never repeat. A named tuple,
    so it is immutable, hashable and equal by value, and costs one tuple
    to make."""

    node_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    forward: tuple[bool, ...]


class _NodeTexts(dict):
    """`name(Class)` of each node by id, made on the node's first lookup and
    then kept: a node's name and class never change."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: dict[int, Node]):
        super().__init__()
        self._nodes = nodes

    def __missing__(self, node_id: int) -> str:
        node = self._nodes[node_id]
        text = self[node_id] = f"{node.name}({node.class_name})"
        return text


class _StepTexts(dict):
    """Per edge id, the texts a rendered path appends for a step over the
    edge against its direction and along it: the arrow and the text of the
    node the step reaches, its `from_id` and its `to_id`. Made on the
    edge's first lookup and then kept: an edge's type and ends never
    change."""

    __slots__ = ("_edges", "_node_texts")

    def __init__(self, edges: dict[int, Edge], node_texts: _NodeTexts):
        super().__init__()
        self._edges = edges
        self._node_texts = node_texts

    def __missing__(self, edge_id: int) -> tuple[str, str]:
        edge = self._edges[edge_id]
        texts = self._node_texts
        pair = self[edge_id] = (f" <-[{edge.type}]- {texts[edge.from_id]}", f" -[{edge.type}]-> {texts[edge.to_id]}")
        return pair


def _edge_key(from_id: int, to_id: int, type: str) -> str:
    # A string, not a tuple: strings are not tracked by the cyclic collector,
    # while one long-lived tuple per edge moved a full collection into the
    # build and added one to the `query` commands after it.
    return f"{from_id} {to_id} {type}"


def _not_scalar(key: str, value) -> GraphError:
    return GraphError(
        f"property {key!r} must be string/boolean/integer, got {type(value).__name__}"
    )


def _malformed(what: str, row) -> GraphError:
    if type(row) is dict:
        return GraphError(
            f"{what} entries are objects, as older exports wrote them; "
            "rebuild the export with `skygraph build`"
        )
    return GraphError(f"malformed {what} entry {row!r}")


class PropertyGraph:
    """Labeled property graph with by-from / by-to adjacency, a
    concrete-class label index (inheritance is resolved at query time), and
    `provider_id` and `(class, name)` lookup indexes in which the
    first-inserted node wins. Only the build passes look nodes up, so each
    lookup index, like the edge-key set of `has_edge`, is built from the
    node table on its first use and kept current by every insert after it;
    an imported graph that only serves queries builds none of them.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self.settings: dict = {}
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        #: read-only view of the node table by id, for readers that look up
        #: many nodes at once, such as the compiled walks' WHERE tests
        self.node_table: Mapping[int, Node] = MappingProxyType(self._nodes)
        #: `name(Class)` per node id, as paths are rendered, filled on the
        #: first lookup of each node
        self.node_texts: Mapping[int, str] = _NodeTexts(self._nodes)
        #: per edge id, the texts of a rendered step against and along it,
        #: filled on the first lookup of each edge
        self.step_texts: Mapping[int, tuple[str, str]] = _StepTexts(self._edges, self.node_texts)
        self._by_from: dict[int, list[Edge]] = {}
        self._by_to: dict[int, list[Edge]] = {}
        self._label_index: dict[str, list[int]] = {}
        # the lookup indexes, from the first `find_by_*` call on
        self._by_provider_id: dict[Scalar, int] | None = None
        # class -> name -> id: no key tuple per node to allocate
        self._by_name: dict[str, dict[str, int]] | None = None
        # class -> property key its nodes may carry -> the type of its
        # declared kind (None: any key of any scalar type), and label ->
        # concrete classes it matches (None: every class); an ontology class
        # wins over a code class of the same name
        self._property_keys: dict[str, dict[str, type] | None] = dict.fromkeys(CODE_CLASSES)
        labels = {name: {name} for name in CODE_CLASSES}
        labels["Expression"] |= EXPRESSION_CLASSES
        for name in ontology.classes:
            ancestry = ontology.ancestry(name)
            keys = self._property_keys[name] = dict(UNIVERSAL_PROPERTY_KEYS)
            for ancestor in ancestry:
                for key, kind in (ontology.classes[ancestor].get("data_properties") or {}).items():
                    keys[key] = PROPERTY_KINDS[kind]
                labels.setdefault(ancestor, set()).add(name)
        self._label_classes = {label: frozenset(c) for label, c in labels.items()} | {"Node": None}
        # `_edge_key` of every edge, from the first `has_edge` call on
        self._edge_keys: set[str] | None = None
        self._next_node = 0
        self._next_edge = 0
        self._frozen = False
        #: the query engine's memos, kept only once the graph is frozen
        self.hop_steps: dict = {}

    # -- construction ----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; no further construction allowed")

    def property_keys(self, class_name: str) -> dict[str, type] | None:
        """Property keys a node of `class_name` may carry, each with the
        type of its declared kind: its ontology data properties plus the
        universal keys, or None (any key) for a code class. Raises
        UnknownClassError for any other class."""
        try:
            return self._property_keys[class_name]
        except KeyError:
            raise UnknownClassError(f"unknown node class {class_name!r}") from None

    def add_node(
        self, class_name: str, name: str, properties: dict[str, Scalar] | None = None
    ) -> int:
        self._check_mutable()
        node_id = self._next_node
        self._insert_node(node_id, class_name, name, dict(properties or {}))
        return node_id

    def _insert_node(self, node_id: int, class_name: str, name: str, props: dict[str, Scalar]) -> None:
        """The one way into the node table: check the fields, then make the
        node, which keeps `props` itself, and index it; a lookup-index entry
        already taken by an earlier node is kept."""
        if not isinstance(class_name, str):
            raise GraphError(f"node {node_id} class must be a string, got {class_name!r}")
        allowed = self.property_keys(class_name)
        if not isinstance(name, str):
            raise GraphError(f"node {node_id} name must be a string, got {name!r}")
        if props:
            for key, value in props.items():
                if allowed is None:
                    if not isinstance(value, SCALAR):
                        raise _not_scalar(key, value)
                elif type(value) is not allowed.get(key):
                    if key not in allowed:
                        raise GraphError(f"property {key!r} not allowed on class {class_name!r}")
                    raise GraphError(
                        f"property {key!r} of class {class_name!r} must be "
                        f"{KIND_OF[allowed[key]]}, got {type(value).__name__}"
                    )
        nodes = self._nodes
        if node_id in nodes:
            raise GraphError(f"duplicate node id {node_id}")
        nodes[node_id] = Node(node_id, class_name, name, props)
        self._by_from[node_id] = []
        self._by_to[node_id] = []
        ids = self._label_index.get(class_name)
        if ids is None:
            ids = self._label_index[class_name] = []
        ids.append(node_id)
        if self._by_name is not None:
            names = self._by_name.get(class_name)
            if names is None:
                names = self._by_name[class_name] = {}
            if name not in names:
                names[name] = node_id
        if self._by_provider_id is not None and props and "provider_id" in props:
            self._by_provider_id.setdefault(props["provider_id"], node_id)
        if node_id >= self._next_node:
            self._next_node = node_id + 1

    def add_edge(
        self, from_id: int, to_id: int, type: str, properties: dict[str, Scalar] | None = None
    ) -> int:
        self._check_mutable()
        edge_id = self._next_edge
        self._insert_edge(edge_id, type, from_id, to_id, dict(properties or {}))
        return edge_id

    def _insert_edge(
        self, edge_id: int, edge_type: str, from_id: int, to_id: int, props: dict[str, Scalar]
    ) -> None:
        """The one way into the edge table: check the fields, then make the
        edge, which keeps `props` itself, and index it."""
        if not isinstance(edge_type, str) or edge_type not in EDGE_TYPES:
            raise GraphError(f"unregistered edge type {edge_type!r}")
        nodes = self._nodes
        if from_id not in nodes:
            raise GraphError(f"edge source {from_id!r} does not exist")
        if to_id not in nodes:
            raise GraphError(f"edge target {to_id!r} does not exist")
        if props:
            for key, value in props.items():
                if not isinstance(value, SCALAR):
                    raise _not_scalar(key, value)
        edges = self._edges
        if edge_id in edges:
            raise GraphError(f"duplicate edge id {edge_id}")
        edge = edges[edge_id] = Edge(edge_id, edge_type, from_id, to_id, props)
        self._by_from[from_id].append(edge)
        self._by_to[to_id].append(edge)
        if self._edge_keys is not None:
            self._edge_keys.add(_edge_key(from_id, to_id, edge_type))
        if edge_id >= self._next_edge:
            self._next_edge = edge_id + 1

    def add_edge_once(self, from_id: int, to_id: int, type: str) -> bool:
        """Add an edge of `type` from `from_id` to `to_id` unless one exists;
        True when it was added. The resolution passes insert through this,
        so rerunning a pass adds nothing."""
        if self.has_edge(from_id, to_id, type):
            return False
        self.add_edge(from_id, to_id, type)
        return True

    def freeze(self) -> None:
        """End construction."""
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
        matches `label` if given; each call returns a new list."""
        edges = self._by_from[node_id]
        classes = None if label is None else self._classes_of(label)
        if type is None and classes is None:
            return list(edges)
        nodes = self._nodes
        return [
            e
            for e in edges
            if (type is None or e.type == type)
            and (classes is None or nodes[e.to_id].class_name in classes)
        ]

    def in_edges(
        self, node_id: int, type: str | None = None, label: str | None = None
    ) -> list[Edge]:
        """Edges entering `node_id`; `type` and `label` (on the source) as
        in `out_edges`, and each call returns a new list."""
        edges = self._by_to[node_id]
        classes = None if label is None else self._classes_of(label)
        if type is None and classes is None:
            return list(edges)
        nodes = self._nodes
        return [
            e
            for e in edges
            if (type is None or e.type == type)
            and (classes is None or nodes[e.from_id].class_name in classes)
        ]

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
        expression classes; None for the universal `Node` label, and no
        class for a label the graph does not know."""
        return self._label_classes.get(label, frozenset())

    def has_label(self, label: str) -> bool:
        """Whether `label` is `Node`, a code class or an ontology class."""
        return label in self._label_classes

    def label_may_carry(self, label: str, key: str, value_type: type | None = None) -> bool:
        """Whether some class matching `label` lets its nodes carry `key`,
        with a value of `value_type` if given."""
        classes = self._classes_of(label)
        keys = self._property_keys
        return classes is None or any(
            keys[c] is None or (key in keys[c] and value_type in (None, keys[c][key]))
            for c in classes
        )

    def label_candidates(self, label: str) -> list[int]:
        """Node ids matching `label` with inheritance resolved, in id order
        (`Node`: in insertion order); each call returns a new list."""
        classes = self._classes_of(label)
        if classes is None:
            return list(self._nodes)
        index = self._label_index
        return sorted(i for cls in classes for i in index.get(cls, ()))

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
        if self._by_name is None:
            by_name: dict[str, dict[str, int]] = {}
            for node in self._nodes.values():
                by_name.setdefault(node.class_name, {}).setdefault(node.name, node.id)
            self._by_name = by_name
        return self._by_name.get(class_name, {}).get(name)

    def find_by_provider_id(self, provider_id: str) -> int | None:
        if self._by_provider_id is None:
            by_provider_id: dict[Scalar, int] = {}
            for node in self._nodes.values():
                if "provider_id" in node.properties:
                    by_provider_id.setdefault(node.properties["provider_id"], node.id)
            self._by_provider_id = by_provider_id
        return self._by_provider_id.get(provider_id)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_document(cls, doc: dict) -> "PropertyGraph":
        """Check an export document and build the frozen graph it holds. The
        graph takes over the document's property mappings: each node and
        edge keeps its row's `properties` dict, not a copy of it."""
        check_fields(doc, "graph document", GraphError, *_EXPORT)
        graph = cls(ontology_from_documents(doc["ontology"], doc.get("mappings") or []))
        settings = check_fields(doc.get("settings") or {}, "settings", GraphError, *_SETTINGS)
        graph.settings = dict(settings)
        check_positive_int(graph.settings.get("star_max", DEFAULT_STAR_MAX), GraphError, "settings.star_max")
        # A row is a list of exactly the fields `export_graph` writes; an id
        # is an int, never a bool or a float, and not negative.
        insert_node = graph._insert_node
        for row in doc["nodes"]:
            try:
                node_id, class_name, name, props = row
                if type(row) is not list or type(node_id) is not int or node_id < 0 or type(props) is not dict:
                    raise ValueError("not a node row as export_graph writes it")
            except (TypeError, ValueError) as exc:
                raise _malformed("node", row) from exc
            insert_node(node_id, class_name, name, props)
        insert_edge = graph._insert_edge
        for row in doc["edges"]:
            try:
                edge_id, edge_type, from_id, to_id, props = row
                if (
                    type(row) is not list
                    or type(edge_id) is not int or type(from_id) is not int or type(to_id) is not int
                    or edge_id < 0 or from_id < 0 or to_id < 0
                    or type(props) is not dict
                ):
                    raise ValueError("not an edge row as export_graph writes it")
            except (TypeError, ValueError) as exc:
                raise _malformed("edge", row) from exc
            insert_edge(edge_id, edge_type, from_id, to_id, props)
        graph.freeze()
        return graph


# Encodes a non-empty property dict. With `indent` left at None `encode`
# runs the C encoder; any `indent` makes the json module fall back to its
# pure-Python encoder.
_encode = json.JSONEncoder(sort_keys=True).encode
_string = json.encoder.encode_basestring_ascii


def _section(value) -> str:
    # a JSON string never holds a raw newline, so every newline is layout
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _rows(rows: list[str]) -> str:
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def export_graph(graph: PropertyGraph) -> str:
    """Serialize to the JSON export format, deterministically ordered.

    The document holds the graph's `ontology` and `mappings` documents,
    its `settings`, and one row per node, `[id, class, name, properties]`,
    and per edge, `[id, type, from, to, properties]`, sorted by id, ids as
    JSON integers. The text is exactly ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` of it, except that each row sits on one
    line as ``json.dumps(row, sort_keys=True)``. It is laid out here
    straight from the node and edge tables, so that strings and non-empty
    property dicts go through the C encoder and no document is built.
    """
    ontology_doc, mapping_docs = graph.ontology.to_documents()
    nodes = [
        f"[{n.id}, {_string(n.class_name)}, {_string(n.name)}, {_encode(n.properties) if n.properties else '{}'}]"
        for n in map(graph._nodes.__getitem__, sorted(graph._nodes))
    ]
    edges = [
        f"[{e.id}, {_string(e.type)}, {e.from_id}, {e.to_id}, {_encode(e.properties) if e.properties else '{}'}]"
        for e in map(graph._edges.__getitem__, sorted(graph._edges))
    ]
    return (
        "{\n"
        f'  "edges": {_rows(edges)},\n'
        f'  "mappings": {_section(mapping_docs)},\n'
        f'  "nodes": {_rows(nodes)},\n'
        f'  "ontology": {_section(ontology_doc)},\n'
        f'  "settings": {_section(graph.settings)}\n'
        "}\n"
    )


def import_graph(text: str | dict) -> PropertyGraph:
    """Rebuild a frozen graph from an export document. A document passed
    as a dict is read in place, and the graph keeps its property dicts.

    The cyclic collector is paused meanwhile: import builds acyclic data
    only, so a collection during it could free nothing. Before it is
    resumed, what import allocated moves to the oldest generation, so that
    no young collection walks the new graph; a full collection still finds
    any cycle among it. That move would also thaw objects the host froze
    with `gc.freeze()`, so it is skipped while any are frozen.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(text, str):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GraphError(f"graph document is not valid JSON: {exc}") from exc
            # an integer of more digits than `sys.get_int_max_str_digits()`
            except ValueError as exc:
                raise GraphError(f"graph document cannot be read: {exc}") from exc
            # the C decoder recurses once per nesting level
            except RecursionError as exc:
                raise GraphError("graph document is nested too deeply to parse") from exc
        else:
            doc = text
        return PropertyGraph.from_document(doc)
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()
