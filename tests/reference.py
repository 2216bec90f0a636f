"""Reference implementations used as oracles by the test suite.

Everything here but `reference_rows` is deliberately naive and shares no
traversal code with the engine: labels are matched by walking parent links
one at a time, matching enumerates assignments left to right with plain
edge-list scans, and `naive_matches` additionally tries every node
assignment up front. `reference_rows` is the order oracle: the engine's
earlier interpreted walk, on the engine's plan and step lists, with the
plan's tests run one call at a time by `_holds`, which evaluates each
comparison from the parsed query, not from the plan's flags for it.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter

from skygraph.errors import GraphError, SkygraphError, UnknownClassError
from skygraph.graph import EDGE_TYPES, Edge, Node, PropertyGraph, _EXPORT, _SETTINGS
from skygraph.ontology import ontology_from_documents
from skygraph.yamlfile import DEFAULT_STAR_MAX, SCALAR, check_fields, check_positive_int
from skygraph.query.engine import _OR, _hop_lists, _plan, _steps
from skygraph.query.syntax import NodeComparison, PropertyComparison, QueryAst


def to_document(graph: PropertyGraph) -> dict:
    """The export document of `graph`: the spec that `export_graph`'s text
    is `export_text` of, and the document `import_graph` reads."""
    ontology_doc, mapping_docs = graph.ontology.to_documents()
    return {
        "ontology": ontology_doc,
        "mappings": mapping_docs,
        "settings": dict(graph.settings),
        "nodes": [
            [n.id, n.class_name, n.name, dict(n.properties)]
            for n in sorted(graph.nodes(), key=lambda n: n.id)
        ],
        "edges": [
            [e.id, e.type, e.from_id, e.to_id, dict(e.properties)]
            for e in sorted(graph.edges(), key=lambda e: e.id)
        ],
    }


#: the fields of a node row and of an edge row, in their order
ROW_FIELDS = {"nodes": ("id", "class", "name", "properties"), "edges": ("id", "type", "from", "to", "properties")}


def object_entries(doc: dict) -> dict:
    """`doc` as exports were written before rows: each node and edge an
    object of its fields, ids as strings of digits."""
    return dict(
        doc,
        **{
            section: [
                {key: str(value) if key in ("id", "from", "to") else value for key, value in zip(fields, row)}
                for row in doc[section]
            ]
            for section, fields in ROW_FIELDS.items()
        },
    )


def export_text(doc: dict) -> str:
    """The text `export_graph` writes of `doc`: ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"``, except that each node and edge row sits on
    one line as ``json.dumps(row, sort_keys=True)``. Each row is dumped in
    place of a marker string, which no other string of `doc` may equal."""
    rows = [*doc["nodes"], *doc["edges"]]
    markers = [f"\0row {i}" for i in range(len(rows))]
    split = len(doc["nodes"])
    text = json.dumps(dict(doc, nodes=markers[:split], edges=markers[split:]), indent=2, sort_keys=True)
    marker = re.compile(r'"\\u0000row (\d+)"')
    assert len(marker.findall(text)) == len(rows)
    return marker.sub(lambda match: json.dumps(rows[int(match[1])], sort_keys=True), text) + "\n"


def _id(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ValueError(f"id {value!r} is not a non-negative integer")


def _fields(row, what: str, width: int, id_slots: tuple[int, ...]) -> list:
    """The fields of a node or edge row as `export_graph` writes it: a list
    of `width` fields, ids at `id_slots` and the properties last; else the
    GraphError `from_document` raises for the row."""
    if type(row) is dict:
        raise GraphError(
            f"{what} entries are objects, as older exports wrote them; "
            "rebuild the export with `skygraph build`"
        )
    try:
        if type(row) is not list or len(row) != width or type(row[-1]) is not dict:
            raise ValueError(f"not a {what} row as export_graph writes it")
        for slot in id_slots:
            _id(row[slot])
    except ValueError as exc:
        raise GraphError(f"malformed {what} entry {row!r}") from exc
    return row


def _not_scalar(key: str, value) -> GraphError:
    return GraphError(
        f"property {key!r} must be string/boolean/integer, got {type(value).__name__}"
    )


def _check_node(graph: PropertyGraph, node: Node) -> None:
    if not isinstance(node.class_name, str):
        raise GraphError(f"node {node.id} class must be a string, got {node.class_name!r}")
    allowed = graph.property_keys(node.class_name)
    if not isinstance(node.name, str):
        raise GraphError(f"node {node.id} name must be a string, got {node.name!r}")
    kinds = {str: "string", bool: "boolean", int: "integer"}
    for key, value in node.properties.items():
        if allowed is None:
            if not isinstance(value, SCALAR):
                raise _not_scalar(key, value)
        elif key not in allowed:
            raise GraphError(f"property {key!r} not allowed on class {node.class_name!r}")
        elif type(value) is not allowed[key]:
            raise GraphError(
                f"property {key!r} of class {node.class_name!r} must be {kinds[allowed[key]]}, "
                f"got {type(value).__name__}"
            )
    if node.id in graph._nodes:
        raise GraphError(f"duplicate node id {node.id}")


def _check_edge(graph: PropertyGraph, edge: Edge) -> None:
    if not isinstance(edge.type, str) or edge.type not in EDGE_TYPES:
        raise GraphError(f"unregistered edge type {edge.type!r}")
    if edge.from_id not in graph._nodes:
        raise GraphError(f"edge source {edge.from_id!r} does not exist")
    if edge.to_id not in graph._nodes:
        raise GraphError(f"edge target {edge.to_id!r} does not exist")
    for key, value in edge.properties.items():
        if not isinstance(value, SCALAR):
            raise _not_scalar(key, value)
    if edge.id in graph._edges:
        raise GraphError(f"duplicate edge id {edge.id}")


def _index(insert, *fields) -> None:
    try:
        insert(*fields)
    except SkygraphError as exc:
        raise AssertionError(f"the insert path rejects what the reference accepts: {exc}") from exc


def from_document(doc) -> PropertyGraph:
    """What `PropertyGraph.from_document` reads: a per-row reader that
    parses each row with helper calls and runs the insert checks in their
    order before indexing it. The spec the inline reader is compared with;
    a check that only the insert path makes is an AssertionError here."""
    check_fields(doc, "graph document", GraphError, *_EXPORT)
    graph = PropertyGraph(ontology_from_documents(doc["ontology"], doc.get("mappings") or []))
    settings = check_fields(doc.get("settings") or {}, "settings", GraphError, *_SETTINGS)
    graph.settings = dict(settings)
    check_positive_int(graph.settings.get("star_max", DEFAULT_STAR_MAX), GraphError, "settings.star_max")
    for row in doc["nodes"]:
        node_id, class_name, name, props = _fields(row, "node", 4, (0,))
        node = Node(node_id, class_name, name, dict(props))
        _check_node(graph, node)
        _index(graph._insert_node, node.id, node.class_name, node.name, node.properties)
    for row in doc["edges"]:
        edge_id, edge_type, from_id, to_id, props = _fields(row, "edge", 5, (0, 2, 3))
        edge = Edge(edge_id, edge_type, from_id, to_id, dict(props))
        _check_edge(graph, edge)
        _index(graph._insert_edge, edge.id, edge.type, edge.from_id, edge.to_id, edge.properties)
    graph.freeze()
    return graph


def oracle_label_match(graph: PropertyGraph, node_id: int, label: str) -> bool:
    cls = graph.node(node_id).class_name
    if label == "Node" or label == cls:
        return True
    if label == "Expression" and cls in ("Expression", "CallExpression", "Literal"):
        return True
    ontology = graph.ontology
    if ontology.has_class(cls) and ontology.has_class(label):
        cur = cls
        while cur is not None:
            if cur == label:
                return True
            cur = ontology.classes[cur].get("parent")
    return False


def oracle_property_keys(ontology, class_name: str) -> dict[str, type] | None:
    """The keys a node of `class_name` may carry, each with the Python type
    of its kind, by walking parent links: every declared data property on
    the way, the nearest declaration winning, plus `name` and `provider_id`
    as strings for an ontology class; None (any key) for a code class of no
    ontology class's name."""
    types = {"string": str, "boolean": bool, "integer": int}
    if ontology.has_class(class_name):
        keys = {}
        cur = class_name
        while cur is not None:
            for key, kind in (ontology.classes[cur].get("data_properties") or {}).items():
                keys.setdefault(key, types[kind])
            cur = ontology.classes[cur].get("parent")
        return {"name": str, "provider_id": str} | keys
    if class_name in ("FunctionDeclaration", "CallExpression", "Expression", "Literal"):
        return None
    raise UnknownClassError(class_name)


def _scalar_equal(a, b) -> bool:
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _nodes_equal(graph, left, right) -> bool:
    a, b = graph.node(left), graph.node(right)
    return (a.class_name, a.name, a.properties) == (b.class_name, b.name, b.properties)


def _oracle_comparison(graph: PropertyGraph, comparison, bindings: dict[str, int]) -> bool:
    if isinstance(comparison, PropertyComparison):
        if comparison.var not in bindings:
            return False
        node = graph.node(bindings[comparison.var])
        if comparison.key in node.properties:
            value = node.properties[comparison.key]
        elif comparison.key == "name":
            value = node.name
        else:
            return False
        equal = _scalar_equal(value, comparison.literal)
        return equal if comparison.op == "=" else not equal
    if isinstance(comparison, NodeComparison):
        if comparison.left not in bindings or comparison.right not in bindings:
            return False
        return not _nodes_equal(graph, bindings[comparison.left], bindings[comparison.right])
    raise TypeError(comparison)


def _holds(graph: PropertyGraph, test, nodes) -> bool:
    """Whether a test of the engine's plan, as `_due` pairs it, holds on
    `nodes`, the bound node ids by pattern index. Of its shape only the
    indices are read; the rest comes from its parsed comparison: two
    indices of one variable bind one node, an OR holds when all tests of
    one of its disjuncts do, `a <> b` compares by value, and a property
    comparison reads `property_value`, false if the node lacks the key."""
    shape, term = test
    if type(term) is list:
        return any(all(_holds(graph, t, nodes) for t in conjuncts) for conjuncts in term)
    left, right = shape[2:4]
    if term is None:
        return nodes[left] == nodes[right]
    if isinstance(term, NodeComparison):
        return not _nodes_equal(graph, nodes[left], nodes[right])
    value = graph.property_value(nodes[left], term.key)
    if value is None:
        return False
    equal = _scalar_equal(value, term.literal)
    return equal if term.op == "=" else not equal


def _due(plan, count: int) -> list[list]:
    """Per pattern index, the tests of `plan` due there, each its shape and
    its comparison; an OR is its shape and its disjuncts, each a list of
    such tests."""
    due: list[list] = [[] for _ in range(count)]
    tests = iter(zip(plan.tests, plan.terms))
    for shape, term in tests:
        if shape[0] == _OR:  # (kind, due at, the size of each disjunct)
            term = [list(itertools.islice(tests, size)) for size in shape[2:]]
        due[shape[1]].append((shape, term))
    return due


def oracle_predicate(graph: PropertyGraph, where, bindings: dict[str, int]) -> bool:
    """`where` as the parser gives it: a tuple of disjuncts, each a tuple
    of comparisons that must all hold."""
    for conjuncts in where:
        if all(_oracle_comparison(graph, c, bindings) for c in conjuncts):
            return True
    return False


def _bindings(node_patterns, assigned) -> dict[str, int]:
    return {
        np.var: assigned[i] for i, np in enumerate(node_patterns) if np.var is not None
    }


def _label_ok(graph, node_id, label) -> bool:
    return label is None or oracle_label_match(graph, node_id, label)


def _var_ok(node_patterns, assigned, index, node_id) -> bool:
    var = node_patterns[index].var
    if var is None:
        return True
    for j in range(index):
        if node_patterns[j].var == var and assigned[j] != node_id:
            return False
    return True


def _hops(graph, rel, cur):
    """Single hops from `cur` under the rel pattern's constraints, as
    (edge id, neighbor, forward) with `forward` true when the edge points
    from `cur`. An undirected self-loop is one hop, forward."""
    for edge in graph.edges():
        if rel.type is not None and edge.type != rel.type:
            continue
        if rel.direction in ("right", "undirected") and edge.from_id == cur:
            yield edge.id, edge.to_id, True
        elif rel.direction in ("left", "undirected") and edge.to_id == cur:
            yield edge.id, edge.from_id, False


def oracle_paths(graph: PropertyGraph, ast: QueryAst, star_max: int = 10) -> Counter:
    """Multiset of (bindings, path node ids, edge ids, forward flags), one
    per match, by exhaustive left-to-right enumeration."""
    node_patterns = ast.node_patterns
    rel_patterns = ast.rel_patterns
    out: Counter = Counter()

    def rec(index: int, assigned: list[int], route: tuple) -> None:
        if index == len(node_patterns) - 1:
            bindings = _bindings(node_patterns, assigned)
            if ast.where is None or oracle_predicate(graph, ast.where, bindings):
                node_ids = (assigned[0],) + tuple(node for _, node, _ in route)
                edge_ids = tuple(edge_id for edge_id, _, _ in route)
                flags = tuple(forward for _, _, forward in route)
                out[frozenset(bindings.items()), node_ids, edge_ids, flags] += 1
            return
        rel = rel_patterns[index]
        lo = rel.hops.min
        hi = rel.hops.max if rel.hops.max is not None else star_max
        used = {edge_id for edge_id, _, _ in route}

        def walk(cur: int, steps: tuple, depth: int) -> None:
            if lo <= depth:
                if _label_ok(graph, cur, node_patterns[index + 1].label) and _var_ok(
                    node_patterns, assigned, index + 1, cur
                ):
                    assigned.append(cur)
                    rec(index + 1, assigned, route + steps)
                    assigned.pop()
            if depth >= hi:
                return
            taken = {edge_id for edge_id, _, _ in steps}
            for edge_id, neighbor, forward in _hops(graph, rel, cur):
                if edge_id in used or edge_id in taken:
                    continue
                walk(neighbor, steps + ((edge_id, neighbor, forward),), depth + 1)

        walk(assigned[index], (), 0)

    for node in graph.nodes():
        if _label_ok(graph, node.id, node_patterns[0].label):
            rec(0, [node.id], ())
    return out


def oracle_matches(graph: PropertyGraph, ast: QueryAst, star_max: int = 10) -> set[frozenset]:
    """Set of binding maps of `oracle_paths`."""
    return {bindings for bindings, _, _, _ in oracle_paths(graph, ast, star_max)}


def result_paths(results) -> Counter:
    """Engine results in the form `oracle_paths` returns."""
    return Counter(
        (frozenset(r.bindings.items()), r.path.node_ids, r.path.edge_ids, r.path.forward)
        for r in results
    )


def row_paths(ast: QueryAst, rows) -> Counter:
    """Rows of `iter_matches` in the form `oracle_paths` returns; a single
    node pattern's path is its one bound node."""
    variables = [(np.var, i) for i, np in enumerate(ast.node_patterns) if np.var is not None]
    return Counter(
        (frozenset((var, nodes[i]) for var, i in variables), path_ids or nodes, edge_ids, forward)
        for nodes, edge_ids, path_ids, forward in rows
    )


def render_path(graph: PropertyGraph, path) -> str:
    """`skygraph query`'s line for `path`, read through `graph.node` and
    `graph.edge` one element at a time."""
    parts = []
    for i, edge_id in enumerate(path.edge_ids):
        node = graph.node(path.node_ids[i])
        arrow = "-[{}]->" if path.forward[i] else "<-[{}]-"
        parts.append(f"{node.name}({node.class_name}) " + arrow.format(graph.edge(edge_id).type))
    last = graph.node(path.node_ids[-1])
    parts.append(f"{last.name}({last.class_name})")
    return " ".join(parts)


def reference_rows(graph: PropertyGraph, ast: QueryAst, star_max: int = DEFAULT_STAR_MAX) -> list:
    """The rows of `iter_matches`, in its order, from one interpreted walk
    on one stack: the engine's walk before it was compiled per plan shape.

    It walks the engine's plan over the lists the engine's `_steps` makes,
    but keeps the plan's label members and the lists in fresh stores of
    its own, the lists laid out by `_hop_lists`, so nothing the graph's
    `hop_steps` kept from an earlier query is read here. Each test runs on its own, as `_holds` reads it.
    Its frames are `(hop, steps taken in the hop, iterator over the steps
    out of the node reached, held)`: one per hop entered and one per step
    taken below the hop's upper bound. Popping a frame releases the step
    it holds, if any. A step that ends a route and binds its target
    enters the next hop, or completes a match on the last one; a step at
    the hop's bound takes no frame.
    """
    plan = _plan(graph, ast, star_max, {})
    anchor = plan.anchor
    due = _due(plan, len(ast.node_patterns))
    nodes: list = [None] * len(ast.node_patterns)
    routes: list[list] = [[] for _ in ast.rel_patterns]
    left_routes, right_routes = routes[:anchor], routes[anchor:]
    used: set[int] = set()
    # per hop: (source, target, rightward, lo, hi, route, rel, members, inner, budgets)
    walks = [
        (source, target, rightward, lo, hi, routes[r], *lists)
        for (source, target, r, rightward, lo, hi, _, _), lists in zip(plan.hops, _hop_lists({}, plan, ast))
    ]

    def bind(index: int, node_id: int) -> bool:
        nodes[index] = node_id
        return all(_holds(graph, test, nodes) for test in due[index])

    def frame(hop: int, depth: int, node_id: int, held) -> tuple:
        _, _, rightward, lo, hi, _, rel, members, inner, budgets = walks[hop]
        steps = _steps(graph, node_id, rel, rightward, members, inner, budgets, hi - depth - 1, hi - lo)
        return hop, depth, iter(steps), held

    rows = []
    for seed in plan.candidates[anchor]:
        if not bind(anchor, seed):
            continue
        if not walks:
            rows.append((tuple(nodes), (), (), ()))
            continue
        stack = [frame(0, 0, seed, None)]
        while stack:
            hop, depth, steps, held = stack[-1]
            _, target, _, lo, hi, route, _, members, _, _ = walks[hop]
            depth += 1
            for step in steps:
                edge_id, neighbor, _ = step
                if edge_id in used:
                    continue
                used.add(edge_id)
                route.append(step)
                if depth < hi:
                    stack.append(frame(hop, depth, neighbor, route))
                if (
                    lo <= depth
                    and (depth == hi or members is None or neighbor in members)
                    and bind(target, neighbor)
                ):
                    if hop + 1 < len(walks):
                        entry = nodes[walks[hop + 1][0]]
                        stack.append(frame(hop + 1, 0, entry, route if depth == hi else None))
                        break
                    taken = []
                    for part in left_routes:
                        taken += reversed(part)
                    left = len(taken)
                    for part in right_routes:
                        taken += part
                    edge_ids, reached, forward = zip(*taken)
                    path_ids = (*reached[:left], nodes[anchor], *reached[left:])
                    rows.append((tuple(nodes), edge_ids, path_ids, forward))
                if depth < hi:
                    break
                used.discard(edge_id)
                route.pop()
            else:
                stack.pop()
                if held is not None:
                    used.discard(held.pop()[0])
    return rows


def naive_matches(graph: PropertyGraph, ast: QueryAst, star_max: int = 10) -> set[frozenset]:
    """Even blunter oracle: try every node assignment, then every

    combination of simple edge routes between consecutive assignments.
    Only usable on small graphs and short patterns."""
    node_patterns = ast.node_patterns
    rel_patterns = ast.rel_patterns
    ids = [n.id for n in graph.nodes()]
    out: set[frozenset] = set()

    for combo in itertools.product(ids, repeat=len(node_patterns)):
        ok = True
        for i, np in enumerate(node_patterns):
            if not _label_ok(graph, combo[i], np.label):
                ok = False
                break
            if np.var is not None:
                for j in range(i):
                    if node_patterns[j].var == np.var and combo[j] != combo[i]:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue

        def connect(ri: int, used: frozenset) -> None:
            if ri == len(rel_patterns):
                bindings = _bindings(node_patterns, list(combo))
                if ast.where is None or oracle_predicate(graph, ast.where, bindings):
                    out.add(frozenset(bindings.items()))
                return
            rel = rel_patterns[ri]
            lo = rel.hops.min
            hi = rel.hops.max if rel.hops.max is not None else star_max

            def walk(cur: int, steps: frozenset, depth: int) -> None:
                if lo <= depth and cur == combo[ri + 1]:
                    connect(ri + 1, used | steps)
                if depth >= hi:
                    return
                for edge_id, neighbor, _ in _hops(graph, rel, cur):
                    if edge_id in used or edge_id in steps:
                        continue
                    walk(neighbor, steps | {edge_id}, depth + 1)

            walk(combo[ri], frozenset(), 0)

        connect(0, frozenset())
    return out


# -- randomized inputs ---------------------------------------------------------


def random_graph(rng: random.Random, ontology, max_nodes: int = 12) -> PropertyGraph:
    """Small random graph over the test ontology plus code classes."""
    graph = PropertyGraph(ontology)
    classes = ["Thing", "Sub", "SubSub", "Other", "CallExpression", "Literal", "Expression"]
    names = ["alpha", "beta", "gamma"]
    node_count = rng.randint(1, max_nodes)
    for _ in range(node_count):
        cls = rng.choice(classes)
        props = {}
        if rng.random() < 0.6:
            props["p"] = rng.choice([1, 2])
        if rng.random() < 0.4:
            props["q"] = rng.choice(["x", "y"])
        if rng.random() < 0.3:
            props["flag"] = rng.choice([True, False])
        graph.add_node(cls, rng.choice(names), props)
    edge_count = rng.randint(0, 2 * node_count)
    types = ["DFG", "TO", "CALLS", "CONTAINS"]
    for _ in range(edge_count):
        graph.add_edge(
            rng.randrange(node_count), rng.randrange(node_count), rng.choice(types)
        )
    graph.freeze()
    return graph


def random_hub_graph(rng: random.Random, ontology) -> PropertyGraph:
    """Random graph around one or two hubs of degree 20-40.

    Each hub has a neighbour of every test-ontology and code class, then
    edges in either direction to random neighbours, which give parallel
    edges, to the other hub, and to itself. A few edges join neighbours.
    """
    graph = PropertyGraph(ontology)
    classes = ["Thing", "Sub", "SubSub", "Other", "CallExpression", "Literal", "Expression", "FunctionDeclaration"]
    hubs = [graph.add_node(rng.choice(classes), "hub") for _ in range(rng.randint(1, 2))]
    leaves = []
    for cls in classes + [rng.choice(classes) for _ in range(rng.randint(4, 12))]:
        props = {"p": rng.choice([1, 2])} if rng.random() < 0.5 else {}
        leaves.append(graph.add_node(cls, rng.choice(["alpha", "beta"]), props))
    types = ["DFG", "TO", "CALLS", "CONTAINS"]

    def link(a: int, b: int) -> None:
        if rng.random() < 0.5:
            a, b = b, a
        graph.add_edge(a, b, rng.choice(types))

    for hub in hubs:
        degree = rng.randint(20, 40)
        for leaf in leaves[: len(classes)]:
            link(hub, leaf)
        for _ in range(degree - len(classes)):
            kind = rng.random()
            link(hub, hub if kind < 0.1 else rng.choice(hubs) if kind < 0.2 else rng.choice(leaves))
    for _ in range(rng.randint(0, 4)):
        link(rng.choice(leaves), rng.choice(leaves))
    graph.freeze()
    return graph


#: Labels `random_query` draws from by default.
QUERY_LABELS = (None, "Node", "Thing", "Sub", "SubSub", "Other", "Expression", "CallExpression")


def random_query(rng: random.Random, max_nodes: int = 3, labels=QUERY_LABELS, types=(None, "DFG", "TO", "CALLS")) -> str:
    """Random query text over the same vocabulary as `random_graph`."""
    count = rng.randint(1, max_nodes)
    vars_used = []
    parts = []
    for i in range(count):
        if i == 0:
            var = "v0"
        elif vars_used and rng.random() < 0.15:
            var = rng.choice(vars_used)  # repeated variable: same node twice
        elif rng.random() < 0.7:
            var = f"v{i}"
        else:
            var = None
        if var and var not in vars_used:
            vars_used.append(var)
        label = rng.choice(labels)
        inner = (var or "") + (f":{label}" if label else "")
        parts.append(f"({inner})")
        if i < count - 1:
            rtype = rng.choice(types)
            hop = rng.choice(["", "", "*", "*2"])
            body = ""
            if rtype or hop:
                body = "[" + (f":{rtype}" if rtype else "") + hop + "]"
            elif rng.random() < 0.3:
                body = "[]"
            arrow = rng.choice([f"-{body}->", f"<-{body}-", f"-{body}-"])
            parts.append(arrow)
    text = "MATCH p=" + "".join(parts)
    if rng.random() < 0.5 and vars_used:
        clauses = []
        for _ in range(rng.randint(1, 2)):
            var = rng.choice(vars_used)
            kind = rng.random()
            if kind < 0.4:
                clauses.append(f"{var}.p {rng.choice(['=', '<>'])} {rng.choice([1, 2])}")
            elif kind < 0.6:
                clauses.append(f'{var}.q {rng.choice(["=", "<>"])} "x"')
            elif kind < 0.8 and len(vars_used) > 1:
                other = rng.choice([v for v in vars_used if v != var] or vars_used)
                clauses.append(f"{var} <> {other}")
            else:
                clauses.append(f"{var}.flag = {rng.choice(['true', 'false'])}")
        text += " WHERE " + f" {rng.choice(['AND', 'OR'])} ".join(clauses)
    text += f" RETURN {vars_used[0]}"
    return text


def small_ontology_documents() -> tuple[dict, list]:
    doc = {
        "classes": [
            {"name": "Thing", "kind": "resource", "data_properties": {"p": "integer", "q": "string", "flag": "boolean"}},
            {"name": "Sub", "kind": "resource", "parent": "Thing"},
            {"name": "SubSub", "kind": "resource", "parent": "Sub"},
            {"name": "Other", "kind": "resource", "data_properties": {"p": "integer", "q": "string", "flag": "boolean"}},
        ]
    }
    return doc, []
