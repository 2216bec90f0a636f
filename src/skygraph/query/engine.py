"""Pattern evaluation against a frozen property graph.

Matching semantics:

* labels match through the ontology (and the universal `Node` label),
* directed relationship patterns follow edge direction, undirected ones
  match either orientation, untyped ones match every edge type,
* variable-length segments expand to simple edge sequences within bounds,
* one match never uses the same edge twice (relationship isomorphism),
* a node variable repeated in the pattern binds one node,
* a comparison on a property the bound node lacks is false, not an error,
* `a <> b` compares bound nodes by value: class, name and properties.

Results are deterministic: ordered by the bound node ids in pattern
order, then by the path's edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from skygraph.errors import QueryError
from skygraph.graph import EDGE_TYPES, Edge, Path, PropertyGraph
from skygraph.ontology import KIND_OF
from skygraph.query.syntax import Comparison, NodeComparison, PropertyComparison, QueryAst, RelPattern
from skygraph.yamlfile import DEFAULT_STAR_MAX


@dataclass
class MatchResult:
    bindings: dict[str, int]
    path: Path | None = None


# A constraint on a match, read on pattern indices: a WHERE comparison with
# the index of its node variable (the left one of a `<>`) and the right
# one's or -1, or None with two indices that must bind one node.
_Test = tuple[Comparison | None, int, int]


@dataclass
class _Plan:
    """What `evaluate` runs and `explain` prints.

    The anchor pattern is seeded from its candidates; each hop then binds
    its target pattern from its source, rightward from the anchor, then
    leftward, as (source, target, label, rel, rightward): the pattern
    indices, the target's label, which filters the last step of the hop's
    segment, the index of the relationship pattern it walks, and whether
    it walks that pattern left to right. `at_bind[i]` holds the tests due
    once pattern `i` is bound, and `disjuncts` the OR-ed lists of tests, of
    which a complete match must pass one.
    """

    anchor: int
    candidates: list[list[int]]
    hops: list[tuple[int, int, str | None, int, bool]]
    at_bind: list[list[_Test]]
    disjuncts: list[list[_Test]]


def _place(tests: list[_Test], anchor: int, at_bind: list[list[_Test]]) -> None:
    """Add each test to `at_bind` at the index it reads that binds last.
    The hops bind rightward from the anchor, then leftward, so that is the
    highest index if all it reads are at or right of the anchor, and the
    lowest otherwise."""
    for test in tests:
        indices = [i for i in test[1:] if i >= 0]
        at_bind[max(indices) if min(indices) >= anchor else min(indices)].append(test)


def _plan(graph: PropertyGraph, ast: QueryAst) -> _Plan:
    """The plan of `ast`; a QueryError for a label, relationship type,
    WHERE property key or WHERE literal kind that `graph` can never match,
    which would only ever match nothing.

    Every constraint is a test on pattern indices: each later occurrence
    of a node variable must bind the node of the occurrence before it,
    and a WHERE comparison reads its variables' first occurrences.
    """
    nodes = ast.node_patterns
    for label in (np.label for np in nodes):
        if label is not None and not graph.has_label(label):
            raise QueryError(f"unknown node label {label!r}")
    for rel in ast.rel_patterns:
        if rel.type is not None and rel.type not in EDGE_TYPES:
            raise QueryError(f"unknown relationship type {rel.type!r}")
    for term in (term for terms in ast.where or () for term in terms):
        if not isinstance(term, PropertyComparison):
            continue
        for label in (np.label for np in nodes if np.var == term.var):
            if not graph.label_may_carry(label or "Node", term.key):
                raise QueryError(f"no node of label {label!r} may carry property {term.key!r}")
            if not graph.label_may_carry(label or "Node", term.key, type(term.literal)):
                kind = KIND_OF[type(term.literal)]
                raise QueryError(
                    f"no node of label {label!r} may carry property {term.key!r} of kind {kind}"
                )
    candidates = [graph.label_candidates(np.label or "Node") for np in nodes]
    anchor = min(range(len(nodes)), key=lambda i: (len(candidates[i]), i))
    hops = [(i, i + 1, nodes[i + 1].label, i, True) for i in range(anchor, len(nodes) - 1)]
    hops += [(i + 1, i, nodes[i].label, i, False) for i in reversed(range(anchor))]

    first: dict[str, int] = {}
    latest: dict[str, int] = {}
    identities: list[_Test] = []
    for i, var in enumerate(np.var for np in nodes):
        if var is None:
            continue
        if var in latest:
            identities.append((None, latest[var], i))
        first.setdefault(var, i)
        latest[var] = i

    def test(term: Comparison) -> _Test:
        if isinstance(term, NodeComparison):
            return term, first[term.left], first[term.right]
        return term, first[term.var], -1

    disjuncts = [[test(term) for term in terms] for terms in ast.where or ()]
    # one disjunct is placed test by test; with an OR, each disjunct is
    # checked on a complete match
    conjuncts = identities + (disjuncts.pop() if len(disjuncts) == 1 else [])
    at_bind: list[list[_Test]] = [[] for _ in nodes]
    _place(conjuncts, anchor, at_bind)
    return _Plan(anchor, candidates, hops, at_bind, disjuncts)


def _bounds(rel: RelPattern, star_max: int) -> tuple[int, int]:
    return rel.hops.min, rel.hops.max if rel.hops.max is not None else star_max


# A hop's neighbor lists: (node id, label) -> what `_expand` lists there.
_Memo = dict[tuple[int, str | None], list[tuple[Edge, int, bool]]]


def _expand(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    label: str | None,
    memo: _Memo,
) -> list[tuple[Edge, int, bool]]:
    """Single hops from `node_id` honoring the pattern's direction, to
    neighbors matching `label` if given.

    Lists (edge, neighbor, forward): first the edges that point along the
    pattern's left-to-right orientation (`forward`), then those against it.
    An undirected self-loop comes once, as forward. The list is kept in
    `memo`, which must belong to this (rel, rightward) pair.
    """
    hops = memo.get((node_id, label))
    if hops is not None:
        return hops
    along, against = (
        (graph.out_edges, graph.in_edges) if rightward else (graph.in_edges, graph.out_edges)
    )
    hops = []
    if rel.direction != "left":
        for edge in along(node_id, rel.type, label):
            hops.append((edge, edge.to_id if edge.from_id == node_id else edge.from_id, True))
    if rel.direction != "right":
        for edge in against(node_id, rel.type, label):
            if rel.direction == "undirected" and edge.from_id == edge.to_id:
                continue
            hops.append((edge, edge.to_id if edge.from_id == node_id else edge.from_id, False))
    memo[node_id, label] = hops
    return hops


def _scalar_equal(a, b) -> bool:
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _nodes_equal(graph: PropertyGraph, left: int, right: int) -> bool:
    if left == right:
        return True
    a, b = graph.node(left), graph.node(right)
    return a.class_name == b.class_name and a.name == b.name and a.properties == b.properties


def _holds(graph: PropertyGraph, test: _Test, nodes: list[int]) -> bool:
    term, left, right = test
    if term is None:
        return nodes[left] == nodes[right]
    if right >= 0:
        return not _nodes_equal(graph, nodes[left], nodes[right])
    value = graph.property_value(nodes[left], term.key)
    if value is None:
        return False
    equal = _scalar_equal(value, term.literal)
    return equal if term.op == "=" else not equal


def evaluate(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> list[MatchResult]:
    """Every assignment of graph nodes and edge routes to the pattern.

    From each seed of the anchor, the hops are walked one step at a time,
    rightward from the anchor, then leftward, on one stack. It holds one
    frame per hop entered and one per step taken, each listing the steps
    out of the node reached, and popping a frame releases the step that
    pushed it. A step that ends a route and binds its target enters the
    next hop, or completes a match on the last one. Each test of the plan
    runs once the last of the patterns it reads is bound, and a complete
    match is kept when it passes one of the plan's disjuncts, if there are
    any.
    """
    node_patterns = ast.node_patterns
    rel_patterns = ast.rel_patterns
    plan = _plan(graph, ast)
    at_bind, disjuncts = plan.at_bind, plan.disjuncts
    nodes: list[int | None] = [None] * len(node_patterns)
    # per relationship pattern, the (edge, forward) steps of its live route
    # in walk order: right to left for the patterns left of the anchor
    routes: list[list[tuple[Edge, bool]]] = [[] for _ in rel_patterns]
    used: set[int] = set()
    results: list[tuple[tuple[int, ...], tuple[int, ...], MatchResult]] = []
    walks = []  # per hop: (source, target, label, rel, rightward, lo, hi, memo, route)
    for source, target, label, r, rightward in plan.hops:
        rel = rel_patterns[r]
        walks.append((source, target, label, rel, rightward, *_bounds(rel, star_max), {}, routes[r]))

    def bind(index: int, node_id: int) -> bool:
        """Bind pattern `index` unless a test due there rules `node_id` out;
        its label already holds, from the seeds or the route."""
        nodes[index] = node_id
        for test in at_bind[index]:
            if not _holds(graph, test, nodes):
                return False
        return True

    def frame(hop: int, depth: int, node_id: int) -> tuple:
        """The frame at `node_id` after `depth` steps of `hop`, listing the
        steps out of it: none at the hop's upper bound, and only to the
        target's label on the last step the hop may take."""
        _, _, label, rel, rightward, _, hi, memo, _ = walks[hop]
        if depth == hi:
            return hop, depth, ()
        last = label if depth + 1 == hi else None
        return hop, depth, iter(_expand(graph, node_id, rel, rightward, last, memo))

    def emit() -> None:
        if disjuncts and not any(
            all(_holds(graph, test, nodes) for test in tests) for tests in disjuncts
        ):
            return
        bindings = {
            np.var: node_id for np, node_id in zip(node_patterns, nodes) if np.var is not None
        }
        node_ids = [nodes[0]]
        edge_ids: list[int] = []
        flags: list[bool] = []
        for i, route in enumerate(routes):
            for edge, forward in route if i >= plan.anchor else reversed(route):
                node_ids.append(edge.to_id if forward else edge.from_id)
                edge_ids.append(edge.id)
                flags.append(forward)
        path = Path(tuple(node_ids), tuple(edge_ids), tuple(flags)) if ast.path_var else None
        results.append((tuple(nodes), tuple(edge_ids), MatchResult(bindings, path)))

    for seed in plan.candidates[plan.anchor]:
        if not bind(plan.anchor, seed):
            continue
        if not walks:  # a single node pattern
            emit()
            continue
        stack = [frame(0, 0, seed)]
        while stack:
            hop, depth, steps = stack[-1]
            _, target, label, _, _, lo, hi, _, route = walks[hop]
            for edge, neighbor, forward in steps:
                if edge.id in used:
                    continue
                used.add(edge.id)
                route.append((edge, forward))
                depth += 1
                stack.append(frame(hop, depth, neighbor))
                # a route shorter than `hi` ends at a waypoint, whose label
                # no step filtered
                if (
                    lo <= depth
                    and (depth == hi or label is None or graph.node_matches_label(neighbor, label))
                    and bind(target, neighbor)
                ):
                    if hop + 1 < len(walks):
                        stack.append(frame(hop + 1, 0, nodes[walks[hop + 1][0]]))
                    else:
                        emit()
                break
            else:
                stack.pop()
                if depth:
                    used.discard(route.pop()[0].id)

    results.sort(key=lambda item: (item[0], item[1]))
    return [result for _, _, result in results]


def explain(graph: PropertyGraph, ast: QueryAst, star_max: int = DEFAULT_STAR_MAX) -> str:
    """Describe the plan `evaluate` runs: seed choice and expansion order."""
    plan = _plan(graph, ast)

    def node_text(i: int) -> str:
        np = ast.node_patterns[i]
        return f"node #{i} {np.var or '_'}:{np.label or '(any)'}"

    lines = [f"seed at {node_text(plan.anchor)} ({len(plan.candidates[plan.anchor])} candidates)"]
    lines += [f"  {node_text(i)} candidates={len(c)}" for i, c in enumerate(plan.candidates)]
    order = [
        f"right #{source}" if rightward else f"left #{target}"
        for source, target, _, _, rightward in plan.hops
    ]
    lines.append("expansion order: " + (", ".join(order) or "none (single node pattern)"))
    lines += [
        f"  last step to node #{target} expands only to :{label}"
        for _, target, label, _, _ in plan.hops
        if label
    ]
    for i, rel in enumerate(ast.rel_patterns):
        if not rel.hops.is_single:
            lo, hi = _bounds(rel, star_max)
            lines.append(f"variable-length rel #{i} type={rel.type or '(any)'} bounds {lo}..{hi}")
    return "\n".join(lines)
