"""Pattern evaluation against a frozen property graph.

Matching semantics:

* labels match through the ontology (and the universal `Node` label),
* directed relationship patterns follow edge direction, undirected ones
  match either orientation, untyped ones match every edge type,
* variable-length segments expand to simple edge sequences within bounds,
* one match never uses the same edge twice (relationship isomorphism),
* a comparison on a property the bound node lacks is false, not an error,
* `a <> b` compares bound nodes by value: class, name and properties.

Results are deterministic: ordered by the bound node ids in pattern
order, then by the path's edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from skygraph.errors import QueryError
from skygraph.graph import Edge, Path, PropertyGraph
from skygraph.query.syntax import (
    BoolExpr,
    NodeComparison,
    NodePattern,
    PropertyComparison,
    QueryAst,
    RelPattern,
)
from skygraph.yamlfile import DEFAULT_STAR_MAX


@dataclass
class MatchResult:
    bindings: dict[str, int]
    path: Path | None = None


# One step of a route: the edge and whether it points along the pattern
# left-to-right.
_Step = tuple[Edge, bool]


@dataclass
class _Plan:
    """What `evaluate` runs and `explain` prints.

    The anchor pattern is seeded from its candidates; each hop then binds
    its target pattern from its source, as (source, target, label): the
    pattern indices, rightward from the anchor, then leftward, and the
    target's label, which filters the last step of the hop's segment.
    """

    anchor: int
    candidates: list[list[int]]
    hops: list[tuple[int, int, str | None]]


def _plan(graph: PropertyGraph, nodes: list[NodePattern]) -> _Plan:
    candidates = [graph.label_candidates(np.label or "Node") for np in nodes]
    anchor = min(range(len(nodes)), key=lambda i: (len(candidates[i]), i))
    hops = [(i, i + 1, nodes[i + 1].label) for i in range(anchor, len(nodes) - 1)]
    hops += [(i + 1, i, nodes[i].label) for i in reversed(range(anchor))]
    return _Plan(anchor, candidates, hops)


def _bounds(rel: RelPattern, star_max: int) -> tuple[int, int]:
    return rel.hops.min, rel.hops.max if rel.hops.max is not None else star_max


def _expand(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    label: str | None,
) -> Iterator[tuple[Edge, int, bool]]:
    """Single hops from `node_id` honoring the pattern's direction, to
    neighbors matching `label` if given.

    Yields (edge, neighbor, forward): first the edges that point along the
    pattern's left-to-right orientation (`forward`), then those against it.
    An undirected self-loop comes once, as forward.
    """
    along, against = (
        (graph.out_edges, graph.in_edges) if rightward else (graph.in_edges, graph.out_edges)
    )
    if rel.direction != "left":
        for edge in along(node_id, rel.type, label):
            yield edge, edge.to_id if edge.from_id == node_id else edge.from_id, True
    if rel.direction != "right":
        for edge in against(node_id, rel.type, label):
            if rel.direction == "undirected" and edge.from_id == edge.to_id:
                continue
            yield edge, edge.to_id if edge.from_id == node_id else edge.from_id, False


# A hop's neighbor lists: (node id, label) -> what `_expand` yields there.
_Memo = dict[tuple[int, str | None], list[tuple[Edge, int, bool]]]


def _routes(
    graph: PropertyGraph,
    start: int,
    rel: RelPattern,
    rightward: bool,
    used: set[int],
    star_max: int,
    label: str | None,
    memo: _Memo,
) -> Iterator[tuple[list[_Step], int]]:
    """Simple edge sequences walking one relationship pattern.

    Steps come back in walk order, in a list that is only valid until the
    next route is drawn. Edges in `used` are excluded; each step's edge
    stays in `used` while the route is out with the caller. Every route
    ends at a node matching `label`: the last step a route may take only
    reaches such nodes, and a shorter route's end, which is also a
    waypoint, is checked before it is yielded.

    Neighbor lists come from `memo`, which must belong to this (rel,
    rightward) pair and fills on first use. It never holds the `used`
    check, which depends on the rest of the match.
    """
    lo, hi = _bounds(rel, star_max)

    def neighbors(node: int, last: str | None) -> list[tuple[Edge, int, bool]]:
        hops = memo.get((node, last))
        if hops is None:
            hops = memo[node, last] = list(_expand(graph, node, rel, rightward, last))
        return hops

    if lo == hi == 1:
        for edge, neighbor, forward in neighbors(start, label):
            if edge.id not in used:
                used.add(edge.id)
                yield [(edge, forward)], neighbor
                used.discard(edge.id)
        return

    steps: list[_Step] = []

    def rec(node: int) -> Iterator[tuple[list[_Step], int]]:
        if lo <= len(steps) and (
            len(steps) == hi or label is None or graph.node_matches_label(node, label)
        ):
            yield steps, node
        if len(steps) >= hi:
            return
        last = label if len(steps) + 1 == hi else None
        for edge, neighbor, forward in neighbors(node, last):
            if edge.id in used:
                continue
            used.add(edge.id)
            steps.append((edge, forward))
            yield from rec(neighbor)
            steps.pop()
            used.discard(edge.id)

    try:
        yield from rec(start)
    finally:
        # `rec` reaches itself through its closure cell, which also holds
        # the graph and the memo: break that cycle so they free at once
        del rec


def _scalar_equal(a, b) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def _nodes_equal(graph: PropertyGraph, left: int, right: int) -> bool:
    if left == right:
        return True
    a, b = graph.node(left), graph.node(right)
    return a.class_name == b.class_name and a.name == b.name and a.properties == b.properties


def _predicate_holds(graph: PropertyGraph, pred, bindings: dict[str, int]) -> bool:
    if isinstance(pred, PropertyComparison):
        node_id = bindings.get(pred.var)
        if node_id is None:
            return False
        value = graph.property_value(node_id, pred.key)
        if value is None:
            return False
        equal = _scalar_equal(value, pred.literal)
        return equal if pred.op == "=" else not equal
    if isinstance(pred, NodeComparison):
        left = bindings.get(pred.left)
        right = bindings.get(pred.right)
        if left is None or right is None:
            return False
        return not _nodes_equal(graph, left, right)
    if isinstance(pred, BoolExpr):
        results = (_predicate_holds(graph, op, bindings) for op in pred.operands)
        return all(results) if pred.op == "AND" else any(results)
    raise TypeError(f"unknown predicate {pred!r}")


def evaluate(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> list[MatchResult]:
    """Every assignment of graph nodes and edge routes to the pattern.
    Raises QueryError when a route is too deep for the recursive walk."""
    node_patterns = ast.node_patterns
    rel_patterns = ast.rel_patterns
    plan = _plan(graph, node_patterns)
    nodes: list[int | None] = [None] * len(node_patterns)
    segments: list[list[_Step]] = [[] for _ in rel_patterns]  # left-to-right
    used: set[int] = set()
    memos: list[_Memo] = [{} for _ in plan.hops]
    results: list[tuple[tuple[int, ...], tuple[int, ...], MatchResult]] = []

    def bind(index: int, node_id: int) -> bool:
        """Bind pattern `index` unless a repeated variable rules `node_id`
        out; its label already holds, from the seeds or the route."""
        np = node_patterns[index]
        if np.var is not None:
            for j, other in enumerate(node_patterns):
                if other.var == np.var and nodes[j] is not None and nodes[j] != node_id:
                    return False
        nodes[index] = node_id
        return True

    def emit() -> None:
        bindings = {
            np.var: node_id for np, node_id in zip(node_patterns, nodes) if np.var is not None
        }
        if ast.where is not None and not _predicate_holds(graph, ast.where, bindings):
            return
        node_ids = [nodes[0]]
        edge_ids: list[int] = []
        flags: list[bool] = []
        for segment in segments:
            for edge, forward in segment:
                node_ids.append(edge.to_id if forward else edge.from_id)
                edge_ids.append(edge.id)
                flags.append(forward)
        path = Path(tuple(node_ids), tuple(edge_ids), tuple(flags)) if ast.path_var else None
        results.append((tuple(nodes), tuple(edge_ids), MatchResult(bindings, path)))

    def walk(hop: int) -> None:
        if hop == len(plan.hops):
            emit()
            return
        source, target, label = plan.hops[hop]
        rightward = target > source
        rel_index = min(source, target)
        rel = rel_patterns[rel_index]
        for steps, end in _routes(
            graph, nodes[source], rel, rightward, used, star_max, label, memos[hop]
        ):
            if bind(target, end):
                segments[rel_index] = steps if rightward else steps[::-1]
                walk(hop + 1)
                nodes[target] = None

    try:
        for seed in plan.candidates[plan.anchor]:
            if bind(plan.anchor, seed):
                walk(0)
                nodes[plan.anchor] = None
    except RecursionError as exc:
        # routes and hops nest one Python frame per step
        raise QueryError(
            f"a route is too deep to walk at star_max {star_max}; lower star_max"
        ) from exc
    finally:
        del walk  # a closure cycle holding the graph, as `rec` in `_routes`

    results.sort(key=lambda item: (item[0], item[1]))
    return [result for _, _, result in results]


def explain(graph: PropertyGraph, ast: QueryAst, star_max: int = DEFAULT_STAR_MAX) -> str:
    """Describe the plan `evaluate` runs: seed choice and expansion order."""
    plan = _plan(graph, ast.node_patterns)

    def node_text(i: int) -> str:
        np = ast.node_patterns[i]
        return f"node #{i} {np.var or '_'}:{np.label or '(any)'}"

    lines = [f"seed at {node_text(plan.anchor)} ({len(plan.candidates[plan.anchor])} candidates)"]
    lines += [f"  {node_text(i)} candidates={len(c)}" for i, c in enumerate(plan.candidates)]
    order = [
        f"right #{source}" if target > source else f"left #{target}"
        for source, target, _ in plan.hops
    ]
    lines.append("expansion order: " + (", ".join(order) or "none (single node pattern)"))
    lines += [
        f"  last step to node #{target} expands only to :{label}"
        for _, target, label in plan.hops
        if label
    ]
    for i, rel in enumerate(ast.rel_patterns):
        if not rel.hops.is_single:
            lo, hi = _bounds(rel, star_max)
            lines.append(f"variable-length rel #{i} type={rel.type or '(any)'} bounds {lo}..{hi}")
    return "\n".join(lines)
