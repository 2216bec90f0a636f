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
from skygraph.graph import EDGE_TYPES, Path, PropertyGraph
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


# A step: (edge id, neighbor, forward).
_Step = tuple[int, int, bool]


def _expand(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    members: set[int] | None,
    memo: dict[int, list[_Step]],
) -> list[_Step]:
    """Single steps from `node_id` honoring the pattern's direction and
    type, to neighbors in `members` if given.

    Lists (edge id, neighbor, forward) in one pass over each of
    `out_edges` and `in_edges` of `node_id`: first the edges that point
    along the pattern's left-to-right orientation (`forward`), then those
    against it. An undirected self-loop comes once, as forward. The list
    is kept in `memo`, which must belong to this hop shape: the list
    depends only on `rel`'s type and direction, `rightward` and `members`.
    """
    steps = memo.get(node_id)
    if steps is not None:
        return steps
    kind = rel.type
    steps = []
    if rel.direction != "left":
        for edge in graph.out_edges(node_id) if rightward else graph.in_edges(node_id):
            neighbor = edge.to_id if rightward else edge.from_id
            if (kind is None or edge.type == kind) and (members is None or neighbor in members):
                steps.append((edge.id, neighbor, True))
    if rel.direction != "right":
        undirected = rel.direction == "undirected"
        for edge in graph.in_edges(node_id) if rightward else graph.out_edges(node_id):
            neighbor = edge.from_id if rightward else edge.to_id
            if (
                (kind is None or edge.type == kind)
                and (members is None or neighbor in members)
                and not (undirected and neighbor == node_id)
            ):
                steps.append((edge.id, neighbor, False))
    memo[node_id] = steps
    return steps


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
    rightward from the anchor, then leftward, on one stack. Its frames
    are `(hop, steps taken in the hop, iterator over _expand's steps out
    of the node reached, held)`: one per hop entered and one per step
    taken below the hop's upper bound. Popping a frame releases the step
    it holds, if any: a step's own frame holds that step. A step that
    ends a route and binds its target enters the next hop, or completes a
    match on the last one. A step at the hop's bound takes no frame: it
    binds, then enters the next hop, whose entry frame holds it, or else
    is released at once. Each test of the plan runs once the last of the
    patterns it reads is bound, and a complete match is kept when it
    passes one of the plan's disjuncts, if there are any.

    The step lists come from `_expand`, one memo per hop shape: the
    relationship type and direction, the walk's orientation, and the
    target's label where it filters a hop's last step. On a frozen graph
    the memos are its `hop_steps` store, so a later query reuses every list
    an earlier one listed; on a graph still being built they last one call.
    Only the lists are shared: the check that no match uses an edge twice
    is still made for each match.
    """
    node_patterns = ast.node_patterns
    rel_patterns = ast.rel_patterns
    plan = _plan(graph, ast)
    at_bind, disjuncts = plan.at_bind, plan.disjuncts
    nodes: list[int | None] = [None] * len(node_patterns)
    # per relationship pattern, the steps of its live route in walk order:
    # right to left for the patterns left of the anchor
    routes: list[list[_Step]] = [[] for _ in rel_patterns]
    used: set[int] = set()
    results: list[tuple[tuple[int, ...], tuple[int, ...], MatchResult]] = []
    store = {} if graph.hop_steps is None else graph.hop_steps
    # per hop: (source, target, label, rel, rightward, lo, hi, route, the
    # target's candidates, and the memos of _expand's lists for every step
    # but the last the hop may take, and for that last one)
    walks = []
    for source, target, label, r, rightward in plan.hops:
        rel = rel_patterns[r]
        candidates = plan.candidates[target]
        # a label that every node matches filters nothing
        members = None if label is None or len(candidates) == graph.node_count else set(candidates)
        shape = (rel.type, rel.direction, rightward)
        inner = store.setdefault((*shape, None), {})
        last = inner if members is None else store.setdefault((*shape, label), {})
        walks.append(
            (source, target, label, rel, rightward, *_bounds(rel, star_max), routes[r], members, inner, last)
        )

    def bind(index: int, node_id: int) -> bool:
        """Bind pattern `index` unless a test due there rules `node_id` out;
        its label already holds, from the seeds or the route."""
        nodes[index] = node_id
        for test in at_bind[index]:
            if not _holds(graph, test, nodes):
                return False
        return True

    def frame(hop: int, depth: int, node_id: int, held: list[_Step] | None) -> tuple:
        """The frame at `node_id` after `depth` steps of `hop`, below its
        upper bound, holding the last step of the route `held`, if given.
        It lists the steps out of `node_id`, only to the target's label if
        the next step is the last the hop may take."""
        _, _, _, rel, rightward, _, hi, _, members, inner, last = walks[hop]
        if depth + 1 == hi:
            steps = _expand(graph, node_id, rel, rightward, members, last)
        else:
            steps = _expand(graph, node_id, rel, rightward, None, inner)
        return hop, depth, iter(steps), held

    def emit() -> None:
        if disjuncts and not any(
            all(_holds(graph, test, nodes) for test in tests) for tests in disjuncts
        ):
            return
        bindings = {
            np.var: node_id for np, node_id in zip(node_patterns, nodes) if np.var is not None
        }
        steps = [
            step
            for i, route in enumerate(routes)
            for step in (route if i >= plan.anchor else reversed(route))
        ]
        edge_ids = tuple(edge_id for edge_id, _, _ in steps)
        path = None
        if ast.path_var:
            node_ids = [nodes[0]]
            for edge_id, _, forward in steps:
                edge = graph.edge(edge_id)
                node_ids.append(edge.to_id if forward else edge.from_id)
            path = Path(tuple(node_ids), edge_ids, tuple(forward for _, _, forward in steps))
        results.append((tuple(nodes), edge_ids, MatchResult(bindings, path)))

    for seed in plan.candidates[plan.anchor]:
        if not bind(plan.anchor, seed):
            continue
        if not walks:  # a single node pattern
            emit()
            continue
        stack = [frame(0, 0, seed, None)]
        while stack:
            hop, depth, steps, held = stack[-1]
            _, target, label, _, _, lo, hi, route, _, _, _ = walks[hop]
            depth += 1
            for step in steps:
                edge_id, neighbor, _ = step
                if edge_id in used:
                    continue
                used.add(edge_id)
                route.append(step)
                if depth < hi:
                    stack.append(frame(hop, depth, neighbor, route))
                # a route shorter than `hi` ends at a waypoint, whose label
                # no step filtered
                if (
                    lo <= depth
                    and (depth == hi or label is None or graph.node_matches_label(neighbor, label))
                    and bind(target, neighbor)
                ):
                    if hop + 1 < len(walks):
                        entry = nodes[walks[hop + 1][0]]
                        stack.append(frame(hop + 1, 0, entry, route if depth == hi else None))
                        break
                    emit()
                if depth < hi:
                    break
                used.discard(edge_id)
                route.pop()
            else:
                stack.pop()
                if held is not None:
                    used.discard(held.pop()[0])

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
