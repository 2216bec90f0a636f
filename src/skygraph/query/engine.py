"""Pattern evaluation against a property graph.

Matching semantics:

* labels match through the ontology (and the universal `Node` label),
* directed relationship patterns follow edge direction, undirected ones
  match either orientation, untyped ones match every edge type,
* variable-length segments expand to simple edge sequences within bounds,
* one match never uses the same edge twice (relationship isomorphism),
* a node variable repeated in the pattern binds one node,
* a comparison on a property the bound node lacks is false, not an error,
* `a <> b` compares bound nodes by value: class, name and properties.

`iter_matches` yields one row per match, in walk order: a tuple of the
bound node ids in pattern order, the edge ids, the path's node ids and its
forward flags. The row is read off the walk's steps, each of which holds
its edge id, the node it reached and its direction, so no bindings dict,
`Path` or `MatchResult` is made per match. `evaluate` sorts the rows by
bound node ids, then edge ids, which makes its results deterministic, and
only then builds each result from its row.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from skygraph.errors import QueryError
from skygraph.graph import EDGE_TYPES, Path, PropertyGraph
from skygraph.ontology import KIND_OF
from skygraph.query.syntax import Comparison, NodeComparison, PropertyComparison, QueryAst, RelPattern
from skygraph.yamlfile import DEFAULT_STAR_MAX, check_positive_int


@dataclass(slots=True)
class MatchResult:
    bindings: dict[str, int]
    path: Path | None = None


# A constraint on a match, read on pattern indices: a WHERE comparison with
# the index of its node variable (the left one of a `<>`) and the right
# one's or -1, None with two indices that must bind one node, or an OR's
# disjuncts, lists of tests, with the lowest and highest index they read.
_Test = tuple[Comparison | list | None, int, int]


@dataclass
class _Plan:
    """What `evaluate` runs and `explain` prints.

    The anchor pattern is seeded from its candidates; each hop then binds
    its target pattern from its source, rightward from the anchor, then
    leftward, as (source, target, label, rel, rightward): the pattern
    indices, the target's label, which filters the steps of the hop's
    segment, the index of the relationship pattern it walks, and whether
    it walks that pattern left to right. `candidates[i]` and `members[i]`
    are the ids and the set of the nodes pattern `i`'s label matches, as
    the graph keeps them. `at_bind[i]` holds the tests due once pattern
    `i` is bound: every constraint of a match is one of them.
    """

    anchor: int
    candidates: tuple[tuple[int, ...], ...]
    members: tuple[frozenset[int], ...]
    hops: list[tuple[int, int, str | None, int, bool]]
    at_bind: list[list[_Test]]


def _place(tests: list[_Test], anchor: int, at_bind: list[list[_Test]]) -> None:
    """Add each test to `at_bind` at the index it reads that binds last.
    The hops bind rightward from the anchor, then leftward, so that is the
    highest index if all it reads are at or right of the anchor, and the
    lowest otherwise."""
    for test in tests:
        indices = [i for i in test[1:] if i >= 0]
        at_bind[max(indices) if min(indices) >= anchor else min(indices)].append(test)


def _plan(graph: PropertyGraph, ast: QueryAst, star_max: int) -> _Plan:
    """The plan of `ast`; a QueryError for a bad `star_max`, and for a
    label, relationship type, WHERE property key or WHERE literal kind
    that `graph` can never match, which would only ever match nothing.

    Every constraint is a test on pattern indices: each later occurrence
    of a node variable must bind the node of the occurrence before it, a
    WHERE comparison reads its variables' first occurrences, and an OR
    holds when all the tests of one of its disjuncts do.
    """
    check_positive_int(star_max, QueryError, "star_max")
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
    candidates, members = zip(*(graph.label_members(np.label or "Node") for np in nodes))
    anchor = min(range(len(nodes)), key=lambda i: (len(candidates[i]), i))
    hops = [(i, i + 1, nodes[i + 1].label, i, True) for i in range(anchor, len(nodes) - 1)]
    hops += [(i + 1, i, nodes[i].label, i, False) for i in reversed(range(anchor))]

    first: dict[str, int] = {}
    latest: dict[str, int] = {}
    tests: list[_Test] = []
    for i, var in enumerate(np.var for np in nodes):
        if var is None:
            continue
        if var in latest:
            tests.append((None, latest[var], i))
        first.setdefault(var, i)
        latest[var] = i

    def test(term: Comparison) -> _Test:
        if isinstance(term, NodeComparison):
            return term, first[term.left], first[term.right]
        return term, first[term.var], -1

    disjuncts = [[test(term) for term in terms] for terms in ast.where or ()]
    if len(disjuncts) == 1:  # an AND places each comparison on its own
        tests += disjuncts[0]
    elif disjuncts:
        read = [i for conjuncts in disjuncts for t in conjuncts for i in t[1:] if i >= 0]
        tests.append((disjuncts, min(read), max(read)))
    at_bind: list[list[_Test]] = [[] for _ in nodes]
    _place(tests, anchor, at_bind)
    return _Plan(anchor, candidates, members, hops, at_bind)


def _bounds(rel: RelPattern, star_max: int) -> tuple[int, int]:
    return rel.hops.min, rel.hops.max if rel.hops.max is not None else star_max


# A step: (edge id, neighbor, forward).
_Step = tuple[int, int, bool]

# A match row: (bound node ids in pattern order, edge ids, path node ids,
# forward flags).
Row = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[bool, ...]]


def _expand(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    members: frozenset[int] | None,
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
    Without `members` it is the list `_budgeted` filters for every step of
    a hop to a labelled target; with them, the list of its last step, at
    budget 0, where only a member can end the hop.
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


def _budgeted(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    members: frozenset[int],
    inner: dict[int, list[_Step]],
    memos: list[dict[int, list[_Step]]],
    budget: int,
    slack: int,
) -> list[_Step]:
    """The steps from `node_id` after which a hop to a node in `members`
    can still end, with `budget` (at least 1) more steps allowed after
    them and `slack` the hop's upper bound less its lower one.

    A step is kept if its neighbor is a member and `budget <= slack`, so
    a route would be long enough to end there, or if the neighbor has a
    kept step at `budget - 1`; at budget 0 that is `_expand`'s list to
    `members`. Each list is `inner`'s unfiltered list for the node, in
    its order, less the steps that cannot end, and is that list itself
    if it keeps them all. Relationship isomorphism and WHERE are ignored,
    so no step of a match is dropped. `memos[b]` keeps the lists at
    budget `b`. The lists a list depends on are made first, on an
    explicit stack, so a long budget cannot overflow Python's recursion
    limit.
    """
    pending = [(node_id, budget)]  # (node, budget) pairs whose lists are wanted
    while pending:
        node, left = pending[-1]
        memo = memos[left]
        if node in memo:
            pending.pop()
            continue
        below = memos[left - 1]
        ends = left <= slack
        unfiltered = _expand(graph, node, rel, rightward, None, inner)
        kept = []
        waiting = False
        for step in unfiltered:
            neighbor = step[1]
            if ends and neighbor in members:
                kept.append(step)
                continue
            listed = below.get(neighbor)
            if listed is None:
                if left > 1:
                    pending.append((neighbor, left - 1))
                    waiting = True
                    continue
                # a list at budget 0 depends on no other
                listed = _expand(graph, neighbor, rel, rightward, members, below)
            if listed:
                kept.append(step)
        if waiting:  # back once the lists it waits for are made
            continue
        pending.pop()
        memo[node] = unfiltered if len(kept) == len(unfiltered) else kept
    return memos[budget][node_id]


def _scalar_equal(a, b) -> bool:
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _nodes_equal(graph: PropertyGraph, left: int, right: int) -> bool:
    if left == right:
        return True
    a, b = graph.node_table[left], graph.node_table[right]
    return a.class_name == b.class_name and a.name == b.name and a.properties == b.properties


def _holds(graph: PropertyGraph, test: _Test, nodes: list[int]) -> bool:
    term, left, right = test
    if term is None:
        return nodes[left] == nodes[right]
    if right >= 0:
        if type(term) is list:  # an OR, whose indices only place it
            return any(all(_holds(graph, t, nodes) for t in conjuncts) for conjuncts in term)
        return not _nodes_equal(graph, nodes[left], nodes[right])
    value = graph.property_value(nodes[left], term.key)
    if value is None:
        return False
    equal = _scalar_equal(value, term.literal)
    return equal if term.op == "=" else not equal


def iter_matches(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> Iterator[Row]:
    """A generator over the rows of every match of `ast`, in walk order.

    The query is planned and checked here, so a bad `star_max`, label,
    relationship type or WHERE key raises `QueryError` at the call, not
    at the first row. Each row is `(bound node ids in pattern order, edge
    ids, path node ids, forward flags)`, read off the walk's steps; a
    single node pattern's row has empty edge, path and flag tuples.
    """
    return _walk(graph, ast, _plan(graph, ast, star_max), star_max)


def _walk(graph: PropertyGraph, ast: QueryAst, plan: _Plan, star_max: int) -> Iterator[Row]:
    """The rows of every assignment of graph nodes and edge routes to the
    pattern.

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
    patterns it reads is bound, so a complete match has passed them all.
    A match's row is read off its steps, each of which holds the node it
    reached: one `zip` transposes them into edge ids, path nodes and
    flags, with no graph lookup.

    The step lists come from `_expand`, one memo per hop shape: the
    relationship type and direction and the walk's orientation. Where
    the target has a label, every step of the hop takes its list from
    `_budgeted` instead: a step with `r` steps still allowed after it
    keeps only neighbours that are the target's candidates, if `r <=
    hi - lo`, or that have such a step at budget `r - 1`, so no route
    is walked that could not end within the hop's bounds. Each budget
    has its own memo, keyed by the label, `r` and `min(r, hi - lo)`; at
    budget 0 it is the label-filtered memo of a one-step hop. A budgeted
    list keeps its unfiltered list's order, so the rows come in the same
    order as without the budgets. The memos are the graph's `hop_steps`
    store, so a later query reuses every list an earlier one listed,
    until `add_edge` empties it. Only the lists are shared: the check
    that no match uses an edge twice is still made for each match.
    """
    rel_patterns = ast.rel_patterns
    at_bind, anchor = plan.at_bind, plan.anchor
    nodes: list[int | None] = [None] * len(ast.node_patterns)
    # per relationship pattern, the steps of its live route in walk order:
    # right to left for the patterns left of the anchor
    routes: list[list[_Step]] = [[] for _ in rel_patterns]
    left_routes, right_routes = routes[:anchor], routes[anchor:]
    used: set[int] = set()
    store = graph.hop_steps
    # per hop: (source, target, rel, rightward, lo, hi, route, the target's
    # candidates, the memo of _expand's unfiltered lists, and the memos of
    # the budgeted lists by budget, None without candidates)
    walks = []
    for source, target, label, r, rightward in plan.hops:
        rel = rel_patterns[r]
        lo, hi = _bounds(rel, star_max)
        # a route takes each edge once, so no route is longer than the graph
        # has edges, and a labelled hop keeps no more budgets than that
        hi = min(hi, max(graph.edge_count, 1))
        # a label that every node matches filters nothing
        members = plan.members[target]
        if label is None or len(members) == graph.node_count:
            members = None
        shape = (rel.type, rel.direction, rightward)
        inner = store.setdefault((*shape, None), {})
        budgets = None
        if members is not None:
            # budget 0 is the label-filtered list of the hop's last step
            budgets = [store.setdefault((*shape, label), {})]
            budgets += [store.setdefault((*shape, label, b, min(b, hi - lo)), {}) for b in range(1, hi)]
        walks.append((source, target, rel, rightward, lo, hi, routes[r], members, inner, budgets))

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
        It lists the steps out of `node_id`, if the target has a label
        only those after which the hop can still end there."""
        _, _, rel, rightward, lo, hi, _, members, inner, budgets = walks[hop]
        budget = hi - depth - 1
        if budgets is None:
            steps = _expand(graph, node_id, rel, rightward, None, inner)
        else:
            steps = budgets[budget].get(node_id)
            if steps is None:
                if budget:
                    steps = _budgeted(graph, node_id, rel, rightward, members, inner, budgets, budget, hi - lo)
                else:
                    steps = _expand(graph, node_id, rel, rightward, members, budgets[0])
        return hop, depth, iter(steps), held

    for seed in plan.candidates[anchor]:
        if not bind(anchor, seed):
            continue
        if not walks:  # a single node pattern
            yield tuple(nodes), (), (), ()
            continue
        stack = [frame(0, 0, seed, None)]
        while stack:
            hop, depth, steps, held = stack[-1]
            _, target, _, _, lo, hi, route, members, _, _ = walks[hop]
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
                    and (depth == hi or members is None or neighbor in members)
                    and bind(target, neighbor)
                ):
                    if hop + 1 < len(walks):
                        entry = nodes[walks[hop + 1][0]]
                        stack.append(frame(hop + 1, 0, entry, route if depth == hi else None))
                        break
                    # the match's steps left to right: the left routes'
                    # reversed, then the right ones'
                    taken = []
                    for part in left_routes:
                        taken += reversed(part)
                    left = len(taken)
                    for part in right_routes:
                        taken += part
                    edge_ids, reached, forward = zip(*taken)
                    path_ids = (*reached[:left], nodes[anchor], *reached[left:])
                    yield tuple(nodes), edge_ids, path_ids, forward
                if depth < hi:
                    break
                used.discard(edge_id)
                route.pop()
            else:
                stack.pop()
                if held is not None:
                    used.discard(held.pop()[0])


def evaluate(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> list[MatchResult]:
    """Every assignment of graph nodes and edge routes to the pattern, as
    results ordered by bound node ids, then edge ids.

    The rows of `iter_matches` are sorted first; each result's bindings
    and path are built only after the sort, from its row.
    """
    rows = sorted(iter_matches(graph, ast, star_max), key=itemgetter(0, 1))
    # a repeated variable binds one node at each of its indices
    variables = list({np.var: i for i, np in enumerate(ast.node_patterns) if np.var is not None}.items())
    if not ast.path_var:
        return [MatchResult({var: row[0][i] for var, i in variables}) for row in rows]
    return [
        MatchResult({var: nodes[i] for var, i in variables}, Path(path_ids or nodes, edge_ids, forward))
        for nodes, edge_ids, path_ids, forward in rows
    ]


def explain(graph: PropertyGraph, ast: QueryAst, star_max: int = DEFAULT_STAR_MAX) -> str:
    """Describe the plan `evaluate` runs: seed choice and expansion order."""
    plan = _plan(graph, ast, star_max)

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
