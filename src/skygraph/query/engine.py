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
forward flags. The walk is compiled per plan shape, the ints, bools and
None of `_plan`'s hops and tests, into one generator of nested loops: one
over the anchor's seeds, one per step of a one-step or fixed `*k` hop, so
a fixed hop is unrolled into k loops, and one per range hop, over the
routes `_range_ends` walks on its own explicit stack. A generated function nests
at most `_MAX_LOOPS` loops, so a longer pattern chains functions, and an
`lru_cache` keeps the walks by shape. The loops bind the row's ids as
they go, so no bindings dict, `Path` or `MatchResult` is made per match,
and each WHERE test and repeated variable is part of the shape, run as an
inline condition in the loop that binds its last index. `evaluate` sorts
the rows by bound node ids, then edge ids, which makes its results
deterministic, and only then builds the results, with one generated
builder per shape of variables.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice
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


# The kinds of a test: two indices of one variable bind one node, a WHERE
# property comparison, `a <> b`, and an OR, whose disjuncts' tests follow it.
_SAME, _PROPERTY, _DISTINCT, _OR = range(4)

# The kinds of a WHERE literal, by their index in a test's shape.
_LITERALS = (str, int, bool)


@dataclass
class _Plan:
    """What `evaluate` runs and `explain` prints.

    The anchor pattern is seeded from its candidates; each hop then binds
    its target pattern from its source, rightward from the anchor, then
    leftward. Its record, the walk's compile key, is (source, target, rel,
    rightward, lo, hi, labelled): the pattern indices, the index of the
    relationship pattern it walks, whether it walks that pattern left to
    right, its bounds, `hi` at most the graph's edge count, and whether
    the target's label filters the steps of the hop. Its `lists` are
    (rel, members, inner, budgets): the relationship pattern, the nodes
    the label matches, the memo of `_expand`'s unfiltered lists and the
    memos of the budgeted lists by budget, members and budgets None where
    the label filters nothing. `candidates[i]` are the ids of the nodes
    pattern `i`'s label matches, as the query's store keeps them.

    `tests` are the constraints of a match as flat shapes of ints and
    bools, in the order they are due, and `terms[t]` is the parsed
    comparison of test `t`, None for an OR and for two indices of one
    variable. A test's shape is (kind, the index it is due at, the index
    it reads, the other index it reads or -1, whether it is `<>`, whether
    its key is `name`, its literal's index in `_LITERALS`). An OR's is
    (kind, the index it is due at, the number of tests of each disjunct),
    followed by the shapes of those tests, disjunct by disjunct.
    """

    anchor: int
    candidates: tuple[tuple[int, ...], ...]
    hops: tuple[tuple[int, int, int, bool, int, int, bool], ...]
    lists: tuple[tuple[RelPattern, frozenset[int] | None, dict, list[dict] | None], ...]
    tests: tuple[tuple, ...]
    terms: tuple[Comparison | None, ...]


def _plan(graph: PropertyGraph, ast: QueryAst, star_max: int, store: dict) -> _Plan:
    """The plan of `ast`; a QueryError for a bad `star_max`, and for a
    label, relationship type, WHERE property key or WHERE literal kind
    that `graph` can never match, which would only ever match nothing.
    A label's members, its ids and their set, are `store[(label,)]`,
    made on first use, and so is each memo of a hop's step lists.

    One memo serves each hop shape: the relationship type and direction
    and the walk's orientation, with None for the unfiltered lists. A
    budgeted list's memo is keyed by the label too, and at budget `b`
    from 1 on by `b` and `min(b, hi - lo)`; budget 0 is the
    label-filtered list of the hop's last step.

    Every constraint is a test on pattern indices: each later occurrence
    of a node variable must bind the node of the occurrence before it, a
    WHERE comparison reads its variables' first occurrences, and an OR
    holds when all the tests of one of its disjuncts do. Each test is due
    at the index it reads that binds last.
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
    for label in (np.label or "Node" for np in nodes):
        if (label,) not in store:
            ids = tuple(graph.label_candidates(label))
            store[label,] = ids, frozenset(ids)
    candidates, members = zip(*(store[(np.label or "Node",)] for np in nodes))
    anchor = min(range(len(nodes)), key=lambda i: (len(candidates[i]), i))

    def hop(source: int, target: int, r: int, rightward: bool) -> tuple[tuple, tuple]:
        rel = ast.rel_patterns[r]
        lo = rel.hops.min
        # a route takes each edge once, so no route is longer than the graph
        # has edges, and a labelled hop keeps no more budgets than that
        hi = min(rel.hops.max if rel.hops.max is not None else star_max, max(graph.edge_count, 1))
        label = nodes[target].label
        # a label that every node matches filters nothing
        labelled = label is not None and len(members[target]) != graph.node_count
        kind = (rel.type, rel.direction, rightward)
        inner = store.setdefault((*kind, None), {})
        if not labelled:
            return (source, target, r, rightward, lo, hi, False), (rel, None, inner, None)
        budgets = [store.setdefault((*kind, label), {})]
        budgets += [store.setdefault((*kind, label, b, min(b, hi - lo)), {}) for b in range(1, hi)]
        return (source, target, r, rightward, lo, hi, True), (rel, members[target], inner, budgets)

    walked = [hop(i, i + 1, i, True) for i in range(anchor, len(nodes) - 1)]
    walked += [hop(i + 1, i, i, False) for i in reversed(range(anchor))]
    hops, lists = zip(*walked) if walked else ((), ())

    def due(indices: list[int]) -> int:
        # the hops bind rightward from the anchor, then leftward, so the
        # index that binds last is the highest if all are at or right of
        # the anchor, and the lowest otherwise
        return max(indices) if min(indices) >= anchor else min(indices)

    placed: list[tuple[tuple, Comparison | None]] = []  # (shape, term)
    first: dict[str, int] = {}
    latest: dict[str, int] = {}
    for i, var in enumerate(np.var for np in nodes):
        if var is None:
            continue
        if var in latest:
            at = due([latest[var], i])
            placed.append(((_SAME, at, latest[var], i, False, False, 0), None))
        first.setdefault(var, i)
        latest[var] = i

    def reads(term: Comparison) -> list[int]:
        return [first[term.left], first[term.right]] if isinstance(term, NodeComparison) else [first[term.var]]

    def compared(term: Comparison, at: int) -> tuple[tuple, Comparison]:
        left, *right = reads(term)
        if right:
            return (_DISTINCT, at, left, right[0], True, False, 0), term
        literal = _LITERALS.index(type(term.literal))
        return (_PROPERTY, at, left, -1, term.op == "<>", term.key == "name", literal), term

    disjuncts = ast.where or ()
    if len(disjuncts) == 1:  # an AND places each comparison on its own
        placed += [compared(term, due(reads(term))) for term in disjuncts[0]]
    elif disjuncts:
        at = due([i for terms in disjuncts for term in terms for i in reads(term)])
        placed.append(((_OR, at, *map(len, disjuncts)), None))
        placed += [compared(term, at) for terms in disjuncts for term in terms]
    placed.sort(key=lambda test: test[0][1])  # by due index; stable, so an OR's tests stay after it
    tests, terms = zip(*placed) if placed else ((), ())
    return _Plan(anchor, candidates, hops, lists, tests, terms)


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
    against it, each part in edge id order. Adjacency lists keep insertion
    order, which on an imported graph is the export's group order, so the
    sort keeps the walk order of a graph what it was when it was built. An
    undirected self-loop comes once, as forward. The list
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
        steps.sort()
    if rel.direction != "right":
        undirected = rel.direction == "undirected"
        against = []
        for edge in graph.in_edges(node_id) if rightward else graph.out_edges(node_id):
            neighbor = edge.from_id if rightward else edge.to_id
            if (
                (kind is None or edge.type == kind)
                and (members is None or neighbor in members)
                and not (undirected and neighbor == node_id)
            ):
                against.append((edge.id, neighbor, False))
        against.sort()
        steps += against
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


def _steps(
    graph: PropertyGraph,
    node_id: int,
    rel: RelPattern,
    rightward: bool,
    members: frozenset[int] | None,
    inner: dict[int, list[_Step]],
    budgets: list[dict[int, list[_Step]]] | None,
    budget: int,
    slack: int,
) -> list[_Step]:
    """The steps out of `node_id` with `budget` more steps allowed after
    them: `_expand`'s unfiltered list without `budgets`, else the budgeted
    list, at budget 0 the one filtered to `members`."""
    if budgets is None:
        return _expand(graph, node_id, rel, rightward, None, inner)
    steps = budgets[budget].get(node_id)
    if steps is None:
        if budget:
            steps = _budgeted(graph, node_id, rel, rightward, members, inner, budgets, budget, slack)
        else:
            steps = _expand(graph, node_id, rel, rightward, members, budgets[0])
    return steps


def _range_ends(
    graph: PropertyGraph,
    source: int,
    rel: RelPattern,
    rightward: bool,
    lo: int,
    hi: int,
    members: frozenset[int] | None,
    inner: dict[int, list[_Step]],
    budgets: list[dict[int, list[_Step]]] | None,
    used: set[int],
    fixed: tuple[int, ...],
    edges: list[int],
    reached: list[int],
    flags: list[bool],
) -> Iterator[int]:
    """The end node of every route of a range hop from `source`, in walk
    order: a route that can end is yielded before any route it prefixes.

    The route's edge ids, the nodes it reached and its forward flags are
    on `edges`, `reached` and `flags` while its end is yielded, and its
    edges are in `used`, which holds the edges of the match's earlier
    range hops; `fixed` holds those of its earlier one-step and fixed
    hops. No route takes an edge of either. The routes are walked on an
    explicit stack of step iterators, one per step taken below `hi`, so a
    long route costs no recursion depth.
    """
    slack = hi - lo
    stack = [iter(_steps(graph, source, rel, rightward, members, inner, budgets, hi - 1, slack))]
    while stack:
        depth = len(stack)
        for edge_id, neighbor, forward in stack[-1]:
            if edge_id in used or edge_id in fixed:
                continue
            used.add(edge_id)
            edges.append(edge_id)
            reached.append(neighbor)
            flags.append(forward)
            if depth < hi:
                stack.append(iter(_steps(graph, neighbor, rel, rightward, members, inner, budgets, hi - depth - 1, slack)))
            # a route shorter than `hi` ends at a waypoint, whose label no
            # step filtered
            if lo <= depth and (depth == hi or members is None or neighbor in members):
                yield neighbor
            if depth < hi:
                break
            used.discard(edge_id)
            edges.pop()
            reached.pop()
            flags.pop()
        else:
            stack.pop()
            if stack:
                used.discard(edges.pop())
                reached.pop()
                flags.pop()


# CPython rejects a function that nests more than 20 loops, so a generated
# walk nests at most this many and a longer pattern chains functions.
_MAX_LOOPS = 16


def _tuple_text(items: list[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


# The condition of a property comparison per literal kind, for `=` and for
# `<>`, on the property's value (None where the node lacks the key, which
# fails both) and the literal: a bool equals only a bool of its value, and
# an int only an int.
_COMPARISONS = (
    ("{0} == {1}", "(value := {0}) is not None and value != {1}"),
    (
        "(value := {0}) == {1} and value is not True and value is not False",
        "(value := {0}) is not None and (value != {1} or value is True or value is False)",
    ),
    ("{0} is {1}", "(value := {0}) is not None and value is not {1}"),
)


def _condition(shape: tuple, t: int) -> str:
    """The Python condition that test shape `shape`, the `t`-th, holds, on
    the node variables `n<index>`, the node table `nodes`, and its key and
    literal as `key<t>` and `literal<t>`. `a <> b` compares the two nodes
    by value: class, name and properties."""
    kind, _, left, right, negate, by_name, literal = shape
    if kind == _SAME:
        return f"n{left} == n{right}"
    if kind == _DISTINCT:
        return (
            f"n{left} != n{right} and ((a := nodes[n{left}]).class_name != (b := nodes[n{right}]).class_name"
            " or a.name != b.name or a.properties != b.properties)"
        )
    # `name` falls back to the node's display name
    if by_name:
        value = f"(node := nodes[n{left}]).properties.get(key{t}, node.name)"
    else:
        value = f"nodes[n{left}].properties.get(key{t})"
    return _COMPARISONS[literal][negate].format(value, f"literal{t}")


def _source(count: int, anchor: int, tests: tuple, hops: tuple) -> str:
    """The Python text of the walk of plan shape `(count, anchor, tests,
    hops)`: a generator function `walk(graph, seeds, hops, terms, held)`.

    It nests one loop over the anchor's seeds, one per step of a one-step
    or fixed hop (`lo == hi`), over its step lists, which a labelled hop
    reads from the memo of the step's budget and makes through `_steps`
    on a miss, and one per range hop, over `_range_ends`. Each loop skips
    an edge an earlier hop of the match took, by comparing it with their
    edge variables and, after a range hop, the used set, then skips a
    node that fails a test due at the index it binds: each test is one
    inline condition (`_condition`), an OR the disjunction of its
    disjuncts' conjunctions. The innermost loop yields the row. Each
    group of `_MAX_LOOPS` loops is a function of its own, which the group
    before calls with the variables bound so far. Only names made from
    the shape's ints go into the text; the query's labels, types, keys
    and literals are arguments.
    """
    setup: list[str] = []
    # per loop: (the lines before it, the loop, the lines inside it, the names it binds)
    levels: list[tuple[list[str], str, list[str], list[str]]] = []
    fixed: list[str] = []  # the edge variables of one-step and fixed hops so far
    routes: set[int] = set()  # the relationship patterns of range hops
    # per relationship pattern, its edges, reached nodes and flags in walk order
    parts: dict[int, tuple[list[str], list[str], list[str]]] = {}

    conditions: dict[int, list[str]] = {}  # per index, the conditions due there
    numbered = iter(enumerate(tests))
    for t, shape in numbered:
        condition = _condition(shape, t) if shape[0] != _OR else " or ".join(
            "(" + " and ".join(_condition(test, u) for u, test in islice(numbered, size)) + ")" for size in shape[2:]
        )
        conditions.setdefault(shape[1], []).append(condition)
    if tests:
        setup.append("nodes = graph.node_table")
    setup += [f"key{t}, literal{t} = terms[{t}].key, terms[{t}].literal" for t, shape in enumerate(tests) if shape[0] == _PROPERTY]

    def due(index: int) -> list[str]:
        return [f"if not ({condition}): continue" for condition in conditions.get(index, ())]

    levels.append(([], f"for n{anchor} in seeds:", due(anchor), [f"n{anchor}"]))
    for h, (source, target, r, rightward, lo, hi, labelled) in enumerate(hops):
        setup.append(f"rel{h}, members{h}, inner{h}, budgets{h} = hops[{h}]")
        if lo != hi:
            setup.append(f"route{r} = [], [], []")
            ends = (
                f"_range_ends(graph, n{source}, rel{h}, {rightward}, {lo}, {hi}, members{h}, inner{h}, "
                f"budgets{h}, used, {_tuple_text(fixed)}, *route{r})"
            )
            routes.add(r)
            levels.append(([f"held[{h}] = {ends}"], f"for n{target} in held[{h}]:", due(target), [f"n{target}"]))
            parts[r] = ([f"*route{r}[0]"], [f"*route{r}[1]"], [f"*route{r}[2]"])
            continue
        parts[r] = ([], [], [])
        for j in range(hi):
            here = f"n{source}" if j == 0 else f"w{r}_{j}"
            there = f"n{target}" if j == hi - 1 else f"w{r}_{j + 1}"
            edge, flag = f"e{r}_{j}", f"f{r}_{j}"
            budget = hi - j - 1
            if not labelled:
                before = [f"steps = _expand(graph, {here}, rel{h}, {rightward}, None, inner{h})"]
            else:
                setup.append(f"memo{h}_{budget} = budgets{h}[{budget}]")
                made = f"_steps(graph, {here}, rel{h}, {rightward}, members{h}, inner{h}, budgets{h}, {budget}, 0)"
                before = [f"steps = memo{h}_{budget}.get({here})", "if steps is None:", f"    steps = {made}"]
            inside = []
            if fixed:
                inside.append(f"if {' or '.join(f'{edge} == {other}' for other in fixed)}: continue")
            if routes:
                inside.append(f"if {edge} in used: continue")
            fixed.append(edge)
            if j == hi - 1:
                inside += due(target)
            levels.append((before, f"for {edge}, {there}, {flag} in steps:", inside, [edge, there, flag]))
            for part, name in zip(parts[r], (edge, there, flag)):
                part.append(name)
    if routes:
        setup.append("used = set()")

    if hops:
        # left to right: the left hops' steps reversed, then the right ones'
        row: list[list[str]] = [[f"n{i}" for i in range(count)], [], [], []]
        for r in range(count - 1):
            if r == anchor:
                row[2].append(f"n{anchor}")
            for items, part in zip(row[1:], parts[r]):
                if r >= anchor:
                    items += part
                elif r in routes:
                    items += [f"{item}[::-1]" for item in part]
                else:
                    items += reversed(part)
        if anchor == count - 1:
            row[2].append(f"n{anchor}")
        last = "yield " + ", ".join(_tuple_text(items) for items in row)
    else:  # a single node pattern
        last = f"yield (n{anchor},), (), (), ()"

    lines = ["def walk(graph, seeds, hops, terms, held):"]
    lines += [f"    {line}" for line in setup]
    groups = [levels[i : i + _MAX_LOOPS] for i in range(0, len(levels), _MAX_LOOPS)]
    names: list[str] = []  # the variables the groups so far bind
    calls = []
    for g, group in enumerate(groups):
        calls.append(f"group{g}({', '.join(names)})")
        names += [name for level in group for name in level[3]]
    for g, group in reversed(list(enumerate(groups))):
        if g:
            lines.append(f"    def {calls[g]}:")
        depth = 2 if g else 1
        for before, loop, inside, _ in group:
            lines += ["    " * depth + line for line in (*before, loop)]
            depth += 1
            lines += ["    " * depth + line for line in inside]
        lines.append("    " * depth + (f"yield from {calls[g + 1]}" if g + 1 < len(groups) else last))
    return "\n".join(lines) + "\n"


def _make(source: str, name: str) -> Callable:
    """The function `name` that `source` defines, run with this module's
    globals, so it calls the helpers as they are at call time."""
    made: dict = {}
    exec(compile(source, f"<{name}>", "exec"), globals(), made)
    return made[name]


@functools.lru_cache(maxsize=256)
def _compile(count: int, anchor: int, hop_count: int, *parts: tuple) -> Callable[..., Iterator[Row]]:
    """The walk of a plan shape, compiled once per process: the node
    pattern count, the anchor, the number of hops, then per hop (source,
    target, relationship pattern index, rightward, lo, hi, whether the
    target's label filters steps) and the shape of each test
    (`_Plan.tests`), all ints, bools or None.

    The shape is the call's arguments, so the cache keeps each as one
    tuple of flat tuples. The cyclic collector stops tracking a tuple of
    untracked items one nesting level per collection, so a key this
    shallow leaves the tracked objects flat from the second collection
    after its query on."""
    return _make(_source(count, anchor, parts[hop_count:], parts[:hop_count]), "walk")


def iter_matches(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> Iterator[Row]:
    """A generator over the rows of every match of `ast`, in walk order.

    The query is planned and checked here, so a bad `star_max`, label,
    relationship type or WHERE key raises `QueryError` at the call, not
    at the first row. Each row is `(bound node ids in pattern order, edge
    ids, path node ids, forward flags)`; a single node pattern's row has
    empty edge, path and flag tuples.

    The generator is the compiled walk (`_source`) of the plan's shape:
    its hop records and its tests, which hold only ints and bools. The
    walk binds the hops rightward from the anchor, then leftward, and
    runs each test inline. The graph, the seeds, each hop's step lists
    (`_Plan.lists`) and the tests' comparisons are its arguments, so no
    query text is compiled and the cache of walks holds no graph.

    The step lists come from `_expand`, one memo per hop shape. Where the
    hop has a label, every step of the hop takes its list from
    `_budgeted` instead: a step with `r` steps still allowed after it
    keeps only neighbours that are the target's candidates, if `r <=
    hi - lo`, or that have such a step at budget `r - 1`, so no route is
    walked that could not end within the hop's bounds. A budgeted list
    keeps its unfiltered list's order, so the rows come in the same order
    as without the budgets. A frozen graph keeps the memos `_plan` lays
    out, its label members and its lists, in `hop_steps` for every later
    query; a graph still being built keeps none. Only the lists are shared:
    the check that no match uses an edge twice is still made for each match.
    """
    return _walk(graph, ast, star_max, {})


def _walk(graph: PropertyGraph, ast: QueryAst, star_max: int, held: dict) -> Iterator[Row]:
    """`iter_matches`' walk, which keeps each range hop's generator of
    routes in `held` under the hop's index while it walks them, so a
    caller that keeps `held` decides when a walk cut short closes them."""
    plan = _plan(graph, ast, star_max, graph.hop_steps if graph.frozen else {})
    walk = _compile(len(ast.node_patterns), plan.anchor, len(plan.hops), *plan.hops, *plan.tests)
    return walk(graph, plan.candidates[plan.anchor], plan.lists, plan.terms, held)


# makes each result's `Path` from its three fields in the generated builders
_new = tuple.__new__


def _results_source(path: bool, indices: tuple[int, ...]) -> str:
    """The Python text of the result builder of shape `(path, indices)`: a
    function `build(rows, names)` that returns one `MatchResult` per row,
    binding the `k`-th of `names` to the node at `indices[k]`, with the
    row's `Path` if `path`. The `Path` is made by `tuple.__new__`, one C
    call, not by the named tuple's Python-level constructor; the three
    fields it is given are its whole arity."""
    names = [f"name{k}" for k in range(len(indices))]
    bindings = "{" + ", ".join(f"{name}: nodes[{i}]" for name, i in zip(names, indices)) + "}"
    # a single node pattern's path is its one node
    result = f"MatchResult({bindings}, _new(Path, (path or nodes, edges, flags)))" if path else f"MatchResult({bindings})"
    lines = ["def build(rows, names):"]
    if names:
        lines.append(f"    {_tuple_text(names)} = names")
    lines.append(f"    return [{result} for nodes, edges, path, flags in rows]")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _builder(path: bool, *indices: int) -> Callable[[list[Row], tuple[str, ...]], list[MatchResult]]:
    """The result builder of a shape, compiled once per process: whether
    results carry a path, and the pattern index each variable binds."""
    return _make(_results_source(path, indices), "build")


def evaluate(
    graph: PropertyGraph,
    ast: QueryAst,
    star_max: int = DEFAULT_STAR_MAX,
) -> list[MatchResult]:
    """Every assignment of graph nodes and edge routes to the pattern, as
    results ordered by bound node ids, then edge ids.

    The rows of `iter_matches` are sorted first; the results are built
    only after the sort, by the generated builder of the query's shape
    (`_results_source`), to which the variable names are arguments.
    """
    # Should the walk or the rows run out of memory, the walk and its
    # routes are closed only once these locals go, after the rows are
    # freed: closing a suspended generator makes objects, so closing it
    # while memory is still short would fail.
    held: dict = {}
    walk = _walk(graph, ast, star_max, held)
    rows = sorted(walk, key=itemgetter(0, 1))
    # a repeated variable binds one node at each of its indices
    variables = {np.var: i for i, np in enumerate(ast.node_patterns) if np.var is not None}
    return _builder(bool(ast.path_var), *variables.values())(rows, tuple(variables))


def explain(graph: PropertyGraph, ast: QueryAst, star_max: int = DEFAULT_STAR_MAX) -> str:
    """Describe the plan `evaluate` runs: seed choice and expansion order."""
    plan = _plan(graph, ast, star_max, graph.hop_steps if graph.frozen else {})

    def node_text(i: int) -> str:
        np = ast.node_patterns[i]
        return f"node #{i} {np.var or '_'}:{np.label or '(any)'}"

    lines = [f"seed at {node_text(plan.anchor)} ({len(plan.candidates[plan.anchor])} candidates)"]
    lines += [f"  {node_text(i)} candidates={len(c)}" for i, c in enumerate(plan.candidates)]
    order = [
        f"right #{source}" if rightward else f"left #{target}"
        for source, target, _, rightward, *_ in plan.hops
    ]
    lines.append("expansion order: " + (", ".join(order) or "none (single node pattern)"))
    for _, target, _, _, _, hi, labelled in plan.hops:
        if not labelled:
            continue
        label = ast.node_patterns[target].label
        if hi == 1:
            lines.append(f"  last step to node #{target} expands only to :{label}")
        else:  # `_budgeted` filters every step of the hop
            lines.append(f"  every step to node #{target} expands only to nodes from which :{label} can still end the hop")
    bounds = {r: (lo, hi) for _, _, r, _, lo, hi, _ in plan.hops}
    for i, rel in enumerate(ast.rel_patterns):
        if not rel.hops.is_single:
            lo, hi = bounds[i]
            lines.append(f"variable-length rel #{i} type={rel.type or '(any)'} bounds {lo}..{hi}")
    return "\n".join(lines)
