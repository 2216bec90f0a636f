import hashlib
import importlib
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest
from skygraph.errors import QueryError
from skygraph.graph import PropertyGraph
from skygraph.ontology import ontology_from_documents
from skygraph.query import HopRange, RelPattern, engine, evaluate, explain, iter_matches, parse_query

from .conftest import DATA, data_path, listing_text
from .reference import (
    QUERY_LABELS,
    naive_matches,
    oracle_matches,
    oracle_paths,
    random_graph,
    random_hub_graph,
    random_query,
    result_paths,
    row_paths,
    small_ontology_documents,
)
from .test_parity import BENCH, GRAPHS, RESULTS_SHA256, fleet_manifest, results_text


@pytest.fixture(scope="module")
def tiny_ontology():
    return ontology_from_documents(*small_ontology_documents())


def binding_set(results):
    return {frozenset(r.bindings.items()) for r in results}


def chain_graph(ontology, edges, node_count=None, classes=None):
    """Graph from (from, to, type) triples over sequentially numbered nodes."""
    graph = PropertyGraph(ontology)
    count = node_count or (max(max(f, t) for f, t, _ in edges) + 1 if edges else 1)
    for i in range(count):
        cls = (classes or {}).get(i, "Thing")
        graph.add_node(cls, f"n{i}")
    for f, t, ty in edges:
        graph.add_edge(f, t, ty)
    graph.freeze()
    return graph


class TestDirectionSemantics:
    def test_directed_right(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")])
        assert len(evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b) RETURN a"))) == 1
        results = evaluate(graph, parse_query("MATCH (a)<-[:DFG]-(b) RETURN a"))
        assert [r.bindings for r in results] == [{"a": 1, "b": 0}]

    def test_undirected_matches_both_orientations(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")])
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG]-(b) RETURN a"))
        assert binding_set(results) == {
            frozenset({("a", 0), ("b", 1)}.__iter__()),
            frozenset({("a", 1), ("b", 0)}.__iter__()),
        }

    def test_type_filter(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (0, 1, "TO")])
        assert len(evaluate(graph, parse_query("MATCH (a)-[:TO]->(b) RETURN a"))) == 1
        assert len(evaluate(graph, parse_query("MATCH (a)-->(b) RETURN a"))) == 2


class TestLabelSemantics:
    def test_ontology_inheritance(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [], node_count=2, classes={0: "SubSub", 1: "Other"})
        results = evaluate(graph, parse_query("MATCH (n:Thing) RETURN n"))
        assert [r.bindings["n"] for r in results] == [0]

    def test_universal_label(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [], node_count=3, classes={1: "CallExpression"})
        assert len(evaluate(graph, parse_query("MATCH (n:Node) RETURN n"))) == 3

    def test_expression_subtyping(self, tiny_ontology):
        graph = chain_graph(
            tiny_ontology, [], node_count=3, classes={0: "CallExpression", 1: "Literal"}
        )
        results = evaluate(graph, parse_query("MATCH (n:Expression) RETURN n"))
        assert [r.bindings["n"] for r in results] == [0, 1]


class TestEdgeUniqueness:
    def test_self_loop_not_reused(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 0, "DFG")])
        # one edge cannot serve both hops
        assert evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b)-[:DFG]->(c) RETURN a")) == []
        assert len(evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b) RETURN a"))) == 1

    def test_back_and_forth_forbidden(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")])
        assert evaluate(graph, parse_query("MATCH (a)-[:DFG]-(b)-[:DFG]-(c) RETURN a")) == []

    def test_parallel_edges_allowed(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (0, 1, "DFG")])
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG]-(b)-[:DFG]-(c) RETURN a"))
        # two parallel edges: out and back on distinct edges, both directions
        assert len(results) == 4


class TestVariableLength:
    def chain(self, tiny_ontology, n):
        return chain_graph(tiny_ontology, [(i, i + 1, "DFG") for i in range(n - 1)])

    def test_star_expands_within_bounds(self, tiny_ontology):
        graph = self.chain(tiny_ontology, 4)
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG*]->(b) RETURN a"))
        assert len(results) == 6  # all ordered pairs reachable in 1..3 hops

    def test_star_default_bound_is_ten(self, tiny_ontology):
        graph = self.chain(tiny_ontology, 13)
        results = evaluate(graph, parse_query("MATCH (a:Node)-[:DFG*]->(b) RETURN a"))
        lengths = [len(r.bindings) for r in results]
        assert all(length == 2 for length in lengths)
        # 12 edges: pairs at distance 11 and 12 are cut off by the default
        assert len(results) == 12 + 11 + 10 + 9 + 8 + 7 + 6 + 5 + 4 + 3

    def test_star_bound_monotonicity(self, tiny_ontology):
        graph = self.chain(tiny_ontology, 8)
        ast = parse_query("MATCH (a)-[:DFG*]->(b) RETURN a")
        sizes = [len(evaluate(graph, ast, star_max=k)) for k in range(1, 9)]
        assert sizes == sorted(sizes)

    def test_exact_two(self, tiny_ontology):
        graph = self.chain(tiny_ontology, 4)
        results = evaluate(graph, parse_query("MATCH (a)-[*2]->(b) RETURN a"))
        assert binding_set(results) == {
            frozenset([("a", 0), ("b", 2)]),
            frozenset([("a", 1), ("b", 3)]),
        }

    def test_waypoint_first_reached_on_a_last_step(self, tiny_ontology):
        # Seed 0 lists node 1's neighbours on a last step, only those of
        # class Other; seed 1 then starts at node 1 and needs all of them.
        # Node 4 makes :Other outnumber :Sub, so the walk seeds at `a`.
        classes = {0: "Sub", 1: "Sub", 2: "Other", 3: "Other", 4: "Other"}
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (1, 2, "DFG"), (1, 5, "DFG"), (5, 3, "DFG")], 6, classes)
        results = evaluate(graph, parse_query("MATCH (a:Sub)-[:DFG*]->(b:Other) RETURN a"), star_max=2)
        assert [tuple(r.bindings.values()) for r in results] == [(0, 2), (1, 2), (1, 3)]

    @pytest.mark.parametrize("star_max", [0, -3, True, "10"])
    def test_star_max_must_be_a_positive_int(self, tiny_ontology, star_max):
        graph = self.chain(tiny_ontology, 4)
        ast = parse_query("MATCH (a)-[:DFG*]->(b) RETURN a")
        for run in (evaluate, explain, iter_matches):
            with pytest.raises(QueryError, match="star_max must be a positive integer"):
                run(graph, ast, star_max)


class TestPredicates:
    def graph_with_props(self, tiny_ontology):
        graph = PropertyGraph(tiny_ontology)
        graph.add_node("Thing", "x", {"p": 1, "flag": True})
        graph.add_node("Thing", "y", {"p": 2})
        graph.add_node("Thing", "x", {"p": 1, "flag": True})
        graph.freeze()
        return graph

    def test_equality(self, tiny_ontology):
        graph = self.graph_with_props(tiny_ontology)
        results = evaluate(graph, parse_query("MATCH (n) WHERE n.p = 1 RETURN n"))
        assert [r.bindings["n"] for r in results] == [0, 2]

    def test_missing_property_is_false_not_error(self, tiny_ontology):
        graph = self.graph_with_props(tiny_ontology)
        # y has no flag; <> on a missing property must not fire
        results = evaluate(graph, parse_query("MATCH (n) WHERE n.flag <> false RETURN n"))
        assert [r.bindings["n"] for r in results] == [0, 2]

    def test_boolean_not_equal_integer(self, tiny_ontology):
        graph = self.graph_with_props(tiny_ontology)
        assert evaluate(graph, parse_query("MATCH (n) WHERE n.flag = 1 RETURN n")) == []

    def test_name_fallback(self, tiny_ontology):
        graph = self.graph_with_props(tiny_ontology)
        results = evaluate(graph, parse_query('MATCH (n) WHERE n.name = "y" RETURN n'))
        assert [r.bindings["n"] for r in results] == [1]

    def test_node_comparison_is_structural(self, tiny_ontology):
        graph = self.graph_with_props(tiny_ontology)
        results = evaluate(graph, parse_query("MATCH (a)--(b) WHERE a <> b RETURN a"))
        assert results == []  # no edges at all
        graph2 = PropertyGraph(tiny_ontology)
        a = graph2.add_node("Thing", "x", {"p": 1})
        b = graph2.add_node("Thing", "x", {"p": 1})
        c = graph2.add_node("Thing", "x", {"p": 2})
        graph2.add_edge(a, b, "DFG")
        graph2.add_edge(a, c, "DFG")
        graph2.freeze()
        results = evaluate(graph2, parse_query("MATCH (a)-[:DFG]-(b) WHERE a <> b RETURN a"))
        # a-b are value-identical twins, only a-c differs (both orientations)
        assert binding_set(results) == {
            frozenset([("a", a), ("b", c)]),
            frozenset([("a", c), ("b", a)]),
        }


class TestDeterminism:
    def test_repeated_evaluation_identical(self, testbed_graph):
        ast = parse_query(listing_text("cross-region-service-calls"))
        first = evaluate(testbed_graph, ast)
        second = evaluate(testbed_graph, ast)
        assert [r.bindings for r in first] == [r.bindings for r in second]
        assert [r.path for r in first] == [r.path for r in second]

    def test_results_sorted_by_bound_ids(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(2, 1, "DFG"), (0, 1, "DFG")])
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b) RETURN a"))
        keys = [tuple(sorted(r.bindings.items())) for r in results]
        assert keys == sorted(keys)


class TestPaths:
    def test_path_only_when_requested(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")])
        with_path = evaluate(graph, parse_query("MATCH p=(a)-[:DFG]->(b) RETURN p"))
        without = evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b) RETURN a"))
        assert with_path[0].path is not None
        assert without[0].path is None

    def test_path_records_direction_flags(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(1, 0, "DFG"), (1, 2, "TO")])
        results = evaluate(graph, parse_query("MATCH p=(a)<-[:DFG]-(b)-[:TO]->(c) RETURN p"))
        assert len(results) == 1
        path = results[0].path
        assert path.node_ids == (0, 1, 2)
        assert path.forward == (False, True)

    def test_variable_length_path_includes_intermediates(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (1, 2, "DFG")])
        results = evaluate(graph, parse_query("MATCH p=(a)-[:DFG*]->(c:Other) RETURN p"))
        assert results == []
        results = evaluate(graph, parse_query("MATCH p=(a)-[*2]->(c) RETURN p"))
        assert results[0].path.node_ids == (0, 1, 2)

    def test_no_edge_repeats_in_any_path(self, testbed_graph):
        for name in ("cross-region-service-calls", "expression-to-public-storage"):
            for result in evaluate(testbed_graph, parse_query(listing_text(name))):
                assert len(set(result.path.edge_ids)) == len(result.path.edge_ids)


class TestLabelSoundness:
    def test_bindings_satisfy_labels(self, testbed_graph):
        for name in ("public-storage-writes", "cross-region-service-calls"):
            ast = parse_query(listing_text(name))
            node_patterns = ast.node_patterns
            for result in evaluate(testbed_graph, ast):
                for np in node_patterns:
                    if np.var in result.bindings and np.label:
                        assert testbed_graph.node_matches_label(
                            result.bindings[np.var], np.label
                        )


class TestExplain:
    def test_seeds_at_smallest_label_set(self, testbed_graph):
        ast = parse_query(listing_text("public-storage-writes"))
        plan = explain(testbed_graph, ast)
        assert plan.splitlines()[0].startswith("seed at node #1 rq:ObjectStorageRequest")

    def test_single_node_plan(self, testbed_graph):
        plan = explain(testbed_graph, parse_query("MATCH (n) RETURN n"))
        assert "expansion order: none" in plan

    def test_star_bound_reported(self, testbed_graph):
        plan = explain(testbed_graph, parse_query(listing_text("expression-to-public-storage")))
        assert "bounds 1..10" in plan

    def test_last_step_label_filter_reported(self, testbed_graph):
        plan = explain(testbed_graph, parse_query(listing_text("cross-region-resource-flows")))
        assert "last step to node #3 expands only to :GeoLocation" in plan
        assert "node #2 expands only to :CloudResource" in plan


class TestUnknownNames:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("MATCH (s:ObjectStorge) WHERE s.public_access = true RETURN s", "unknown node label 'ObjectStorge'"),
            ("MATCH (a)-[:RUNS_ONN]->(b) RETURN a", "unknown relationship type 'RUNS_ONN'"),
            ("MATCH (a:Application)-[*2]-(b)<-[:TOO]-(c:Thing) RETURN a", "unknown node label 'Thing'"),
            ("MATCH (a:Application)-[*2]-(b)<-[:TOO]-(c:Storage) RETURN a", "unknown relationship type 'TOO'"),
            (
                "MATCH (s:BlockStorage) WHERE s.public_access = true RETURN s",
                "no node of label 'BlockStorage' may carry property 'public_access'",
            ),
            (
                "MATCH (s:ObjectStorage) WHERE s.public_acess = true RETURN s",
                "no node of label 'ObjectStorage' may carry property 'public_acess'",
            ),
            (
                'MATCH (s:ObjectStorage) WHERE s.public_access = "true" RETURN s',
                "no node of label 'ObjectStorage' may carry property 'public_access' of kind string",
            ),
            (
                "MATCH (g:GeoLocation)--(s:Storage) WHERE g.region <> 1 RETURN s",
                "label 'GeoLocation' may carry property 'region' of kind integer",
            ),
            (
                "MATCH (s:ObjectStorage) WHERE s.name = false RETURN s",
                "label 'ObjectStorage' may carry property 'name' of kind boolean",
            ),
            # every pattern that binds the variable must allow the key, in either disjunct
            (
                'MATCH (s:Storage)--(s:BlockStorage) WHERE s.name = "x" OR s.public_access <> true RETURN s',
                "'BlockStorage' may carry property 'public_access'",
            ),
        ],
    )
    def test_evaluate_and_explain_name_the_word(self, testbed_graph, text, message):
        ast = parse_query(text)
        for run in (evaluate, explain, iter_matches):
            with pytest.raises(QueryError, match=message):
                run(testbed_graph, ast)

    @pytest.mark.parametrize(
        "text",
        [
            # ObjectStorage, a Storage, declares public_access
            "MATCH (s:Storage) WHERE s.public_access = true RETURN s",
            "MATCH (s) WHERE s.public_acess = true RETURN s",
            "MATCH (s:Node) WHERE s.public_acess = true RETURN s",
            "MATCH (e:Expression) WHERE e.anything = 1 RETURN e",
            "MATCH (f:FunctionDeclaration)--(c:CallExpression) WHERE f.x = 1 AND c.y <> 2 RETURN f",
            'MATCH (g:GeoLocation)--(s:BlockStorage) WHERE g.name = "x" OR s.provider_id <> "y" RETURN s',
            # literals of the declared kind, and of any kind where some class takes any
            "MATCH (s:ObjectStorage) WHERE s.public_access <> false RETURN s",
            'MATCH (s) WHERE s.public_access = "true" RETURN s',
            "MATCH (e:Expression) WHERE e.name = 1 RETURN e",
        ],
    )
    def test_a_key_some_class_under_the_label_may_carry_is_accepted(self, testbed_graph, text):
        ast = parse_query(text)
        assert "seed at" in explain(testbed_graph, ast)
        evaluate(testbed_graph, ast)

    def test_labels_come_from_the_graphs_own_ontology(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")], classes={0: "Sub", 1: "Literal"})
        text = "MATCH (a:Thing)-[:DFG]->(b:Expression)--(c:Node) RETURN a"
        assert evaluate(graph, parse_query(text)) == []
        assert len(evaluate(graph, parse_query("MATCH (a:Thing)-[:DFG]->(b:Literal) RETURN a"))) == 1
        with pytest.raises(QueryError, match="'Storage'"):
            evaluate(graph, parse_query("MATCH (s:Storage) RETURN s"))


class TestWherePrecedence:
    """WHERE against Python's own `and`/`or` on the same sequence, on one
    node with p = 1: `n.p = 1` is true and `n.p = 2` is false."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=6).flatmap(
            lambda values: st.tuples(
                st.just(values),
                st.lists(st.sampled_from(["and", "or"]), min_size=len(values) - 1, max_size=len(values) - 1),
            )
        )
    )
    def test_and_binds_tighter_than_or(self, tiny_ontology, values_and_joins):
        values, joins = values_and_joins
        graph = PropertyGraph(tiny_ontology)
        graph.add_node("Thing", "n", {"p": 1})
        graph.freeze()
        words = [str(values[0])]
        clauses = [f"n.p = {1 if values[0] else 2}"]
        for join, value in zip(joins, values[1:]):
            words += [join, str(value)]
            clauses += [join.upper(), f"n.p = {1 if value else 2}"]
        expected = eval(" ".join(words))  # only True, False, and, or
        results = evaluate(graph, parse_query(f"MATCH (n) WHERE {' '.join(clauses)} RETURN n"))
        assert len(results) == (1 if expected else 0), clauses


class TestOrPlacement:
    """An OR is one test, due like any other at the index it reads that
    binds last, so a binding that fails it is dropped before the walk goes
    on from it."""

    def test_or_failing_at_the_seed_lists_no_steps(self, tiny_ontology, monkeypatch):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (1, 2, "DFG"), (2, 0, "DFG")])
        listings = Counter()
        for name in ("out_edges", "in_edges"):

            def counted(*args, _method=getattr(graph, name), **kwargs):
                listings["calls"] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(graph, name, counted)
        ast = parse_query('MATCH p=(a)-[:DFG*]-(b) WHERE a.q = "x" OR a.p = 7 RETURN p')
        assert evaluate(graph, ast) == []
        assert not listings
        ast = parse_query('MATCH p=(a)-[:DFG*]-(b) WHERE a.q = "x" OR a.name = "n1" RETURN p')
        results = evaluate(graph, ast)
        assert results and {r.bindings["a"] for r in results} == {1}
        assert result_paths(results) == oracle_paths(graph, ast)

    @pytest.mark.parametrize(("labels", "anchor", "due"), [(("Sub", "", ""), 0, 2), (("", "Sub", ""), 1, 0)])
    def test_or_is_due_only_where_it_binds_last(self, tiny_ontology, labels, anchor, due):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (1, 2, "DFG"), (2, 3, "DFG")], classes={1: "Sub"})
        a, b, c = (f":{label}" if label else "" for label in labels)
        ast = parse_query(f'MATCH p=(x{a})-[:DFG]->(y{b})-[:DFG]->(z{c}) WHERE x.p = 1 OR z.name = "n3" RETURN p')
        plan = engine._plan(graph, ast, 10)
        assert plan.anchor == anchor
        assert [len(tests) for tests in plan.at_bind] == [int(i == due) for i in range(3)]
        assert result_paths(evaluate(graph, ast)) == oracle_paths(graph, ast)


@st.composite
def interior_anchor_cases(draw):
    """A graph with one SubSub node and at least two nodes of every other
    class, and a 3- or 4-pattern query that puts the only `:SubSub` pattern
    between its ends, so that the plan seeds there and walks both sides."""
    classes = ["SubSub", "Sub", "CallExpression", "Literal", "Other", "Other", "Thing", "Sub"]
    classes += draw(st.lists(st.sampled_from(["Thing", "Sub", "Other", "Literal"]), max_size=2))
    graph = PropertyGraph(ontology_from_documents(*small_ontology_documents()))
    for cls in classes:
        props = draw(st.fixed_dictionaries({}, optional={"p": st.sampled_from([1, 2]), "q": st.sampled_from(["x", "y"])}))
        graph.add_node(cls, draw(st.sampled_from(["alpha", "beta"])), props)
    ids = st.integers(0, len(classes) - 1)
    for _ in range(draw(st.integers(2, 14))):
        graph.add_edge(draw(ids), draw(ids), draw(st.sampled_from(["DFG", "TO"])))
    graph.freeze()

    count = draw(st.integers(3, 4))
    anchor = draw(st.integers(1, count - 2))
    names = [draw(st.sampled_from(["a", "b", "c", None])) for _ in range(count)]
    parts = []
    for i, name in enumerate(names):
        label = "SubSub" if i == anchor else draw(st.sampled_from([None, "Node", "Thing", "Sub", "Other", "Expression"]))
        parts.append(f"({name or ''}{':' + label if label else ''})")
        if i < count - 1:
            rtype = draw(st.sampled_from(["", ":DFG", ":TO"]))
            hops = draw(st.sampled_from(["", "", "*", "*2"]))
            arrow = draw(st.sampled_from(["-{}->", "<-{}-", "-{}-"]))
            parts.append(arrow.format(f"[{rtype}{hops}]" if rtype or hops else ""))
    text = "MATCH p=" + "".join(parts)
    bound = sorted({name for name in names if name})
    if bound and draw(st.booleans()):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            var = draw(st.sampled_from(bound))
            terms.append(
                draw(
                    st.sampled_from(
                        [f"{var}.p = 1", f"{var}.p <> 2", f'{var}.q = "x"']
                        + [f"{var} <> {other}" for other in bound if other != var]
                    )
                )
            )
        joins = [draw(st.sampled_from([" AND ", " OR "])) for _ in terms[1:]]
        text += " WHERE " + terms[0] + "".join(join + term for join, term in zip(joins, terms[1:]))
    return graph, text + f" RETURN {bound[0] if bound else 'p'}", anchor


class TestInteriorAnchor:
    """From a seed between the pattern's ends, the walk binds the hops
    right of it, then those left of it; the matches must be the oracle's,
    path for path, including variables repeated across the anchor, edges
    that either side could take, and WHERE clauses on one side, across
    both, and OR-ed."""

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(interior_anchor_cases())
    def test_joined_sides_match_the_oracle(self, case):
        graph, text, anchor = case
        ast = parse_query(text)
        assert explain(graph, ast).startswith(f"seed at node #{anchor} "), text
        for star_max in (2, 1):
            results = evaluate(graph, ast, star_max=star_max)
            assert result_paths(results) == oracle_paths(graph, ast, star_max=star_max), (text, star_max)


class TestEmptyGraph:
    def test_any_query_empty(self, tiny_ontology):
        graph = PropertyGraph(tiny_ontology)
        graph.freeze()
        for text in ("MATCH (n) RETURN n", "MATCH (a)-[:DFG*]->(b) RETURN a"):
            assert evaluate(graph, parse_query(text)) == []


class TestRepeatedVariables:
    def test_cycle_pattern(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG"), (1, 0, "DFG"), (1, 2, "DFG")])
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG]->(b)-[:DFG]->(a) RETURN a"))
        assert binding_set(results) == {
            frozenset([("a", 0), ("b", 1)]),
            frozenset([("a", 1), ("b", 0)]),
        }

    def test_self_loop_binds_same_var(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 0, "DFG"), (0, 1, "DFG")])
        results = evaluate(graph, parse_query("MATCH (a)-[:DFG]->(a) RETURN a"))
        assert binding_set(results) == {frozenset([("a", 0)])}

    def test_repeat_prunes_where_it_binds(self, tiny_ontology, monkeypatch):
        # `a` binds again at #2, on the anchor's side: the last hop is
        # walked only from the 2-step walks that came back to their start
        graph = chain_graph(
            tiny_ontology,
            [(0, 1, "DFG"), (1, 0, "DFG"), (1, 2, "DFG"), (2, 3, "DFG"), (3, 1, "DFG"), (0, 4, "DFG"), (4, 5, "DFG")],
        )
        ast = parse_query("MATCH (a)-[:DFG]->(b)-[:DFG]->(a)-[:DFG]->(c) RETURN a")
        assert explain(graph, ast).startswith("seed at node #0 ")
        starts: Counter = Counter()
        expand = engine._expand

        def counted(graph, node_id, rel, *args):
            if rel is ast.rel_patterns[2]:
                starts[node_id] += 1
            return expand(graph, node_id, rel, *args)

        monkeypatch.setattr(engine, "_expand", counted)
        results = evaluate(graph, ast)
        assert binding_set(results) == {
            frozenset([("a", 0), ("b", 1), ("c", 4)]),
            frozenset([("a", 1), ("b", 0), ("c", 2)]),
        }
        assert starts == Counter({0: 1, 1: 1})


class TestOracleAgreement:
    def test_handpicked_cases(self, tiny_ontology):
        graph = chain_graph(
            tiny_ontology,
            [(0, 1, "DFG"), (1, 2, "DFG"), (2, 0, "TO"), (3, 3, "DFG"), (1, 3, "CALLS"), (3, 1, "DFG"), (2, 1, "CALLS")],
            classes={0: "SubSub", 1: "Sub", 2: "CallExpression", 3: "Other"},
        )
        queries = [
            "MATCH (a)-[:DFG]->(b) RETURN a",
            "MATCH (a:Thing)-[:DFG*]->(b) RETURN a",
            "MATCH (a)--(b)--(c) RETURN a",
            "MATCH (a)-[*2]-(b:Expression) RETURN a",
            "MATCH (a:Node)<-[:TO]-(b) WHERE a <> b RETURN a",
            "MATCH (a:Sub)-[:DFG]-(b)-[:CALLS]-(c) RETURN a",
            "MATCH (a)-[:DFG]->(b)-[:TO]->(a) RETURN a",
            "MATCH (a)-[*2]-(a) RETURN a",
            # seeded at the one SubSub node, between the two sides it joins
            "MATCH (a)-[:DFG]-(s:SubSub)-[:DFG]-(b) RETURN a",
            "MATCH (a)-[*2]-(s:SubSub)--(a) RETURN a",
            "MATCH (a)--(s:SubSub)-[*2]-(b) WHERE a <> b RETURN a",
            # one variable three times: on one side of the anchor, then across it
            "MATCH p=(s:SubSub)-[*]-(a)-[*]-(a)-[*]-(a) RETURN p",
            "MATCH p=(a)-[*]-(a)-[*]-(a)-[*]-(s:SubSub) RETURN p",
            "MATCH p=(a)-[*]-(a)-[*]-(s:SubSub)-[*]-(a) WHERE s <> a RETURN p",
            "MATCH p=(a)-[*]-(s:SubSub)-[*]-(a)-[*]-(a) WHERE a <> s RETURN p",
            "MATCH p=(a)-[*]-(s:SubSub)-[*]-(a)--(a) WHERE a <> s OR s <> a RETURN p",
        ]
        for text in queries:
            ast = parse_query(text)
            results = evaluate(graph, ast, star_max=5)
            assert binding_set(results) == oracle_matches(graph, ast, star_max=5), text
            if ast.path_var:
                assert result_paths(results) == oracle_paths(graph, ast, star_max=5), text

    def test_randomized_quick(self, tiny_ontology):
        rng = random.Random(20260811)
        for case in range(25):
            graph = random_graph(rng, tiny_ontology, max_nodes=8)
            for _ in range(3):
                text = random_query(rng, max_nodes=3)
                ast = parse_query(text)
                results = evaluate(graph, ast, star_max=4)
                assert result_paths(results) == oracle_paths(graph, ast, star_max=4), (case, text)
                assert binding_set(results) == naive_matches(graph, ast, star_max=4), (case, text)
                # at star_max 1 every `*` segment is a one-step hop
                results = evaluate(graph, ast, star_max=1)
                assert result_paths(results) == oracle_paths(graph, ast, star_max=1), (case, text)

    def test_randomized_hubs(self, tiny_ontology):
        # the engine filters a segment's last step by the end's label; hubs
        # reach every class, so a wrong filter drops or keeps real routes
        rng = random.Random(20261018)
        labels = QUERY_LABELS + ("Literal", "FunctionDeclaration", "Mystery")
        texts = []
        for case in range(50):
            graph = random_hub_graph(rng, tiny_ontology)
            # two `*` segments through a hub at star_max 3 give millions of routes
            star_max, max_nodes = (3, 2) if case % 2 else (2, 3)
            for _ in range(5):
                text = random_query(rng, max_nodes=max_nodes, labels=labels)
                texts.append(text)
                ast = parse_query(text)
                if ":Mystery)" in text:
                    # no graph can hold the label, so the oracle finds nothing and the engine says why
                    assert not oracle_paths(graph, ast, star_max=star_max), (case, text)
                    with pytest.raises(QueryError, match="unknown node label 'Mystery'"):
                        evaluate(graph, ast, star_max=star_max)
                    continue
                for bound in (star_max, 1):
                    results = evaluate(graph, ast, star_max=bound)
                    assert result_paths(results) == oracle_paths(graph, ast, star_max=bound), (case, text, bound)
        labelled_star_end = re.compile(r"\*2?\]->?\(\w*:\w+\)|\(\w*:\w+\)<?-\[[^]]*\*")
        assert sum(bool(labelled_star_end.search(t)) for t in texts) >= 50
        for label in ("Node", "Expression", "Mystery"):
            assert any(f":{label})" in t for t in texts), label


class TestBudgetedSteps:
    """Every step of a multi-step hop to a labelled target keeps only the
    neighbours from which the hop can still end within its bounds; the
    matches stay the oracle's, path for path."""

    RANGES = [(2, 2), (3, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, None), (2, None), (1, 1)]
    LABELS = (None, "Thing", "Sub", "SubSub", "Other", "Expression", "CallExpression")

    @staticmethod
    def dense_graph(rng, ontology):
        """4-10 nodes and one to two edges per node, of two types."""
        graph = PropertyGraph(ontology)
        count = rng.randint(4, 10)
        for _ in range(count):
            graph.add_node(rng.choice(["Thing", "Sub", "SubSub", "Other", "CallExpression", "Literal"]), "n")
        for _ in range(rng.randint(count, 2 * count)):
            graph.add_edge(rng.randrange(count), rng.randrange(count), rng.choice(["DFG", "TO"]))
        graph.freeze()
        return graph

    def test_hop_ranges_match_the_oracle(self, tiny_ontology):
        rng = random.Random(20261021)
        seen, matches = Counter(), 0
        for case in range(250):
            graph = self.dense_graph(rng, tiny_ontology)
            parsed = parse_query(random_query(rng, max_nodes=3, labels=self.LABELS))
            # three sets of bounds on one graph, whose hop index they share
            for _ in range(3):
                hops = [HopRange(*rng.choice(self.RANGES)) for _ in parsed.rel_patterns]
                rels = tuple(replace(rel, hops=h) for rel, h in zip(parsed.rel_patterns, hops))
                ast = replace(parsed, rel_patterns=rels)
                for rel, *ends in zip(rels, ast.node_patterns, ast.node_patterns[1:]):
                    if not rel.hops.is_single and any(end.label is not None for end in ends):
                        kind = "exact" if rel.hops.min == rel.hops.max else "range" if rel.hops.max else "star"
                        seen[kind, rel.direction] += 1
                for star_max in (4, 2):
                    results = evaluate(graph, ast, star_max=star_max)
                    assert result_paths(results) == oracle_paths(graph, ast, star_max=star_max), (case, ast, star_max)
                    matches += len(results)
        kinds = {(kind, direction) for kind in ("exact", "range", "star") for direction in ("left", "right", "undirected")}
        assert kinds <= set(seen), seen
        assert sum(seen.values()) >= 200 and matches >= 1000, (seen, matches)

    def test_budgets_are_bounded_by_the_graph(self, tiny_ontology):
        # no route is longer than the graph has edges, so a `star_max` far
        # above that keeps no more budgets than the edges allow
        graph = chain_graph(
            tiny_ontology, [(0, 1, "DFG"), (1, 2, "DFG"), (2, 0, "DFG"), (1, 3, "TO")], classes={0: "SubSub", 2: "Sub"}
        )
        ast = parse_query("MATCH p=(a:SubSub)-[:DFG*]->(b:Sub) RETURN p")
        results = evaluate(graph, ast, star_max=100_000)
        assert result_paths(results) == oracle_paths(graph, ast, star_max=100_000)
        assert len(results) == 2
        assert len(graph.hop_steps) <= 1 + graph.edge_count

    def test_long_chain_within_the_recursion_limit(self, tiny_ontology):
        # budgets above the recursion limit are made without recursing
        length = sys.getrecursionlimit() + 200
        others = {length // 3, length - 100, length}
        graph = chain_graph(
            tiny_ontology,
            [(i, i + 1, "DFG") for i in range(length)],
            classes={0: "Sub", **{i: "Other" for i in others}},
        )
        texts = ["MATCH p=(a:Sub)-[:DFG*]->(b:Other) RETURN p", "MATCH p=(b:Other)<-[*]-(a:Sub) RETURN p"]
        for text in texts:
            ast = parse_query(text)
            results = evaluate(graph, ast, star_max=length)
            assert len(results) == len(others)
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(4 * length)  # the oracle recurses once per step
            try:
                assert result_paths(results) == oracle_paths(graph, ast, star_max=length), text
            finally:
                sys.setrecursionlimit(limit)
            # one step short of the farthest `Other` drops it
            assert len(evaluate(graph, ast, star_max=length - 1)) == len(others) - 1


class TestMatchRows:
    """`iter_matches` yields one row of tuples per match, read off the
    walk's steps, and `evaluate` builds its results from the same rows.
    It plans the query when called, so `star_max` and the names are
    checked then (TestVariableLength, TestUnknownNames)."""

    @staticmethod
    def rows_as_results(graph, ast, star_max):
        """The rows in `oracle_paths`' form, checked against `evaluate`'s
        results: their paths if the query binds one, else their bindings."""
        rows = row_paths(ast, iter_matches(graph, ast, star_max))
        results = evaluate(graph, ast, star_max)
        if ast.path_var:
            assert rows == result_paths(results)
        else:
            assert Counter(bindings for bindings, _, _, _ in rows.elements()) == Counter(
                frozenset(r.bindings.items()) for r in results
            )
        return rows

    def test_rows_encode_the_results_on_random_graphs(self, tiny_ontology):
        rng = random.Random(20261019)
        for case in range(200):
            graph = random_graph(rng, tiny_ontology, max_nodes=8)
            for _ in range(2):
                text = random_query(rng, max_nodes=3)
                if case % 2:
                    text = text.replace("MATCH p=", "MATCH ")
                ast = parse_query(text)
                rows = self.rows_as_results(graph, ast, 3)
                assert rows == oracle_paths(graph, ast, star_max=3), (case, text)

    def test_rows_encode_the_results_on_hub_graphs(self, tiny_ontology):
        rng = random.Random(20261020)
        for case in range(50):
            graph = random_hub_graph(rng, tiny_ontology)
            star_max, max_nodes = (3, 2) if case % 2 else (2, 3)
            for _ in range(3):
                text = random_query(rng, max_nodes=max_nodes)
                if case % 4 < 2:
                    text = text.replace("MATCH p=", "MATCH ")
                self.rows_as_results(graph, parse_query(text), star_max)

    def test_single_node_rows(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [(0, 1, "DFG")], classes={1: "Sub"})
        for text in ("MATCH (a:Sub) RETURN a", "MATCH p=(a:Sub) RETURN p"):
            assert list(iter_matches(graph, parse_query(text))) == [((1,), (), (), ())]
        [result] = evaluate(graph, parse_query("MATCH p=(a:Sub) RETURN p"))
        assert (result.path.node_ids, result.path.edge_ids, result.path.forward) == ((1,), (), ())

    def test_counting_rows_holds_no_results(self, testbed_graph):
        # the walk holds one route; the results of every match stay unmade
        ast = parse_query("MATCH p=(a:ContainerImage)-[*]-(b:Storage) RETURN p")
        tracemalloc.start()
        try:
            count = sum(1 for _ in iter_matches(testbed_graph, ast, 12))
            _, counting = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            results = len(evaluate(testbed_graph, ast, 12))
            _, evaluating = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == results == 22559
        assert counting * 10 <= evaluating, (counting, evaluating)


class TestHubScaling:
    """Queries over N disjoint tenants cost about N times one tenant, even
    when every tenant links to one shared hub (a container registry)."""

    @staticmethod
    def fleet(ontology, tenants):
        graph = PropertyGraph(ontology)
        registry = graph.add_node("ContainerRegistry", "ghcr.io")
        graph.add_edge(registry, graph.add_node("GeoLocation", "geo", {"region": "us"}), "GEO_LOCATION")
        for t in range(tenants):
            vm = graph.add_node("VirtualMachine", f"vm-{t}")
            bucket = graph.add_node("ObjectStorage", f"bucket-{t}")
            graph.add_edge(registry, vm, "DFG")
            graph.add_edge(vm, bucket, "DFG")
            for node, region in ((vm, "us"), (bucket, "eu")):
                geo = graph.add_node("GeoLocation", "geo", {"region": region})
                graph.add_edge(node, geo, "GEO_LOCATION")
        graph.freeze()
        return graph

    @staticmethod
    def counts(graph, text):
        """(`out_edges`/`in_edges` calls, edges they returned,
        `node_matches_label` calls) while evaluating `text`, and the
        results."""
        tally = {"calls": 0, "edges": 0, "labels": 0}

        def listing(method):
            def counted(*args, **kwargs):
                edges = method(*args, **kwargs)
                tally["calls"] += 1
                tally["edges"] += len(edges)
                return edges

            return counted

        def matcher(*args):
            tally["labels"] += 1
            return PropertyGraph.node_matches_label(graph, *args)

        graph.out_edges = listing(graph.out_edges)
        graph.in_edges = listing(graph.in_edges)
        graph.node_matches_label = matcher
        results = evaluate(graph, parse_query(text))
        return tally["calls"], tally["edges"], tally["labels"], results

    def test_cross_region_flows_linear_in_tenants(self, core_ontology):
        text = listing_text("cross-region-resource-flows")
        k = 40
        calls_k, edges_k, labels_k, results_k = self.counts(self.fleet(core_ontology, k), text)
        calls_2k, edges_2k, labels_2k, results_2k = self.counts(self.fleet(core_ontology, 2 * k), text)
        assert len(results_2k) == 2 * len(results_k) > 0
        # the engine lists adjacency through the counted accessors
        assert calls_k > 0 and calls_2k > 0
        assert edges_2k <= 2.2 * edges_k, (edges_k, edges_2k)
        assert labels_2k <= 2.2 * labels_k, (labels_k, labels_2k)

    def test_shared_path_service_calls_list_neighbours_linearly(self, tmp_path, monkeypatch):
        # Every tenant serves the same local paths, but each request reaches
        # only the endpoints of the application its host addresses, so the
        # results are the per-tenant sums and listing a node's neighbours
        # once per hop keeps the adjacency calls linear. Every hop's last
        # step only reaches nodes of the target's label and the seeds come
        # from the anchor's label, so no label is checked again.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        fleet = importlib.import_module("fleet")
        text = listing_text("cross-region-service-calls")
        calls, labels, results = {}, {}, {}
        for n in (4, 8):
            manifest = fleet.generate(Path(str(DATA)), tmp_path / f"fleet-{n}", n, 3, "shared").manifest
            graph = build_graph(load_manifest(manifest))[0]
            calls[n], _, labels[n], found = self.counts(graph, text)
            results[n] = len(found)
            assert explain(graph, parse_query(text)).startswith("seed at node #2 _:Application")
        assert (results[4], results[8]) == (8, 16)
        assert calls[4] > 0 and calls[8] > 0, calls
        assert calls[8] <= 2.2 * calls[4], calls
        assert labels == {4: 0, 8: 0}


class TestHopIndex:
    """A graph keeps the engine's step lists in `hop_steps`, one memo per
    hop shape and, for a labelled target, per budget, for every later
    query; `add_edge` empties them."""

    FLEET = "fleet-8-shared-4"

    @staticmethod
    def queries():
        expected = importlib.import_module("expected")
        return {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED

    def test_warm_pass_lists_no_adjacency(self, tmp_path, monkeypatch):
        graph = build_graph(load_manifest(fleet_manifest(self.FLEET, tmp_path, monkeypatch)))[0]
        listings = Counter()
        for name in ("out_edges", "in_edges"):

            def counted(*args, _method=getattr(graph, name), **kwargs):
                listings["calls"] += 1
                return _method(*args, **kwargs)

            setattr(graph, name, counted)
        cold = results_text(graph, self.queries())
        assert listings["calls"] > 0
        listings.clear()
        warm = results_text(graph, self.queries())
        assert hashlib.sha256(warm.encode("utf-8")).hexdigest() == RESULTS_SHA256[self.FLEET]
        assert warm == cold
        assert not listings

    def test_add_edge_empties_the_lists(self, tmp_path, monkeypatch):
        built = build_graph(load_manifest(fleet_manifest(self.FLEET, tmp_path, monkeypatch)))[0]
        graph = PropertyGraph(built.ontology)
        for node in built.nodes():
            assert graph.add_node(node.class_name, node.name, node.properties) == node.id
        for edge in built.edges():
            assert graph.add_edge(edge.from_id, edge.to_id, edge.type, edge.properties) == edge.id
        ast = parse_query(importlib.import_module("expected").OWNED["registry-pulls"])
        assert explain(graph, ast).startswith("seed at node #0 r:ContainerRegistry")
        before = evaluate(graph, ast)
        assert graph.hop_steps
        # a registry feeds a compute it did not feed, which runs an application
        registry = graph.label_candidates("ContainerRegistry")[0]
        fed = {edge.to_id for edge in graph.out_edges(registry, "DFG")}
        compute = next(
            c for c in graph.label_candidates("Compute") if c not in fed and graph.in_edges(c, "RUNS_ON")
        )
        edge_id = graph.add_edge(registry, compute, "DFG")
        assert graph.hop_steps == {}
        after = evaluate(graph, ast)
        new = [result for result in after if edge_id in result.path.edge_ids]
        assert new and len(after) == len(before) + len(new)

    @staticmethod
    def ends_within(lists, members, budget, slack):
        """The nodes from which a walk over `lists` of `budget - slack` to
        `budget` steps ends in `members`."""
        reach, ends = set(members), set(members) if slack >= budget else set()
        for steps in range(1, budget + 1):
            reach = {node for node, listed in lists.items() if any(step[1] in reach for step in listed)}
            if steps >= budget - slack:
                ends |= reach
        return ends

    def test_cached_lists_are_fresh_and_bounded(self, tmp_path, monkeypatch):
        graph = build_graph(load_manifest(fleet_manifest(self.FLEET, tmp_path, monkeypatch)))[0]
        for text in self.queries().values():
            evaluate(graph, parse_query(text))
        store = graph.hop_steps
        assert {len(key) for key in store} == {4, 6}
        nodes = [node.id for node in graph.nodes()]
        pruned = 0
        for (kind, direction, rightward, label, *budgeted), memo in store.items():
            rel = RelPattern(type=kind, direction=direction)
            unfiltered = {node_id: engine._expand(graph, node_id, rel, rightward, None, {}) for node_id in nodes}
            members = None if label is None else set(graph.label_candidates(label))
            if budgeted:
                budget, slack = budgeted
                assert 0 <= slack <= budget
                # the lists at `budget`, kept where a walk can end, made afresh
                ends = self.ends_within(unfiltered, members, budget, slack)
                memos = [{} for _ in range(budget + 1)]
            for node_id, steps in memo.items():
                if not budgeted:  # unfiltered, or to the label at budget 0
                    assert steps == engine._expand(graph, node_id, rel, rightward, members, {})
                else:
                    assert steps == engine._budgeted(graph, node_id, rel, rightward, members, {}, memos, budget, slack)
                    assert steps == [step for step in unfiltered[node_id] if step[1] in ends]
                    pruned += len(unfiltered[node_id]) - len(steps)
                listed = iter(unfiltered[node_id])
                assert all(step in listed for step in steps), "not an in-order sub-list"
                assert len(steps) <= len(graph.out_edges(node_id)) + len(graph.in_edges(node_id))
        assert pruned
        cached = sum(len(steps) for memo in store.values() for steps in memo.values())
        assert 0 < cached <= len(store) * 2 * graph.edge_count


class TestLabelMembers:
    """A graph keeps each label's candidate ids and member set from the
    first query that reads them; a node inserted after it, as on a graph
    still being built, empties them."""

    def test_a_node_added_between_queries_is_seeded_and_matched(self, tiny_ontology):
        graph = PropertyGraph(tiny_ontology)  # never frozen: still being built
        for cls in ("Other", "Thing", "Other"):
            graph.add_node(cls, cls.lower())
        graph.add_edge(0, 1, "DFG")
        seeds = parse_query("MATCH (n:Thing) RETURN n")
        hop = parse_query("MATCH p=(a:Other)-[:DFG]->(b:Thing) RETURN p")
        assert [r.bindings["n"] for r in evaluate(graph, seeds)] == [1]
        assert [r.bindings["b"] for r in evaluate(graph, hop)] == [1]
        added = graph.add_node("SubSub", "late")
        graph.add_edge(2, added, "DFG")
        assert [r.bindings["n"] for r in evaluate(graph, seeds)] == [1, added]
        # the hop's target filter is the label's member set
        assert explain(graph, hop).startswith("seed at node #0 a:Other")
        assert [r.bindings["b"] for r in evaluate(graph, hop)] == [1, added]
        assert result_paths(evaluate(graph, hop)) == oracle_paths(graph, hop)

    def test_label_candidates_returns_a_new_list(self, tiny_ontology):
        graph = chain_graph(tiny_ontology, [], node_count=3, classes={1: "Sub", 2: "Other"})
        for label in ("Thing", "Node"):
            first = graph.label_candidates(label)
            want = list(first)
            first.append(99)
            first.reverse()
            assert graph.label_candidates(label) == want
            assert graph.label_members(label) == (tuple(want), frozenset(want))


class TestStepsCarryPaths:
    """Each step holds the node it reaches and a hop's target candidates
    are its label's nodes, so `evaluate` builds paths and ends routes that
    are shorter than their bound without looking up an edge or testing a
    label."""

    SHORT_ROUTES = "MATCH p=(a:Application)-[*]-(s:Storage) RETURN p"

    @pytest.mark.parametrize("name", ["bookinfo", "fleet-8-shared-4"])
    def test_pinned_results_without_edge_or_label_lookups(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        if GRAPHS[name] is None:
            manifest = data_path(f"fixtures/{name}/manifest.yaml")
        else:
            manifest = fleet_manifest(name, tmp_path, monkeypatch)
        graph = build_graph(load_manifest(manifest))[0]
        short = parse_query(self.SHORT_ROUTES)
        expected = oracle_paths(graph, short, star_max=4)
        assert any(len(edge_ids) < 4 for _, _, edge_ids, _ in expected)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate looked up an edge or tested a label")

        monkeypatch.setattr(graph, "edge", refuse)
        monkeypatch.setattr(graph, "node_matches_label", refuse)
        text = results_text(graph, TestHopIndex.queries())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RESULTS_SHA256[name]
        assert result_paths(evaluate(graph, short, star_max=4)) == expected
