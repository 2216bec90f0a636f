"""The compiled walk yields the rows of the interpreted one, in its order.

`iter_matches` runs one generated generator per plan shape. Its rows must
be `reference_rows`', the engine's earlier one-stack walk, row for row: on
random graphs and queries, on a graph that keeps its step lists between
queries, and on patterns longer than one generated function may nest.
Query text never reaches the generated code: the shapes walks and result
builders are compiled from hold only ints, bools and None.
"""

from __future__ import annotations

import importlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest
from skygraph.errors import QueryError, QuerySyntaxError
from skygraph.graph import Path as GraphPath
from skygraph.graph import PropertyGraph, export_graph, import_graph
from skygraph.ontology import ontology_from_documents
from skygraph.query import engine, evaluate, explain, iter_matches, parse_query
from skygraph.query.syntax import NodePattern, PropertyComparison, QueryAst, RelPattern

from .conftest import DATA, listing_text
from .reference import (
    oracle_paths,
    random_graph,
    random_query,
    reference_rows,
    reversed_rows,
    row_paths,
    small_ontology_documents,
    to_document,
)
from .test_parity import BENCH, GRAPHS, benchmark_graph

ONTOLOGY = ontology_from_documents(*small_ontology_documents())


def rows(graph, ast, star_max):
    return list(iter_matches(graph, ast, star_max))


# labels and types most nodes and edges of `random_graph` match, so that
# long patterns match too
NARROW = {"labels": (None, None, "Node", "Thing", "Sub"), "types": (None, None, "DFG")}


def random_case(seed: int, narrow: bool) -> tuple[PropertyGraph, str]:
    rng = random.Random(seed)
    graph = random_graph(rng, ONTOLOGY)
    return graph, random_query(rng, max_nodes=6, **(NARROW if narrow else {}))


class TestRandomCases:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 4))
    def test_rows_in_the_reference_order(self, seed, narrow, star_max):
        graph, text = random_case(seed, narrow)
        ast = parse_query(text)
        assert rows(graph, ast, star_max) == reference_rows(graph, ast, star_max), (seed, text)

    def test_cases_cover_every_hop_kind_and_test(self):
        """Among the matches of the cases `random_case` draws are some of
        patterns of five or six nodes, of repeated variables and OR
        comparisons, some over `*` and `*2` hops and some that take a
        self-loop; on each of 2 x 300 seeds the rows are the reference's
        at star_max 1 to 4."""
        seen = set()
        for seed in range(300):
            for narrow in (False, True):
                graph, text = random_case(seed, narrow)
                ast = parse_query(text)
                variables = [np.var for np in ast.node_patterns if np.var]
                loops = {edge.id for edge in graph.edges() if edge.from_id == edge.to_id}
                for star_max in range(1, 5):
                    found = rows(graph, ast, star_max)
                    assert found == reference_rows(graph, ast, star_max), (seed, text, star_max)
                    if not found:
                        continue
                    seen |= {"long"} if len(ast.node_patterns) >= 5 else set()
                    seen |= {"repeat"} if len(variables) > len(set(variables)) else set()
                    seen |= {"or"} if ast.where and len(ast.where) > 1 else set()
                    seen |= {"star"} if "*]" in text else set()
                    seen |= {"*2"} if "*2]" in text else set()
                    seen |= {"self-loop"} if any(loops & set(row[1]) for row in found) else set()
        assert seen == {"long", "repeat", "or", "star", "*2", "self-loop"}


class TestKeptStepLists:
    def test_shuffled_decks_on_one_graph(self, tmp_path, monkeypatch):
        """The nine benchmark queries in seeded random order, three decks on
        one graph whose `hop_steps` keeps every list between queries: a
        stale or wrong kept list would change a row."""
        monkeypatch.syspath_prepend(str(BENCH))
        expected, fleet = importlib.import_module("expected"), importlib.import_module("fleet")
        manifest = fleet.generate(Path(str(DATA)), tmp_path / "fleet", 16, 4, "shared").manifest
        graph = build_graph(load_manifest(manifest))[0]
        queries = [listing_text(q) for q in expected.BUNDLED] + list(expected.OWNED.values())
        rng = random.Random(31)
        for _ in range(3):
            rng.shuffle(queries)
            for text in queries:
                ast = parse_query(text)
                found = rows(graph, ast, 10)
                assert found == reference_rows(graph, ast, 10), text
        assert graph.hop_steps


class TestImportKeepsTheWalk:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_imported_graph_walks_as_built(self, name, tmp_path, monkeypatch):
        """An imported graph holds its nodes and edges in the export's
        group order, or in any order a document gives, not in id order;
        the walk still yields the built graph's rows, in its order, on the
        export and on a document whose groups and rows are reversed."""
        built, queries = benchmark_graph(name, tmp_path, monkeypatch)
        for graph in (import_graph(export_graph(built)), import_graph(reversed_rows(to_document(built)))):
            assert [n.id for n in graph.nodes()] != [n.id for n in built.nodes()]
            for text in queries.values():
                ast = parse_query(text)
                for star_max in (10, 3):
                    assert rows(graph, ast, star_max) == rows(built, ast, star_max), text


def filters(graph, ast, star_max) -> tuple[list, list]:
    """The label filters `explain` prints, as (target, whether only the
    last step is filtered), and those of the hops the walk is compiled
    with, as (target, whether `hi` is 1), each in hop order."""
    text = explain(graph, ast, star_max)
    printed = [(int(target), kind == "last") for kind, target in re.findall(r"(last|every) step to node #(\d+) expands only", text)]
    hops = []
    compile_walk = engine._compile

    def walk(count, anchor, hop_count, *parts):
        hops.extend(parts[:hop_count])
        return compile_walk(count, anchor, hop_count, *parts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_compile", walk)
        iter_matches(graph, ast, star_max)
    # a hop's shape: (source, target, rel, rightward, lo, hi, labelled)
    return printed, [(target, hi == 1) for _, target, _, _, _, hi, labelled in hops if labelled]


class TestExplainDescribesTheWalk:
    """`explain` prints a label filter for each hop the walk filters by
    its target's label and for no other: not for a label every node
    matches, such as `:Node`, and as a last-step filter where the graph
    has too few edges for a longer route."""

    QUERIES = {
        **{q: listing_text(q) for q in ("weak-transport-encryption", "cross-region-resource-flows", "expression-to-public-storage")},
        "application-node-3hop": "MATCH p=(a:Application)-[*3]-(n:Node) RETURN p",
        "node-flows-to-storage": "MATCH p=(n:Node)-[:DFG*]->(s:Storage) RETURN p",
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("star_max", [1, 10])
    def test_on_bookinfo(self, testbed_graph, name, star_max):
        printed, compiled = filters(testbed_graph, parse_query(self.QUERIES[name]), star_max)
        assert printed == compiled

    def test_on_random_cases(self):
        for seed in range(200):
            for narrow in (False, True):
                graph, text = random_case(seed, narrow)
                ast = parse_query(text)
                for star_max in (1, 3):
                    printed, compiled = filters(graph, ast, star_max)
                    assert printed == compiled, (seed, text, star_max)


class TestStepEnds:
    """`render_path` takes each step's text from its edge and forward flag
    alone (`PropertyGraph.step_texts`), which holds while a step along its
    edge goes from the edge's `from_id` to its `to_id`, and a step against
    it the other way."""

    def test_on_random_cases(self):
        flags = set()
        for seed in range(200):
            for narrow in (False, True):
                graph, text = random_case(seed, narrow)
                for star_max in (1, 3):
                    for _, edge_ids, path_ids, forward in iter_matches(graph, parse_query(text), star_max):
                        for i, (edge_id, flag) in enumerate(zip(edge_ids, forward)):
                            edge = graph.edge(edge_id)
                            ends = (edge.from_id, edge.to_id) if flag else (edge.to_id, edge.from_id)
                            assert path_ids[i : i + 2] == ends, (seed, text, star_max)
                            flags.add(flag)
        assert flags == {True, False}

    def test_benchmark_paths_are_paths_of_three_fields(self, testbed_graph, monkeypatch):
        """The builders make each `Path` by `tuple.__new__`, which skips the
        named tuple's arity check; every result of a query that binds a
        path carries one of three fields."""
        monkeypatch.syspath_prepend(str(BENCH))
        expected = importlib.import_module("expected")
        asts = [parse_query(text) for text in [listing_text(q) for q in expected.BUNDLED] + list(expected.OWNED.values())]
        paths = [result.path for ast in asts if ast.path_var for result in evaluate(testbed_graph, ast)]
        assert paths and all(type(path) is GraphPath and len(path) == 3 for path in paths)


def path_graph(length: int = 40, classes=None) -> PropertyGraph:
    """Nodes 0 to `length - 1`, each joined to the next by a DFG edge."""
    graph = PropertyGraph(ONTOLOGY)
    for i in range(length):
        graph.add_node((classes or {}).get(i, "Thing"), f"n{i}")
    for i in range(length - 1):
        graph.add_edge(i, i + 1, "DFG")
    graph.freeze()
    return graph


def chain(steps: int, end: str = "") -> str:
    return "MATCH p=(a)" + "-->()" * (steps - 1) + f"-->(b{end})"


class TestLongPatterns:
    """CPython rejects a function nesting 21 loops; a walk of more than 16
    loops is chained functions, and agrees with the oracles."""

    @pytest.mark.parametrize(
        "text, matches",
        [
            (chain(30) + " RETURN p", 10),
            ("MATCH p=(a)<--" + "()<--" * 29 + "(b) RETURN p", 10),
            ("MATCH p=(a)-[*25]->(b) RETURN p", 15),
            ("MATCH p=(a)-[:DFG*25]-(b:Sub) RETURN p", 4),
            (chain(18, ")-[*]->(c") + " RETURN p", 165),
            (chain(18, ")-[*]->(c:Sub") + " RETURN p", 30),
        ],
    )
    def test_agrees_with_the_oracles(self, text, matches):
        graph = path_graph(classes={5: "Sub", 30: "Sub", 33: "SubSub", 39: "Sub"})
        ast = parse_query(text)
        found = rows(graph, ast, 10)
        assert len(found) == matches
        assert found == reference_rows(graph, ast, 10)
        assert row_paths(ast, found) == oracle_paths(graph, ast, star_max=10)

    def test_a_long_walk_is_chained_functions(self):
        source = engine._source(31, 0, (), tuple((i, i + 1, i, True, 1, 1, False) for i in range(30)))
        assert "def group1(" in source and "def group2(" not in source
        compile(source, "<walk>", "exec")

    @pytest.mark.parametrize(
        "text, matches",
        [
            ("MATCH p=(a)-[*]-(b) RETURN p", 221),
            ("MATCH p=(a)-[*]-(b:Sub) RETURN p", 98),
            ("MATCH p=(a:Sub)-[*]->(b)<-[*2]-(c) RETURN p", 6),
        ],
    )
    def test_star_max_1000_on_a_cyclic_graph(self, text, matches):
        graph = PropertyGraph(ONTOLOGY)
        for i in range(5):
            graph.add_node("Sub" if i % 3 == 0 else "Thing", f"n{i}")
        for i in range(5):
            graph.add_edge(i, (i + 1) % 5, "DFG")
        graph.add_edge(0, 2, "TO")
        graph.add_edge(3, 3, "TO")
        graph.freeze()
        ast = parse_query(text)
        found = rows(graph, ast, 1000)
        assert len(found) == matches
        assert found == reference_rows(graph, ast, 1000)


def where_graph() -> PropertyGraph:
    """Nodes whose key `v` holds each kind of value, one lacking it, one
    whose `name` property is not its display name, and four nodes equal
    by value but for the class of one and a property of another, two of
    them joined both ways and one by a self-loop."""
    graph = PropertyGraph(ONTOLOGY)
    for name, props in [("a", {"v": True}), ("b", {"v": 1}), ("c", {"v": "1"}), ("d", {"v": False}), ("e", {"v": 0})]:
        graph.add_node("Literal", name, props)
    graph.add_node("Literal", "f")
    graph.add_node("Literal", "g", {"name": "named"})
    for class_name, p in [("Thing", 1), ("Thing", 1), ("Other", 1), ("Thing", 2)]:
        graph.add_node(class_name, "t", {"p": p, "q": "x"})
    for source, target in [(7, 8), (8, 7), (7, 9), (8, 8), (0, 7), (7, 10)]:
        graph.add_edge(source, target, "DFG")
    graph.freeze()
    return graph


class TestInlineTests:
    """Each WHERE test and repeated variable runs inline in the walk with
    the semantics of the interpreted tests: a literal equals only a value
    of its own kind, a missing key fails `=` and `<>` alike, `name` falls
    back to the display name, and `a <> b` compares nodes by value."""

    @pytest.mark.parametrize(
        "where, bound",
        [
            ("n.v = true", {0}),
            ("n.v = 1", {1}),
            ('n.v = "1"', {2}),
            ("n.v = false", {3}),
            ("n.v = 0", {4}),
            ("n.v <> true", {1, 2, 3, 4}),
            ("n.v <> 1", {0, 2, 3, 4}),
            ('n.v <> "1"', {0, 1, 3, 4}),
            ("n.v <> false", {0, 1, 2, 4}),
            ("n.v <> 0", {0, 1, 2, 3}),
            ('n.w = "x"', set()),
            ('n.w <> "x"', set()),
            ("n.w <> 0", set()),
            ('n.name = "f"', {5}),
            ('n.name = "g"', set()),
            ('n.name = "named"', {6}),
            ('n.name <> "a"', {1, 2, 3, 4, 5, 6}),
            ('n.v = true AND n.name = "a" OR n.v = 0 AND n.name <> "x" OR n.name = "named"', {4, 0, 6}),
            ('n.v = 1 AND n.name = "a" OR n.w = 0', set()),
        ],
    )
    def test_property_comparisons(self, where, bound):
        graph = where_graph()
        ast = parse_query(f"MATCH (n:Literal) WHERE {where} RETURN n")
        found = rows(graph, ast, 10)
        assert {row[0][0] for row in found} == bound
        assert found == reference_rows(graph, ast, 10)

    @pytest.mark.parametrize(
        "text, bound",
        [
            # 7 and 8 are equal by value, 9 differs by class and 10 by a
            # property, 8 loops to itself
            ("MATCH p=(a:Thing)-->(b) WHERE a <> b RETURN p", {(7, 9), (7, 10)}),
            ("MATCH p=(a)-->(b) WHERE a <> b OR b.p = 1 RETURN p", {(7, 8), (8, 7), (7, 9), (8, 8), (0, 7), (7, 10)}),
            ('MATCH p=(a)-->(b) WHERE a <> b AND a.name = "t" OR a.v = true RETURN p', {(7, 9), (7, 10), (0, 7)}),
            ("MATCH p=(a)-->(b)-->(a) RETURN p", {(7, 8, 7), (8, 7, 8)}),
            ("MATCH p=(a)-[*]->(a) RETURN p", {(7, 7), (8, 8)}),
            ('MATCH p=(a)-->(b)<--(c)-->(a) WHERE a.name <> "a" RETURN p', {(7, 8, 8, 7)}),
        ],
    )
    def test_node_comparisons_and_repeated_variables(self, text, bound):
        graph = where_graph()
        ast = parse_query(text)
        found = rows(graph, ast, 10)
        assert {row[0] for row in found} == bound
        assert found == reference_rows(graph, ast, 10)
        assert row_paths(ast, found) == oracle_paths(graph, ast, star_max=10)


def leaves(value):
    if type(value) is tuple:
        for item in value:
            yield from leaves(item)
    else:
        yield value


# a node name, label, relationship type and property key carrying quotes,
# backslashes, a newline and a call
HOSTILE = "x\"'\n__import__('os')\\"


class TestQueryTextStaysData:
    @pytest.fixture
    def graph(self):
        graph = PropertyGraph(ONTOLOGY)
        graph.add_node("Thing", HOSTILE, {"q": "\\\"); __import__('os').system('true') #"})
        graph.add_node("Sub", "plain")
        graph.add_edge(0, 1, "DFG")
        graph.freeze()
        return graph

    @pytest.fixture
    def shapes(self, monkeypatch):
        """The shapes of the walks and of the result builders the engine
        asks for, each as the arguments of its `_source` or
        `_results_source`."""
        compile_walk, compile_builder = engine._compile, engine._builder
        walks, builders = [], []

        def walk(count, anchor, hop_count, *parts):
            self.assert_flat_key(parts)
            walks.append((count, anchor, parts[hop_count:], parts[:hop_count]))
            return compile_walk(count, anchor, hop_count, *parts)

        def builder(path, *indices):
            builders.append((path, indices))
            return compile_builder(path, *indices)

        monkeypatch.setattr(engine, "_compile", walk)
        monkeypatch.setattr(engine, "_builder", builder)
        return walks, builders

    @staticmethod
    def assert_flat_key(parts):
        """Each `_compile` argument after the counts, a hop's or a test's
        shape, is a flat tuple of ints, bools and None, so the cache keeps
        each key one tuple of flat tuples."""
        for part in parts:
            assert type(part) is tuple and all(type(item) in (int, bool, type(None)) for item in part), part

    @staticmethod
    def assert_data_only(shapes):
        """Every shape holds only ints, bools and None, and no generated
        text says `import`."""
        walks, builders = shapes
        assert all(type(leaf) in (int, bool, type(None)) for leaf in leaves((tuple(walks), tuple(builders))))
        texts = [engine._source(*shape) for shape in walks] + [engine._results_source(*shape) for shape in builders]
        assert all("import" not in text for text in texts)

    @pytest.mark.parametrize(
        "text, error",
        [
            ('MATCH (a:Foo"bar) RETURN a', "unexpected character '\"'"),
            ("MATCH (a)-[:TO\"]->(b) RETURN a", "unexpected character '\"'"),
            ("MATCH (a:Thing) WHERE a.name = '__import__' RETURN a", "unexpected character \"'\""),
        ],
    )
    def test_syntax_errors(self, graph, text, error):
        with pytest.raises(QuerySyntaxError, match=error):
            evaluate(graph, parse_query(text))

    @pytest.mark.parametrize(
        "text, bindings",
        [
            ('MATCH (a:Thing) WHERE a.name = "x\\"\'\n__import__(\'os\')\\\\" RETURN a', [{"a": 0}]),
            ('MATCH (a:Thing) WHERE a.q = "\\\\\\"); __import__(\'os\').system(\'true\') #" RETURN a', [{"a": 0}]),
            ('MATCH p=(a:Thing)-[]->(b) WHERE a.name <> "__import__(\'os\')" RETURN p', [{"a": 0, "b": 1}]),
            ("MATCH (__import__:Thing) RETURN __import__", [{"__import__": 0}, {"__import__": 1}]),
        ],
    )
    def test_literals_and_variables_are_data(self, graph, shapes, text, bindings):
        assert [result.bindings for result in evaluate(graph, parse_query(text))] == bindings
        assert all(len(compiled) == 1 for compiled in shapes)
        self.assert_data_only(shapes)

    @pytest.mark.parametrize(
        "ast, error",
        [
            (QueryAst(None, (NodePattern("a", HOSTILE),), (), None, ("a",)), "unknown node label"),
            (
                QueryAst(None, (NodePattern("a"), NodePattern("b")), (RelPattern(type=HOSTILE, direction="right"),), None, ("a",)),
                "unknown relationship type",
            ),
            (
                QueryAst(None, (NodePattern("a", "Thing"),), (), ((PropertyComparison("a", HOSTILE, "=", "x"),),), ("a",)),
                "may carry property",
            ),
        ],
    )
    def test_hostile_names_in_an_ast_are_unknown(self, graph, shapes, ast, error):
        with pytest.raises(QueryError, match=error):
            evaluate(graph, ast)
        assert shapes == ([], [])

    def test_hostile_literal_and_variables_in_an_ast(self, graph, shapes):
        literal = QueryAst(None, (NodePattern("a", "Thing"),), (), ((PropertyComparison("a", "name", "=", HOSTILE),),), ("a",))
        assert [result.bindings for result in evaluate(graph, literal)] == [{"a": 0}]
        repeated = QueryAst(
            None, (NodePattern(HOSTILE, "Thing"), NodePattern(HOSTILE)), (RelPattern(var=HOSTILE, direction="right"),), None, (HOSTILE,)
        )
        assert evaluate(graph, repeated) == []
        assert all(len(compiled) == 2 for compiled in shapes)
        self.assert_data_only(shapes)

    def test_benchmark_shapes_hold_only_ints_bools_and_none(self, testbed_graph, shapes, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        expected = importlib.import_module("expected")
        for text in [listing_text(q) for q in expected.BUNDLED] + list(expected.OWNED.values()):
            evaluate(testbed_graph, parse_query(text))
        assert all(len(compiled) == 9 for compiled in shapes)
        self.assert_data_only(shapes)
