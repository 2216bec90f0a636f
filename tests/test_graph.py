import importlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest
from skygraph.errors import GraphError, OntologyError, SkygraphError, UnknownClassError
from skygraph.graph import CODE_CLASSES, EDGE_TYPES, PropertyGraph, export_graph, import_graph
from skygraph.graph import Path as GraphPath
from skygraph.ontology import ontology_from_documents
from skygraph.query import evaluate, parse_query

from . import reference
from .conftest import DATA, listing_text
from .reference import ROW_FIELDS, oracle_label_match, to_document
from .test_fuzz import DELETE
from .test_fuzz import VALUES as FUZZ_VALUES


@pytest.fixture
def graph(core_ontology):
    return PropertyGraph(core_ontology)


class TestAddNode:
    def test_retrievable_by_label(self, graph):
        node_id = graph.add_node("ObjectStorage", "am-containerlog", {})
        assert node_id in graph.label_candidates("ObjectStorage")
        assert graph.node(node_id).name == "am-containerlog"

    def test_single_node_graph(self, graph):
        graph.add_node("CloudResource", "r", {})
        assert graph.node_count == 1

    def test_disallowed_property_key(self, graph):
        with pytest.raises(GraphError, match="nonexistent_key"):
            graph.add_node("ObjectStorage", "s", {"nonexistent_key": 1})

    @pytest.mark.parametrize(
        "class_name, properties, message",
        [
            ("ObjectStorage", {"public_access": "yes"}, "'public_access' of class 'ObjectStorage' must be boolean, got str"),
            ("ObjectStorage", {"public_access": 1}, "must be boolean, got int"),
            ("HttpEndpoint", {"url": True}, "'url' of class 'HttpEndpoint' must be string, got bool"),
            ("ObjectStorage", {"provider_id": 7}, "'provider_id' of class 'ObjectStorage' must be string"),
            ("GeoLocation", {"region": ["eu"]}, "must be string, got list"),
        ],
    )
    def test_value_of_another_kind_than_declared(self, graph, class_name, properties, message):
        with pytest.raises(GraphError, match=message):
            graph.add_node(class_name, "s", properties)

    def test_unknown_class(self, graph):
        with pytest.raises(UnknownClassError):
            graph.add_node("NotAClass", "x", {})

    def test_code_class_properties_unrestricted(self, graph):
        node_id = graph.add_node("CallExpression", "c", {"anything": "goes"})
        assert graph.node(node_id).properties["anything"] == "goes"

    def test_universal_keys_allowed(self, graph):
        node_id = graph.add_node("ObjectStorage", "s", {"provider_id": "x1"})
        assert graph.property_value(node_id, "provider_id") == "x1"

    def test_non_scalar_property_rejected(self, graph):
        with pytest.raises(GraphError, match="string/boolean/integer"):
            graph.add_node("CallExpression", "c", {"bad": [1, 2]})


class TestAddEdge:
    def test_self_loop_accepted(self, graph):
        n = graph.add_node("CallExpression", "n", {})
        graph.add_edge(n, n, "DFG")
        assert graph.edge_count == 1

    def test_dangling_endpoint(self, graph):
        n = graph.add_node("CallExpression", "n", {})
        with pytest.raises(GraphError, match="does not exist"):
            graph.add_edge(n, 999, "DFG")

    def test_unregistered_type(self, graph):
        a = graph.add_node("CallExpression", "a", {})
        b = graph.add_node("CallExpression", "b", {})
        with pytest.raises(GraphError, match="unregistered"):
            graph.add_edge(a, b, "BOGUS")

    def test_registered_vocabulary(self):
        assert {"DFG", "TO", "SOURCE", "RUNS_ON", "AUTHENTICITY"} <= EDGE_TYPES

    def test_add_edge_once(self, graph):
        a = graph.add_node("CallExpression", "a", {})
        b = graph.add_node("CallExpression", "b", {})
        assert graph.add_edge_once(a, b, "DFG") is True
        assert graph.add_edge_once(a, b, "DFG") is False
        assert graph.add_edge_once(b, a, "DFG") is True
        assert graph.add_edge_once(a, b, "CALLS") is True
        assert graph.edge_count == 3
        # `add_edge` itself still allows parallel edges
        graph.add_edge(a, b, "DFG")
        assert len(graph.out_edges(a, "DFG")) == 2
        assert graph.add_edge_once(a, b, "DFG") is False
        assert graph.edge_count == 4


class TestFreeze:
    def test_no_mutation_after_freeze(self, graph):
        graph.add_node("CloudResource", "r", {})
        graph.freeze()
        with pytest.raises(GraphError, match="frozen"):
            graph.add_node("CloudResource", "r2", {})
        with pytest.raises(GraphError, match="frozen"):
            graph.add_edge(0, 0, "DFG")

    def test_built_and_imported_graphs_are_frozen(self, testbed_graph):
        for graph in (testbed_graph, import_graph(export_graph(testbed_graph))):
            node = graph.node(0)
            # an edge the graph lacks, so that `add_edge_once` would add it
            edge_type = next(t for t in sorted(EDGE_TYPES) if not graph.has_edge(0, 0, t))
            counts = graph.node_count, graph.edge_count
            for add in (
                lambda: graph.add_node(node.class_name, "another", {}),
                lambda: graph.add_edge(0, 0, edge_type),
                lambda: graph.add_edge_once(0, 0, edge_type),
            ):
                with pytest.raises(GraphError, match="^graph is frozen"):
                    add()
            assert (graph.node_count, graph.edge_count) == counts


class TestLabelMatching:
    def test_subclass_matches(self, graph):
        n = graph.add_node("ObjectStorage", "s", {})
        assert graph.node_matches_label(n, "Storage")

    def test_universal_node_label(self, graph):
        n = graph.add_node("ObjectStorage", "s", {})
        assert graph.node_matches_label(n, "Node")

    def test_code_class_does_not_match_resources(self, graph):
        n = graph.add_node("FunctionDeclaration", "f", {})
        assert not graph.node_matches_label(n, "Storage")

    def test_expression_subtyping(self, graph):
        call = graph.add_node("CallExpression", "c", {})
        lit = graph.add_node("Literal", "l", {})
        fn = graph.add_node("FunctionDeclaration", "f", {})
        assert graph.node_matches_label(call, "Expression")
        assert graph.node_matches_label(lit, "Expression")
        assert not graph.node_matches_label(fn, "Expression")

    def test_exact_class(self, graph):
        n = graph.add_node("ObjectStorage", "s", {})
        assert graph.node_matches_label(n, "ObjectStorage")
        assert not graph.node_matches_label(n, "BlockStorage")

    def test_agrees_with_parent_walk_oracle(self, testbed_graph):
        labels = set(testbed_graph.ontology.classes) | {
            "Node",
            "Expression",
            "CallExpression",
            "Literal",
            "FunctionDeclaration",
        }
        for node in testbed_graph.nodes():
            for label in labels:
                assert testbed_graph.node_matches_label(node.id, label) == oracle_label_match(
                    testbed_graph, node.id, label
                ), (node.class_name, label)

    def test_label_candidates_agree_with_matcher(self, testbed_graph):
        for label in ("Node", "Storage", "Compute", "Expression", "HttpEndpoint"):
            expected = sorted(
                n.id for n in testbed_graph.nodes() if testbed_graph.node_matches_label(n.id, label)
            )
            assert testbed_graph.label_candidates(label) == expected


def test_path_is_an_immutable_triple_of_tuples():
    path = GraphPath((0, 1, 2), (5, 6), (True, False))
    assert isinstance(path, tuple) and tuple(path) == ((0, 1, 2), (5, 6), (True, False))
    assert (path.node_ids, path.edge_ids, path.forward) == tuple(path)
    for field in ("node_ids", "edge_ids", "forward", "extra"):
        with pytest.raises(AttributeError):
            setattr(path, field, ())
    twin = GraphPath((0, 1, 2), (5, 6), (True, False))
    assert twin == path and hash(twin) == hash(path) and len({path, twin}) == 1
    assert GraphPath((0, 1, 2), (5, 6), (True, True)) != path


FOREST_KEYS = ["k0", "k1", "k2", "name"]


@st.composite
def class_forests(draw, max_depth=8):
    """Class entries of a random single-kind forest, in a random order:
    ancestries up to `max_depth` classes long, and sometimes a class named
    like the code class `Expression` or `Literal`."""
    count = draw(st.integers(1, 14))
    names = [f"C{i}" for i in range(count)]
    for special in ("Expression", "Literal"):
        index = draw(st.none() | st.integers(0, count - 1))
        if index is not None:
            names[index] = special
    depths: list[int] = []
    entries = []
    for i, name in enumerate(names):
        parent = None
        if i:  # the previous class half the time, so that deep chains come up
            parent = i - 1 if draw(st.booleans()) else draw(st.none() | st.integers(0, i - 1))
        if parent is not None and depths[parent] == max_depth:
            parent = None
        depths.append(1 if parent is None else depths[parent] + 1)
        entry = {"name": name, "kind": "resource"}
        if parent is not None:
            entry["parent"] = names[parent]
        keys = draw(st.lists(st.sampled_from(FOREST_KEYS), unique=True, max_size=3))
        if keys:
            entry["data_properties"] = {key: "string" for key in keys}
        entries.append(entry)
    return draw(st.permutations(entries))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(class_forests())
def test_class_tables_agree_with_parent_walk_oracles(entries):
    """Labels and property keys, read from the tables the graph builds up
    front, against walking parent links one at a time: one node per
    ontology and code class, every label against every node."""
    ontology = ontology_from_documents({"classes": entries}, [])
    graph = PropertyGraph(ontology)
    classes = sorted(set(ontology.classes) | CODE_CLASSES)
    for name in classes:
        graph.add_node(name, name)
    graph.freeze()
    for label in classes + ["Node", "Mystery"]:
        assert graph.has_label(label) == (label != "Mystery")
        matching = [n.id for n in graph.nodes() if oracle_label_match(graph, n.id, label)]
        assert graph.label_candidates(label) == matching, label
        for node in graph.nodes():
            assert graph.node_matches_label(node.id, label) == (node.id in matching)
        for key in FOREST_KEYS + ["provider_id", "k9"]:
            carried = (reference.oracle_property_keys(ontology, graph.node(i).class_name) for i in matching)
            may_carry = any(keys is None or key in keys for keys in carried)
            assert graph.label_may_carry(label, key) == may_carry, (label, key)
    for name in classes:
        assert graph.property_keys(name) == reference.oracle_property_keys(ontology, name), name
    with pytest.raises(UnknownClassError):
        graph.property_keys("Mystery")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(class_forests(), st.data())
def test_a_cycle_in_a_class_forest_is_named(entries, data):
    """Parent links closed into a loop over some of the classes: the
    ontology rejects it, naming a class on the loop."""
    names = [entry["name"] for entry in entries]
    loop = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    entries = [dict(entry) for entry in entries]
    by_name = {entry["name"]: entry for entry in entries}
    for child, parent in zip(loop, loop[1:] + loop[:1]):
        by_name[child]["parent"] = parent
    with pytest.raises(OntologyError) as info:
        ontology_from_documents({"classes": entries}, [])
    assert str(info.value) in {f"inheritance cycle through class {name!r}" for name in loop}


class TestAdjacencyConsistency:
    def test_indices_cover_every_edge(self, testbed_graph):
        g = testbed_graph
        for edge in g.edges():
            assert edge.id in [e.id for e in g.out_edges(edge.from_id)]
            assert edge.id in [e.id for e in g.in_edges(edge.to_id)]
        assert sum(len(g.out_edges(n.id)) for n in g.nodes()) == g.edge_count
        assert sum(len(g.in_edges(n.id)) for n in g.nodes()) == g.edge_count

    def test_listed_edges_are_not_aliased(self, testbed_graph):
        # each call returns a new list: changing the one a caller got leaves
        # the graph's adjacency as it was, with and without filters
        g = testbed_graph
        assert g.frozen
        listed = 0
        for node in g.nodes():
            for listing in (g.out_edges, g.in_edges):
                for args in ((), ("DFG",), (None, "Node"), (None, "Expression"), ("DFG", "Expression")):
                    before = [e.id for e in listing(node.id, *args)]
                    listing(node.id, *args).clear()
                    assert [e.id for e in listing(node.id, *args)] == before
                    listed += bool(before)
        assert listed > g.node_count

    @pytest.mark.parametrize("frozen", [True, False])
    def test_label_filter_agrees_with_matcher(self, testbed_graph, clean_testbed, frozen):
        # in order: a labelled list is the unlabelled one, filtered
        for built in (testbed_graph, clean_testbed[0]):
            g = built
            if not frozen:  # the same graph, still under construction
                g = PropertyGraph(built.ontology)
                for node in built.nodes():
                    g.add_node(node.class_name, node.name, node.properties)
                for edge in built.edges():
                    g.add_edge(edge.from_id, edge.to_id, edge.type, edge.properties)
            labels = ("Node", "Storage", "CloudResource", "Expression", "GeoLocation", "Nope")
            for node in g.nodes():
                for label in labels:
                    for type in (None, "DFG"):
                        out = [e.id for e in g.out_edges(node.id, type) if g.node_matches_label(e.to_id, label)]
                        into = [e.id for e in g.in_edges(node.id, type) if g.node_matches_label(e.from_id, label)]
                        assert [e.id for e in g.out_edges(node.id, type, label)] == out
                        assert [e.id for e in g.in_edges(node.id, type, label)] == into


class TestRoundTrip:
    def test_empty_graph(self, graph):
        graph.freeze()
        text = export_graph(graph)
        doc = json.loads(text)
        assert doc["nodes"] == [] and doc["edges"] == []
        restored = import_graph(text)
        assert restored.node_count == 0 and restored.edge_count == 0

    def test_single_node_identity(self, graph):
        graph.add_node("ObjectStorage", "s", {"public_access": True})
        graph.freeze()
        restored = import_graph(export_graph(graph))
        assert to_document(restored) == to_document(graph)

    def test_dangling_edge_in_document(self, graph):
        graph.add_node("CloudResource", "r", {})
        graph.freeze()
        doc = to_document(graph)
        doc["edges"].append([9, "DFG", 0, 42, {}])
        with pytest.raises(GraphError, match="edge target 42 does not exist"):
            import_graph(doc)

    def test_schema_violation(self):
        with pytest.raises(GraphError, match="missing"):
            import_graph({"nodes": []})
        with pytest.raises(GraphError, match="JSON"):
            import_graph("{not json")
        # an id of more digits than CPython converts to an int by default
        with pytest.raises(GraphError):
            import_graph('{"nodes": [[' + "1" * 5000 + "]]}")

    def test_fixture_preserves_structure(self, testbed_graph):
        restored = import_graph(export_graph(testbed_graph))
        assert restored.node_count == testbed_graph.node_count
        assert restored.edge_count == testbed_graph.edge_count
        original_pairs = sorted((n.class_name, n.name) for n in testbed_graph.nodes())
        restored_pairs = sorted((n.class_name, n.name) for n in restored.nodes())
        assert original_pairs == restored_pairs
        original_triples = sorted(
            (e.type, testbed_graph.node(e.from_id).class_name, testbed_graph.node(e.to_id).class_name)
            for e in testbed_graph.edges()
        )
        restored_triples = sorted(
            (e.type, restored.node(e.from_id).class_name, restored.node(e.to_id).class_name)
            for e in restored.edges()
        )
        assert original_triples == restored_triples

    def test_fixture_queries_survive_round_trip(self, testbed_graph):
        restored = import_graph(export_graph(testbed_graph))
        for name in (
            "public-storage-writes",
            "weak-transport-encryption",
            "cross-region-resource-flows",
        ):
            ast = parse_query(listing_text(name))
            before = [r.bindings for r in evaluate(testbed_graph, ast)]
            after = [r.bindings for r in evaluate(restored, ast)]
            assert before == after

    def test_deterministic_export_ordering(self, testbed_graph):
        doc = to_document(testbed_graph)
        doc["nodes"].reverse()
        doc["edges"].reverse()
        restored = import_graph(doc)  # node and edge tables in reverse id order
        text = export_graph(restored)
        assert text == export_graph(testbed_graph)
        exported = json.loads(text)
        ids = [row[0] for row in exported["nodes"]]
        assert ids == sorted(ids)
        edge_ids = [row[0] for row in exported["edges"]]
        assert edge_ids == sorted(edge_ids)


class TestLookupIndexes:
    def duplicates(self, graph):
        """Ids of two nodes sharing class, name and provider id, and of a
        third sharing only the name."""
        first = graph.add_node("ObjectStorage", "s", {"provider_id": "p"})
        second = graph.add_node("ObjectStorage", "s", {"provider_id": "p"})
        other = graph.add_node("BlockStorage", "s", {"provider_id": "q"})
        return first, second, other

    def test_first_inserted_wins_when_built(self, graph):
        first, _, other = self.duplicates(graph)
        assert graph.find_by_name("ObjectStorage", "s") == first
        assert graph.find_by_provider_id("p") == first
        assert graph.find_by_name("BlockStorage", "s") == other
        assert graph.find_by_name("ObjectStorage", "t") is None
        assert graph.find_by_provider_id("s") is None

    def test_first_inserted_wins_when_imported(self, graph):
        first, second, other = self.duplicates(graph)
        graph.freeze()
        doc = to_document(graph)
        restored = import_graph(doc)
        assert restored.find_by_name("ObjectStorage", "s") == first
        assert restored.find_by_provider_id("p") == first
        assert restored.find_by_name("BlockStorage", "s") == other
        # nodes are inserted in document order, not id order
        doc["nodes"].reverse()
        restored = import_graph(doc)
        assert restored.find_by_name("ObjectStorage", "s") == second
        assert restored.find_by_provider_id("p") == second

    def test_agrees_with_scan_on_fixture(self, testbed_graph):
        for graph in (testbed_graph, import_graph(export_graph(testbed_graph))):
            first_by_name: dict = {}
            first_by_provider_id: dict = {}
            for node in graph.nodes():
                first_by_name.setdefault((node.class_name, node.name), node.id)
                if "provider_id" in node.properties:
                    first_by_provider_id.setdefault(node.properties["provider_id"], node.id)
            assert first_by_provider_id
            for (class_name, name), node_id in first_by_name.items():
                assert graph.find_by_name(class_name, name) == node_id
            for provider_id, node_id in first_by_provider_id.items():
                assert graph.find_by_provider_id(provider_id) == node_id

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_lookups_at_any_point_agree_with_scan(self, core_ontology, data):
        """Each index is built by its first lookup, which may come at any
        point of a build, and must then take every later insert: a
        first-inserted-wins scan of `graph.nodes()` answers every lookup
        made during the build, after it, and on the graph imported in
        document order and in reverse."""
        classes = ["ObjectStorage", "BlockStorage", "CallExpression"]
        names = ["a", "b", "c"]
        provider_ids = ["p", "q", "r"]

        def scan(graph):
            by_name: dict = {}
            by_provider_id: dict = {}
            for node in graph.nodes():
                by_name.setdefault((node.class_name, node.name), node.id)
                if "provider_id" in node.properties:
                    by_provider_id.setdefault(node.properties["provider_id"], node.id)
            return by_name, by_provider_id

        def assert_lookups(graph, keys):
            by_name, by_provider_id = scan(graph)
            for key in keys:
                if isinstance(key, tuple):
                    assert graph.find_by_name(*key) == by_name.get(key)
                else:
                    assert graph.find_by_provider_id(key) == by_provider_id.get(key)

        every_key = [(c, n) for c in classes for n in names] + provider_ids
        graph = PropertyGraph(core_ontology)
        for _ in range(data.draw(st.integers(0, 12))):
            if data.draw(st.booleans()):
                assert_lookups(graph, [data.draw(st.sampled_from(every_key))])
            else:
                pid = data.draw(st.none() | st.sampled_from(provider_ids))
                graph.add_node(
                    data.draw(st.sampled_from(classes)),
                    data.draw(st.sampled_from(names)),
                    {} if pid is None else {"provider_id": pid},
                )
        assert_lookups(graph, every_key)
        graph.freeze()
        doc = json.loads(export_graph(graph))
        assert_lookups(import_graph(doc), every_key)
        doc = json.loads(export_graph(graph))
        doc["nodes"].reverse()
        assert_lookups(import_graph(doc), every_key)

    @pytest.mark.parametrize("field", ["name", "provider_id"])
    def test_unhashable_key_in_document(self, graph, field):
        graph.add_node("ObjectStorage", "s", {"provider_id": "p"})
        graph.freeze()
        doc = to_document(graph)
        row = doc["nodes"][0]
        if field == "name":
            row[2] = ["s"]
        else:
            row[3]["provider_id"] = {"id": "p"}
        with pytest.raises(GraphError, match=f"{field}.* must be"):
            import_graph(doc)


def test_property_value_name_fallback(core_ontology):
    graph = PropertyGraph(core_ontology)
    n = graph.add_node("CloudResource", "myvolume", {})
    assert graph.property_value(n, "name") == "myvolume"
    assert graph.property_value(n, "region") is None


@pytest.mark.parametrize(
    "section, key, value",
    [("nodes", "class", ["A"]), ("edges", "type", ["DFG"]), ("edges", "type", {"DFG": 1})],
)
def test_import_rejects_non_string_class_and_type(section, key, value):
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    a = graph.add_node("A", "a", {})
    graph.add_edge(a, a, "DFG")
    graph.freeze()
    doc = to_document(graph)
    doc[section][0][ROW_FIELDS[section].index(key)] = value
    with pytest.raises(GraphError):
        import_graph(doc)


@pytest.mark.parametrize("settings", [["star_max", 3], "star_max", 7])
def test_import_rejects_settings_that_are_not_a_mapping(settings):
    doc = to_document(PropertyGraph(ontology_from_documents({"classes": []}, [])))
    doc["settings"] = settings
    with pytest.raises(GraphError, match="settings must be a mapping"):
        import_graph(doc)


def test_import_rejects_unknown_class():
    ontology_doc = {"classes": [{"name": "A", "kind": "resource"}]}
    ontology = ontology_from_documents(ontology_doc, [])
    graph = PropertyGraph(ontology)
    graph.add_node("A", "a", {})
    graph.freeze()
    doc = to_document(graph)
    doc["nodes"][0][1] = "Mystery"
    with pytest.raises(UnknownClassError):
        import_graph(doc)


@pytest.mark.parametrize("section, what", [("nodes", "node"), ("edges", "edge")])
def test_import_rejects_duplicate_ids(section, what):
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    a = graph.add_node("A", "a", {})
    graph.add_edge(a, a, "DFG")
    graph.freeze()
    doc = to_document(graph)
    doc[section].append(list(doc[section][0]))
    with pytest.raises(GraphError, match=f"duplicate {what} id 0"):
        import_graph(doc)


ID_SLOTS = [("nodes", "id"), ("edges", "id"), ("edges", "from"), ("edges", "to")]


def two_nodes_and_an_edge():
    """The document of nodes `a` (id 0) and `b` (id 1) and of edge 0 from
    `b` to `a`."""
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    graph.add_node("A", "a", {})
    graph.add_edge(graph.add_node("A", "b", {}), 0, "DFG")
    graph.freeze()
    return to_document(graph)


@pytest.mark.parametrize("value", [True, False, 1.0, 1.9, -1, "1", " 1 ", "-1", "+1", "1_0", "\u0661", "", None])
@pytest.mark.parametrize("section, key", ID_SLOTS)
def test_import_accepts_only_non_negative_int_ids(section, key, value):
    """An id is read as `export_graph` writes it, a JSON integer of no sign;
    a bool is an int to Python, and `true` or `1.0` would name node 1."""
    doc = two_nodes_and_an_edge()
    doc[section][-1][ROW_FIELDS[section].index(key)] = value
    with pytest.raises(GraphError, match=f"malformed {section[:-1]} entry"):
        import_graph(doc)


@pytest.mark.parametrize("value", [0, 2**70])
def test_import_accepts_any_non_negative_int_id(value):
    """Node `a`'s id, the edge's id and its `to` set to `value`: the graph
    holds them, and exports them as it read them."""
    doc = two_nodes_and_an_edge()
    doc["nodes"][0][0] = doc["edges"][0][0] = doc["edges"][0][3] = value
    graph = import_graph(doc)
    assert graph.node(value).name == "a" and graph.edge(value).to_id == value
    text = export_graph(graph)
    assert f'[{value}, "A", "a", {{}}]' in text and f'[{value}, "DFG", 1, {value}, {{}}]' in text
    assert export_graph(import_graph(text)) == text


@pytest.mark.parametrize("section", ["nodes", "edges"])
def test_import_asks_to_rebuild_an_export_of_object_entries(section):
    """An export written before rows holds one object per node and edge;
    import names the layout and the command that writes the new one."""
    doc = reference.object_entries(two_nodes_and_an_edge())
    if section == "edges":
        doc["nodes"] = two_nodes_and_an_edge()["nodes"]
    message = f"{section[:-1]} entries are objects.*rebuild the export with `skygraph build`"
    with pytest.raises(GraphError, match=message):
        import_graph(doc)
    with pytest.raises(GraphError, match=message):
        import_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "change",
    [
        lambda row: row.__setitem__(-1, [["k", "v"]]),
        lambda row: row.__setitem__(-1, ""),
        lambda row: row.append({}),
        lambda row: row.insert(1, "A"),
        lambda row: row.pop(),
        lambda row: row.pop(1),
    ],
    ids=["properties-pairs", "properties-string", "extra-field", "extra-field-inside", "no-properties", "missing-field"],
)
@pytest.mark.parametrize("section", ["nodes", "edges"])
def test_import_reads_only_what_export_writes(section, change):
    """A row holds exactly the fields `export_graph` writes, and its
    properties are a mapping; `dict(...)` would read a list of pairs."""
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    graph.add_edge(graph.add_node("A", "a", {}), 0, "DFG")
    graph.freeze()
    doc = to_document(graph)
    change(doc[section][0])
    with pytest.raises(GraphError, match=f"malformed {section[:-1]} entry"):
        import_graph(doc)


def assert_export_is_json_dumps(graph, settings=None):
    if settings is not None:
        graph.settings = settings
    assert export_graph(graph) == reference.export_text(to_document(graph))


# strings that JSON must escape, or write as \u escapes, surrogate pairs included
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\u00e9\u2028\U0001d11e') | st.characters(), max_size=8
)
KIND_VALUES = {str: TEXT, bool: st.booleans(), int: st.integers(-(2**70), 2**70)}
VALUES = st.one_of(*KIND_VALUES.values())
NODE_CLASSES = sorted(CODE_CLASSES) + ["ObjectStorage", "GeoLocation", "HttpEndpoint"]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_export_is_json_dumps_of_document(core_ontology, data):
    graph = PropertyGraph(core_ontology)
    for _ in range(data.draw(st.integers(0, 6))):
        class_name = data.draw(st.sampled_from(NODE_CLASSES))
        allowed = graph.property_keys(class_name)
        if allowed is None:
            properties = data.draw(st.dictionaries(TEXT, VALUES, max_size=4))
        else:  # each declared key with a value of its declared kind
            keys = data.draw(st.lists(st.sampled_from(sorted(allowed)), unique=True, max_size=4))
            properties = {key: data.draw(KIND_VALUES[allowed[key]]) for key in keys}
        graph.add_node(class_name, data.draw(TEXT), properties)
    if graph.node_count:
        ids = st.integers(0, graph.node_count - 1)
        for _ in range(data.draw(st.integers(0, 6))):
            graph.add_edge(
                data.draw(ids),
                data.draw(ids),
                data.draw(st.sampled_from(sorted(EDGE_TYPES))),
                data.draw(st.dictionaries(TEXT, VALUES, max_size=3)),
            )
    graph.freeze()
    settings = data.draw(st.none() | st.dictionaries(TEXT, VALUES, max_size=3))
    assert_export_is_json_dumps(graph, settings)


@pytest.mark.parametrize("n, paths", [(20, "unique"), (8, "shared")])
def test_fleet_export_is_json_dumps_of_document(tmp_path, monkeypatch, n, paths):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    fleet = importlib.import_module("fleet")
    manifest = fleet.generate(Path(str(DATA)), tmp_path / "fleet", n, 3, paths).manifest
    graph, _, _ = build_graph(load_manifest(manifest))
    assert graph.settings == {"star_max": 10}
    assert_export_is_json_dumps(graph)


# ids as `export_graph` never writes them: bools, floats, negative integers
# and strings, digit strings too; and integers naming a missing or taken id
IDS = (-1, False, 1.0, -0.0, "0", "1", "-1", "+1", " 1", "1_0", "\u0661", "\uff11", "1.0", "")
IDS += (0, 1, 99999, 2**70)


def _set(doc, section, slot, value):
    """A copy of `doc` with `slot` of its first `section` row (the row, one
    of its fields, or one of its properties) set to `value` or deleted."""
    doc = dict(doc, **{section: [json.loads(json.dumps(doc[section][0])), *doc[section][1:]]})
    parent, key = (doc[section], 0) if not slot else (doc[section][0], slot[-1])
    if len(slot) == 2:
        parent = parent[slot[0]]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def _mutations(doc, section):
    """Every one-slot mutation of the first `section` row of `doc`, the row
    with one field added or an object entry in its place, and every pair of
    its fields and properties set to one of a few values, which orders the
    checks that each fail on one of them."""
    row = doc[section][0]
    fields = ROW_FIELDS[section]
    keys = [(i,) for i in range(len(row))] + [(len(row) - 1, key) for key in row[-1]]
    for slot in [()] + keys:
        values = FUZZ_VALUES + IDS if slot and fields[slot[0]] in ("id", "from", "to") else FUZZ_VALUES
        for value in values:
            yield _set(doc, section, slot, value)
    for changed in ([*row, 1], [row[0], *row], dict(zip(fields, row))):
        yield _set(doc, section, (), changed)
    for first, second in itertools.combinations(keys, 2):
        if second[0] == first[0]:
            continue
        for values in itertools.product((None, 99999), repeat=2):
            yield _set(_set(doc, section, first, values[0]), section, second, values[1])


def _read(reader, doc):
    try:
        return "export", export_graph(reader(doc))
    except SkygraphError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def fleet_shared_export(tmp_path_factory):
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(bench)
        fleet = importlib.import_module("fleet")
        out = tmp_path_factory.mktemp("fleet")
        manifest = fleet.generate(Path(str(DATA)), out, 8, 4, "shared").manifest
    return export_graph(build_graph(load_manifest(manifest))[0])


@pytest.mark.parametrize("section", ["nodes", "edges"])
@pytest.mark.parametrize("export", ["bookinfo", "fleet-8-shared"])
def test_inline_reader_agrees_with_per_entry_reference(
    testbed_graph, fleet_shared_export, export, section
):
    """`from_document` reads each row inline; on every mutation of a first
    row it raises what the per-row reference raises, or exports the same
    bytes."""
    text = export_graph(testbed_graph) if export == "bookinfo" else fleet_shared_export
    doc = json.loads(text)
    assert _read(PropertyGraph.from_document, doc) == ("export", text)
    outcomes = set()
    for mutated in _mutations(doc, section):
        expected = _read(reference.from_document, mutated)
        assert _read(PropertyGraph.from_document, mutated) == expected
        outcomes.add(expected[0])
    assert {"export", "GraphError"} <= outcomes
