import importlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest
from skygraph.errors import GraphError, UnknownClassError
from skygraph.graph import CODE_CLASSES, EDGE_TYPES, PropertyGraph, export_graph, import_graph
from skygraph.ontology import ontology_from_documents
from skygraph.query import evaluate, parse_query

from .conftest import DATA, listing_text
from .reference import oracle_label_match, to_document


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


class TestAdjacencyConsistency:
    def test_indices_cover_every_edge(self, testbed_graph):
        g = testbed_graph
        for edge in g.edges():
            assert edge.id in [e.id for e in g.out_edges(edge.from_id)]
            assert edge.id in [e.id for e in g.in_edges(edge.to_id)]
        assert sum(len(g.out_edges(n.id)) for n in g.nodes()) == g.edge_count
        assert sum(len(g.in_edges(n.id)) for n in g.nodes()) == g.edge_count

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
        doc["edges"].append({"id": "9", "type": "DFG", "from": "0", "to": "42", "properties": {}})
        with pytest.raises(GraphError, match="edge target 42 does not exist"):
            import_graph(doc)

    def test_schema_violation(self):
        with pytest.raises(GraphError, match="missing"):
            import_graph({"nodes": []})
        with pytest.raises(GraphError, match="JSON"):
            import_graph("{not json")

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
        ids = [int(n["id"]) for n in exported["nodes"]]
        assert ids == sorted(ids)
        edge_ids = [int(e["id"]) for e in exported["edges"]]
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

    @pytest.mark.parametrize("field", ["name", "provider_id"])
    def test_unhashable_key_in_document(self, graph, field):
        graph.add_node("ObjectStorage", "s", {"provider_id": "p"})
        graph.freeze()
        doc = to_document(graph)
        node = doc["nodes"][0]
        if field == "name":
            node["name"] = ["s"]
        else:
            node["properties"]["provider_id"] = {"id": "p"}
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
    doc[section][0][key] = value
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
    doc["nodes"][0]["class"] = "Mystery"
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
    doc[section].append(dict(doc[section][0]))
    with pytest.raises(GraphError, match=f"duplicate {what} id 0"):
        import_graph(doc)


@pytest.mark.parametrize("value", [1.9, True, 1, " 1 ", "-1", "+1", "1_0", "\u0661", ""])
@pytest.mark.parametrize(
    "section, key", [("nodes", "id"), ("edges", "id"), ("edges", "from"), ("edges", "to")]
)
def test_import_accepts_only_digit_string_ids(section, key, value):
    """An id is read as `export_graph` writes it, a string of ASCII digits;
    `int` would read `1.9`, `true` or `" 1 "` as node 1."""
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    graph.add_node("A", "a", {})
    if section == "edges":
        graph.add_edge(graph.add_node("A", "b", {}), 0, "DFG")
    graph.freeze()
    doc = to_document(graph)
    doc[section][-1][key] = value
    with pytest.raises(GraphError, match=f"malformed {section[:-1]} entry"):
        import_graph(doc)


@pytest.mark.parametrize(
    "change",
    [
        lambda entry: entry.update(properties=[["k", "v"]]),
        lambda entry: entry.update(properties=""),
        lambda entry: entry.update(extra=5),
        lambda entry: entry.pop("properties"),
    ],
    ids=["properties-pairs", "properties-string", "extra-key", "no-properties"],
)
@pytest.mark.parametrize("section", ["nodes", "edges"])
def test_import_reads_only_what_export_writes(section, change):
    """An entry holds exactly the keys `export_graph` writes, and its
    properties are a mapping; `dict(...)` would read a list of pairs."""
    ontology = ontology_from_documents({"classes": [{"name": "A", "kind": "resource"}]}, [])
    graph = PropertyGraph(ontology)
    graph.add_edge(graph.add_node("A", "a", {}), 0, "DFG")
    graph.freeze()
    doc = to_document(graph)
    change(doc[section][0])
    with pytest.raises(GraphError, match=f"malformed {section[:-1]} entry"):
        import_graph(doc)


def assert_export_is_json_dumps(graph, settings):
    expected = json.dumps(to_document(graph, settings), indent=2, sort_keys=True) + "\n"
    assert export_graph(graph, settings) == expected


# strings that JSON must escape, or write as \u escapes, surrogate pairs included
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\u00e9\u2028\U0001d11e') | st.characters(), max_size=8
)
VALUES = st.one_of(TEXT, st.booleans(), st.integers(-(2**70), 2**70))
NODE_CLASSES = sorted(CODE_CLASSES) + ["ObjectStorage", "GeoLocation", "HttpEndpoint"]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_export_is_json_dumps_of_document(core_ontology, data):
    graph = PropertyGraph(core_ontology)
    for _ in range(data.draw(st.integers(0, 6))):
        class_name = data.draw(st.sampled_from(NODE_CLASSES))
        allowed = graph.property_keys(class_name)
        keys = TEXT if allowed is None else st.sampled_from(sorted(allowed))
        properties = data.draw(st.dictionaries(keys, VALUES, max_size=4))
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
    assert_export_is_json_dumps(graph, {"star_max": 10})
