import pytest

from skygraph.codefacts import (
    bundle_from_document,
    ingest_code_facts,
    load_code_facts,
)
from skygraph.errors import CodeFactsError
from skygraph.graph import PropertyGraph, export_graph

from .conftest import data_path


@pytest.fixture
def graph(core_ontology):
    return PropertyGraph(core_ontology)


def bundle(**overrides):
    doc = {
        "application": "app",
        "language": "python",
        "functions": [],
        "calls": [],
        "dfg": [],
    }
    doc.update(overrides)
    return bundle_from_document(doc)


PRODUCTPAGE = data_path("fixtures/bookinfo/codefacts/productpage.yaml")


class TestBundleValidation:
    def test_unresolved_dfg_ref(self):
        with pytest.raises(CodeFactsError, match="x9"):
            bundle(dfg=[{"from": "x9", "to": "x9"}])

    def test_duplicate_function(self):
        with pytest.raises(CodeFactsError, match="duplicate function"):
            bundle(functions=[{"name": "f"}, {"name": "f"}])

    def test_handler_path_must_be_absolute(self):
        with pytest.raises(CodeFactsError, match="begin with"):
            bundle(functions=[{"name": "f", "http_handler": {"path": "login", "method": "GET"}}])

    def test_http_details_iff_http_client(self):
        with pytest.raises(CodeFactsError, match="http_client"):
            bundle(
                functions=[{"name": "f"}],
                calls=[{"id": "c", "inside": "f", "kind": "plain", "http": {"url": "u", "method": "GET"}}],
            )

    def test_call_inside_unknown_function(self):
        with pytest.raises(CodeFactsError, match="unknown function"):
            bundle(calls=[{"id": "c", "inside": "ghost", "kind": "plain"}])

    def test_unknown_keys_rejected(self):
        with pytest.raises(CodeFactsError, match="unknown keys"):
            bundle_from_document({"application": "a", "bogus": 1})

    def test_image_and_host_both_named(self):
        with pytest.raises(CodeFactsError, match="names both an image and a host"):
            bundle(image="ghcr.io/acme/app", host="vm-1")

    def test_loader_names_the_file_of_image_and_host(self, tmp_path):
        path = tmp_path / "app.yaml"
        path.write_text("application: app\nimage: ghcr.io/acme/app\nhost: vm-1\n", encoding="utf-8")
        with pytest.raises(CodeFactsError) as info:
            load_code_facts(path)
        assert str(info.value) == f"{path}: bundle 'app' names both an image and a host"

    def test_unresolved_log_call(self):
        with pytest.raises(CodeFactsError, match="does not resolve"):
            bundle(functions=[{"name": "f", "log_calls": ["missing"]}])


class TestIngest:
    def test_zero_functions_creates_application_only(self, graph):
        app_id = ingest_code_facts(graph, bundle())
        assert graph.node(app_id).class_name == "Application"
        assert graph.node_count == 1

    def test_log_call_flows_into_log_output(self, graph):
        app_id = ingest_code_facts(graph, load_code_facts(PRODUCTPAGE))
        log_nodes = graph.nodes_with_class("LogOutput")
        assert len(log_nodes) == 1
        message = graph.find_by_name("CallExpression", "login_message")
        assert graph.has_edge(message, log_nodes[0], "DFG")
        assert graph.has_edge(app_id, log_nodes[0], "OFFERS")

    def test_dfg_pairs_become_edges(self, graph):
        ingest_code_facts(graph, load_code_facts(PRODUCTPAGE))
        src = graph.find_by_name("CallExpression", "request_values")
        dst = graph.find_by_name("CallExpression", "login_message")
        assert graph.has_edge(src, dst, "DFG")

    def test_node_counts_match_bundle(self, graph):
        facts = load_code_facts(PRODUCTPAGE)
        ingest_code_facts(graph, facts)
        assert len(graph.nodes_with_class("FunctionDeclaration")) == len(facts["functions"])
        assert len(graph.nodes_with_class("CallExpression")) == len(facts["calls"])

    def test_logging_request_values_directly(self, graph):
        facts = bundle(
            functions=[{"name": "login", "log_calls": ["request_values"]}],
            calls=[{"id": "request_values", "inside": "login", "kind": "plain"}],
        )
        ingest_code_facts(graph, facts)
        expr = graph.find_by_name("CallExpression", "request_values")
        log_node = graph.nodes_with_class("LogOutput")[0]
        assert graph.has_edge(expr, log_node, "DFG")

    @pytest.mark.parametrize(
        "bundle_file", ["productpage", "details", "reviews", "ratings"]
    )
    def test_counts_for_every_fixture_bundle(self, core_ontology, bundle_file):
        facts = load_code_facts(
            data_path(f"fixtures/bookinfo/codefacts/{bundle_file}.yaml")
        )
        graph = PropertyGraph(core_ontology)
        ingest_code_facts(graph, facts)
        assert len(graph.nodes_with_class("FunctionDeclaration")) == len(facts.get("functions") or [])
        assert len(graph.nodes_with_class("CallExpression")) == len(facts.get("calls") or [])
        assert len(graph.nodes_with_class("HttpEndpoint")) == sum(
            1 for f in facts.get("functions") or [] if f.get("http_handler")
        )
        assert len(graph.nodes_with_class("HttpRequest")) == sum(
            1 for c in facts.get("calls") or [] if c.get("kind") == "http_client"
        )
        assert len(graph.nodes_with_class("ObjectStorageRequest")) == sum(
            1 for c in facts.get("calls") or [] if c.get("kind") == "storage_sdk"
        )

    def test_literal_nodes(self, graph):
        facts = bundle(
            functions=[
                {
                    "name": "f",
                    "log_calls": ["lit1"],
                    "literals": [{"id": "lit1", "value": "hello"}],
                }
            ]
        )
        ingest_code_facts(graph, facts)
        lit = graph.find_by_name("Literal", "hello")
        assert lit is not None
        assert graph.node(lit).properties["value"] == "hello"

    def test_parameter_expressions(self, graph):
        facts = bundle(
            functions=[{"name": "f", "parameters": ["x"]}, {"name": "g"}],
            calls=[{"id": "c", "inside": "g", "kind": "plain"}],
            dfg=[{"from": "f.x", "to": "c"}],
        )
        ingest_code_facts(graph, facts)
        param = graph.find_by_name("Expression", "f.x")
        assert param is not None
        assert graph.has_edge(param, graph.find_by_name("CallExpression", "c"), "DFG")

    def test_reingest_is_deterministic(self, core_ontology):
        facts = load_code_facts(PRODUCTPAGE)
        exports = []
        for _ in range(2):
            graph = PropertyGraph(core_ontology)
            ingest_code_facts(graph, facts)
            graph.freeze()
            exports.append(export_graph(graph))
        assert exports[0] == exports[1]


class TestHttpServerNodes:
    def test_two_endpoints(self, graph):
        ingest_code_facts(graph, load_code_facts(PRODUCTPAGE))
        assert len(graph.nodes_with_class("HttpEndpoint")) == 2
        names = {graph.node(i).name for i in graph.nodes_with_class("HttpEndpoint")}
        assert names == {"/", "/login"}

    def test_no_handlers_no_nodes(self, graph):
        ingest_code_facts(graph, bundle(functions=[{"name": "f"}]))
        assert graph.nodes_with_class("HttpEndpoint") == []
        assert graph.nodes_with_class("HttpRequestHandler") == []

    def test_shared_handler_class_groups(self, graph):
        facts = bundle(
            functions=[
                {"name": "f1", "http_handler": {"path": "/a", "method": "GET"}, "handler_class": "PageController"},
                {"name": "f2", "http_handler": {"path": "/b", "method": "GET"}, "handler_class": "PageController"},
            ]
        )
        ingest_code_facts(graph, facts)
        # oracle: one handler per distinct class, one endpoint per function
        handler_classes = {f["handler_class"] for f in facts["functions"] if f["http_handler"]}
        assert len(graph.nodes_with_class("HttpRequestHandler")) == len(handler_classes)
        assert len(graph.nodes_with_class("HttpEndpoint")) == sum(
            1 for f in facts["functions"] if f["http_handler"]
        )
        handler = graph.nodes_with_class("HttpRequestHandler")[0]
        assert len(graph.out_edges(handler, "HAS_ENDPOINT")) == 2

    def test_endpoint_calls_function(self, graph):
        ingest_code_facts(graph, load_code_facts(PRODUCTPAGE))
        login = graph.find_by_name("HttpEndpoint", "/login")
        fn = graph.find_by_name("FunctionDeclaration", "productpage.login")
        assert graph.has_edge(login, fn, "CALLS")
        assert graph.node(login).properties == {"path": "/login", "method": "POST"}


class TestHttpClientNodes:
    def test_request_node_properties(self, graph):
        facts = bundle(
            functions=[{"name": "f"}],
            calls=[
                {
                    "id": "c",
                    "inside": "f",
                    "kind": "http_client",
                    "http": {"url": "https://example.io/login", "method": "POST"},
                }
            ],
        )
        app_id = ingest_code_facts(graph, facts)
        assert len(graph.nodes_with_class("HttpRequest")) == 1
        request = graph.nodes_with_class("HttpRequest")[0]
        assert graph.node(request).properties == {
            "url": "https://example.io/login",
            "method": "POST",
        }
        call = graph.find_by_name("CallExpression", "c")
        assert graph.has_edge(request, call, "SOURCE")
        assert graph.has_edge(app_id, request, "OFFERS")

    def test_plain_calls_only(self, graph):
        facts = bundle(functions=[{"name": "f"}], calls=[{"id": "c", "inside": "f", "kind": "plain"}])
        ingest_code_facts(graph, facts)
        assert graph.nodes_with_class("HttpRequest") == []

    def test_identical_calls_stay_distinct(self, graph):
        http = {"url": "http://svc/x", "method": "GET"}
        facts = bundle(
            functions=[{"name": "f"}, {"name": "g"}],
            calls=[
                {"id": "c1", "inside": "f", "kind": "http_client", "http": dict(http)},
                {"id": "c2", "inside": "g", "kind": "http_client", "http": dict(http)},
            ],
        )
        ingest_code_facts(graph, facts)
        # oracle: one request node per http_client fact
        expected = sum(1 for c in facts["calls"] if c["kind"] == "http_client")
        assert len(graph.nodes_with_class("HttpRequest")) == expected == 2


def test_requests_follow_function_order(graph):
    # calls listed out of function order: requests are created per enclosing
    # function in declaration order, keeping bundle order within a function
    facts = bundle(
        functions=[{"name": "f", "parameters": ["x"]}, {"name": "g"}],
        calls=[
            {"id": "cg", "inside": "g", "kind": "http_client", "http": {"url": "http://svc/g", "method": "GET"}},
            {
                "id": "sf",
                "inside": "f",
                "kind": "storage_sdk",
                "storage": {"account_url": "https://acct.blob.example", "container": "k", "operation": "append"},
                "arguments": ["f.x"],
            },
            {"id": "cf", "inside": "f", "kind": "http_client", "http": {"url": "http://svc/f", "method": "GET"}},
        ],
    )
    ingest_code_facts(graph, facts)
    names = [graph.node(i).name for i in graph.nodes_with_class("HttpRequest")]
    assert names == ["http://svc/f", "http://svc/g"]
    request = graph.nodes_with_class("ObjectStorageRequest")[0]
    assert graph.has_edge(graph.find_by_name("Expression", "f.x"), request, "DFG")


class TestStorageRequestNodes:
    def storage_bundle(self, operation):
        return bundle(
            functions=[{"name": "f", "parameters": ["data"]}],
            calls=[
                {
                    "id": "c",
                    "inside": "f",
                    "kind": "storage_sdk",
                    "storage": {
                        "account_url": "https://logs.blob.example",
                        "container": "am-containerlog",
                        "operation": operation,
                    },
                    "arguments": ["f.data"],
                }
            ],
        )

    def test_append_gets_argument_dfg(self, graph):
        ingest_code_facts(graph, self.storage_bundle("append"))
        assert len(graph.nodes_with_class("ObjectStorageRequest")) == 1
        request = graph.nodes_with_class("ObjectStorageRequest")[0]
        assert graph.node(request).properties["type"] == "append"
        arg = graph.find_by_name("Expression", "f.data")
        assert graph.has_edge(arg, request, "DFG")
        call = graph.find_by_name("CallExpression", "c")
        assert graph.has_edge(request, call, "SOURCE")

    def test_read_gets_no_argument_dfg(self, graph):
        ingest_code_facts(graph, self.storage_bundle("read"))
        request = graph.nodes_with_class("ObjectStorageRequest")[0]
        assert graph.in_edges(request, "DFG") == []

    def test_two_appends_share_account_url(self, graph):
        storage = {
            "account_url": "https://logs.blob.example",
            "container": "am-containerlog",
            "operation": "append",
        }
        facts = bundle(
            functions=[{"name": "f"}],
            calls=[
                {"id": "c1", "inside": "f", "kind": "storage_sdk", "storage": dict(storage)},
                {"id": "c2", "inside": "f", "kind": "storage_sdk", "storage": dict(storage)},
            ],
        )
        ingest_code_facts(graph, facts)
        expected = sum(1 for c in facts["calls"] if c["kind"] == "storage_sdk")
        assert len(graph.nodes_with_class("ObjectStorageRequest")) == expected == 2
        urls = {
            graph.node(i).properties["account_url"]
            for i in graph.nodes_with_class("ObjectStorageRequest")
        }
        assert urls == {"https://logs.blob.example"}


def test_intra_app_dfg_stays_within_application(testbed_graph):
    # every DFG edge created at ingest time connects nodes of one application;
    # cross-application DFG edges come only from later resolution passes
    g = testbed_graph

    def owner(node_id):
        seen = set()
        frontier = [node_id]
        while frontier:
            cur = frontier.pop()
            if g.node(cur).class_name == "Application":
                return cur
            seen.add(cur)
            frontier.extend(
                e.from_id for e in g.in_edges(cur, "CONTAINS") if e.from_id not in seen
            )
            frontier.extend(
                e.from_id for e in g.in_edges(cur, "OFFERS") if e.from_id not in seen
            )
        return None

    code_classes = {"CallExpression", "Expression", "Literal", "LogOutput"}
    for edge in (e for e in g.edges() if e.type == "DFG"):
        from_cls = g.node(edge.from_id).class_name
        to_cls = g.node(edge.to_id).class_name
        if from_cls in code_classes and to_cls in code_classes:
            assert owner(edge.from_id) == owner(edge.to_id)
