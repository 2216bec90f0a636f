from collections import Counter, deque
from urllib.parse import urlsplit

import pytest

from skygraph import dataflow
from skygraph.codefacts import (
    bundle_from_document,
    ingest_code_facts,
)
from skygraph.dataflow import (
    UrlParts,
    create_proxied_endpoints,
    parse_url,
    propagate_log_flows,
    resolve_http_requests,
    resolve_storage_requests,
)
from skygraph.errors import AmbiguousStorageError
from skygraph.graph import PropertyGraph


class TestUrlParts:
    def test_parse_full(self):
        parts = parse_url("https://example.io:443/login")
        assert parts == UrlParts("example.io:443", "/login")
        assert parts.host_key == "example.io"

    def test_bare_host(self):
        assert parse_url("example.io") == UrlParts("example.io", "/")

    def test_duplicate_slashes_collapse(self):
        assert parse_url("http://h//a///b").path == "/a/b"

    def test_parse_table(self):
        # each host with its host_key: userinfo, port and IPv6 brackets go
        keys = {
            "example.io": "example.io",
            "svc:9080": "svc",
            "a.b.c": "a.b.c",
            "user:pw@reviews:9080": "reviews",
            "user@Reviews": "reviews",
            "[::1]:9080": "::1",
            "[FE80::1]": "fe80::1",
        }
        for scheme in ("", "http://", "https://"):
            for host, key in keys.items():
                assert parse_url(scheme + host + "/x").host_key == key
                for path in ("/", "/x", "/x/y"):
                    assert parse_url(scheme + host + path) == UrlParts(host, path)
                    # a query string and a fragment belong to neither part
                    for tail in ("?id=0", "#top", "?id=0&x=/y#top", "#a?b"):
                        assert parse_url(scheme + host + path + tail) == UrlParts(host, path)
                for tail in ("?id=0", "#top"):
                    assert parse_url(scheme + host + tail) == UrlParts(host, "/")


def two_app_graph(core_ontology):
    """Fig-style scenario: app1 behind a load balancer, app2 on a VM

    calling app1's login endpoint through the balancer URL."""
    graph = PropertyGraph(core_ontology)
    app1 = ingest_code_facts(
        graph,
        bundle_from_document(
            {
                "application": "app1",
                "image": "ghcr.io/acme/app1",
                "functions": [
                    {"name": "app1.index", "http_handler": {"path": "/", "method": "GET"}},
                    {"name": "app1.login", "http_handler": {"path": "/login", "method": "POST"}},
                ],
            }
        ),
    )
    app2 = ingest_code_facts(
        graph,
        bundle_from_document(
            {
                "application": "app2",
                "host": "vm1",
                "functions": [{"name": "app2.call_home"}],
                "calls": [
                    {
                        "id": "login_call",
                        "inside": "app2.call_home",
                        "kind": "http_client",
                        "http": {"url": "https://example.io/login", "method": "POST"},
                    }
                ],
            }
        ),
    )
    balancer = graph.add_node("LoadBalancer", "lb", {"url": "example.io"})
    compute = graph.add_node("Container", "c1", {"provider_id": "c1"})
    vm = graph.add_node("VirtualMachine", "vm1", {"provider_id": "vm1"})
    graph.add_edge(balancer, compute, "TARGETS")
    graph.add_edge(app1, compute, "RUNS_ON")
    graph.add_edge(app2, vm, "RUNS_ON")
    return graph, app1, app2, balancer


class TestCreateProxiedEndpoints:
    def test_prefixes_balancer_url(self, core_ontology):
        graph, app1, _, balancer = two_app_graph(core_ontology)
        count = create_proxied_endpoints(graph)
        assert count == 2
        names = {graph.node(n).name for n in graph.nodes_with_class("ProxiedEndpoint")}
        assert names == {"example.io/", "example.io/login"}
        for proxied_id in graph.nodes_with_class("ProxiedEndpoint"):
            assert graph.has_edge(balancer, proxied_id, "HAS_ENDPOINT")
            assert len(graph.out_edges(proxied_id, "PROXIES")) == 1

    def test_balancer_without_applications(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        balancer = graph.add_node("LoadBalancer", "lb", {"url": "example.io"})
        compute = graph.add_node("Container", "c1", {})
        graph.add_edge(balancer, compute, "TARGETS")
        assert create_proxied_endpoints(graph) == 0

    def test_balancer_without_url_is_skipped(self, core_ontology, caplog):
        graph = PropertyGraph(core_ontology)
        graph.add_node("LoadBalancer", "lb", {})
        with caplog.at_level("WARNING"):
            assert create_proxied_endpoints(graph) == 0
        assert "lb" in caplog.text

    def test_url_concatenation_invariant(self, testbed_graph):
        g = testbed_graph
        for proxied_id in g.nodes_with_class("ProxiedEndpoint"):
            balancer = g.in_edges(proxied_id, "HAS_ENDPOINT")[0].from_id
            local = g.out_edges(proxied_id, "PROXIES")[0].to_id
            expected = str(g.property_value(balancer, "url")) + str(
                g.node(local).properties["path"]
            )
            assert g.node(proxied_id).properties["url"] == expected

    def test_mirroring_is_linear_in_endpoints(self, core_ontology):
        """One balancer in front of k, then 2k endpoints: the adjacency
        listings the pass makes at most about double."""

        def listings(k):
            graph = PropertyGraph(core_ontology)
            functions = [
                {"name": f"app.f{i}", "http_handler": {"path": f"/p{i}", "method": "GET"}}
                for i in range(k)
            ]
            app = ingest_code_facts(
                graph, bundle_from_document({"application": "app", "functions": functions})
            )
            balancer = graph.add_node("LoadBalancer", "lb", {"url": "example.io"})
            compute = graph.add_node("Container", "c1", {})
            graph.add_edge(balancer, compute, "TARGETS")
            graph.add_edge(app, compute, "RUNS_ON")
            calls = 0

            def counted(method):
                def listing(*args, **kwargs):
                    nonlocal calls
                    calls += 1
                    return method(*args, **kwargs)

                return listing

            graph.out_edges = counted(graph.out_edges)
            graph.in_edges = counted(graph.in_edges)
            assert create_proxied_endpoints(graph) == k
            assert create_proxied_endpoints(graph) == 0
            return calls

        k = 40
        assert listings(2 * k) <= 2.2 * listings(k)


class TestResolveHttpRequests:
    def test_proxied_match_and_splice(self, core_ontology):
        graph, _, _, _ = two_app_graph(core_ontology)
        create_proxied_endpoints(graph)
        count = resolve_http_requests(graph)
        request = graph.nodes_with_class("HttpRequest")[0]
        to_targets = {e.to_id for e in graph.out_edges(request, "TO")}
        proxied = graph.find_by_name("ProxiedEndpoint", "example.io/login")
        assert proxied in to_targets
        # data flow spliced through to the handler function, both directions
        call = graph.find_by_name("CallExpression", "login_call")
        handler_fn = graph.find_by_name("FunctionDeclaration", "app1.login")
        assert graph.has_edge(call, handler_fn, "DFG")
        assert graph.has_edge(handler_fn, call, "DFG")
        assert count == len(to_targets)

    def test_unmatched_request_kept(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": "a",
                    "functions": [{"name": "f"}],
                    "calls": [
                        {
                            "id": "c",
                            "inside": "f",
                            "kind": "http_client",
                            "http": {"url": "http://nowhere.example/none", "method": "GET"},
                        }
                    ],
                }
            ),
        )
        assert resolve_http_requests(graph) == 0
        request = graph.nodes_with_class("HttpRequest")[0]
        assert graph.out_edges(request, "TO") == []

    def test_method_mismatch(self, core_ontology):
        # oracle: brute-force cross product of requests and endpoints with
        # the documented matching predicate
        graph = PropertyGraph(core_ontology)
        ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": "a",
                    "functions": [
                        {"name": "handler", "http_handler": {"path": "/x", "method": "POST"}},
                        {"name": "caller"},
                    ],
                    "calls": [
                        {
                            "id": "c",
                            "inside": "caller",
                            "kind": "http_client",
                            "http": {"url": "http://svc/x", "method": "GET"},
                        }
                    ],
                }
            ),
        )
        assert resolve_http_requests(graph) == 0

    def test_any_method_wildcard(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        storage = graph.add_node("ObjectStorage", "s", {})
        endpoint = graph.add_node(
            "HttpEndpoint", "https://h/x", {"url": "https://h/x", "method": "ANY"}
        )
        graph.add_edge(storage, endpoint, "HAS_ENDPOINT")
        ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": "a",
                    "functions": [{"name": "f"}],
                    "calls": [
                        {
                            "id": "c",
                            "inside": "f",
                            "kind": "http_client",
                            "http": {"url": "http://h/x", "method": "POST"},
                        }
                    ],
                }
            ),
        )
        # scheme differs, host and path match, ANY accepts POST
        assert resolve_http_requests(graph) == 1

    def test_query_string_request_reaches_handler(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        handler = {"name": "get", "http_handler": {"path": "/reviews", "method": "GET"}}
        ingest_code_facts(
            graph, bundle_from_document({"application": "reviews", "functions": [handler]})
        )
        http = {"url": "http://reviews:9080/reviews?productId=0#top", "method": "GET"}
        fact = {"id": "productpage-call", "inside": "caller", "kind": "http_client", "http": http}
        caller = {"application": "productpage", "functions": [{"name": "caller"}], "calls": [fact]}
        ingest_code_facts(graph, bundle_from_document(caller))
        assert resolve_http_requests(graph) == 1
        request = graph.nodes_with_class("HttpRequest")[0]
        endpoint = graph.find_by_name("HttpEndpoint", "/reviews")
        assert [e.to_id for e in graph.out_edges(request, "TO")] == [endpoint]
        call = graph.find_by_name("CallExpression", "productpage-call")
        handler_fn = graph.find_by_name("FunctionDeclaration", "get")
        assert graph.has_edge(call, handler_fn, "DFG")
        assert graph.has_edge(handler_fn, call, "DFG")
        assert resolved_pairs(graph) == cross_product_oracle(graph)

    def test_local_endpoint_matches_on_path(self, core_ontology):
        graph, _, _, _ = two_app_graph(core_ontology)
        create_proxied_endpoints(graph)
        resolve_http_requests(graph)
        request = graph.nodes_with_class("HttpRequest")[0]
        local = graph.find_by_name("HttpEndpoint", "/login")
        assert local in {e.to_id for e in graph.out_edges(request, "TO")}


class TestResolveStorageRequests:
    def storage_graph(self, core_ontology, containers=("am-containerlog",)):
        graph = PropertyGraph(core_ontology)
        for i, name in enumerate(containers):
            storage = graph.add_node("ObjectStorage", name, {"provider_id": f"s{i}"})
            endpoint = graph.add_node(
                "HttpEndpoint",
                f"https://logs.blob.example/{name}",
                {"url": f"https://logs.blob.example/{name}", "method": "ANY"},
            )
            graph.add_edge(storage, endpoint, "HAS_ENDPOINT")
        app = ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": "a",
                    "functions": [{"name": "f"}],
                    "calls": [
                        {
                            "id": "c",
                            "inside": "f",
                            "kind": "storage_sdk",
                            "storage": {
                                "account_url": "https://logs.blob.example",
                                "container": "am-containerlog",
                                "operation": "append",
                            },
                        }
                    ],
                }
            ),
        )
        compute = graph.add_node("VirtualMachine", "vm", {})
        graph.add_edge(app, compute, "RUNS_ON")
        return graph

    def test_matches_host_and_container(self, core_ontology):
        graph = self.storage_graph(core_ontology)
        assert resolve_storage_requests(graph) == 1
        request = graph.nodes_with_class("ObjectStorageRequest")[0]
        storage = graph.find_by_name("ObjectStorage", "am-containerlog")
        assert graph.has_edge(request, storage, "TO")
        # anchored to the application's compute for resource-level queries
        vm = graph.find_by_name("VirtualMachine", "vm")
        assert graph.has_edge(request, vm, "SOURCE")

    def test_no_match(self, core_ontology):
        graph = self.storage_graph(core_ontology, containers=("other",))
        assert resolve_storage_requests(graph) == 0

    def test_ambiguous_match_names_both(self, core_ontology):
        graph = self.storage_graph(core_ontology)
        dup = graph.add_node("ObjectStorage", "am-containerlog", {"provider_id": "dup"})
        endpoint = graph.add_node(
            "HttpEndpoint",
            "https://logs.blob.example/dup",
            {"url": "https://logs.blob.example/dup", "method": "ANY"},
        )
        graph.add_edge(dup, endpoint, "HAS_ENDPOINT")
        with pytest.raises(AmbiguousStorageError, match="am-containerlog"):
            resolve_storage_requests(graph)

    def test_synthesized_request_untouched(self, testbed_graph):
        # the log-forwarding request has no account_url; reruns add nothing
        assert resolve_storage_requests(testbed_graph) == 0


class TestPropagateLogFlows:
    def test_full_chain_exists(self, testbed_graph):
        g = testbed_graph
        log_output = g.find_by_name("LogOutput", "productpage-logs")
        container = g.find_by_name("Container", "productpage-v1")
        storage = g.find_by_name("ObjectStorage", "am-containerlog")
        assert g.has_edge(log_output, container, "DFG")
        assert g.has_edge(container, storage, "DFG")

    def test_no_sink_no_edges(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        app = ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": "a",
                    "functions": [{"name": "f", "log_calls": ["c"]}],
                    "calls": [{"id": "c", "inside": "f", "kind": "plain"}],
                }
            ),
        )
        compute = graph.add_node("VirtualMachine", "vm", {})
        graph.add_edge(app, compute, "RUNS_ON")
        assert propagate_log_flows(graph) == 0

    def test_shared_compute_deduplicates(self, core_ontology):
        graph = PropertyGraph(core_ontology)
        apps = []
        for name in ("a1", "a2"):
            apps.append(
                ingest_code_facts(
                    graph,
                    bundle_from_document(
                        {
                            "application": name,
                            "functions": [{"name": f"{name}.f", "log_calls": [f"{name}c"]}],
                            "calls": [{"id": f"{name}c", "inside": f"{name}.f", "kind": "plain"}],
                        }
                    ),
                )
            )
        compute = graph.add_node("Container", "shared", {})
        storage = graph.add_node("ObjectStorage", "sink", {})
        graph.add_edge(compute, storage, "LOGS_TO")
        for app in apps:
            graph.add_edge(app, compute, "RUNS_ON")
        propagate_log_flows(graph)
        # oracle: multiset of DFG edges contains compute->storage exactly once
        counts = Counter((e.from_id, e.to_id) for e in graph.edges() if e.type == "DFG")
        assert counts[(compute, storage)] == 1


class TestIdempotency:
    def edge_multiset(self, graph):
        return Counter((e.type, e.from_id, e.to_id) for e in graph.edges())

    @pytest.mark.parametrize("name", dataflow._PASSES)
    def test_each_pass_idempotent(self, core_ontology, name):
        graph, *_ = two_app_graph(core_ontology)
        storage = graph.add_node("ObjectStorage", "sink", {})
        endpoint = graph.add_node(
            "HttpEndpoint", "https://h/sink", {"url": "https://h/sink", "method": "ANY"}
        )
        graph.add_edge(storage, endpoint, "HAS_ENDPOINT")
        # every pass once, in the order `build_graph` runs them
        for name in dataflow._PASSES:
            getattr(dataflow, name)(graph)
        before = self.edge_multiset(graph)
        count = getattr(dataflow, name)(graph)
        assert count == 0
        assert self.edge_multiset(graph) == before


def test_to_edges_land_on_http_endpoints(testbed_graph):
    g = testbed_graph
    for request_id in g.nodes_with_class("HttpRequest"):
        for edge in g.out_edges(request_id, "TO"):
            assert g.node_matches_label(edge.to_id, "HttpEndpoint")


def cross_product_oracle(g):
    """(request, endpoint) pairs from the documented matching predicate,
    applied to every pair by brute force: an endpoint with a url matches on
    its host and path; one without matches on path if an application the
    request's host addresses offers it, or if the host addresses none."""

    def collapse(path):
        while "//" in path:
            path = path.replace("//", "/")
        return path

    def split(url):
        rest = url.split("://", 1)[1] if "://" in url else url
        rest = rest.partition("#")[0].partition("?")[0]
        host, _, path = rest.partition("/")
        return urlsplit("//" + host).hostname or "", collapse("/" + path)

    def ends(type, start=None, end=None):
        """(from, to) of every `type` edge from `start` or to `end`."""
        return {
            (e.from_id, e.to_id)
            for e in g.edges()
            if e.type == type and start in (None, e.from_id) and end in (None, e.to_id)
        }

    def addressed(host):
        """The applications named by the host's first DNS label, in any case,
        failing that those behind the balancers with this url host; None if
        neither."""
        label = host.split(".")[0]
        apps = {n.id for n in g.nodes() if n.class_name == "Application" and n.name.lower() == label}
        if apps:
            return apps
        balancers = [
            n.id
            for n in g.nodes()
            if g.node_matches_label(n.id, "LoadBalancer")
            and "url" in n.properties
            and split(str(n.properties["url"]))[0] == host
        ]
        if not balancers:
            return None
        computes = {c for b in balancers for _, c in ends("TARGETS", start=b)}
        return {a for c in computes for a, _ in ends("RUNS_ON", end=c)}

    def offered_by(endpoint):
        handlers = {h for h, _ in ends("HAS_ENDPOINT", end=endpoint)}
        return {a for h in handlers for a, _ in ends("OFFERS", end=h)}

    expected = set()
    for request_id in g.nodes_with_class("HttpRequest"):
        req = g.node(request_id)
        req_host, req_path = split(str(req.properties["url"]))
        apps = addressed(req_host)
        for node in g.nodes():
            if not g.node_matches_label(node.id, "HttpEndpoint"):
                continue
            ep = node.properties
            if ep.get("method") not in ("ANY", req.properties["method"]):
                continue
            if "url" in ep:
                ep_host, ep_path = split(str(ep["url"]))
                if ep_host == req_host and ep_path == req_path:
                    expected.add((request_id, node.id))
            elif "path" in ep and collapse(str(ep["path"])) == req_path:
                if apps is None or apps & offered_by(node.id):
                    expected.add((request_id, node.id))
    return expected


def resolved_pairs(g):
    return {
        (r, e.to_id)
        for r in g.nodes_with_class("HttpRequest")
        for e in g.out_edges(r, "TO")
    }


def test_request_resolution_matches_cross_product_oracle(testbed_graph):
    assert resolved_pairs(testbed_graph) == cross_product_oracle(testbed_graph)


def shared_path_graph(core_ontology):
    """Two tenants serving the same local paths, and endpoints that exercise
    host:port, `//` in local paths, ANY against GET, url-over-path
    precedence and a proxied endpoint."""
    graph = PropertyGraph(core_ontology)
    apps = []
    for tenant in ("t1", "t2"):
        app = ingest_code_facts(
            graph,
            bundle_from_document(
                {
                    "application": f"{tenant}-reviews",
                    "image": f"ghcr.io/acme/{tenant}-reviews",
                    "functions": [
                        {"name": "get", "http_handler": {"path": "/reviews", "method": "GET"}},
                        {"name": "post", "http_handler": {"path": "//reviews//all", "method": "POST"}},
                        {"name": "caller"},
                    ],
                    "calls": [
                        {
                            "id": f"{tenant}-{i}",
                            "inside": "caller",
                            "kind": "http_client",
                            "http": {"url": url, "method": method},
                        }
                        for i, (url, method) in enumerate(
                            [
                                (f"http://{tenant}-reviews:9080/reviews", "GET"),
                                (f"http://{tenant}-reviews:9080/reviews/all", "GET"),
                                ("https://lb.example.io//reviews/all", "POST"),
                            ]
                        )
                    ],
                }
            ),
        )
        apps.append(app)
    storage = graph.add_node("ObjectStorage", "s", {})
    for url in ("https://t1-reviews:443/reviews", "http://elsewhere/x"):
        # the second one's path would match every /reviews request
        props = {"url": url, "method": "ANY", "path": "/reviews"}
        endpoint = graph.add_node("HttpEndpoint", url, props)
        graph.add_edge(storage, endpoint, "HAS_ENDPOINT")
    balancer = graph.add_node("LoadBalancer", "lb", {"url": "lb.example.io"})
    compute = graph.add_node("Container", "c1", {})
    graph.add_edge(balancer, compute, "TARGETS")
    graph.add_edge(apps[0], compute, "RUNS_ON")
    return graph


def test_shared_path_resolution_matches_cross_product_oracle(core_ontology):
    graph = shared_path_graph(core_ontology)
    assert create_proxied_endpoints(graph) == 2
    added = resolve_http_requests(graph)
    expected = cross_product_oracle(graph)
    assert resolved_pairs(graph) == expected
    assert added == len(expected)
    targets = Counter(graph.node(endpoint).name for _, endpoint in expected)
    # each GET /reviews reaches the handler of the tenant its host names;
    # only t1's addresses the host of the ANY url endpoint, whose port differs
    assert targets["/reviews"] == 2
    assert targets["https://t1-reviews:443/reviews"] == 1
    # GET /reviews/all misses the POST handlers; each POST reaches the local
    # handler of t1, the application behind the balancer, and its mirror
    assert targets["//reviews//all"] == 2
    assert targets["lb.example.io//reviews//all"] == 2
    assert "http://elsewhere/x" not in targets


def test_host_addressing_no_application_matches_on_path_alone(core_ontology, caplog):
    # a host that names no application and fronts no balancer reaches every
    # tenant's handler on the path, with one warning; one fronting a
    # balancer with nothing behind it addresses no application, so it
    # reaches none
    graph = shared_path_graph(core_ontology)
    graph.add_node("LoadBalancer", "idle", {"url": "idle.example.io"})
    urls = ["http://unknown/reviews", "http://idle.example.io/reviews"]
    calls = [
        {"id": f"c{i}", "inside": "caller", "kind": "http_client", "http": http}
        for i, http in enumerate({"url": url, "method": "GET"} for url in urls)
    ]
    document = {"application": "t3-client", "functions": [{"name": "caller"}], "calls": calls}
    ingest_code_facts(graph, bundle_from_document(document))
    create_proxied_endpoints(graph)
    with caplog.at_level("WARNING", logger="skygraph.dataflow"):
        resolve_http_requests(graph)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "'http://unknown/reviews'" in warnings[0] and "host 'unknown'" in warnings[0]
    assert resolved_pairs(graph) == cross_product_oracle(graph)
    reached = {
        graph.node(r).properties["url"]: sorted(
            graph.node(e.to_id).name for e in graph.out_edges(r, "TO")
        )
        for r in graph.nodes_with_class("HttpRequest")
    }
    assert reached["http://unknown/reviews"] == ["/reviews", "/reviews"]
    assert reached["http://idle.example.io/reviews"] == []


def assert_reaches_t1_only(ontology, caplog, url):
    """Of two tenants serving `GET /reviews`, a request to `url` reaches
    t1's handler alone, with no path-only fallback warning."""
    graph = PropertyGraph(ontology)
    for tenant in ("t1", "t2"):
        handler = {"name": "get", "http_handler": {"path": "/reviews", "method": "GET"}}
        ingest_code_facts(graph, bundle_from_document({"application": f"{tenant}-reviews", "functions": [handler]}))
    call = {"id": "c0", "inside": "caller", "kind": "http_client", "http": {"url": url, "method": "GET"}}
    document = {"application": "client", "functions": [{"name": "caller"}], "calls": [call]}
    ingest_code_facts(graph, bundle_from_document(document))
    with caplog.at_level("WARNING", logger="skygraph.dataflow"):
        assert resolve_http_requests(graph) == 1
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    assert resolved_pairs(graph) == cross_product_oracle(graph)
    (request,) = graph.nodes_with_class("HttpRequest")
    (edge,) = graph.out_edges(request, "TO")
    t1 = graph.find_by_name("Application", "t1-reviews")
    assert edge.to_id in {
        has.to_id
        for offer in graph.out_edges(t1, "OFFERS", "HttpRequestHandler")
        for has in graph.out_edges(offer.to_id, "HAS_ENDPOINT")
    }


def test_host_matches_application_name_in_any_case(core_ontology, caplog):
    # DNS names are case-insensitive: a host that names one of two tenants
    # serving the same path in capitals addresses that tenant's
    # application, so the request is not matched on path alone
    assert_reaches_t1_only(core_ontology, caplog, "http://T1-Reviews:9080/reviews")


def test_host_after_userinfo_addresses_its_application(core_ontology, caplog):
    # the userinfo before `@` is no part of the host
    assert_reaches_t1_only(core_ontology, caplog, "http://user@t1-reviews:9080/reviews")


def test_login_expression_reaches_storage(testbed_graph):
    # independent breadth-first search over DFG edges
    g = testbed_graph
    source = g.find_by_name("CallExpression", "request_values")
    target = g.find_by_name("ObjectStorage", "am-containerlog")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for edge in g.out_edges(cur, "DFG"):
            if edge.to_id not in distances:
                distances[edge.to_id] = distances[cur] + 1
                queue.append(edge.to_id)
    assert target in distances
    assert distances[target] >= 3
