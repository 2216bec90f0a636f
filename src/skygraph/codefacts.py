"""Per-application code-fact bundles and the passes that lower them into
code nodes, intra-application data-flow edges, and framework functionality
nodes (HTTP endpoints, HTTP client requests, storage requests, log output).

Bundles are a language-independent stand-in for source-code frontends: an
upstream extractor is assumed to have reduced framework annotations and SDK
call chains to `http_handler`, `http_client` and `storage_sdk` facts. A
bundle stays the dict its YAML file loads as: `bundle_from_document` checks
it and returns it unchanged, and `ingest_code_facts` reads the checked dict.

Expression references are strings scoped to one bundle and resolve to:

* a call id,
* `<function>.<parameter>` for a declared parameter,
* `<function>.return` for a function's return value,
* a literal id declared on a function.
"""

from __future__ import annotations

from pathlib import Path

from skygraph.errors import CodeFactsError
from skygraph.graph import PropertyGraph, Scalar
from skygraph.yamlfile import SCALAR, check_fields, load_document

HTTP_METHODS = ("GET", "POST", "PUT", "DELETE")
STORAGE_OPERATIONS = ("create", "append", "read")
CALL_KINDS = ("plain", "http_client", "storage_sdk")

# (required, optional) fields of a bundle and of each of its entries
_BUNDLE = (
    {"application": str},
    {"language": str, "image": str, "host": str, "functions": list, "calls": list, "dfg": list},
)
_FUNCTION = (
    {"name": str},
    {
        "parameters": [str],
        "http_handler": dict,
        "handler_class": str,
        "log_calls": [str],
        "literals": list,
    },
)
_HANDLER = ({"path": str, "method": str}, {})
_LITERAL = ({"id": str, "value": SCALAR}, {})
_CALL = (
    {"id": str, "inside": str},
    {"kind": str, "http": dict, "storage": dict, "arguments": [str]},
)
_HTTP = ({"url": str, "method": str}, {})
_STORAGE = ({"account_url": str, "container": str, "operation": str}, {})
_DFG = ({"from": str, "to": str}, {})


def _list(entry: dict, key: str) -> list:
    """A list field of a checked entry; [] when absent or null."""
    return entry.get(key) or []


def _check_detail(entry: dict, key: str, where: str, fields: tuple) -> None:
    """Check `entry[key]`, when present, as a mapping of exactly `fields`."""
    if entry.get(key) is not None:
        check_fields(entry[key], f"{key} {where}", CodeFactsError, *fields)


def _expression_refs(doc: dict) -> dict[str, tuple[str, dict | None] | None]:
    """All expression refs a checked bundle declares, keyed by ref string.

    A call id maps to None; a parameter, return value or literal ref to the
    name of its function and the literal's entry (None for the others).
    """
    refs: dict[str, tuple[str, dict | None] | None] = {}

    def put(ref: str, value: tuple[str, dict | None] | None) -> None:
        if ref in refs:
            raise CodeFactsError(f"expression ref {ref!r} declared twice")
        refs[ref] = value

    for call in _list(doc, "calls"):
        put(call["id"], None)
    for fn in _list(doc, "functions"):
        name = fn["name"]
        for param in _list(fn, "parameters"):
            put(f"{name}.{param}", (name, None))
        put(f"{name}.return", (name, None))
        for lit in _list(fn, "literals"):
            put(lit["id"], (name, lit))
    return refs


# -- bundle loading ---------------------------------------------------------


def bundle_from_document(doc: dict) -> dict:
    """Check a code-facts document, its shape first and then that its
    names, kinds and expression refs resolve; returns `doc` unchanged."""
    check_fields(doc, "bundle", CodeFactsError, *_BUNDLE)
    # an application runs from its image or on its host, never both
    if doc.get("image") is not None and doc.get("host") is not None:
        raise CodeFactsError(f"bundle {doc['application']!r} names both an image and a host")
    functions = _list(doc, "functions")
    calls = _list(doc, "calls")
    for fn in functions:
        check_fields(fn, "function entry", CodeFactsError, *_FUNCTION)
        where = f"of function {fn['name']!r}"
        _check_detail(fn, "http_handler", where, _HANDLER)
        for lit in _list(fn, "literals"):
            check_fields(lit, f"literal {where}", CodeFactsError, *_LITERAL)
    for call in calls:
        check_fields(call, "call entry", CodeFactsError, *_CALL)
        where = f"of call {call['id']!r}"
        _check_detail(call, "http", where, _HTTP)
        _check_detail(call, "storage", where, _STORAGE)
    for pair in _list(doc, "dfg"):
        check_fields(pair, "dfg pair", CodeFactsError, *_DFG)

    seen_functions: set[str] = set()
    for fn in functions:
        if fn["name"] in seen_functions:
            raise CodeFactsError(
                f"duplicate function {fn['name']!r} in bundle {doc['application']!r}"
            )
        seen_functions.add(fn["name"])
        handler = fn.get("http_handler")
        if handler is not None:
            if not handler["path"].startswith("/"):
                raise CodeFactsError(f"handler path {handler['path']!r} must begin with '/'")
            if handler["method"] not in HTTP_METHODS:
                raise CodeFactsError(f"unknown HTTP method {handler['method']!r}")
    for call in calls:
        kind = call.get("kind", "plain")
        http, storage = call.get("http"), call.get("storage")
        if kind not in CALL_KINDS:
            raise CodeFactsError(f"unknown call kind {kind!r}")
        if (http is not None) != (kind == "http_client"):
            raise CodeFactsError(
                f"call {call['id']!r}: http details present iff kind is http_client"
            )
        if (storage is not None) != (kind == "storage_sdk"):
            raise CodeFactsError(
                f"call {call['id']!r}: storage details present iff kind is storage_sdk"
            )
        if http is not None and http["method"] not in HTTP_METHODS:
            raise CodeFactsError(f"unknown HTTP method {http['method']!r}")
        if storage is not None and storage["operation"] not in STORAGE_OPERATIONS:
            raise CodeFactsError(f"unknown storage operation {storage['operation']!r}")
        if call["inside"] not in seen_functions:
            raise CodeFactsError(
                f"call {call['id']!r} declared inside unknown function {call['inside']!r}"
            )
    refs = _expression_refs(doc)
    for call in calls:
        for arg in _list(call, "arguments"):
            if arg not in refs:
                raise CodeFactsError(f"call {call['id']!r} argument {arg!r} does not resolve")
    for fn in functions:
        for ref in _list(fn, "log_calls"):
            if ref not in refs:
                raise CodeFactsError(f"log call ref {ref!r} in {fn['name']!r} does not resolve")
    for pair in _list(doc, "dfg"):
        for ref in (pair["from"], pair["to"]):
            if ref not in refs:
                raise CodeFactsError(f"dfg ref {ref!r} does not resolve")
    return doc


def load_code_facts(path: str | Path) -> dict:
    return load_document(path, CodeFactsError, bundle_from_document)


# -- graph construction ------------------------------------------------------


def ingest_code_facts(graph: PropertyGraph, doc: dict) -> int:
    """Create the Application node, its declarations, calls, referenced
    expressions and intra-application DFG edges, then its framework nodes
    (HTTP endpoints, HTTP requests, storage requests), from a bundle
    document already checked by `bundle_from_document`. Returns the node
    id of the Application."""
    app_props: dict[str, Scalar] = {}
    if doc.get("language"):
        app_props["language"] = doc["language"]
    for key in ("image", "host"):
        if doc.get(key) is not None:
            app_props[key] = doc[key]
    app_id = graph.add_node("Application", doc["application"], app_props)

    functions = _list(doc, "functions")
    fn_nodes: dict[str, int] = {}
    for fn in functions:
        props: dict[str, Scalar] = {}
        handler = fn.get("http_handler")
        if handler is not None:
            props["handler_path"] = handler["path"]
            props["handler_method"] = handler["method"]
        if fn.get("handler_class") is not None:
            props["handler_class"] = fn["handler_class"]
        fn_id = graph.add_node("FunctionDeclaration", fn["name"], props)
        graph.add_edge(app_id, fn_id, "CONTAINS")
        fn_nodes[fn["name"]] = fn_id

    refs = _expression_refs(doc)
    ref_nodes: dict[str, int] = {}
    for call in _list(doc, "calls"):
        # the http and storage details are checked to hold exactly the
        # properties the call's node records
        props = {"kind": call.get("kind", "plain"), **(call.get("http") or {})}
        props.update(call.get("storage") or {})
        call_id = graph.add_node("CallExpression", call["id"], props)
        graph.add_edge(fn_nodes[call["inside"]], call_id, "CONTAINS")
        ref_nodes[call["id"]] = call_id

    def node_for_ref(ref: str) -> int:
        if ref in ref_nodes:
            return ref_nodes[ref]
        fn_name, lit = refs[ref]
        if lit is not None:
            node_id = graph.add_node("Literal", str(lit["value"]), {"value": lit["value"]})
        else:  # parameter or return value
            node_id = graph.add_node("Expression", ref)
        graph.add_edge(fn_nodes[fn_name], node_id, "CONTAINS")
        ref_nodes[ref] = node_id
        return node_id

    # materialize every referenced expression before wiring flows
    for call in _list(doc, "calls"):
        for arg in _list(call, "arguments"):
            node_for_ref(arg)
    dfg = [(pair["from"], pair["to"]) for pair in _list(doc, "dfg")]
    for src, dst in dfg:
        node_for_ref(src)
        node_for_ref(dst)
    for fn in functions:
        for ref in _list(fn, "log_calls"):
            node_for_ref(ref)

    for src, dst in dfg:
        graph.add_edge(ref_nodes[src], ref_nodes[dst], "DFG")

    log_node: int | None = None
    for fn in functions:
        for ref in _list(fn, "log_calls"):
            if log_node is None:
                log_node = graph.add_node("LogOutput", f"{doc['application']}-logs")
                graph.add_edge(app_id, log_node, "OFFERS")
            graph.add_edge(ref_nodes[ref], log_node, "DFG")

    build_http_server_nodes(graph, doc, app_id, fn_nodes)
    # requests are created call by call, grouped by enclosing function in
    # declaration order (function ids rise in that order); the sort is
    # stable, so calls keep their bundle order within a function
    calls = sorted(_list(doc, "calls"), key=lambda call: fn_nodes[call["inside"]])
    build_http_client_nodes(graph, calls, app_id, ref_nodes)
    build_storage_request_nodes(graph, calls, ref_nodes)
    return app_id


def build_http_server_nodes(
    graph: PropertyGraph, doc: dict, app_id: int, fn_nodes: dict[str, int]
) -> None:
    """Create HttpRequestHandler and HttpEndpoint nodes for framework
    handler functions.

    Functions without a controller class share one per-application
    handler node.
    """
    handlers: dict[str | None, int] = {}
    for fn in _list(doc, "functions"):
        handler = fn.get("http_handler")
        if handler is None:
            continue
        group = fn.get("handler_class")
        if group not in handlers:
            handler_name = group if group is not None else f"{doc['application']}-handlers"
            handler_id = graph.add_node("HttpRequestHandler", handler_name)
            graph.add_edge(app_id, handler_id, "OFFERS")
            handlers[group] = handler_id
        # `handler` holds exactly `path` and `method`, the endpoint's properties
        endpoint_id = graph.add_node("HttpEndpoint", handler["path"], handler)
        graph.add_edge(handlers[group], endpoint_id, "HAS_ENDPOINT")
        graph.add_edge(endpoint_id, fn_nodes[fn["name"]], "CALLS")


def build_http_client_nodes(
    graph: PropertyGraph, calls: list[dict], app_id: int, ref_nodes: dict[str, int]
) -> None:
    """Create one HttpRequest node per http_client call."""
    for call in calls:
        http = call.get("http")
        if http is None:
            continue
        # `http` holds exactly `url` and `method`, the request's properties
        request_id = graph.add_node("HttpRequest", http["url"], http)
        graph.add_edge(request_id, ref_nodes[call["id"]], "SOURCE")
        graph.add_edge(app_id, request_id, "OFFERS")


def build_storage_request_nodes(
    graph: PropertyGraph, calls: list[dict], ref_nodes: dict[str, int]
) -> None:
    """Create one ObjectStorageRequest node per storage_sdk call.

    Write operations (create/append) get DFG edges from their argument
    expressions; connection to the actual storage resource is left to the
    data-flow resolution passes.
    """
    for call in calls:
        storage = call.get("storage")
        if storage is None:
            continue
        operation = storage["operation"]
        request_id = graph.add_node(
            "ObjectStorageRequest",
            f"{operation} {storage['container']}",
            {
                "type": operation,
                "account_url": storage["account_url"],
                "container": storage["container"],
            },
        )
        graph.add_edge(request_id, ref_nodes[call["id"]], "SOURCE")
        if operation in ("create", "append"):
            for arg in _list(call, "arguments"):
                graph.add_edge(ref_nodes[arg], request_id, "DFG")
