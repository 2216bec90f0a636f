"""Per-application code-fact bundles and the passes that lower them into
code nodes, intra-application data-flow edges, and framework functionality
nodes (HTTP endpoints, HTTP client requests, storage requests, log output).

Bundles are a language-independent stand-in for source-code frontends: an
upstream extractor is assumed to have reduced framework annotations and SDK
call chains to `http_handler`, `http_client` and `storage_sdk` facts.

Expression references are strings scoped to one bundle and resolve to:

* a call id,
* `<function>.<parameter>` for a declared parameter,
* `<function>.return` for a function's return value,
* a literal id declared on a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class HttpHandlerFact:
    path: str
    method: str


@dataclass(frozen=True)
class LiteralFact:
    id: str
    value: Scalar


@dataclass
class FunctionFact:
    qualified_name: str
    parameters: list[str] = field(default_factory=list)
    http_handler: HttpHandlerFact | None = None
    handler_class: str | None = None
    log_calls: list[str] = field(default_factory=list)
    literals: list[LiteralFact] = field(default_factory=list)


@dataclass(frozen=True)
class HttpCallFact:
    url: str
    method: str


@dataclass(frozen=True)
class StorageCallFact:
    account_url: str
    container: str
    operation: str


@dataclass
class CallFact:
    id: str
    inside: str
    kind: str
    http: HttpCallFact | None = None
    storage: StorageCallFact | None = None
    arguments: list[str] = field(default_factory=list)


@dataclass
class CodeFactsBundle:
    application: str
    language: str = ""
    image: str | None = None
    host: str | None = None
    functions: list[FunctionFact] = field(default_factory=list)
    calls: list[CallFact] = field(default_factory=list)
    dfg: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        seen_functions: set[str] = set()
        for fn in self.functions:
            if fn.qualified_name in seen_functions:
                raise CodeFactsError(
                    f"duplicate function {fn.qualified_name!r} "
                    f"in bundle {self.application!r}"
                )
            seen_functions.add(fn.qualified_name)
            if fn.http_handler is not None:
                if not fn.http_handler.path.startswith("/"):
                    raise CodeFactsError(
                        f"handler path {fn.http_handler.path!r} must begin with '/'"
                    )
                if fn.http_handler.method not in HTTP_METHODS:
                    raise CodeFactsError(
                        f"unknown HTTP method {fn.http_handler.method!r}"
                    )
        for call in self.calls:
            if call.kind not in CALL_KINDS:
                raise CodeFactsError(f"unknown call kind {call.kind!r}")
            if (call.http is not None) != (call.kind == "http_client"):
                raise CodeFactsError(
                    f"call {call.id!r}: http details present iff kind is http_client"
                )
            if (call.storage is not None) != (call.kind == "storage_sdk"):
                raise CodeFactsError(
                    f"call {call.id!r}: storage details present iff kind is storage_sdk"
                )
            if call.http is not None and call.http.method not in HTTP_METHODS:
                raise CodeFactsError(f"unknown HTTP method {call.http.method!r}")
            if call.storage is not None and call.storage.operation not in STORAGE_OPERATIONS:
                raise CodeFactsError(
                    f"unknown storage operation {call.storage.operation!r}"
                )
            if call.inside not in seen_functions:
                raise CodeFactsError(
                    f"call {call.id!r} declared inside unknown function {call.inside!r}"
                )
        refs = self.expression_refs()
        for call in self.calls:
            for arg in call.arguments:
                if arg not in refs:
                    raise CodeFactsError(
                        f"call {call.id!r} argument {arg!r} does not resolve"
                    )
        for fn in self.functions:
            for ref in fn.log_calls:
                if ref not in refs:
                    raise CodeFactsError(
                        f"log call ref {ref!r} in {fn.qualified_name!r} does not resolve"
                    )
        for src, dst in self.dfg:
            for ref in (src, dst):
                if ref not in refs:
                    raise CodeFactsError(f"dfg ref {ref!r} does not resolve")

    def expression_refs(self) -> dict[str, tuple]:
        """All resolvable expression refs, keyed by ref string.

        Values are ("call", CallFact), ("param", function, name),
        ("return", function) or ("literal", function, LiteralFact).
        """
        refs: dict[str, tuple] = {}

        def put(ref: str, value: tuple) -> None:
            if ref in refs:
                raise CodeFactsError(f"expression ref {ref!r} declared twice")
            refs[ref] = value

        for call in self.calls:
            put(call.id, ("call", call))
        for fn in self.functions:
            for param in fn.parameters:
                put(f"{fn.qualified_name}.{param}", ("param", fn, param))
            put(f"{fn.qualified_name}.return", ("return", fn))
            for lit in fn.literals:
                put(lit.id, ("literal", fn, lit))
        return refs


# -- bundle loading ---------------------------------------------------------


def _fact(cls, entry: dict, key: str, where: str, fields: tuple):
    """A `cls` from `entry[key]`, a mapping of exactly `fields`; None when absent."""
    raw = entry.get(key)
    if raw is None:
        return None
    return cls(**check_fields(raw, f"{key} {where}", CodeFactsError, *fields))


def bundle_from_document(doc: dict) -> CodeFactsBundle:
    check_fields(doc, "bundle", CodeFactsError, *_BUNDLE)
    functions = []
    for entry in doc.get("functions") or []:
        check_fields(entry, "function entry", CodeFactsError, *_FUNCTION)
        where = f"of function {entry['name']!r}"
        functions.append(
            FunctionFact(
                qualified_name=entry["name"],
                parameters=list(entry.get("parameters") or []),
                http_handler=_fact(HttpHandlerFact, entry, "http_handler", where, _HANDLER),
                handler_class=entry.get("handler_class"),
                log_calls=list(entry.get("log_calls") or []),
                literals=[
                    LiteralFact(**check_fields(lit, f"literal {where}", CodeFactsError, *_LITERAL))
                    for lit in entry.get("literals") or []
                ],
            )
        )
    calls = []
    for entry in doc.get("calls") or []:
        check_fields(entry, "call entry", CodeFactsError, *_CALL)
        where = f"of call {entry['id']!r}"
        calls.append(
            CallFact(
                id=entry["id"],
                inside=entry["inside"],
                kind=entry.get("kind", "plain"),
                http=_fact(HttpCallFact, entry, "http", where, _HTTP),
                storage=_fact(StorageCallFact, entry, "storage", where, _STORAGE),
                arguments=list(entry.get("arguments") or []),
            )
        )
    dfg = []
    for pair in doc.get("dfg") or []:
        check_fields(pair, "dfg pair", CodeFactsError, *_DFG)
        dfg.append((pair["from"], pair["to"]))
    return CodeFactsBundle(
        application=doc["application"],
        language=doc.get("language", ""),
        image=doc.get("image"),
        host=doc.get("host"),
        functions=functions,
        calls=calls,
        dfg=dfg,
    )


def load_code_facts(path: str | Path) -> CodeFactsBundle:
    return load_document(path, CodeFactsError, bundle_from_document)


# -- graph construction ------------------------------------------------------


def ingest_code_facts(graph: PropertyGraph, bundle: CodeFactsBundle) -> int:
    """Create the Application node, its declarations, calls, referenced
    expressions and intra-application DFG edges, then its framework nodes
    (HTTP endpoints, HTTP requests, storage requests). Returns the node id
    of the Application."""
    app_props: dict[str, Scalar] = {}
    if bundle.language:
        app_props["language"] = bundle.language
    if bundle.image is not None:
        app_props["image"] = bundle.image
    if bundle.host is not None:
        app_props["host"] = bundle.host
    app_id = graph.add_node("Application", bundle.application, app_props)

    fn_nodes: dict[str, int] = {}
    for fn in bundle.functions:
        props: dict[str, Scalar] = {}
        if fn.http_handler is not None:
            props["handler_path"] = fn.http_handler.path
            props["handler_method"] = fn.http_handler.method
        if fn.handler_class is not None:
            props["handler_class"] = fn.handler_class
        fn_id = graph.add_node("FunctionDeclaration", fn.qualified_name, props)
        graph.add_edge(app_id, fn_id, "CONTAINS")
        fn_nodes[fn.qualified_name] = fn_id

    refs = bundle.expression_refs()
    ref_nodes: dict[str, int] = {}
    for call in bundle.calls:
        props = {"kind": call.kind}
        if call.http is not None:
            props["url"] = call.http.url
            props["method"] = call.http.method
        if call.storage is not None:
            props["account_url"] = call.storage.account_url
            props["container"] = call.storage.container
            props["operation"] = call.storage.operation
        call_id = graph.add_node("CallExpression", call.id, props)
        graph.add_edge(fn_nodes[call.inside], call_id, "CONTAINS")
        ref_nodes[call.id] = call_id

    def node_for_ref(ref: str) -> int:
        if ref in ref_nodes:
            return ref_nodes[ref]
        entry = refs[ref]
        fn = entry[1]
        if entry[0] == "literal":
            lit = entry[2]
            node_id = graph.add_node("Literal", str(lit.value), {"value": lit.value})
        else:  # parameter or return value
            node_id = graph.add_node("Expression", ref)
        graph.add_edge(fn_nodes[fn.qualified_name], node_id, "CONTAINS")
        ref_nodes[ref] = node_id
        return node_id

    # materialize every referenced expression before wiring flows
    for call in bundle.calls:
        if call.arguments:
            arg_ids = [node_for_ref(arg) for arg in call.arguments]
            # kept only for the export format: argument nodes get their ids
            # after every CallExpression, and nothing reads this back
            graph.node(ref_nodes[call.id]).properties["argument_nodes"] = ",".join(
                str(i) for i in arg_ids
            )
    for src, dst in bundle.dfg:
        node_for_ref(src)
        node_for_ref(dst)
    for fn in bundle.functions:
        for ref in fn.log_calls:
            node_for_ref(ref)

    for src, dst in bundle.dfg:
        graph.add_edge(ref_nodes[src], ref_nodes[dst], "DFG")

    log_node: int | None = None
    for fn in bundle.functions:
        for ref in fn.log_calls:
            if log_node is None:
                log_node = graph.add_node("LogOutput", f"{bundle.application}-logs")
                graph.add_edge(app_id, log_node, "OFFERS")
            graph.add_edge(ref_nodes[ref], log_node, "DFG")

    build_http_server_nodes(graph, bundle, app_id, fn_nodes)
    # requests are created call by call, grouped by enclosing function in
    # declaration order (function ids rise in that order); the sort is
    # stable, so calls keep their bundle order within a function
    calls = sorted(bundle.calls, key=lambda call: fn_nodes[call.inside])
    build_http_client_nodes(graph, calls, app_id, ref_nodes)
    build_storage_request_nodes(graph, calls, ref_nodes)
    return app_id


def build_http_server_nodes(
    graph: PropertyGraph, bundle: CodeFactsBundle, app_id: int, fn_nodes: dict[str, int]
) -> None:
    """Create HttpRequestHandler and HttpEndpoint nodes for framework
    handler functions.

    Functions without a controller class share one per-application
    handler node.
    """
    handlers: dict[str | None, int] = {}
    for fn in bundle.functions:
        if fn.http_handler is None:
            continue
        group = fn.handler_class
        if group not in handlers:
            handler_name = group if group is not None else f"{bundle.application}-handlers"
            handler_id = graph.add_node("HttpRequestHandler", handler_name)
            graph.add_edge(app_id, handler_id, "OFFERS")
            handlers[group] = handler_id
        path = fn.http_handler.path
        endpoint_id = graph.add_node(
            "HttpEndpoint", path, {"path": path, "method": fn.http_handler.method}
        )
        graph.add_edge(handlers[group], endpoint_id, "HAS_ENDPOINT")
        graph.add_edge(endpoint_id, fn_nodes[fn.qualified_name], "CALLS")


def build_http_client_nodes(
    graph: PropertyGraph, calls: list[CallFact], app_id: int, ref_nodes: dict[str, int]
) -> None:
    """Create one HttpRequest node per http_client call."""
    for call in calls:
        if call.http is None:
            continue
        request_id = graph.add_node(
            "HttpRequest", call.http.url, {"url": call.http.url, "method": call.http.method}
        )
        graph.add_edge(request_id, ref_nodes[call.id], "SOURCE")
        graph.add_edge(app_id, request_id, "OFFERS")


def build_storage_request_nodes(
    graph: PropertyGraph, calls: list[CallFact], ref_nodes: dict[str, int]
) -> None:
    """Create one ObjectStorageRequest node per storage_sdk call.

    Write operations (create/append) get DFG edges from their argument
    expressions; connection to the actual storage resource is left to the
    data-flow resolution passes.
    """
    for call in calls:
        storage = call.storage
        if storage is None:
            continue
        request_id = graph.add_node(
            "ObjectStorageRequest",
            f"{storage.operation} {storage.container}",
            {
                "type": storage.operation,
                "account_url": storage.account_url,
                "container": storage.container,
            },
        )
        graph.add_edge(request_id, ref_nodes[call.id], "SOURCE")
        if storage.operation in ("create", "append"):
            for arg in call.arguments:
                graph.add_edge(ref_nodes[arg], request_id, "DFG")
