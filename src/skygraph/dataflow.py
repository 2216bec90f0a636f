"""Cross-service data-flow resolution.

Four passes run in a fixed order once code facts, inventories and
workflows are in the graph:

1. `create_proxied_endpoints` mirrors application endpoints behind load
   balancers under the balancer's URL.
2. `resolve_http_requests` connects HTTP client requests to matching
   endpoints and splices code-level DFG edges between caller and handler.
3. `resolve_storage_requests` connects storage-SDK requests to the storage
   resources they address.
4. `propagate_log_flows` extends application log output into the
   infrastructure log sinks.

Each pass is idempotent: it inserts through `PropertyGraph.add_edge_once`
and proxies an endpoint once per balancer, so rerunning it leaves the edge
multiset unchanged.
URL matching compares host (without userinfo or port, in any case) and path
(duplicate slashes collapsed); scheme, query and fragment are ignored. An
endpoint with a `url` matches on that and never on a `path`. Endpoints built from
application code carry no host and match on path, for requests whose host
addresses their application or addresses no application at all (see
`resolve_http_requests`).

Matching is bucketed, so each pass is linear in the graph: endpoints are
parsed once per pass into `(host, path)` and path-only buckets, storages
are grouped by container name, and each request looks up its own buckets.
Matches are taken in ascending node id, the order of a full scan, so edge
ids and exports do not depend on the bucketing.
"""

from __future__ import annotations

import logging
import re

from skygraph.errors import AmbiguousStorageError
from skygraph.graph import PropertyGraph

log = logging.getLogger(__name__)


def parse_url(text: str) -> tuple[str, str]:
    """The (host, path) pair that URLs are compared by. The host has any
    userinfo and port stripped and is lowercased, as DNS names are
    case-insensitive; a bracketed IPv6 address gives the address inside the
    brackets. The path has duplicate slashes collapsed. Any scheme, query
    and fragment are dropped."""
    rest = text.split("://", 1)[-1].split("#", 1)[0].split("?", 1)[0]
    host, _, path = rest.partition("/")
    host = host.rpartition("@")[2]
    host = host[1:].partition("]")[0] if host.startswith("[") else host.partition(":")[0]
    return host.lower(), re.sub("/+", "/", "/" + path)


# -- pass 1: proxied endpoints -------------------------------------------------


def _endpoints_of_application(graph: PropertyGraph, app_id: int) -> list[int]:
    return [
        has.to_id
        for offer in graph.out_edges(app_id, "OFFERS", "HttpRequestHandler")
        for has in graph.out_edges(offer.to_id, "HAS_ENDPOINT")
    ]


def _applications_behind(graph: PropertyGraph, balancer_id: int) -> list[int]:
    """Applications running on the compute a load balancer targets."""
    return [
        runs.from_id
        for target in graph.out_edges(balancer_id, "TARGETS")
        for runs in graph.in_edges(target.to_id, "RUNS_ON")
    ]


def create_proxied_endpoints(graph: PropertyGraph) -> int:
    """Mirror each local endpoint of every application running behind a
    load balancer as a ProxiedEndpoint named balancer-url + path; an
    endpoint the balancer already proxies is skipped."""
    created = 0
    for balancer_id in graph.label_candidates("LoadBalancer"):
        balancer = graph.node(balancer_id)
        url = graph.property_value(balancer_id, "url")
        if url is None:
            log.warning("load balancer %r has no url; skipped", balancer.name)
            continue
        seen = {
            proxies.to_id
            for has in graph.out_edges(balancer_id, "HAS_ENDPOINT", "ProxiedEndpoint")
            for proxies in graph.out_edges(has.to_id, "PROXIES")
        }
        for app_id in _applications_behind(graph, balancer_id):
            for endpoint_id in _endpoints_of_application(graph, app_id):
                if endpoint_id in seen:
                    continue
                seen.add(endpoint_id)
                endpoint = graph.node(endpoint_id)
                proxied_url = f"{url}{endpoint.properties['path']}"
                proxied_id = graph.add_node(
                    "ProxiedEndpoint",
                    proxied_url,
                    {"url": proxied_url, "method": endpoint.properties["method"]},
                )
                graph.add_edge(balancer_id, proxied_id, "HAS_ENDPOINT")
                graph.add_edge(proxied_id, endpoint_id, "PROXIES")
                created += 1
    return created


# -- pass 2: HTTP request resolution -------------------------------------------


def _endpoint_buckets(
    graph: PropertyGraph,
) -> tuple[dict[tuple[str, str], list[int]], dict[str, set[int]]]:
    """Endpoints by the `parse_url` pair of their url, and endpoints without
    a url, such as application-local ones, by path alone."""
    by_url: dict[tuple[str, str], list[int]] = {}
    by_path: dict[str, set[int]] = {}
    for endpoint_id in graph.label_candidates("HttpEndpoint"):
        props = graph.node(endpoint_id).properties
        if props.get("url") is not None:
            by_url.setdefault(parse_url(str(props["url"])), []).append(endpoint_id)
        elif props.get("path") is not None:
            by_path.setdefault(re.sub("/+", "/", str(props["path"])), set()).add(endpoint_id)
    return by_url, by_path


def _host_buckets(graph: PropertyGraph) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Applications by lowercased name, and the applications behind each
    load balancer by the host of its url."""
    by_name: dict[str, list[int]] = {}
    for app_id in graph.nodes_with_class("Application"):
        by_name.setdefault(graph.node(app_id).name.lower(), []).append(app_id)
    by_balancer: dict[str, list[int]] = {}
    for balancer_id in graph.label_candidates("LoadBalancer"):
        url = graph.property_value(balancer_id, "url")
        if url is not None:
            apps = by_balancer.setdefault(parse_url(str(url))[0], [])
            apps.extend(_applications_behind(graph, balancer_id))
    return by_name, by_balancer


def _handler_function(graph: PropertyGraph, endpoint_id: int) -> int | None:
    if graph.node(endpoint_id).class_name == "ProxiedEndpoint":
        proxies = graph.out_edges(endpoint_id, "PROXIES")
        if not proxies:
            return None
        endpoint_id = proxies[0].to_id
    calls = graph.out_edges(endpoint_id, "CALLS")
    return calls[0].to_id if calls else None


def resolve_http_requests(graph: PropertyGraph) -> int:
    """Connect each HttpRequest to every endpoint matching its URL and
    method, and splice DFG edges between the calling expression and the
    handler function. Unmatched requests stay in the graph. Returns the
    number of TO edges added.

    A request's host addresses the applications its first DNS label names,
    in any case, failing that those behind the load balancers whose url host it is. Of
    the endpoints without a url, only the addressed applications' match
    on path, or every one when the host addresses neither, which is logged
    as a warning."""
    added = 0
    by_url, by_path = _endpoint_buckets(graph)
    by_name, by_balancer = _host_buckets(graph)
    for request_id in graph.nodes_with_class("HttpRequest"):
        request = graph.node(request_id)
        url_text = str(request.properties.get("url", ""))
        host, path = parse_url(url_text)
        method = str(request.properties.get("method", ""))
        sources = graph.out_edges(request_id, "SOURCE")
        call_id = sources[0].to_id if sources else None
        local = by_path.get(path, set())
        apps = by_name.get(host.split(".", 1)[0]) or by_balancer.get(host)
        if apps is not None:
            local = local.intersection(
                owned for app_id in apps for owned in _endpoints_of_application(graph, app_id)
            )
        elif local:
            log.warning(
                "request to %r: host %r addresses no application or load balancer;"
                " matched on path alone",
                url_text,
                host,
            )
        for endpoint_id in sorted([*by_url.get((host, path), ()), *local]):
            if graph.node(endpoint_id).properties.get("method") not in ("ANY", method):
                continue
            added += graph.add_edge_once(request_id, endpoint_id, "TO")
            handler = _handler_function(graph, endpoint_id)
            if handler is not None and call_id is not None:
                graph.add_edge_once(call_id, handler, "DFG")
                graph.add_edge_once(handler, call_id, "DFG")
    return added


# -- pass 3: storage request resolution ----------------------------------------


def _owning_application(graph: PropertyGraph, request_id: int) -> int | None:
    for source in graph.out_edges(request_id, "SOURCE", "CallExpression"):
        for fn_edge in graph.in_edges(source.to_id, "CONTAINS"):
            for app_edge in graph.in_edges(fn_edge.from_id, "CONTAINS", "Application"):
                return app_edge.from_id
    return None


def resolve_storage_requests(graph: PropertyGraph) -> int:
    """Connect storage requests to the storage whose endpoint host and
    container name they address; anchor each request to the compute its
    application runs on. Returns the number of TO edges added."""
    added = 0
    by_name: dict[str, list[int]] = {}
    for storage_id in graph.label_candidates("ObjectStorage"):
        by_name.setdefault(graph.node(storage_id).name, []).append(storage_id)
    for request_id in graph.nodes_with_class("ObjectStorageRequest"):
        request = graph.node(request_id)
        account_url = request.properties.get("account_url")
        container = request.properties.get("container")
        if account_url is None or container is None:
            continue
        host = parse_url(str(account_url))[0]
        matches = []
        for storage_id in by_name.get(container, []):
            for has in graph.out_edges(storage_id, "HAS_ENDPOINT"):
                endpoint_url = graph.node(has.to_id).properties.get("url")
                if endpoint_url is not None and parse_url(str(endpoint_url))[0] == host:
                    matches.append(storage_id)
                    break
        if len(matches) > 1:
            names = ", ".join(repr(graph.node(m).name) for m in matches)
            raise AmbiguousStorageError(
                f"storage request {request.name!r} matches multiple storages: {names}"
            )
        if not matches:
            continue
        added += graph.add_edge_once(request_id, matches[0], "TO")
        app_id = _owning_application(graph, request_id)
        if app_id is not None:
            for runs in graph.out_edges(app_id, "RUNS_ON"):
                graph.add_edge_once(request_id, runs.to_id, "SOURCE")
    return added


# -- pass 4: log flow propagation ----------------------------------------------


def _log_sinks(graph: PropertyGraph, compute_id: int) -> list[int]:
    sinks = [edge.to_id for edge in graph.out_edges(compute_id, "LOGS_TO")]
    for contains in graph.in_edges(compute_id, "CONTAINS"):
        sinks.extend(edge.to_id for edge in graph.out_edges(contains.from_id, "LOGS_TO"))
    return sinks


def propagate_log_flows(graph: PropertyGraph) -> int:
    """Extend application LogOutput into infrastructure log sinks: the
    compute a logging application runs on flows into every storage that
    it (or its containing cluster) forwards logs to. Returns the number
    of DFG edges added."""
    added = 0
    for app_id in graph.nodes_with_class("Application"):
        log_nodes = [offer.to_id for offer in graph.out_edges(app_id, "OFFERS", "LogOutput")]
        if not log_nodes:
            continue
        for runs in graph.out_edges(app_id, "RUNS_ON"):
            compute_id = runs.to_id
            sinks = _log_sinks(graph, compute_id)
            if not sinks:
                continue
            for log_id in log_nodes:
                added += graph.add_edge_once(log_id, compute_id, "DFG")
            for sink_id in sinks:
                added += graph.add_edge_once(compute_id, sink_id, "DFG")
    return added


# The resolution passes in their required order, by module attribute name:
# a pass is looked up when it runs, so a replaced attribute is what runs.
_PASSES = (
    "create_proxied_endpoints",
    "resolve_http_requests",
    "resolve_storage_requests",
    "propagate_log_flows",
)
