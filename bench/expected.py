"""Queries the benchmark runs and the result count each gives per tenant.

The bundled queries ship with skygraph; the others are owned by the
benchmark. Counts are per tenant of each template and were worked out by
hand from the fixture files; on a fleet of disjoint tenants a query must
return the sum over tenants.
"""

from __future__ import annotations

from pathlib import Path

BUNDLED = (
    "public-storage-writes",
    "expression-to-public-storage",
    "weak-transport-encryption",
    "cross-region-resource-flows",
    "cross-region-service-calls",
)

OWNED = {
    "public-object-storage": "MATCH (s:ObjectStorage) WHERE s.public_access = true RETURN s",
    "application-storage-3hop": "MATCH p=(a:Application)-[*3]-(s:Storage) RETURN p",
    "registry-pulls": (
        "MATCH p=(r:ContainerRegistry)-[:DFG]->(c:Compute)<-[:RUNS_ON]-(a:Application) RETURN p"
    ),
    "request-to-handler": (
        "MATCH p=(c:CallExpression)<-[:SOURCE]-(r:HttpRequest)-[:TO]->"
        "(e:HttpEndpoint)-[:CALLS]->(f:FunctionDeclaration) RETURN p"
    ),
}

# bookinfo:
#   public-storage-writes 1: kubernetes-logs-append into am-containerlog.
#   expression-to-public-storage 2: request_values and login_message flow
#     through the productpage log into the public container.
#   weak-transport-encryption 2: the TLS 1.1 storage endpoint, whose two
#     other neighbours (the storage node and its NoAuthentication feature)
#     each bind `n`.
#   cross-region-resource-flows 6: ghcr.io (us) feeds three westeurope
#     pods; each pull matches in both orientations.
#   cross-region-service-calls 4: the calls reviews -> ratings (us VM) and
#     ratings -> productpage /login, each reaching the callee application
#     in two hops through its handler node and through its function.
#   public-object-storage 1: am-containerlog.
#   application-storage-3hop 8: for each of the three pod applications,
#     app-pod-cluster-container and app-pod-image-registry (6), plus
#     productpage's log output via its pod into the container and to the
#     registry (2).
#   registry-pulls 3: one per pod application.
#   request-to-handler 4: reviews, details and ratings requests reach one
#     handler each; the login request reaches the login handler.
# bookinfo_clean: no findings; ratings runs as a fourth pod, so
#   application-storage-3hop is 4 * 2 + 2 = 10 and registry-pulls is 4;
#   request-to-handler is again 4.
EXPECTED = {
    "bookinfo": {
        "public-storage-writes": 1,
        "expression-to-public-storage": 2,
        "weak-transport-encryption": 2,
        "cross-region-resource-flows": 6,
        "cross-region-service-calls": 4,
        "public-object-storage": 1,
        "application-storage-3hop": 8,
        "registry-pulls": 3,
        "request-to-handler": 4,
    },
    "bookinfo_clean": {
        "public-storage-writes": 0,
        "expression-to-public-storage": 0,
        "weak-transport-encryption": 0,
        "cross-region-resource-flows": 0,
        "cross-region-service-calls": 0,
        "public-object-storage": 0,
        "application-storage-3hop": 10,
        "registry-pulls": 4,
        "request-to-handler": 4,
    },
}


def query_texts(data: Path) -> dict[str, str]:
    """Every query by name: the bundled files under `data` and the owned ones."""
    texts = {
        name: (data / "queries" / f"{name}.cypher").read_text(encoding="utf-8")
        for name in BUNDLED
    }
    texts.update(OWNED)
    return texts


def expected_count(query: str, templates: list[str]) -> int:
    """Results `query` should return on a fleet with these tenant templates."""
    return sum(EXPECTED[template][query] for template in templates)
