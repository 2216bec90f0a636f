"""Query results pinned byte for byte.

For each graph, the ordered `evaluate` output (bindings, path node ids,
edge ids, forward flags) and the `explain` text of the nine benchmark
queries, at two `star_max` bounds, hash to a pinned sha256. A change to
the engine or to graph adjacency that is meant to keep results must keep
these digests; one that changes results on purpose updates them and says
why.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from skygraph.build import build_graph, load_manifest
from skygraph.query import evaluate, explain, parse_query

from .conftest import DATA, data_path, listing_text

BENCH = Path(__file__).resolve().parent.parent / "bench"

# graph -> (tenants, seed, path mode) of a `bench/fleet.py` fleet, or None
# for the bundled fixture of that name
GRAPHS = {
    "bookinfo": None,
    "bookinfo_clean": None,
    "fleet-8-shared-4": (8, 4, "shared"),
    "fleet-20-unique-9": (20, 9, "unique"),
}

RESULTS_SHA256 = {
    "bookinfo": "5abd720f0183b67e3a0bdfea65e6280f013859f295c53d6108a5f4532c8c8587",
    "bookinfo_clean": "4a25c6595a5974029acafc4a374bcf2cafefb201be28af7ba2187bfd5cd3bc0e",
    "fleet-20-unique-9": "da6595f0561cbee92fb677576b64a8f08bb414156f7e5cc3b19597b087abdc72",
    "fleet-8-shared-4": "9d4b15d0803edacb54c7c0f681e69aed114d61e06db04fe28cbfdf3f78e0bfcc",
}


def results_text(graph, queries: dict[str, str]) -> str:
    lines = []
    for name, text in queries.items():
        ast = parse_query(text)
        for star_max in (10, 3):
            lines.append(f"== {name} star_max={star_max}")
            lines.append(explain(graph, ast, star_max))
            for result in evaluate(graph, ast, star_max):
                path = result.path
                shape = None if path is None else (path.node_ids, path.edge_ids, path.forward)
                lines.append(f"{list(result.bindings.items())} {shape}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_results_match_pinned_digest(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    expected = importlib.import_module("expected")
    fleet = importlib.import_module("fleet")
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    if GRAPHS[name] is None:
        manifest = data_path(f"fixtures/{name}/manifest.yaml")
    else:
        tenants, seed, paths = GRAPHS[name]
        manifest = fleet.generate(Path(str(DATA)), tmp_path / name, tenants, seed, paths).manifest
    graph = build_graph(load_manifest(manifest))[0]
    digest = hashlib.sha256(results_text(graph, queries).encode("utf-8")).hexdigest()
    assert digest == RESULTS_SHA256[name]
