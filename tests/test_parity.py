"""Query results pinned byte for byte.

For each graph, the ordered `evaluate` output (bindings, path node ids,
edge ids, forward flags) of the nine benchmark queries, at two `star_max`
bounds, hashes to a pinned sha256, and so does their `explain` text. A
change to the engine or to graph adjacency that is meant to keep results
must keep the results digests; one that changes results on purpose
updates them and says why. The plan texts are pinned apart, so a change
to how a plan is described leaves the results digests as they are. The
`skygraph build` export of each fleet is pinned the same way.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from skygraph.build import build_graph, load_manifest
from skygraph.cli import main
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
    "bookinfo": "87f711bddf560a0ebea4b1229356575ff711f6db8346c1a92d2160d777d44050",
    "bookinfo_clean": "f95e50a9c72d8251d97a4e3200a34665eea9a3597f12de1db4579db5861b6648",
    "fleet-20-unique-9": "79311f6b22ad4100494e8682b49ec217cd3eeed8a80553fb7e1897a4c55edf59",
    "fleet-8-shared-4": "afafc2c0a3dfc16200eb7f62d6d12e7e3a9436ad0a2784d55c4de92a4b0e8db4",
}

EXPLAIN_SHA256 = {
    "bookinfo": "528750578dae0707af13719bff82d6a799226b6b73a25b20cf1e10e605e19dd2",
    "bookinfo_clean": "ca101593331d5a67ea8f00dbef53415ee0fc65901d3bf0bdab61deb1d69df5bf",
    "fleet-20-unique-9": "fe2a98027267b032bd6a4bc3d5365f1252f1f655eb6f0934be67d3fa5f2a5877",
    "fleet-8-shared-4": "ae3c011db27c53be4c542248785d9340fa3b3314a18a222c1a4cec7e4efef2c3",
}

# sha256 of each fleet's export as `skygraph build` writes it
EXPORT_SHA256 = {
    "fleet-20-unique-9": "9be90b96c1cabb698d9d932481215e300c28f8f363816e03ad5b832476a3fae1",
    "fleet-8-shared-4": "73171317c08f30226358070f390df0e2e1e5a63e196142a19630e20cbc54f4b9",
}


def fleet_manifest(name, tmp_path, monkeypatch) -> Path:
    monkeypatch.syspath_prepend(str(BENCH))
    fleet = importlib.import_module("fleet")
    tenants, seed, paths = GRAPHS[name]
    return fleet.generate(Path(str(DATA)), tmp_path / name, tenants, seed, paths).manifest


def results_text(graph, queries: dict[str, str]) -> str:
    lines = []
    for name, text in queries.items():
        ast = parse_query(text)
        for star_max in (10, 3):
            lines.append(f"== {name} star_max={star_max}")
            for result in evaluate(graph, ast, star_max):
                path = result.path
                shape = None if path is None else (path.node_ids, path.edge_ids, path.forward)
                lines.append(f"{list(result.bindings.items())} {shape}")
    return "\n".join(lines) + "\n"


def explain_text(graph, queries: dict[str, str]) -> str:
    lines = []
    for name, text in queries.items():
        ast = parse_query(text)
        for star_max in (10, 3):
            lines.append(f"== {name} star_max={star_max}")
            lines.append(explain(graph, ast, star_max))
    return "\n".join(lines) + "\n"


def benchmark_graph(name, tmp_path, monkeypatch):
    """The graph `name` and the nine benchmark queries by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    expected = importlib.import_module("expected")
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    if GRAPHS[name] is None:
        manifest = data_path(f"fixtures/{name}/manifest.yaml")
    else:
        manifest = fleet_manifest(name, tmp_path, monkeypatch)
    return build_graph(load_manifest(manifest))[0], queries


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_results_match_pinned_digest(name, tmp_path, monkeypatch):
    graph, queries = benchmark_graph(name, tmp_path, monkeypatch)
    digest = hashlib.sha256(results_text(graph, queries).encode("utf-8")).hexdigest()
    assert digest == RESULTS_SHA256[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_plans_match_pinned_digest(name, tmp_path, monkeypatch):
    graph, queries = benchmark_graph(name, tmp_path, monkeypatch)
    digest = hashlib.sha256(explain_text(graph, queries).encode("utf-8")).hexdigest()
    assert digest == EXPLAIN_SHA256[name]


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_fleet_export_matches_pinned_digest(name, tmp_path, monkeypatch):
    out = tmp_path / "graph.json"
    assert main(["build", str(fleet_manifest(name, tmp_path, monkeypatch)), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[name]
