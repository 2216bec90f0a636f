"""Query results pinned byte for byte.

For each graph, the ordered `evaluate` output (bindings, path node ids,
edge ids, forward flags) and the `explain` text of the nine benchmark
queries, at two `star_max` bounds, hash to a pinned sha256. A change to
the engine or to graph adjacency that is meant to keep results must keep
these digests; one that changes results on purpose updates them and says
why. The `skygraph build` export of each fleet is pinned the same way.
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
    "bookinfo": "5abd720f0183b67e3a0bdfea65e6280f013859f295c53d6108a5f4532c8c8587",
    "bookinfo_clean": "4a25c6595a5974029acafc4a374bcf2cafefb201be28af7ba2187bfd5cd3bc0e",
    "fleet-20-unique-9": "da6595f0561cbee92fb677576b64a8f08bb414156f7e5cc3b19597b087abdc72",
    "fleet-8-shared-4": "c3775c7647554dec5154eda9b4c7e46e3c46fb9447dcdd52c21d5e437211bb59",
}

# sha256 of each fleet's export as `skygraph build` writes it
EXPORT_SHA256 = {
    "fleet-20-unique-9": "3979a942a0fcbe21a6c31f74ad1b9d65c100b15cccbc14516aca2571c6b2cc1d",
    "fleet-8-shared-4": "12bec9b3cd17a70409017afa2575877f07e60f88a7bf85d543c0951f7452aafd",
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
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    if GRAPHS[name] is None:
        manifest = data_path(f"fixtures/{name}/manifest.yaml")
    else:
        manifest = fleet_manifest(name, tmp_path, monkeypatch)
    graph = build_graph(load_manifest(manifest))[0]
    digest = hashlib.sha256(results_text(graph, queries).encode("utf-8")).hexdigest()
    assert digest == RESULTS_SHA256[name]


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_fleet_export_matches_pinned_digest(name, tmp_path, monkeypatch):
    out = tmp_path / "graph.json"
    assert main(["build", str(fleet_manifest(name, tmp_path, monkeypatch)), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[name]
