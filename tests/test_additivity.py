"""Tenant additivity: on a fleet of disjoint tenants, each query finds the
sum of what it finds in each tenant, whatever order the manifest lists the
tenants' files in.

This is a metamorphic relation in the sense of Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities" (ACM CSUR 2018): the
per-tenant counts of `bench/expected.py` are the only oracle, and the
fleets of `bench/fleet.py` vary the tenant count, seed, path mode and
template mix. On shared paths it fails unless a request reaches only the
application its host addresses.

A fleet's build is additive too: its nodes per class and edges per type
are those of one-tenant builds of each tenant's template, summed, less the
registry that the tenants of one template share.
"""

from __future__ import annotations

import dataclasses
import importlib
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest
from skygraph.query import evaluate, parse_query

from .conftest import DATA

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHUFFLED = ("codefacts", "inventories", "workflows")


@pytest.fixture(scope="module")
def bench():
    """The `fleet` and `expected` modules of the benchmark."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("fleet"), importlib.import_module("expected")


def counts(manifest, queries):
    """Results per query, and nodes and edges per type, of a build."""
    graph, _, report = build_graph(manifest)
    found = {name: len(evaluate(graph, parse_query(text))) for name, text in queries.items()}
    return found, report.node_counts, report.edge_counts


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    paths=st.sampled_from(["unique", "shared"]),
    templates=st.sampled_from([("bookinfo",), ("bookinfo_clean",), ("bookinfo", "bookinfo_clean")]),
    rng=st.randoms(use_true_random=False),
)
def test_fleet_finds_the_sum_of_its_tenants(bench, n, seed, paths, templates, rng):
    fleet, expected = bench
    queries = expected.query_texts(Path(str(DATA)))
    with tempfile.TemporaryDirectory() as tmp:
        made = fleet.generate(Path(str(DATA)), Path(tmp) / "fleet", n, seed, paths, templates)
        manifest = load_manifest(made.manifest)
        lists = {key: getattr(manifest, key) for key in SHUFFLED}
        shuffled = dataclasses.replace(
            manifest, **{key: rng.sample(files, len(files)) for key, files in lists.items()}
        )
        built, rebuilt = counts(manifest, queries), counts(shuffled, queries)
    kinds = [tenant.template for tenant in made.tenants]
    assert built[0] == {name: expected.expected_count(name, kinds) for name in queries}
    assert rebuilt == built


def build_counts(fleet, n, seed, paths, templates):
    """The tenants, and nodes per class and edges per type, of a fleet build."""
    with tempfile.TemporaryDirectory() as tmp:
        made = fleet.generate(Path(str(DATA)), Path(tmp) / "fleet", n, seed, paths, templates)
        _, _, report = build_graph(load_manifest(made.manifest))
    return made.tenants, Counter(report.node_counts), Counter(report.edge_counts)


@pytest.mark.parametrize("paths", ["unique", "shared"])
@pytest.mark.parametrize("templates", [("bookinfo",), ("bookinfo", "bookinfo_clean")], ids="+".join)
def test_fleet_builds_the_sum_of_its_tenants(bench, paths, templates):
    # the tenants of one template share its registry: one ContainerRegistry
    # node, its GeoLocation node and the GEO_LOCATION edge between them
    fleet, _ = bench
    alone = {t: build_counts(fleet, 1, 0, paths, (t,))[1:] for t in templates}
    for n in (2, 4, 6):
        tenants, nodes, edges = build_counts(fleet, n, n, paths, templates)
        kinds = [tenant.template for tenant in tenants]
        shared = n - len(set(kinds))
        want_nodes, want_edges = Counter(), Counter()
        for kind in kinds:
            want_nodes.update(alone[kind][0])
            want_edges.update(alone[kind][1])
        want_nodes.subtract({"ContainerRegistry": shared, "GeoLocation": shared})
        want_edges.subtract({"GEO_LOCATION": shared})
        assert (nodes, edges) == (want_nodes, want_edges)
