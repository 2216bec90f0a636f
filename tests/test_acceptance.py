"""Acceptance gate: weakness-detection parity on the bundled testbed,
oracle equivalence of query evaluation, ontology properties, round-trips,
desk-scale performance budgets, and pass idempotency.

Each criterion prints one ACCEPTANCE pass/fail line (run with -s or read
the captured output).
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from skygraph import codefacts, dataflow
from skygraph.build import build_graph, load_manifest
from skygraph.discovery import Discovery, load_inventory, load_workflow
from skygraph.graph import PropertyGraph, export_graph, import_graph
from skygraph.ontology import ontology_from_documents
from skygraph.query import evaluate, parse_query

from .conftest import LISTING_FILES, data_path, listing_text
from .reference import (
    naive_matches,
    oracle_paths,
    random_graph,
    random_query,
    result_paths,
    small_ontology_documents,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def run_listing(graph, name, star_max=10):
    return evaluate(graph, parse_query(listing_text(name)), star_max=star_max)


def names(graph, result, *variables):
    return tuple(graph.node(result.bindings[v]).name for v in variables)


class TestCriterion1WeaknessDetection:
    def test_weakness_detection_parity(self, testbed_graph, clean_testbed):
        g = testbed_graph
        clean_graph = clean_testbed[0]
        with criterion("1 weakness-detection parity"):
            # storage write paths into the public container
            results = run_listing(g, "public-storage-writes")
            assert {names(g, r, "r1", "rq", "r2") for r in results} == {
                ("kubernetes-logs", "kubernetes-logs-append", "am-containerlog")
            }
            assert len(results) == 1

            # expression-level flows into the public container; the login
            # request-values expression must be among the sources
            results = run_listing(g, "expression-to-public-storage")
            assert {names(g, r, "e", "s") for r in results} == {
                ("request_values", "am-containerlog"),
                ("login_message", "am-containerlog"),
            }
            assert len(results) == 2

            # exactly the TLS 1.1 endpoint is flagged
            results = run_listing(g, "weak-transport-encryption")
            endpoints = {g.node(r.bindings["h"]).name for r in results}
            assert endpoints == {"https://amlogs.blob.example.com/am-containerlog"}
            for r in results:
                te = g.node(r.bindings["te"])
                assert te.properties["tlsVersion"] == "TLS1_1"
            assert {g.node(r.bindings["n"]).name for r in results} == {
                "am-containerlog",
                "NoAuthentication",
            }
            assert len(results) == 2

            # registry (us) to cluster containers (europe), both orientations
            results = run_listing(g, "cross-region-resource-flows")
            assert len(results) == 6
            containers = {"productpage-v1", "details-v1", "reviews-v1"}
            for r in results:
                regions = {
                    g.node(r.bindings["l1"]).properties["region"],
                    g.node(r.bindings["l2"]).properties["region"],
                }
                assert regions == {"us", "westeurope"}
                path_names = {g.node(n).name for n in r.path.node_ids}
                assert "ghcr.io" in path_names
                assert path_names & containers

            # service calls crossing the us/europe boundary via the ratings VM
            results = run_listing(g, "cross-region-service-calls")
            assert len(results) == 4
            assert Counter(names(g, r, "l1", "r", "e", "l2") for r in results) == Counter(
                {
                    (
                        "us-east-1",
                        "https://example.io/login",
                        "/login",
                        "westeurope",
                    ): 2,
                    (
                        "westeurope",
                        "http://ratings.aws.example.com:9080/ratings",
                        "/ratings",
                        "us-east-1",
                    ): 2,
                }
            )
            for r in results:
                path_names = {g.node(n).name for n in r.path.node_ids}
                assert "ratings-vm" in path_names or "us-east-1" in path_names

            # the clean deployment triggers nothing
            for name in LISTING_FILES:
                assert run_listing(clean_graph, name) == [], name


class TestCriterion2OracleEquivalence:
    def test_oracle_equivalence(self, testbed_graph):
        with criterion("2 oracle equivalence"):
            start = time.perf_counter()
            ontology = ontology_from_documents(*small_ontology_documents())
            rng = random.Random(0x5EED)
            graphs = 0
            for case in range(210):
                graph = random_graph(rng, ontology, max_nodes=12)
                graphs += 1
                for _ in range(2):
                    text = random_query(rng, max_nodes=3)
                    ast = parse_query(text)
                    results = evaluate(graph, ast, star_max=4)
                    oracle = oracle_paths(graph, ast, star_max=4)
                    assert result_paths(results) == oracle, (case, text)
                    if case % 5 == 0:
                        engine = {frozenset(r.bindings.items()) for r in results}
                        assert engine == naive_matches(graph, ast, star_max=4), (case, text)
                text = random_query(rng, max_nodes=4)
                ast = parse_query(text)
                results = evaluate(graph, ast, star_max=4)
                assert result_paths(results) == oracle_paths(graph, ast, star_max=4), (case, text)
            assert graphs >= 200

            for name in LISTING_FILES:
                ast = parse_query(listing_text(name))
                results = evaluate(testbed_graph, ast)
                assert result_paths(results) == oracle_paths(testbed_graph, ast), name
            elapsed = time.perf_counter() - start
            assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"


class TestCriterion3OntologyProperties:
    def test_ontology_properties(self, core_ontology):
        with criterion("3 ontology properties"):
            start = time.perf_counter()
            names_all = list(core_ontology.classes)
            subclass = {
                (a, b)
                for a in names_all
                for b in names_all
                if core_ontology.is_subclass(a, b)
            }
            for a, b in subclass:
                for c in names_all:
                    if (b, c) in subclass:
                        assert (a, c) in subclass
            for name, cls in core_ontology.classes.items():
                if cls.get("parent") is not None:
                    assert set(core_ontology.offered_features(name)) >= set(
                        core_ontology.offered_features(cls["parent"])
                    )
            assert time.perf_counter() - start < 1.0


class TestCriterion4RoundTrips:
    def test_round_trips(self, testbed_graph, tmp_path):
        with criterion("4 round-trips"):
            restored = import_graph(export_graph(testbed_graph))
            for name in LISTING_FILES:
                ast = parse_query(listing_text(name))
                before = [r.bindings for r in evaluate(testbed_graph, ast)]
                after = [r.bindings for r in evaluate(restored, ast)]
                assert before == after, name

            manifest = load_manifest(data_path("fixtures/bookinfo/manifest.yaml"))
            first, _, _ = build_graph(manifest)
            second, _, _ = build_graph(manifest)
            assert export_graph(first) == export_graph(second)


class TestCriterion5Performance:
    def test_performance_budgets(self, testbed_graph):
        with criterion("5 performance budgets"):
            manifest = load_manifest(data_path("fixtures/bookinfo/manifest.yaml"))
            start = time.perf_counter()
            build_graph(manifest)
            build_seconds = time.perf_counter() - start
            assert build_seconds < 2.0, f"build took {build_seconds:.2f}s"

            for name in LISTING_FILES:
                ast = parse_query(listing_text(name))
                best = min(
                    self._timed(lambda: evaluate(testbed_graph, ast)) for _ in range(3)
                )
                assert best < 0.050, f"{name} took {best * 1000:.1f} ms"

    @staticmethod
    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


class TestCriterion6PassIdempotency:
    def test_pass_idempotency(self):
        with criterion("6 pass idempotency"):
            manifest = load_manifest(data_path("fixtures/bookinfo/manifest.yaml"))
            from skygraph.ontology import load_ontology

            ontology = load_ontology(manifest.ontology, manifest.mappings)
            graph = PropertyGraph(ontology)
            for path in manifest.codefacts:
                codefacts.ingest_code_facts(graph, codefacts.load_code_facts(path))
            discovery = Discovery(graph, manifest.registry_locations)
            for path in manifest.inventories:
                discovery.ingest_inventory(load_inventory(path))
            discovery.resolve_inventory_links()
            for path in manifest.workflows:
                discovery.ingest_workflow(load_workflow(path))
            discovery.link_applications()

            passes = [
                dataflow.create_proxied_endpoints,
                dataflow.resolve_http_requests,
                dataflow.resolve_storage_requests,
                dataflow.propagate_log_flows,
            ]
            for run_pass in passes:
                run_pass(graph)
            for run_pass in passes:
                before = Counter((e.type, e.from_id, e.to_id) for e in graph.edges())
                nodes_before = graph.node_count
                added = run_pass(graph)
                after = Counter((e.type, e.from_id, e.to_id) for e in graph.edges())
                assert added == 0, run_pass.__name__
                assert after == before, run_pass.__name__
                assert graph.node_count == nodes_before, run_pass.__name__
