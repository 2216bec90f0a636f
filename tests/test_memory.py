"""A query's working set frees itself.

`skygraph query` imports an export, evaluates one query and renders its
results. Nothing on that path may form a reference cycle: a cycle that
reaches the graph would keep every node, edge and adjacency list allocated
until a full collection finds it. With the cyclic collector off, dropping
the last reference must free the graph, and a collection must then find
nothing. Import itself pauses the collector and must restore its state,
with what it allocated moved out of the young generations and the
objects a host froze left frozen.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import weakref
from pathlib import Path

import pytest

from skygraph.build import build_graph, load_manifest
from skygraph.cli import render_path
from skygraph.errors import GraphError
from skygraph.graph import Edge, Node, export_graph, import_graph
from skygraph.query import engine, evaluate, iter_matches, parse_query

from .conftest import DATA, data_path, listing_text
from .test_walk_order import chain, path_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("expected"), importlib.import_module("fleet")


@pytest.fixture(scope="module", params=["bookinfo", "fleet-8-shared"])
def export_text(request, bench_modules, tmp_path_factory):
    if request.param == "bookinfo":
        manifest = data_path("fixtures/bookinfo/manifest.yaml")
    else:
        _, fleet = bench_modules
        out = tmp_path_factory.mktemp("fleet")
        manifest = fleet.generate(Path(str(DATA)), out, 8, 4, "shared").manifest
    return export_graph(build_graph(load_manifest(manifest))[0])


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def run_queries(text: str, queries: dict[str, str], star_max: int) -> tuple[weakref.ref, int]:
    """Import `text`, then parse, evaluate and render every query; returns
    a weak reference to the graph and the number of results."""
    graph = import_graph(text)
    count = 0
    for query in queries.values():
        for result in evaluate(graph, parse_query(query), star_max):
            if result.path is not None:
                render_path(graph, result.path)
            count += 1
    return weakref.ref(graph), count


@pytest.mark.parametrize("star_max", [10, 1])
def test_query_leaves_no_cyclic_garbage(export_text, bench_modules, star_max, collector_off):
    expected, _ = bench_modules
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    graph_ref, count = run_queries(export_text, queries, star_max)
    assert count > 0
    assert graph_ref() is None
    assert gc.collect() == 0


def test_budgeted_lists_leave_no_cyclic_garbage(export_text, bench_modules, collector_off):
    """A `[*3]` hop to a labelled end fills the graph's hop index with
    budgeted step lists; they hold no reference back to the graph, so
    dropping it frees it, and a collection then finds nothing."""
    expected, _ = bench_modules
    graph = import_graph(export_text)
    results = evaluate(graph, parse_query(expected.OWNED["application-storage-3hop"]), 10)
    assert results and any(len(key) == 6 for key in graph.hop_steps)
    graph_ref = weakref.ref(graph)
    del graph, results
    assert graph_ref() is None
    assert gc.collect() == 0


def test_compiled_walks_hold_no_graph(export_text, bench_modules, collector_off):
    """The walks compiled for the nine queries stay cached once the graph
    they ran on is dropped; the cache is keyed by plan shape and holds
    code, so the graph frees and a collection finds nothing."""
    expected, _ = bench_modules
    graph = import_graph(export_text)
    for text in [listing_text(q) for q in expected.BUNDLED] + list(expected.OWNED.values()):
        evaluate(graph, parse_query(text), 10)
    graph_ref = weakref.ref(graph)
    del graph
    assert graph_ref() is None
    assert engine._compile.cache_info().currsize > 0
    assert gc.collect() == 0


@pytest.mark.parametrize("end", ["close", "drop"])
def test_rows_read_partway_leave_no_cyclic_garbage(export_text, end, collector_off):
    """A row generator left in the middle of its walk, its stack holding
    frames on both sides of an interior anchor, frees the walk and the
    graph when closed or dropped."""
    graph = import_graph(export_text)
    rows = iter_matches(graph, parse_query(listing_text("cross-region-service-calls")), 10)
    assert len(list(itertools.islice(rows, 2))) == 2
    if end == "close":
        rows.close()
    graph_ref = weakref.ref(graph)
    del graph, rows
    assert graph_ref() is None
    assert gc.collect() == 0


def test_chained_walk_read_partway_leaves_no_cyclic_garbage(collector_off):
    """A walk of more loops than one generated function nests is chained
    functions that share the walk's variables as closures; left after two
    rows, it frees the graph with no cycle."""
    graph = path_graph()
    rows = iter_matches(graph, parse_query(chain(30) + " RETURN p"), 10)
    assert len(list(itertools.islice(rows, 2))) == 2
    graph_ref = weakref.ref(graph)
    del graph, rows
    assert graph_ref() is None
    assert gc.collect() == 0


def malformed_node(text: str) -> str:
    doc = json.loads(text)
    doc["nodes"][0] = ["x"]
    return json.dumps(doc)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "corrupt, error",
    [
        (None, None),
        (lambda text: text[:-10], "not valid JSON"),
        (malformed_node, "malformed node entry"),
    ],
    ids=["valid", "invalid-json", "malformed-node"],
)
def test_import_restores_collector_state(testbed_graph, enabled, corrupt, error):
    text = export_graph(testbed_graph)
    if corrupt is not None:
        text = corrupt(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert import_graph(text).frozen
        else:
            with pytest.raises(GraphError, match=error):
                import_graph(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_import_leaves_no_graph_object_in_the_young_generations(export_text, collector_on):
    frozen = gc.get_freeze_count()
    graph = import_graph(export_text)
    # the first allocation after import would run a young collection over
    # whatever import left in generation 0, moving it to generation 1
    young = {id(obj) for gen in (0, 1) for obj in gc.get_objects(gen) if type(obj) in (Node, Edge)}
    assert graph.node_count and not young & {id(node) for node in graph.nodes()}
    assert not young & {id(edge) for edge in graph.edges()}
    assert gc.get_freeze_count() == frozen


@pytest.fixture
def host_frozen():
    """Objects frozen by the host, as a server freezes its start-up state."""
    gc.collect()
    held = [[index] for index in range(100)]
    gc.freeze()
    try:
        yield held
    finally:
        gc.unfreeze()


def test_import_keeps_host_frozen_objects_frozen(export_text, host_frozen, collector_on):
    frozen = gc.get_freeze_count()
    assert frozen >= len(host_frozen)
    graph = import_graph(export_text)
    assert gc.get_freeze_count() == frozen
    assert graph.node_count and all(gc.is_tracked(obj) for obj in host_frozen)
    tracked = {id(obj) for obj in gc.get_objects()}
    assert not any(id(obj) in tracked for obj in host_frozen)


def test_build_export_import_query_loop_holds_objects_flat(bench_modules, collector_on):
    """20 build → export → import → query cycles in one process, with the
    collector on: after a collection, the number of tracked objects, and
    of frozen ones, stays the same. Objects are counted, since RSS is too
    noisy for a test."""
    expected, _ = bench_modules
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    manifest = data_path("fixtures/bookinfo/manifest.yaml")
    counts = []
    for _ in range(20):
        text = export_graph(build_graph(load_manifest(manifest))[0])
        graph_ref, results = run_queries(text, queries, 10)
        assert results > 0 and graph_ref() is None
        gc.collect()
        counts.append((len(gc.get_objects()), gc.get_freeze_count()))
    assert len(set(counts[1:])) == 1, counts


def test_repeated_queries_on_one_graph_hold_objects_flat(export_text, bench_modules, collector_on):
    """The nine queries, evaluated and rendered four times over on one
    imported graph with the collector on: the step lists the first pass
    leaves in the graph's `hop_steps` are all later passes use, so the
    number of tracked objects stays the same after it, and the store
    frees with the graph."""
    expected, _ = bench_modules
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    graph = import_graph(export_text)
    counts = []
    for _ in range(4):
        for query in queries.values():
            for result in evaluate(graph, parse_query(query), 10):
                if result.path is not None:
                    render_path(graph, result.path)
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert graph.hop_steps
    assert len(set(counts[1:])) == 1, counts
    graph_ref = weakref.ref(graph)
    del graph
    assert graph_ref() is None
    assert gc.collect() == 0
