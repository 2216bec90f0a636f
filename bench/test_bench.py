"""The benchmark's own checks: generator determinism, per-tenant linearity
of every query on unique paths, self-time arithmetic, and that
BENCHMARK.json names exactly the metrics the benchmark prints.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import expected  # noqa: E402
import fleet  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

from skygraph.build import build_graph, load_manifest  # noqa: E402
from skygraph.query import evaluate, parse_query  # noqa: E402

DATA = ROOT / "src" / "skygraph" / "data"


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("paths", fleet.PATH_MODES)
def test_same_seed_gives_byte_identical_files(tmp_path, paths):
    first = _files(fleet.generate(DATA, tmp_path / "a", 5, 11, paths).manifest.parent)
    again = _files(fleet.generate(DATA, tmp_path / "b", 5, 11, paths).manifest.parent)
    other = _files(fleet.generate(DATA, tmp_path / "c", 5, 12, paths).manifest.parent)
    assert first == again
    assert first != other


def test_templates_get_equal_shares():
    tenants = fleet.tenant_plan(7, 3)
    shares = [sum(t.template == name for t in tenants) for name in fleet.TEMPLATES]
    assert sorted(shares) == [3, 4]
    assert len({t.name for t in tenants}) == 7


@pytest.mark.parametrize(
    "templates", [("bookinfo",), ("bookinfo_clean",), fleet.TEMPLATES], ids=lambda t: "+".join(t)
)
def test_unique_paths_give_sum_of_tenant_counts(tmp_path, templates):
    generated = fleet.generate(DATA, tmp_path / "fleet", 4, 5, "unique", templates)
    graph, _, _ = build_graph(load_manifest(generated.manifest))
    tenant_templates = [t.template for t in generated.tenants]
    for name, text in expected.query_texts(DATA).items():
        got = len(evaluate(graph, parse_query(text), star_max=10))
        assert got == expected.expected_count(name, tenant_templates), name


def test_expected_table_matches_single_fixtures():
    for template in fleet.TEMPLATES:
        graph, _, _ = build_graph(load_manifest(DATA / "fixtures" / template / "manifest.yaml"))
        for name, text in expected.query_texts(DATA).items():
            got = len(evaluate(graph, parse_query(text), star_max=10))
            assert got == expected.EXPECTED[template][name], (template, name)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, ""),
        Span("a", 1.0, 4.0, 0, 0, ""),
        Span("a.leaf", 1.5, 2.5, 1, 0, ""),
        Span("b", 5.0, 9.0, 0, 0, ""),
        Span("b.leaf", 6.0, 6.5, 3, 0, ""),
        Span("b.leaf", 7.0, 8.0, 3, 0, ""),
        Span("other-root", 11.0, 12.0, -1, 1, ""),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0, 1.0])


def test_per_op_medians_and_counters():
    tracer = Tracer()
    tracer.spans = [
        Span("dataflow.resolve_http_requests", 0.0, 2.0, -1, 0, "build", 5),
        Span("graph.has_edge", 0.5, 1.0, 0, 0, "build"),
        Span("dataflow.resolve_http_requests", 3.0, 4.0, -1, 1, "build", 3),
    ]
    tracer.counts = {
        ("graph.node", "dataflow.resolve_http_requests", 0): 10,
        ("graph.node", "dataflow.resolve_http_requests", 1): 6,
        ("graph.node", "graph.has_edge", 0): 99,
    }
    table = layers.per_op(tracer)
    assert table["dataflow.resolve_http_requests_s"] == {0: 1.5, 1: 1.0}
    assert table["dataflow.resolve_http_requests_added"] == {0: 5, 1: 3}
    assert table["dataflow.resolve_http_requests.node_reads"] == {0: 10, 1: 6}


def test_tracer_restores_every_patched_attribute():
    import skygraph.cli
    import skygraph.graph

    originals = (skygraph.cli.import_graph, skygraph.graph.PropertyGraph.__dict__["node"])
    tracer = Tracer()
    tracer.install()
    try:
        assert skygraph.cli.import_graph is not originals[0]
    finally:
        tracer.uninstall()
    assert (skygraph.cli.import_graph, skygraph.graph.PropertyGraph.__dict__["node"]) == originals


def test_stopwatch_scales_by_the_references_around_each_operation(monkeypatch):
    references = [0.004, 0.006, 0.010, 0.002, 0.008]
    walls = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0]
    monkeypatch.setattr(speed, "clock", lambda: walls.pop(0))
    monkeypatch.setattr(speed, "reference_s", lambda: references.pop(0))
    monkeypatch.setattr(speed, "REF_S", 0.005)
    watch = speed.Stopwatch(sample=False)
    assert watch.time(lambda: "first") == ("first", pytest.approx(1.0), 1.0)
    # the second operation starts from the reference that ended the first
    assert watch.time(lambda: "second") == ("second", pytest.approx(1.25), 2.0)
    watch.pause()  # the third takes a fresh reference before it starts
    assert watch.time(lambda: "third") == ("third", pytest.approx(3.0), 3.0)
    assert references == [] and walls == []


def test_stopwatch_samples_the_reference_during_an_operation(monkeypatch):
    taken = []
    monkeypatch.setattr(speed, "SAMPLE_S", 0.01)
    monkeypatch.setattr(speed, "reference_s", lambda: taken.append(1) or speed.REF_S / 2)

    def busy():
        end = speed.clock() + 0.2
        while speed.clock() < end:
            pass

    _, scaled, wall = speed.Stopwatch().time(busy)
    assert len(taken) > 5  # before, after, and samples in between
    assert scaled == pytest.approx(2 * wall)
    with pytest.raises(RuntimeError):
        speed.Stopwatch().time(lambda: speed.Stopwatch().time(lambda: None))


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {**layers.UNITS, **run.CHECK_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
