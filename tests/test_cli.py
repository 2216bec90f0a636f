import json
import subprocess
import sys

import pytest
import yaml

from skygraph.cli import main, render_path
from skygraph.graph import import_graph
from skygraph.query import evaluate, parse_query

from .conftest import data_path, listing_text


@pytest.fixture
def built_graph_file(tmp_path):
    out = tmp_path / "graph.json"
    code = main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(out)])
    assert code == 0
    return out


def write_query(tmp_path, name):
    path = tmp_path / "query.cypher"
    path.write_text(listing_text(name), encoding="utf-8")
    return path


class TestBuild:
    def test_report_lists_four_applications(self, built_graph_file, capsys):
        main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(built_graph_file)])
        out = capsys.readouterr().out
        assert "Application: 4" in out
        assert "Pass timings:" in out

    def test_empty_manifest_builds_empty_graph(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(
            yaml.safe_dump({"ontology": "core.yaml"}), encoding="utf-8"
        )
        (tmp_path / "core.yaml").write_text(
            (open(data_path("ontology/core.yaml")).read()), encoding="utf-8"
        )
        out = tmp_path / "empty.json"
        assert main(["build", str(manifest), "--out", str(out)]) == 0
        graph = import_graph(out.read_text())
        assert graph.node_count == 0 and graph.edge_count == 0

    def test_missing_inventory_file_fails(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(
            yaml.safe_dump({"ontology": "core.yaml", "inventories": ["ghost.yaml"]}),
            encoding="utf-8",
        )
        (tmp_path / "core.yaml").write_text(
            open(data_path("ontology/core.yaml")).read(), encoding="utf-8"
        )
        assert main(["build", str(manifest)]) == 2
        assert "ghost.yaml" in capsys.readouterr().err

    def test_reproducible_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestQuery:
    def test_weak_encryption_shows_tls_version_endpoint(self, built_graph_file, tmp_path, capsys):
        query_file = write_query(tmp_path, "weak-transport-encryption")
        assert main(["query", str(built_graph_file), f"@{query_file}"]) == 0
        out = capsys.readouterr().out
        assert "TransportEncryption" in out
        assert "am-containerlog" in out
        assert out.strip().endswith("2 results")

    def test_zero_results_still_exit_zero(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({"ontology": "core.yaml"}), encoding="utf-8")
        (tmp_path / "core.yaml").write_text(
            open(data_path("ontology/core.yaml")).read(), encoding="utf-8"
        )
        out = tmp_path / "empty.json"
        main(["build", str(manifest), "--out", str(out)])
        assert main(["query", str(out), "MATCH (n) RETURN n"]) == 0
        assert "0 results" in capsys.readouterr().out

    def test_cross_region_paths_touch_both_regions(self, built_graph_file, tmp_path, capsys):
        query_file = write_query(tmp_path, "cross-region-service-calls")
        assert main(["query", str(built_graph_file), f"@{query_file}"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "GeoLocation" in line]
        assert lines
        for line in lines:
            assert "us-east-1(GeoLocation)" in line
            assert "westeurope(GeoLocation)" in line

    def test_count_format(self, built_graph_file, capsys):
        query = listing_text("public-storage-writes")
        assert main(["query", str(built_graph_file), query, "--format", "count"]) == 0
        assert capsys.readouterr().out.strip() == "1 results"

    def test_fail_if_found(self, built_graph_file):
        query = listing_text("public-storage-writes")
        assert main(["query", str(built_graph_file), query, "--fail-if-found"]) == 1
        no_hit = "MATCH (n:BlockStorage)-[:TO]->(m) RETURN n"
        assert main(["query", str(built_graph_file), no_hit, "--fail-if-found"]) == 0

    def test_parse_error_exit_code(self, built_graph_file, capsys):
        assert main(["query", str(built_graph_file), "MATCH (n RETURN n"]) == 2
        assert "error" in capsys.readouterr().err

    def test_import_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["query", str(bad), "MATCH (n) RETURN n"]) == 2

    def test_star_max_flag(self, built_graph_file, capsys):
        query = listing_text("expression-to-public-storage")
        assert main(["query", str(built_graph_file), query, "--star-max", "1", "--format", "count"]) == 0
        assert capsys.readouterr().out.strip() == "0 results"

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_star_max_must_be_positive(self, built_graph_file, capsys, bound):
        query = listing_text("expression-to-public-storage")
        with pytest.raises(SystemExit) as exit_info:
            main(["query", str(built_graph_file), query, "--star-max", bound, "--fail-if-found"])
        assert exit_info.value.code == 2
        assert "--star-max: must be a positive integer" in capsys.readouterr().err

    def test_matches_in_process_evaluation(self, built_graph_file, testbed_graph, capsys):
        from .conftest import LISTING_FILES

        for name in LISTING_FILES:
            query = listing_text(name)
            main(["query", str(built_graph_file), query, "--format", "count"])
            cli_count = int(capsys.readouterr().out.split()[0])
            in_process = evaluate(testbed_graph, parse_query(query))
            assert cli_count == len(in_process)


class TestStats:
    def test_empty_graph_all_zero(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({"ontology": "core.yaml"}), encoding="utf-8")
        (tmp_path / "core.yaml").write_text(
            open(data_path("ontology/core.yaml")).read(), encoding="utf-8"
        )
        out = tmp_path / "empty.json"
        main(["build", str(manifest), "--out", str(out)])
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Nodes: 0" in text and "Edges: 0" in text

    def test_counts_match_build_report(self, built_graph_file, capsys, testbed):
        _, _, report = testbed
        assert main(["stats", str(built_graph_file)]) == 0
        text = capsys.readouterr().out
        for cls, count in report.node_counts.items():
            assert f"{cls}: {count}" in text
        for edge_type, count in report.edge_counts.items():
            assert f"{edge_type}: {count}" in text

    def test_single_storage_graph(self, tmp_path, capsys, core_ontology):
        from skygraph.graph import PropertyGraph, export_graph

        graph = PropertyGraph(core_ontology)
        graph.add_node("ObjectStorage", "s", {})
        graph.freeze()
        path = tmp_path / "one.json"
        path.write_text(export_graph(graph), encoding="utf-8")
        main(["stats", str(path)])
        assert "ObjectStorage: 1" in capsys.readouterr().out


def test_render_path_arrows(testbed_graph):
    ast = parse_query(listing_text("public-storage-writes"))
    result = evaluate(testbed_graph, ast)[0]
    text = render_path(testbed_graph, result.path)
    assert text.startswith("kubernetes-logs(ContainerCluster) <-[SOURCE]-")
    assert "-[TO]->" in text


def test_console_entry_point(tmp_path):
    out = tmp_path / "graph.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "skygraph.cli",
            "build",
            data_path("fixtures/bookinfo/manifest.yaml"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) > 0
