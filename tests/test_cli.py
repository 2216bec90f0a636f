import hashlib
import importlib
import json
import shutil
import subprocess
import sys

import pytest
import yaml

from skygraph.build import build_graph, load_manifest
from skygraph.cli import main, render_path
from skygraph.graph import PropertyGraph, export_graph, import_graph
from skygraph.ontology import ontology_from_documents
from skygraph.query import evaluate, parse_query

from . import reference
from .conftest import DATA, data_path, listing_text
from .test_parity import BENCH, fleet_manifest

# sha256 of the `skygraph build` export of each bundled testbed; exports
# must stay byte-identical unless a change means to alter the graph
EXPORT_SHA256 = {
    "bookinfo": "793398d75e3afcf900993511191dfb6f96061423a530ff564793d4b803f4ea96",
    "bookinfo_clean": "162514b373c232916f8bd1564bab6759b5546ffe575191e178f78b7ab2422f11",
}


@pytest.fixture
def built_graph_file(tmp_path):
    out = tmp_path / "graph.json"
    code = main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture
def bookinfo_copy(tmp_path):
    """A writable copy of the bookinfo testbed, with the ontology where its
    manifest expects it."""
    shutil.copytree(DATA / "fixtures" / "bookinfo", tmp_path / "fixtures" / "bookinfo")
    shutil.copytree(DATA / "ontology", tmp_path / "ontology")
    return tmp_path / "fixtures" / "bookinfo"


def built_export_sha256(testbed, out):
    assert main(["build", data_path(f"fixtures/{testbed}/manifest.yaml"), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


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
            (DATA / "ontology" / "core.yaml").read_text(encoding="utf-8"), encoding="utf-8"
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
            (DATA / "ontology" / "core.yaml").read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert main(["build", str(manifest)]) == 2
        assert "ghost.yaml" in capsys.readouterr().err

    def test_yaml_syntax_error_names_file(self, bookinfo_copy, tmp_path, capsys):
        # tests/test_yamlfile.py covers the other YAML inputs
        (bookinfo_copy / "inventories" / "aws.yaml").write_text(
            "provider: [unclosed\n", encoding="utf-8"
        )
        out = tmp_path / "graph.json"
        assert main(["build", str(bookinfo_copy / "manifest.yaml"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load ") and "aws.yaml" in err
        assert not out.exists()

    def test_malformed_resource_entry_names_file(self, bookinfo_copy, tmp_path, capsys):
        path = bookinfo_copy / "inventories" / "aws.yaml"
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        doc["resources"].append("ratings-db")
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = tmp_path / "graph.json"
        assert main(["build", str(bookinfo_copy / "manifest.yaml"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "aws.yaml: resource entry must be a mapping" in err
        assert not out.exists()

    @pytest.mark.parametrize("testbed", sorted(EXPORT_SHA256))
    def test_export_bytes_pinned(self, tmp_path, testbed):
        assert built_export_sha256(testbed, tmp_path / "graph.json") == EXPORT_SHA256[testbed]

    def test_pure_python_yaml_fallback_builds_same_export(self, tmp_path, monkeypatch):
        loaders = []
        real_load = yaml.load

        def spy(stream, Loader):
            loaders.append(Loader)
            return real_load(stream, Loader=Loader)

        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.setattr(yaml, "load", spy)
        assert built_export_sha256("bookinfo", tmp_path / "graph.json") == EXPORT_SHA256["bookinfo"]
        assert loaders
        assert all(issubclass(loader, yaml.SafeLoader) for loader in loaders)
        # libyaml's parser class, named rather than imported: PyYAML may lack it
        assert not any(base.__name__ == "CParser" for loader in loaders for base in loader.__mro__)

    def test_pure_python_yaml_too_deep_names_file(self, bookinfo_copy, tmp_path, monkeypatch, capsys):
        # PyYAML's pure-Python parser recurses once per nesting level
        (bookinfo_copy / "codefacts" / "productpage.yaml").write_text(
            "[" * 600 + "]" * 600 + "\n", encoding="utf-8"
        )
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        out = tmp_path / "graph.json"
        assert main(["build", str(bookinfo_copy / "manifest.yaml"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load ") and "productpage.yaml" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bound", [0, True])
    def test_manifest_star_max_must_be_positive(self, tmp_path, capsys, bound):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(
            yaml.safe_dump({"ontology": "core.yaml", "star_max": bound}), encoding="utf-8"
        )
        assert main(["build", str(manifest), "--out", str(tmp_path / "graph.json")]) == 2
        assert "star_max must be a positive integer" in capsys.readouterr().err

    def test_reproducible_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _set(keys, value):
    """A mutation that sets the item at the path `keys` of a document."""

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return mutate


def _drop(*keys):
    """A mutation that deletes the item at the path `keys` of a document."""

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return mutate


def _jobs_as_list(doc):
    """The list-of-jobs shape, which GitHub Actions does not have."""
    doc["jobs"] = [{"name": job_id, **job} for job_id, job in doc["jobs"].items()]


EXPORT = "graph.json"
CODEFACTS = "codefacts/productpage.yaml"
MANIFEST = "manifest.yaml"
CORE = "../../ontology/core.yaml"
AWS = "inventories/aws.yaml"
WORKFLOW = "workflows/deploy.yaml"

# inputs that once crashed `build` with a traceback, that `query` accepted,
# or whose error did not name the file: (file under the bookinfo testbed,
# or the export; mutation)
MALFORMED_INPUTS = {
    "function-without-name": (CODEFACTS, _drop("functions", 0, "name")),
    "function-entry-is-a-string": (CODEFACTS, _set(("functions", 0), "productpage.index")),
    "call-without-inside": (CODEFACTS, _drop("calls", 0, "inside")),
    "handler-path-not-a-string": (CODEFACTS, _set(("functions", 0, "http_handler", "path"), 5)),
    "handler-without-method": (CODEFACTS, _drop("functions", 0, "http_handler", "method")),
    "parameters-not-a-list": (CODEFACTS, _set(("functions", 0, "parameters"), 5)),
    "manifest-mappings-not-a-list": (MANIFEST, _set(("mappings",), 5)),
    "manifest-registry-locations-a-list": (MANIFEST, _set(("registry_locations",), ["a"])),
    "manifest-ontology-not-a-path": (MANIFEST, _set(("ontology",), 5)),
    "manifest-registry-region-a-list": (MANIFEST, _set(("registry_locations", "ghcr.io"), ["us"])),
    "mapping-without-provider-type": ("../../ontology/aws.yaml", _drop("types", 0, "provider_type")),
    "class-parent-a-list": (CORE, _set(("classes", 1, "parent"), ["x"])),
    "class-offers-nested-list": (CORE, _set(("classes", 0, "offers"), [["x"]])),
    "class-unknown-parent": (CORE, _set(("classes", 1, "parent"), "Nope")),
    # CloudResource -> Compute -> CloudResource
    "class-inheritance-cycle": (CORE, _set(("classes", 0, "parent"), "Compute")),
    "mapping-to-unknown-class": ("../../ontology/aws.yaml", _set(("types", 0, "ontology_class"), "Nope")),
    "inventory-unknown-mapping": (AWS, _set(("resources", 0, "provider_type"), "AWS::Nope")),
    # aws.yaml is not the last inventory, so its link must keep its own file
    "inventory-link-to-unknown-id": (AWS, _set(("resources", 0, "links"), {"member_of": "ghost"})),
    "workflow-jobs-a-list": (WORKFLOW, _jobs_as_list),
    # a node row's properties are its field 3, an edge row's its field 4
    "export-undeclared-node-property": (EXPORT, _set(("nodes", 0, 3, "bogus"), 1)),
    "export-list-node-property": (EXPORT, _set(("nodes", 0, 3, "image"), ["a"])),
    "export-dict-node-property": (EXPORT, _set(("nodes", 0, 3, "image"), {"a": 1})),
    "export-float-node-property": (EXPORT, _set(("nodes", 0, 3, "image"), 1.5)),
    "export-list-edge-property": (EXPORT, _set(("edges", 0, 4, "weight"), [1])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(bookinfo_copy, tmp_path, capsys, case):
    target, mutate = MALFORMED_INPUTS[case]
    manifest = str(bookinfo_copy / "manifest.yaml")
    out = tmp_path / "graph.json"
    if target == EXPORT:
        assert main(["build", manifest, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        mutate(doc)
        out.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["query", str(out), "MATCH (n) RETURN n"]
    else:
        path = bookinfo_copy / target
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        mutate(doc)
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        argv = ["build", manifest, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if target != EXPORT:
        assert f"error: {bookinfo_copy / target}: " in err


def _without_class(name):
    """A mutation that deletes class `name` from an ontology document."""

    def mutate(doc):
        doc["classes"] = [entry for entry in doc["classes"] if entry["name"] != name]

    return mutate


def _without_data_property(class_name, key):
    """A mutation that deletes data property `key` of class `class_name`."""

    def mutate(doc):
        (entry,) = (entry for entry in doc["classes"] if entry["name"] == class_name)
        del entry["data_properties"][key]

    return mutate


# errors that name the file they are about: (file under the bookinfo
# testbed, mutation, file the error names)
NAMED_ERRORS = {
    # a class the build writes, missing from the ontology while a bundle is
    # ingested and while a resolution pass runs
    "ontology-without-LogOutput": (CORE, _without_class("LogOutput"), CORE),
    "ontology-without-ProxiedEndpoint": (CORE, _without_class("ProxiedEndpoint"), CORE),
    # a property the bundle records that its class does not declare
    "bundle-language-undeclared": (CORE, _without_data_property("Application", "language"), CODEFACTS),
    # a property the inventory records that its feature's class does not declare
    "inventory-region-undeclared": (
        CORE,
        _without_data_property("GeoLocation", "region"),
        "inventories/azure.yaml",
    ),
    "bundle-function-without-name": (CODEFACTS, _drop("functions", 0, "name"), CODEFACTS),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_build_error_names_its_file_once(bookinfo_copy, tmp_path, capsys, case):
    target, mutate, named = NAMED_ERRORS[case]
    path = bookinfo_copy / target
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["build", str(bookinfo_copy / "manifest.yaml"), "--out", str(tmp_path / "graph.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bookinfo_copy / named}: ") and err.count("\n") == 1
    # the one file named, and named once
    assert err.count(".yaml") == 1 and "Traceback" not in err


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
            (DATA / "ontology" / "core.yaml").read_text(encoding="utf-8"), encoding="utf-8"
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

    def test_out_of_memory_exits_2_without_traceback(self, built_graph_file, monkeypatch, capsys):
        """A runaway query that exhausts memory ends in one error line."""

        def runaway(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("skygraph.cli.evaluate", runaway)
        query = "MATCH p=(a:ContainerImage)-[*]-(b:Storage) RETURN p"
        assert main(["query", str(built_graph_file), query, "--format", "count"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: query ran out of memory\n"

    def test_parse_error_exit_code(self, built_graph_file, capsys):
        assert main(["query", str(built_graph_file), "MATCH (n RETURN n"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, word",
        [
            # always true, so a gate that ran it would have to fire
            ('MATCH (a:Application)-[r:RUNS_ON]->(b) WHERE r.name = "x" OR r.name <> "x" RETURN a', "'r'"),
            ('MATCH p=(a:Application)-[:RUNS_ON]->(b) WHERE p.name <> "x" RETURN a', "'p'"),
            ("MATCH a=(a)-[:RUNS_ON]->(b) RETURN a", "'a'"),
            ("MATCH (s:ObjectStorge) WHERE s.public_access = true RETURN s", "'ObjectStorge'"),
            ("MATCH (a)-[:RUNS_ONN]->(b) RETURN a", "'RUNS_ONN'"),
            ("MATCH (s:ObjectStorage) WHERE s.public_acess = true RETURN s", "'public_acess'"),
            ("MATCH (s:BlockStorage) WHERE s.public_access = true RETURN s", "'public_access'"),
            ("MATCH (a)-[r]->(b)<-[r]-(c) RETURN a", "'r'"),
            ('MATCH (s:ObjectStorage) WHERE s.public_access = "true" RETURN s', "'public_access'"),
        ],
    )
    def test_misused_query_fails_the_gate(self, built_graph_file, capsys, query, word):
        assert main(["query", str(built_graph_file), query, "--fail-if-found"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and word in captured.err
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("bound", [0, "ten", True, None])
    def test_export_star_max_must_be_positive(self, built_graph_file, capsys, bound):
        doc = json.loads(built_graph_file.read_text(encoding="utf-8"))
        doc["settings"]["star_max"] = bound
        built_graph_file.write_text(json.dumps(doc), encoding="utf-8")
        query = listing_text("expression-to-public-storage")
        assert main(["query", str(built_graph_file), query, "--fail-if-found"]) == 2
        assert "settings.star_max must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("nodes", "class", ["Storage"]),
            ("edges", "type", ["DFG"]),
            ("settings", None, ["star_max", 3]),
            ("nodes", "properties", [["k", "v"]]),
            ("edges", "extra", 5),
        ],
    )
    def test_malformed_export_exits_2(self, built_graph_file, capsys, section, key, value):
        doc = json.loads(built_graph_file.read_text(encoding="utf-8"))
        if key is None:
            doc[section] = value
        elif key == "extra":
            doc[section][0].append(value)
        else:
            doc[section][0][reference.ROW_FIELDS[section].index(key)] = value
        built_graph_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["query", str(built_graph_file), "MATCH (n) RETURN n"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {built_graph_file}: ")

    def test_export_of_object_entries_asks_for_rebuild(self, built_graph_file, capsys):
        """An export written before rows fails in one error line that names
        the file and the command that rebuilds it."""
        doc = reference.object_entries(json.loads(built_graph_file.read_text(encoding="utf-8")))
        built_graph_file.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        assert main(["query", str(built_graph_file), "MATCH (n) RETURN n", "--fail-if-found"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {built_graph_file}: node entries are objects, as older exports wrote them; "
            "rebuild the export with `skygraph build`\n"
        )

    def test_export_value_of_another_kind_exits_2(self, built_graph_file, capsys):
        doc = json.loads(built_graph_file.read_text(encoding="utf-8"))
        storage = next(row for row in doc["nodes"] if row[2] == "am-containerlog")
        storage[3]["public_access"] = "yes"
        built_graph_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["query", str(built_graph_file), "MATCH (n) RETURN n"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {built_graph_file}: ")
        assert "'public_access' of class 'ObjectStorage' must be boolean, got str" in err

    def test_query_file_not_utf8_exits_2(self, built_graph_file, tmp_path, capsys):
        query_file = tmp_path / "query.cypher"
        query_file.write_bytes(b"MATCH (n) RETURN \xff")
        assert main(["query", str(built_graph_file), f"@{query_file}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {query_file}: ") and "utf-8" in err

    def test_matches_in_process_evaluation(self, built_graph_file, testbed_graph, capsys):
        from .conftest import LISTING_FILES

        for name in LISTING_FILES:
            query = listing_text(name)
            main(["query", str(built_graph_file), query, "--format", "count"])
            cli_count = int(capsys.readouterr().out.split()[0])
            in_process = evaluate(testbed_graph, parse_query(query))
            assert cli_count == len(in_process)


# graph files the CLI cannot import, and what its error names after the file
UNREADABLE_EXPORTS = {
    "not-utf8": (b"\xff\xfe", "utf-8"),
    "nested-too-deep": (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
    "not-a-mapping": (b"[1, 2]", "graph document must be a mapping, got [1, 2]"),
}


@pytest.mark.parametrize("command", ["query", "stats"])
@pytest.mark.parametrize("content, message", UNREADABLE_EXPORTS.values(), ids=list(UNREADABLE_EXPORTS))
def test_unreadable_export_exits_2_naming_the_file(tmp_path, command, content, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_bytes(content)
    args = [str(graph_file), "MATCH (n) RETURN n"] if command == "query" else [str(graph_file)]
    proc = subprocess.run(
        [sys.executable, "-m", "skygraph.cli", command, *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(graph_file) in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def call_chain(length: int) -> PropertyGraph:
    """A Literal CALLS-ing the first of `length` FunctionDeclaration nodes,
    each CALLS-ing the next, and the last CALLS-ing a second Literal."""
    graph = PropertyGraph(ontology_from_documents({"classes": []}, []))
    ids = [graph.add_node("Literal", "start")]
    ids += [graph.add_node("FunctionDeclaration", f"f{i}") for i in range(length)]
    ids.append(graph.add_node("Literal", "end"))
    for caller, callee in zip(ids, ids[1:]):
        graph.add_edge(caller, callee, "CALLS")
    graph.freeze()
    return graph


# one route, from one Literal to the other, of length + 1 edges
DEEP_QUERY = "MATCH p=(a:Literal)-[:CALLS*]->(b:Literal) RETURN p"


def frame_depth() -> int:
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.fixture
def restore_recursion_limit():
    limit = sys.getrecursionlimit()
    yield
    sys.setrecursionlimit(limit)


class TestDeepQuery:
    """The walk keeps its steps on one explicit stack, so a route
    thousands of edges long is an ordinary result."""

    def test_evaluate_finds_the_one_long_route(self):
        (result,) = evaluate(call_chain(3000), parse_query(DEEP_QUERY), star_max=5000)
        assert len(result.path.edge_ids) == 3001

    def test_route_length_costs_no_frames(self, restore_recursion_limit):
        graph, ast = call_chain(3000), parse_query(DEEP_QUERY)
        sys.setrecursionlimit(frame_depth() + 100)
        (result,) = evaluate(graph, ast, star_max=5000)
        assert len(result.path.edge_ids) == 3001

    def test_query_command_counts_the_route(self, tmp_path):
        graph_file = tmp_path / "chain.json"
        graph_file.write_text(export_graph(call_chain(3000)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "skygraph.cli", "query", str(graph_file), DEEP_QUERY,
             "--star-max", "5000", "--format", "count"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 results"]
        assert "Traceback" not in proc.stdout + proc.stderr


class TestStats:
    def test_empty_graph_all_zero(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({"ontology": "core.yaml"}), encoding="utf-8")
        (tmp_path / "core.yaml").write_text(
            (DATA / "ontology" / "core.yaml").read_text(encoding="utf-8"), encoding="utf-8"
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

    def test_prints_the_build_count_block(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert main(["build", data_path("fixtures/bookinfo/manifest.yaml"), "--out", str(out)]) == 0
        built = capsys.readouterr().out
        assert main(["stats", str(out)]) == 0
        assert built.startswith(capsys.readouterr().out + "Pass timings:\n")

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


# sha256 of the `skygraph query <export> @<query>` stdout of each benchmark
# query on each bundled testbed: rendered paths, or bindings, then the
# `N results` line
QUERY_STDOUT_SHA256 = {
    "bookinfo": {
        "application-storage-3hop": "fe451edd463740ebfb203d73c842fc463510d65ee787e5c8a2980e81222bd1a7",
        "cross-region-resource-flows": "352a5730526bf2ba91fe86c0152a5a673cd7f3e60ff7b93d7ed37417934bebfb",
        "cross-region-service-calls": "ecec3fd61b684d10a3a4af92f058826f0b0c0c39be152b0e635dc7c2012c48d3",
        "expression-to-public-storage": "33e9f44d4bcfbe395f16629f2045b360c8126f2d97cd05086e007829254d11d6",
        "public-object-storage": "269514a76e3db1d835e8bd4ada18100afa9aef65a614cf1070678b6b4d6fde72",
        "public-storage-writes": "bff591a6e298d865633db406f4df26a95e5b1c8347b9c0fcb540f75a7c0d03d0",
        "registry-pulls": "06c4fb423297775b5ca6a0950d25cbeb4e47987af3619f0b29d76d02def112c7",
        "request-to-handler": "3bdda37913a90d8d44a8eff8fff5eadecdd64282235c66e88d5e44cfad00c958",
        "weak-transport-encryption": "cfd1e0688a5c8834b1abdd9589e07b96770388d653fb7c39eb7a06f762739acb",
    },
    "bookinfo_clean": {
        "application-storage-3hop": "21a7861ae87facbe4309ab69970b133229b0ae37054902feaf2f765a08e68116",
        "cross-region-resource-flows": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
        "cross-region-service-calls": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
        "expression-to-public-storage": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
        "public-object-storage": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
        "public-storage-writes": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
        "registry-pulls": "9d7d584c87f004c2cc5251dd4662343188cd121f1457eb2cdcd9ec1dfc350210",
        "request-to-handler": "b4aa25d14052ccc050cf1ac09fef729a5161ddfdc76fe5658bab26f4c4add28e",
        "weak-transport-encryption": "09f9e79af3ac002c31a27ab3facb5ee621e86d27b34fe78b505f3f738549907c",
    },
}


@pytest.mark.parametrize("testbed", sorted(QUERY_STDOUT_SHA256))
def test_query_stdout_pinned(testbed, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    expected = importlib.import_module("expected")
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    export = tmp_path / "graph.json"
    assert main(["build", data_path(f"fixtures/{testbed}/manifest.yaml"), "--out", str(export)]) == 0
    capsys.readouterr()
    digests = {}
    for name, text in queries.items():
        query_file = tmp_path / f"{name}.cypher"
        query_file.write_text(text, encoding="utf-8")
        assert main(["query", str(export), f"@{query_file}"]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == QUERY_STDOUT_SHA256[testbed]


def test_render_path_matches_per_element_reference(tmp_path, monkeypatch):
    """`render_path` joins the graph's kept node texts and the arrow table;
    on every path result of the benchmark queries on a shared-paths fleet,
    with arrows both ways, it prints what rendering through
    `graph.node`/`graph.edge` prints."""
    monkeypatch.syspath_prepend(str(BENCH))
    expected = importlib.import_module("expected")
    queries = {q: listing_text(q) for q in expected.BUNDLED} | expected.OWNED
    graph = build_graph(load_manifest(fleet_manifest("fleet-8-shared-4", tmp_path, monkeypatch)))[0]
    paths = [
        result.path
        for text in queries.values()
        for result in evaluate(graph, parse_query(text))
        if result.path is not None
    ]
    assert {flag for path in paths for flag in path.forward} == {True, False}
    for path in paths:
        assert render_path(graph, path) == reference.render_path(graph, path)


def test_kept_node_texts_follow_a_graph_being_built():
    """On a graph that is not frozen, a node or edge added after paths were
    rendered renders in a later path as the per-element reference renders
    it, a step over a self-loop both ways too, and the kept texts hold one
    entry per node and one step pair per edge rendered."""
    graph = PropertyGraph(ontology_from_documents(*reference.small_ontology_documents()))
    graph.add_node("Thing", "a")
    graph.add_node("Thing", "b")
    graph.add_edge(0, 1, "DFG")
    [result] = evaluate(graph, parse_query("MATCH p=(x)-->(y) RETURN p"))
    assert render_path(graph, result.path) == reference.render_path(graph, result.path) == "a(Thing) -[DFG]-> b(Thing)"
    assert dict(graph.node_texts) == {0: "a(Thing)", 1: "b(Thing)"}
    dfg = (" <-[DFG]- a(Thing)", " -[DFG]-> b(Thing)")
    assert dict(graph.step_texts) == {0: dfg}
    graph.add_node("Sub", "c")
    graph.add_node("Sub", "never rendered")
    graph.add_edge(2, 1, "TO")
    results = evaluate(graph, parse_query("MATCH p=(x)-->(y)<--(z) RETURN p"))
    rendered = [render_path(graph, result.path) for result in results]
    assert rendered == [reference.render_path(graph, result.path) for result in results]
    assert rendered == ["a(Thing) -[DFG]-> b(Thing) <-[TO]- c(Sub)", "c(Sub) -[TO]-> b(Thing) <-[DFG]- a(Thing)"]
    assert dict(graph.node_texts) == {0: "a(Thing)", 1: "b(Thing)", 2: "c(Sub)"}
    assert dict(graph.step_texts) == {0: dfg, 1: (" <-[TO]- c(Sub)", " -[TO]-> b(Thing)")}
    graph.add_edge(2, 2, "CALLS")
    graph.add_edge(3, 0, "LOGS_TO")
    rendered = []
    for text in ("MATCH p=(x:Sub)-[:CALLS]-(y) RETURN p", "MATCH p=(x)<-[:CALLS]-(y) RETURN p"):
        [result] = evaluate(graph, parse_query(text))
        rendered.append(render_path(graph, result.path))
        assert rendered[-1] == reference.render_path(graph, result.path)
    assert rendered == ["c(Sub) -[CALLS]-> c(Sub)", "c(Sub) <-[CALLS]- c(Sub)"]
    assert dict(graph.node_texts) == {0: "a(Thing)", 1: "b(Thing)", 2: "c(Sub)"}
    assert sorted(graph.step_texts) == [0, 1, 2]


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
