"""Metamorphic deployment tests: rewrites of the bookinfo testbed that
describe the same deployment must keep every finding.

Each case rewrites some input files in a copy of the testbed, or every
one of them, the manifest included, builds it, and checks the nine
benchmark queries against the per-tenant counts of `bench/expected.py`,
the only oracle. The build must also log the warnings the original does,
make its 3 image nodes, and as many nodes and edges. The relation is metamorphic
testing in the sense of Chen, Cheung and Yiu (HKUST CS98-01, 1998): no case
knows the right findings of its own input, only that they equal the
original's. The single-fault cases go the other way: one weakness put into
a copy of `bookinfo_clean` must change only the counts it names, by as
many results as its comment works out by hand.
"""

from __future__ import annotations

import importlib
import logging
import re
import shutil
from collections.abc import Callable
from pathlib import Path

import pytest
import yaml

from skygraph.build import build_graph, load_manifest
from skygraph.query import evaluate, parse_query

from .conftest import DATA

BENCH = Path(__file__).resolve().parent.parent / "bench"
IMAGE = r"ghcr\.io/bookinfo/\w+"
# the scheme and host of each request url in a code-facts file
REQUEST_URL = re.compile(r'(url: "\w+://)([^/:"]+)')


def latest_tag(text: str) -> str:
    """Every build and push tag gets an explicit `:latest`."""
    return re.sub(rf"(docker (?:build -t|push) {IMAGE})", r"\1:latest", text)


def second_tag(text: str) -> str:
    """Each build tags its image twice; the push names the first tag."""
    text = re.sub(rf"docker build -t ({IMAGE})", r"docker build -t \1:1.4 -t \1", text)
    return re.sub(rf"(docker push {IMAGE})", r"\1:1.4", text)


def upper_host(text: str) -> str:
    return REQUEST_URL.sub(lambda m: m[1] + m[2].upper(), text)


def userinfo(text: str) -> str:
    return REQUEST_URL.sub(r"\1user@\2", text)


def query_and_fragment(text: str) -> str:
    return re.sub(r'(url: "\w+://[^"]*)"', r'\1?page=2#top"', text)


def flow_style(text: str) -> str:
    return yaml.safe_dump(yaml.safe_load(text), default_flow_style=True, sort_keys=False)


def double_quoted(text: str) -> str:
    """Every scalar double-quoted; a bool or int keeps its type by tag."""
    return yaml.safe_dump(yaml.safe_load(text), default_style='"', sort_keys=False)


def latest_image_link(text: str) -> str:
    return re.sub(rf"(image: {IMAGE})", r"\1:latest", text)


def tag_equals(text: str) -> str:
    return re.sub(rf"docker build -t ({IMAGE})", r"docker build --tag=\1", text)


def each(pattern: str, rewrite: Callable[[str], str]) -> Callable[[Path], int]:
    """The rewrite of every testbed file `pattern` matches by `rewrite`,
    which returns the number of files it changed."""

    def apply(testbed: Path) -> int:
        changed = 0
        for path in sorted(testbed.glob(pattern)):
            text = path.read_text(encoding="utf-8")
            new = rewrite(text)
            changed += new != text
            path.write_text(new, encoding="utf-8")
        return changed

    return apply


def storage_on_aws(testbed: Path) -> int:
    """The log storage moves from the Azure inventory to the AWS one, as
    the bucket it is there: the findings do not depend on the vendor. The
    cluster's link to it now crosses inventories."""
    azure, aws = (testbed / "inventories" / f"{vendor}.yaml" for vendor in ("azure", "aws"))
    azure_doc, aws_doc = (yaml.safe_load(path.read_text(encoding="utf-8")) for path in (azure, aws))
    (storage,) = [entry for entry in azure_doc["resources"] if entry["name"] == "am-containerlog"]
    azure_doc["resources"].remove(storage)
    aws_doc["resources"].append(storage | {"provider_type": "AWS::S3::Bucket"})
    for path, doc in ((azure, azure_doc), (aws, aws_doc)):
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return 2


CASES = {
    "latest-tag": each("workflows/*.yaml", latest_tag),
    "second-tag": each("workflows/*.yaml", second_tag),
    "upper-request-host": each("codefacts/*.yaml", upper_host),
    "request-userinfo": each("codefacts/*.yaml", userinfo),
    "request-query-fragment": each("codefacts/*.yaml", query_and_fragment),
    "flow-style": each("**/*.yaml", flow_style),
    "double-quoted": each("**/*.yaml", double_quoted),
    "latest-image-link": each("inventories/k8s.yaml", latest_image_link),
    "build-tag-equals": each("workflows/*.yaml", tag_equals),
    "storage-on-aws": storage_on_aws,
}


@pytest.fixture(scope="module")
def expected():
    """The `expected` module of the benchmark."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("expected")


def build(manifest, queries, caplog):
    """The results per query, the warnings logged (as their unformatted
    messages), the image node count and the node and edge counts of one
    build."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        graph, _, _ = build_graph(load_manifest(manifest))
    found = {name: len(evaluate(graph, parse_query(text))) for name, text in queries.items()}
    warnings = sorted(record.msg for record in caplog.records if record.levelno >= logging.WARNING)
    return found, warnings, len(graph.nodes_with_class("ContainerImage")), graph.node_count, graph.edge_count


@pytest.mark.parametrize("case", CASES)
def test_equivalent_inputs_keep_their_findings(expected, tmp_path, caplog, case):
    data = Path(str(DATA))
    queries = expected.query_texts(data)
    original = build(data / "fixtures" / "bookinfo" / "manifest.yaml", queries, caplog)
    # the manifest names the ontology as ../../ontology, so keep that layout
    shutil.copytree(data / "ontology", tmp_path / "ontology")
    testbed = shutil.copytree(data / "fixtures" / "bookinfo", tmp_path / "fixtures" / "bookinfo")
    assert CASES[case](testbed), "the rewrite changed no file"

    assert original[0] == expected.EXPECTED["bookinfo"] and original[2:] == (3, 61, 92)
    # a host that addresses nothing still matches on path alone, with a
    # warning, so the warnings show a rewrite the counts do not
    assert build(testbed / "manifest.yaml", queries, caplog) == original


def one_change(old: str, new: str) -> Callable[[str], str]:
    """The rewrite of the one occurrence of `old` by `new`."""

    def rewrite(text: str) -> str:
        assert text.count(old) == 1
        return text.replace(old, new)

    return rewrite


# single faults put into bookinfo_clean's storage container: (the rewrite,
# each count it changes, with its count afterwards)
FAULTS = {
    # The storage endpoint's TransportEncryption reads TLS1_1.
    #   weak-transport-encryption 2: the endpoint's two other neighbours,
    #     the container and its TokenBasedAuthentication, each bind `n`.
    "storage-tls-1-1": (
        each("inventories/azure.yaml", one_change("tls_version: TLS1_2", "tls_version: TLS1_1")),
        {"weak-transport-encryption": 2},
    ),
    # The container serves anonymous requests: its endpoint's authenticity
    # feature becomes a NoAuthentication node.
    #   public-storage-writes 1: kubernetes-logs-append, sourced at
    #     kubernetes-logs, into am-containerlog.
    #   expression-to-public-storage 1: the "login attempt" literal flows
    #     through productpage-logs and productpage-v1 into the container;
    #     no other expression has a DFG path to it.
    "anonymous-storage": (
        each("inventories/azure.yaml", one_change("auth: token", "auth: none")),
        {"public-storage-writes": 1, "expression-to-public-storage": 1},
    ),
}


@pytest.mark.parametrize("case", FAULTS)
def test_single_fault_changes_only_its_findings(expected, tmp_path, caplog, case):
    data = Path(str(DATA))
    queries = expected.query_texts(data)
    clean = build(data / "fixtures" / "bookinfo_clean" / "manifest.yaml", queries, caplog)
    assert clean[0] == expected.EXPECTED["bookinfo_clean"]
    shutil.copytree(data / "ontology", tmp_path / "ontology")
    testbed = shutil.copytree(data / "fixtures" / "bookinfo_clean", tmp_path / "fixtures" / "bookinfo_clean")
    rewrite, changed = FAULTS[case]
    assert rewrite(testbed) == 1
    assert all(clean[0][name] == 0 for name in changed)
    found, *rest = build(testbed / "manifest.yaml", queries, caplog)
    assert found == clean[0] | changed
    # the same warnings, image nodes, and node and edge counts
    assert tuple(rest) == clean[1:]
