"""Metamorphic deployment tests: rewrites of the bookinfo testbed that
describe the same deployment must keep every finding.

Each case rewrites one kind of input file in a copy of the testbed, builds
it, and checks the nine benchmark queries against the per-tenant counts of
`bench/expected.py`, the only oracle. The build must also log the warnings
the original does, and make its 3 image nodes. The relation is metamorphic
testing in the sense of Chen, Cheung and Yiu (HKUST CS98-01, 1998): no case
knows the right findings of its own input, only that they equal the
original's.
"""

from __future__ import annotations

import importlib
import logging
import re
import shutil
from pathlib import Path

import pytest

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


CASES = {
    "latest-tag": ("workflows", latest_tag),
    "second-tag": ("workflows", second_tag),
    "upper-request-host": ("codefacts", upper_host),
    "request-userinfo": ("codefacts", userinfo),
    "request-query-fragment": ("codefacts", query_and_fragment),
}


@pytest.fixture(scope="module")
def expected():
    """The `expected` module of the benchmark."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("expected")


def build(manifest, queries, caplog):
    """The results per query, the warnings logged (as their unformatted
    messages) and the image node count of one build."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        graph, _, _ = build_graph(load_manifest(manifest))
    found = {name: len(evaluate(graph, parse_query(text))) for name, text in queries.items()}
    warnings = sorted(record.msg for record in caplog.records if record.levelno >= logging.WARNING)
    return found, warnings, len(graph.nodes_with_class("ContainerImage"))


@pytest.mark.parametrize("case", CASES)
def test_equivalent_inputs_keep_their_findings(expected, tmp_path, caplog, case):
    folder, rewrite = CASES[case]
    data = Path(str(DATA))
    queries = expected.query_texts(data)
    original = build(data / "fixtures" / "bookinfo" / "manifest.yaml", queries, caplog)
    # the manifest names the ontology as ../../ontology, so keep that layout
    shutil.copytree(data / "ontology", tmp_path / "ontology")
    testbed = shutil.copytree(data / "fixtures" / "bookinfo", tmp_path / "fixtures" / "bookinfo")
    rewritten = 0
    for path in sorted((testbed / folder).glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        new = rewrite(text)
        rewritten += new != text
        path.write_text(new, encoding="utf-8")
    assert rewritten, "the rewrite changed no file"

    assert original[0] == expected.EXPECTED["bookinfo"] and original[2] == 3
    # a host that addresses nothing still matches on path alone, with a
    # warning, so the warnings show a rewrite the counts do not
    assert build(testbed / "manifest.yaml", queries, caplog) == original
