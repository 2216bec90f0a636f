"""Fuzzed input documents: one leaf or entry of a bundled document is
replaced or deleted, and reading the result must either succeed or raise a
`SkygraphError`; any other exception is a crash the CLI would print as a
traceback."""

import functools
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.build import build_graph, load_manifest, manifest_from_document
from skygraph.codefacts import bundle_from_document, ingest_code_facts
from skygraph.discovery import Discovery, inventory_from_document, workflow_from_document
from skygraph.errors import SkygraphError
from skygraph.graph import PropertyGraph, export_graph, import_graph
from skygraph.ontology import ontology_from_documents

from .conftest import data_path

DELETE = object()
VALUES = (None, 5, True, 1.5, "x", [], {}, [[1]], {"k": [1]}, DELETE)
BOOKINFO = Path(data_path("fixtures/bookinfo"))


@functools.cache
def _yaml(path: str):
    return yaml.safe_load(Path(data_path(path)).read_text(encoding="utf-8"))


@functools.cache
def _ontology():
    mappings = [_yaml(f"ontology/{name}.yaml") for name in ("aws", "azure", "k8s")]
    return ontology_from_documents(_yaml("ontology/core.yaml"), mappings)


def _slots(doc, path=()):
    """Key paths of every entry and leaf below the document root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _copy(doc):
    """A copy of every dict and list in a loaded document or a fuzz value,
    so that no two documents share one; the leaves are scalars, which no
    reader can change."""
    if type(doc) is dict:
        return {key: _copy(value) for key, value in doc.items()}
    if type(doc) is list:
        return [_copy(value) for value in doc]
    return doc


def _mutated(doc, path, value):
    doc = _copy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _copy(value)
    return doc


def mutations(doc):
    """Copies of `doc` with one slot replaced by one of VALUES or deleted."""
    changes = st.tuples(st.sampled_from(list(_slots(doc))), st.sampled_from(VALUES))
    return changes.map(lambda change: _mutated(doc, *change))


def _ingest_bundle(doc):
    ingest_code_facts(PropertyGraph(_ontology()), bundle_from_document(doc))


def _ingest_inventory(doc):
    discovery = Discovery(PropertyGraph(_ontology()), {"ghcr.io": "us"})
    discovery.ingest_inventory(inventory_from_document(doc))
    discovery.resolve_inventory_links()


def _ingest_workflow(doc):
    Discovery(PropertyGraph(_ontology())).ingest_workflow(workflow_from_document(doc))


def _export():
    graph, _, _ = build_graph(load_manifest(BOOKINFO / "manifest.yaml"))
    return json.loads(export_graph(graph))


# document -> (how to load the document, how it is read)
READERS = {
    "manifest": (
        lambda: _yaml("fixtures/bookinfo/manifest.yaml"),
        lambda doc: manifest_from_document(doc, BOOKINFO),
    ),
    "ontology": (lambda: _yaml("ontology/core.yaml"), lambda doc: ontology_from_documents(doc, [])),
    "mapping": (
        lambda: _yaml("ontology/azure.yaml"),
        lambda doc: ontology_from_documents(_yaml("ontology/core.yaml"), [doc]),
    ),
    "codefacts": (lambda: _yaml("fixtures/bookinfo/codefacts/productpage.yaml"), _ingest_bundle),
    "inventory": (lambda: _yaml("fixtures/bookinfo/inventories/azure.yaml"), _ingest_inventory),
    "workflow": (lambda: _yaml("fixtures/bookinfo/workflows/deploy.yaml"), _ingest_workflow),
    "export": (_export, import_graph),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_mutated_document_raises_only_skygraph_errors(kind):
    load, read = READERS[kind]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(mutations(load()))
    def check(mutated):
        try:
            read(mutated)
        except SkygraphError:
            pass

    check()


@pytest.mark.parametrize(
    "kind, check",
    [("codefacts", bundle_from_document), ("export", None), ("inventory", inventory_from_document)],
    ids=["codefacts", "export", "inventory"],
)
def test_accepted_document_is_read_in_place(kind, check):
    """A checker returns the document it was given, and neither it nor the
    ingest that reads the checked document writes into it: for the document
    and each of its one-slot mutations, tried exhaustively, since a default
    written in place shows only when that slot is absent. An export has no
    checker of its own; the graph `import_graph` makes of it keeps the
    document's property dicts, so a write into one would show here."""
    load, read = READERS[kind]
    doc = load()
    changes = [None] + [(path, value) for path in _slots(doc) for value in VALUES]
    for change in changes:
        # `doc` itself is never read, so it and its mutations made anew
        # are what each document held before it was read
        document = _copy(doc) if change is None else _mutated(doc, *change)
        try:
            checked = document if check is None else check(document)
            read(document)
        except SkygraphError:
            continue
        assert checked is document
        assert document == (doc if change is None else _mutated(doc, *change))
