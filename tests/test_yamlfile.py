import pytest

from skygraph.build import load_manifest
from skygraph.codefacts import load_code_facts
from skygraph.discovery import load_inventory, load_workflow
from skygraph.errors import CodeFactsError, DiscoveryError, ManifestError, OntologyError
from skygraph.ontology import load_ontology

from .conftest import data_path

LOADERS = {
    "manifest": (load_manifest, ManifestError),
    "ontology": (load_ontology, OntologyError),
    "mapping": (lambda path: load_ontology(data_path("ontology/core.yaml"), [path]), OntologyError),
    "codefacts": (load_code_facts, CodeFactsError),
    "inventory": (load_inventory, DiscoveryError),
    "workflow": (load_workflow, DiscoveryError),
}

BAD_FILES = {
    "syntax": "provider: [unclosed\n".encode(),
    "not-utf8": b"provider: \xff\xfe\n",
    "missing": None,
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_unreadable_yaml_raises_typed_error_naming_file(tmp_path, kind, bad):
    load, error_cls = LOADERS[kind]
    path = tmp_path / f"{kind}-input.yaml"
    if BAD_FILES[bad] is not None:
        path.write_bytes(BAD_FILES[bad])
    with pytest.raises(error_cls, match=f"{kind}-input.yaml"):
        load(path)
