import pytest
import yaml

from skygraph.errors import OntologyError, UnknownClassError, UnknownMappingError
from skygraph.graph import PropertyGraph, export_graph
from skygraph.ontology import load_ontology, ontology_from_documents

from .conftest import data_path


def make(classes, mappings=None):
    return ontology_from_documents({"classes": classes}, mappings or [])


def test_minimal_single_root():
    ontology = make([{"name": "CloudResource", "kind": "resource"}])
    assert ontology.has_class("CloudResource")
    assert ontology.mappings == {}


def test_bundled_inheritance_chain(core_ontology):
    assert core_ontology.classes["ObjectStorage"]["parent"] == "Storage"
    assert core_ontology.classes["Storage"]["parent"] == "CloudResource"


def test_cycle_is_rejected():
    with pytest.raises(OntologyError, match="cycle"):
        make(
            [
                {"name": "A", "kind": "resource", "parent": "B"},
                {"name": "B", "kind": "resource", "parent": "A"},
            ]
        )


def test_duplicate_class_rejected():
    with pytest.raises(OntologyError, match="duplicate"):
        make(
            [
                {"name": "A", "kind": "resource"},
                {"name": "A", "kind": "resource"},
            ]
        )


def test_unresolved_parent_rejected():
    with pytest.raises(OntologyError, match="Ghost"):
        make([{"name": "A", "kind": "resource", "parent": "Ghost"}])


def test_unresolved_offer_rejected():
    with pytest.raises(OntologyError, match="Ghost"):
        make([{"name": "A", "kind": "resource", "offers": ["Ghost"]}])


def test_offer_must_be_functionality_or_feature():
    with pytest.raises(OntologyError, match="kind"):
        make(
            [
                {"name": "A", "kind": "resource"},
                {"name": "B", "kind": "resource", "offers": ["A"]},
            ]
        )


def test_parent_kind_must_match():
    with pytest.raises(OntologyError, match="kind"):
        make(
            [
                {"name": "A", "kind": "resource"},
                {"name": "B", "kind": "functionality", "parent": "A"},
            ]
        )


def test_unknown_keys_are_strict():
    with pytest.raises(OntologyError, match="unknown keys"):
        make([{"name": "A", "kind": "resource", "offerz": []}])
    with pytest.raises(OntologyError, match=r"unknown keys \['extra'\] in ontology document"):
        ontology_from_documents({"classes": [], "extra": 1}, [])


def _inline_mappings(ontology_doc, mapping_doc):
    entry = {"provider": "aws", "provider_type": "X", "ontology_class": "BlockStorage"}
    ontology_doc["mappings"] = [entry]


def _provider_per_entry(ontology_doc, mapping_doc):
    provider = mapping_doc.pop("provider")
    for entry in mapping_doc["types"]:
        entry["provider"] = provider


@pytest.mark.parametrize(
    "mutate, faulty, message",
    [
        (_inline_mappings, "core.yaml", r"unknown keys \['mappings'\] in ontology document"),
        (_provider_per_entry, "aws.yaml", r"mapping document is missing \['provider'\]"),
    ],
    ids=["inline-mappings", "provider-per-entry"],
)
def test_one_mapping_shape(tmp_path, mutate, faulty, message):
    """Mappings live only in mapping files, each naming its provider once."""
    docs = {}
    for name in ("core.yaml", "aws.yaml"):
        with open(data_path(f"ontology/{name}"), encoding="utf-8") as fh:
            docs[name] = yaml.safe_load(fh)
    mutate(docs["core.yaml"], docs["aws.yaml"])
    for name, doc in docs.items():
        (tmp_path / name).write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(OntologyError, match=message) as info:
        load_ontology(tmp_path / "core.yaml", [tmp_path / "aws.yaml"])
    assert str(info.value).startswith(f"{tmp_path / faulty}: ")


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"provider_type": "AWS::EC2::Volume", "ontology_class": "BlockStorage"},
         r"duplicate mapping for provider 'aws' type 'AWS::EC2::Volume'"),
        ({"provider_type": "AWS::New::Thing", "ontology_class": "Ghost"},
         r"mapping aws/AWS::New::Thing references unknown class 'Ghost'"),
        ({"provider_type": "AWS::New::Thing", "ontology_class": "TransportEncryption"},
         r"mapping aws/AWS::New::Thing targets non-resource class 'TransportEncryption'"),
    ],
    ids=["duplicate-of-first-file", "unknown-class", "non-resource-class"],
)
def test_mapping_fault_names_the_later_file(tmp_path, entry, message):
    """A fault of the second mapping file names that file, also when the
    mapping it repeats was declared by the first."""
    later = tmp_path / "more-aws.yaml"
    later.write_text(yaml.safe_dump({"provider": "aws", "types": [entry]}), encoding="utf-8")
    first = data_path("ontology/aws.yaml")
    with pytest.raises(OntologyError, match=message) as info:
        load_ontology(data_path("ontology/core.yaml"), [first, later])
    assert str(info.value).startswith(f"{later}: ")


def test_duplicate_mapping_rejected():
    classes = [{"name": "BlockStorage", "kind": "resource"}]
    mapping = {
        "provider": "aws",
        "types": [
            {"provider_type": "AWS::EC2::Volume", "ontology_class": "BlockStorage"},
            {"provider_type": "AWS::EC2::Volume", "ontology_class": "BlockStorage"},
        ],
    }
    with pytest.raises(OntologyError, match="duplicate mapping"):
        ontology_from_documents({"classes": classes}, [mapping])


def test_mapping_must_target_resource_class():
    classes = [{"name": "F", "kind": "functionality"}]
    mapping = {"provider": "aws", "types": [{"provider_type": "X", "ontology_class": "F"}]}
    with pytest.raises(OntologyError, match="non-resource"):
        ontology_from_documents({"classes": classes}, [mapping])


class TestIsSubclass:
    def test_chain(self, core_ontology):
        assert core_ontology.is_subclass("ObjectStorage", "CloudResource")

    def test_reflexive(self, core_ontology):
        assert core_ontology.is_subclass("Storage", "Storage")

    def test_directed(self, core_ontology):
        assert not core_ontology.is_subclass("CloudResource", "ObjectStorage")

    def test_unknown_class(self, core_ontology):
        with pytest.raises(UnknownClassError):
            core_ontology.is_subclass("Nope", "Storage")
        with pytest.raises(UnknownClassError):
            core_ontology.is_subclass("Storage", "Nope")


class TestResolveInstanceClass:
    def test_aws_volume(self, core_ontology):
        assert core_ontology.resolve_instance_class("aws", "AWS::EC2::Volume") == "BlockStorage"

    def test_ingress_is_load_balancer(self, core_ontology):
        assert core_ontology.resolve_instance_class("k8s", "Ingress") == "LoadBalancer"

    def test_unknown_mapping_carries_identifiers(self, core_ontology):
        with pytest.raises(UnknownMappingError) as info:
            core_ontology.resolve_instance_class("aws", "AWS::Unknown::Thing")
        assert info.value.provider == "aws"
        assert info.value.provider_type == "AWS::Unknown::Thing"


class TestOfferedFeatures:
    def test_block_storage(self, core_ontology):
        features = core_ontology.offered_features("BlockStorage")
        assert "AtRestEncryption" in features
        assert "GeoLocation" in features

    def test_root_with_no_offers(self):
        ontology = make([{"name": "A", "kind": "resource"}])
        assert ontology.offered_features("A") == []

    def test_inherited_through_storage(self, core_ontology):
        assert "AtRestEncryption" in core_ontology.offered_features("ObjectStorage")

    def test_ancestor_first_order(self, core_ontology):
        features = core_ontology.offered_features("ObjectStorage")
        # root-level GeoLocation, then Storage's AtRestEncryption, then own offers
        assert features.index("GeoLocation") < features.index("AtRestEncryption")
        assert features.index("AtRestEncryption") < features.index("TransportEncryption")

    def test_unknown_class(self, core_ontology):
        with pytest.raises(UnknownClassError):
            core_ontology.offered_features("Nope")


def test_subclass_transitivity_exhaustive(core_ontology):
    names = list(core_ontology.classes)
    subclass_pairs = {
        (a, b) for a in names for b in names if core_ontology.is_subclass(a, b)
    }
    for a, b in subclass_pairs:
        for c in names:
            if (b, c) in subclass_pairs:
                assert (a, c) in subclass_pairs


def test_feature_inheritance_superset(core_ontology):
    for name, cls in core_ontology.classes.items():
        if cls.get("parent") is None:
            continue
        child_features = set(core_ontology.offered_features(name))
        parent_features = set(core_ontology.offered_features(cls["parent"]))
        assert child_features >= parent_features


def test_round_trip(core_ontology):
    doc, mapping_docs = core_ontology.to_documents()
    reloaded = ontology_from_documents(doc, mapping_docs)
    assert reloaded.to_documents() == (doc, mapping_docs)
    assert reloaded.mappings == core_ontology.mappings


def test_empty_optional_fields_export_as_absent():
    """`parent: null`, `offers: []` and `data_properties: {}` export exactly
    as a class entry without them."""
    root = {"name": "CloudResource", "kind": "resource"}
    bare = {"name": "Disk", "kind": "resource"}
    empty = dict(bare, parent=None, offers=[], data_properties={})
    texts = [
        export_graph(PropertyGraph(make([root, entry]))) for entry in (bare, empty)
    ]
    assert texts[0] == texts[1]
    assert '"parent"' not in texts[0] and '"offers"' not in texts[0]
