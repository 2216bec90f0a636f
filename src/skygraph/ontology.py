"""Taxonomies of cloud resources, frameworks, functionalities and security
features, plus the per-provider type mappings that classify inventory
resources into abstract classes.

The ontology keeps its documents as checked, with no copy of its own:
`classes` holds each class entry of the ontology document, and `mappings`
the `(provider, provider_type) -> class` bindings of the mapping documents,
in declaration order. The class entries are checked once, when the ontology
document is read. A mapping document is checked when it is added: the shape
of its entries, then their classes, then duplicates against the mappings
already held. So `load_ontology` checks each class once, names the file of
every fault, and reports a mapping that two files declare in the later one.

The ontology is immutable after loading and safe to share between threads.
"""

from __future__ import annotations

from pathlib import Path

from skygraph.errors import OntologyError, UnknownClassError, UnknownMappingError
from skygraph.yamlfile import check_fields, load_document

CLASS_KINDS = ("resource", "framework", "functionality", "security-feature")
#: Each data property kind, and the Python type of its values.
PROPERTY_KINDS = {"string": str, "boolean": bool, "integer": int}
#: The kind of a value of each of those types.
KIND_OF = {value_type: kind for kind, value_type in PROPERTY_KINDS.items()}

# (required, optional) fields of each document and entry
_ONTOLOGY = ({}, {"classes": list})
_CLASS = (
    {"name": str, "kind": str},
    {"parent": str, "data_properties": {str: str}, "offers": [str]},
)
_MAPPING_DOCUMENT = ({"provider": str}, {"types": list})
_MAPPING = ({"provider_type": str, "ontology_class": str}, {})


class Ontology:
    """Validated class hierarchy plus provider instance mappings."""

    def __init__(self, ontology_doc: dict):
        """Check the ontology document and hold its class entries, with no
        mappings yet."""
        check_fields(ontology_doc, "ontology document", OntologyError, *_ONTOLOGY)
        #: class name -> its checked entry
        self.classes: dict[str, dict] = {}
        for entry in ontology_doc.get("classes") or []:
            check_fields(entry, "class entry", OntologyError, *_CLASS)
            if entry["name"] in self.classes:
                raise OntologyError(f"duplicate class name {entry['name']!r}")
            self.classes[entry["name"]] = entry
        for name, cls in self.classes.items():
            kind = cls["kind"]
            if kind not in CLASS_KINDS:
                raise OntologyError(f"class {name!r} has unknown kind {kind!r}")
            for prop, prop_kind in (cls.get("data_properties") or {}).items():
                if prop_kind not in PROPERTY_KINDS:
                    raise OntologyError(
                        f"class {name!r} property {prop!r} has unknown kind {prop_kind!r}"
                    )
            if cls.get("parent") is not None:
                parent = self.classes.get(cls["parent"])
                if parent is None:
                    raise OntologyError(
                        f"class {name!r} references unknown parent {cls['parent']!r}"
                    )
                if parent["kind"] != kind:
                    raise OntologyError(
                        f"class {name!r} ({kind}) has parent of kind {parent['kind']!r}"
                    )
            for offered in cls.get("offers") or ():
                target = self.classes.get(offered)
                if target is None:
                    raise OntologyError(f"class {name!r} offers unknown class {offered!r}")
                if target["kind"] not in ("functionality", "security-feature"):
                    raise OntologyError(
                        f"class {name!r} offers {offered!r} of kind {target['kind']!r}"
                    )
        # class -> its chain from the root down to itself, extending the
        # first known one on its parent chain; a chain that meets itself is
        # a cycle
        self._ancestry: dict[str, tuple[str, ...]] = {}
        for name in self.classes:
            chain: list[str] = []
            cur: str | None = name
            while cur is not None and cur not in self._ancestry:
                if cur in chain:
                    raise OntologyError(f"inheritance cycle through class {cur!r}")
                chain.append(cur)
                cur = self.classes[cur].get("parent")
            ancestry = self._ancestry.get(cur, ())
            for link in reversed(chain):
                ancestry = self._ancestry[link] = ancestry + (link,)
        #: (provider, provider_type) -> class, in declaration order
        self.mappings: dict[tuple[str, str], str] = {}

    def _add_mappings(self, doc: dict) -> None:
        """Check one mapping document and hold its entries: first the shape
        of every entry, then each entry's class, then duplicates against
        the mappings already held."""
        check_fields(doc, "mapping document", OntologyError, *_MAPPING_DOCUMENT)
        provider, entries = doc["provider"], doc.get("types") or []
        for entry in entries:
            check_fields(entry, "mapping entry", OntologyError, *_MAPPING)
        for entry in entries:
            where = f"mapping {provider}/{entry['provider_type']}"
            name = entry["ontology_class"]
            if name not in self.classes:
                raise OntologyError(f"{where} references unknown class {name!r}")
            if self.classes[name]["kind"] != "resource":
                raise OntologyError(f"{where} targets non-resource class {name!r}")
        for entry in entries:
            key = (provider, entry["provider_type"])
            if key in self.mappings:
                raise OntologyError(f"duplicate mapping for provider {provider!r} type {key[1]!r}")
            self.mappings[key] = entry["ontology_class"]

    # -- reasoning -----------------------------------------------------

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def ancestry(self, name: str) -> tuple[str, ...]:
        """Chain from the root down to `name` itself (ancestor-first)."""
        try:
            return self._ancestry[name]
        except KeyError:
            raise UnknownClassError(f"unknown ontology class {name!r}") from None

    def is_subclass(self, child: str, ancestor: str) -> bool:
        """True iff `ancestor` is reachable from `child` by parent links.

        Reflexive: every class is a subclass of itself.
        """
        self.ancestry(ancestor)  # an unknown ancestor raises too
        return ancestor in self.ancestry(child)

    def resolve_instance_class(self, provider: str, provider_type: str) -> str:
        """Classify a provider-specific resource type, e.g. an AWS EC2
        Volume into BlockStorage."""
        cls = self.mappings.get((provider, provider_type))
        if cls is None:
            raise UnknownMappingError(provider, provider_type)
        return cls

    def offered_features(self, class_name: str) -> list[str]:
        """Union of `offers` over the class and its ancestors.

        Deduplicated; ancestor declarations come first so downstream
        node construction is reproducible.
        """
        out: list[str] = []
        seen: set[str] = set()
        for ancestor in self.ancestry(class_name):
            for offered in self.classes[ancestor].get("offers") or ():
                if offered not in seen:
                    seen.add(offered)
                    out.append(offered)
        return out

    # -- serialization -------------------------------------------------

    def to_documents(self) -> tuple[dict, list[dict]]:
        """The (ontology document, mapping documents) pair.

        Class entries are sorted by name, without their empty optional
        fields; offers and data properties keep declaration order. There is
        one mapping document per provider, sorted by provider, with its
        entries in declaration order.
        """
        classes = [
            {key: value for key, value in self.classes[name].items() if value or key not in _CLASS[1]}
            for name in sorted(self.classes)
        ]
        by_provider: dict[str, list[dict]] = {}
        for (provider, provider_type), cls in self.mappings.items():
            by_provider.setdefault(provider, []).append(
                {"provider_type": provider_type, "ontology_class": cls}
            )
        mapping_docs = [
            {"provider": provider, "types": types} for provider, types in sorted(by_provider.items())
        ]
        return {"classes": classes}, mapping_docs


def ontology_from_documents(ontology_doc: dict, mapping_docs: list[dict]) -> Ontology:
    """Check already-parsed documents and build the Ontology that holds them."""
    ontology = Ontology(ontology_doc)
    for doc in mapping_docs:
        ontology._add_mappings(doc)
    return ontology


def load_ontology(ontology_path: str | Path, mapping_paths: list[str | Path] = ()) -> Ontology:
    """Load the ontology document and per-provider mapping files. Every
    OntologyError names the file that holds the fault: the ontology file
    for its classes, a mapping file for its entries."""
    ontology = load_document(ontology_path, OntologyError, lambda doc: ontology_from_documents(doc, []))
    for path in mapping_paths:
        load_document(path, OntologyError, ontology._add_mappings)
    return ontology
