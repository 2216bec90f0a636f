"""Taxonomies of cloud resources, frameworks, functionalities and security
features, plus the per-provider type mappings that classify inventory
resources into abstract classes.

The ontology is immutable after loading and safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class OntologyClass:
    name: str
    kind: str
    parent: str | None = None
    data_properties: tuple[tuple[str, str], ...] = ()
    offers: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstanceMapping:
    provider: str
    provider_type: str
    ontology_class: str


@dataclass
class Ontology:
    """Validated class hierarchy plus provider instance mappings."""

    classes: dict[str, OntologyClass]
    mappings: list[InstanceMapping]
    # class -> its chain from the root down to itself
    _ancestry: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
    _mapping_index: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        self._mapping_index = {
            (m.provider, m.provider_type): m.ontology_class for m in self.mappings
        }

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        for cls in self.classes.values():
            if cls.kind not in CLASS_KINDS:
                raise OntologyError(f"class {cls.name!r} has unknown kind {cls.kind!r}")
            for prop, prop_kind in cls.data_properties:
                if prop_kind not in PROPERTY_KINDS:
                    raise OntologyError(
                        f"class {cls.name!r} property {prop!r} has unknown kind {prop_kind!r}"
                    )
            if cls.parent is not None:
                parent = self.classes.get(cls.parent)
                if parent is None:
                    raise OntologyError(
                        f"class {cls.name!r} references unknown parent {cls.parent!r}"
                    )
                if parent.kind != cls.kind:
                    raise OntologyError(
                        f"class {cls.name!r} ({cls.kind}) has parent of kind {parent.kind!r}"
                    )
            for offered in cls.offers:
                target = self.classes.get(offered)
                if target is None:
                    raise OntologyError(
                        f"class {cls.name!r} offers unknown class {offered!r}"
                    )
                if target.kind not in ("functionality", "security-feature"):
                    raise OntologyError(
                        f"class {cls.name!r} offers {offered!r} of kind {target.kind!r}"
                    )
        # each class's ancestry, extending the first known one on its
        # parent chain; a chain that meets itself is a cycle
        for name in self.classes:
            chain: list[str] = []
            cur: str | None = name
            while cur is not None and cur not in self._ancestry:
                if cur in chain:
                    raise OntologyError(f"inheritance cycle through class {cur!r}")
                chain.append(cur)
                cur = self.classes[cur].parent
            ancestry = self._ancestry.get(cur, ())
            for link in reversed(chain):
                ancestry = self._ancestry[link] = ancestry + (link,)
        for m in self.mappings:
            cls = self.classes.get(m.ontology_class)
            if cls is None:
                raise OntologyError(
                    f"mapping {m.provider}/{m.provider_type} references unknown "
                    f"class {m.ontology_class!r}"
                )
            if cls.kind != "resource":
                raise OntologyError(
                    f"mapping {m.provider}/{m.provider_type} targets non-resource "
                    f"class {m.ontology_class!r}"
                )
        seen: set[tuple[str, str]] = set()
        for m in self.mappings:
            key = (m.provider, m.provider_type)
            if key in seen:
                raise OntologyError(
                    f"duplicate mapping for provider {m.provider!r} "
                    f"type {m.provider_type!r}"
                )
            seen.add(key)

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
        cls = self._mapping_index.get((provider, provider_type))
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
            for offered in self.classes[ancestor].offers:
                if offered not in seen:
                    seen.add(offered)
                    out.append(offered)
        return out

    # -- serialization -------------------------------------------------

    def to_documents(self) -> tuple[dict, list[dict]]:
        """Rebuild the (ontology document, mapping documents) pair.

        Classes are sorted by name; offers and data properties keep
        declaration order.
        """
        classes = []
        for cls in sorted(self.classes.values(), key=lambda c: c.name):
            entry: dict = {"name": cls.name, "kind": cls.kind}
            if cls.parent is not None:
                entry["parent"] = cls.parent
            if cls.data_properties:
                entry["data_properties"] = {k: v for k, v in cls.data_properties}
            if cls.offers:
                entry["offers"] = list(cls.offers)
            classes.append(entry)
        by_provider: dict[str, list[dict]] = {}
        for m in self.mappings:
            by_provider.setdefault(m.provider, []).append(
                {"provider_type": m.provider_type, "ontology_class": m.ontology_class}
            )
        mapping_docs = [
            {"provider": provider, "types": types}
            for provider, types in sorted(by_provider.items())
        ]
        return {"classes": classes}, mapping_docs


def _check_ontology_document(doc: dict) -> dict:
    check_fields(doc, "ontology document", OntologyError, *_ONTOLOGY)
    for entry in doc.get("classes") or []:
        check_fields(entry, "class entry", OntologyError, *_CLASS)
    return doc


def _mappings(doc: dict) -> list[InstanceMapping]:
    """The entries of one mapping document, after checking its shape."""
    check_fields(doc, "mapping document", OntologyError, *_MAPPING_DOCUMENT)
    mappings = []
    for entry in doc.get("types") or []:
        check_fields(entry, "mapping entry", OntologyError, *_MAPPING)
        mappings.append(
            InstanceMapping(doc["provider"], entry["provider_type"], entry["ontology_class"])
        )
    return mappings


def ontology_from_documents(ontology_doc: dict, mapping_docs: list[dict]) -> Ontology:
    """Build and validate an Ontology from already-parsed documents."""
    classes: dict[str, OntologyClass] = {}
    for entry in _check_ontology_document(ontology_doc).get("classes") or []:
        if entry["name"] in classes:
            raise OntologyError(f"duplicate class name {entry['name']!r}")
        classes[entry["name"]] = OntologyClass(
            name=entry["name"],
            kind=entry["kind"],
            parent=entry.get("parent"),
            data_properties=tuple((entry.get("data_properties") or {}).items()),
            offers=tuple(entry.get("offers") or []),
        )
    return Ontology(classes=classes, mappings=[m for doc in mapping_docs for m in _mappings(doc)])


def _with_mappings(ontology: Ontology, doc: dict) -> Ontology:
    """`ontology` plus the entries of one mapping document, validated
    again, so that `load_ontology` can name the file an error belongs to."""
    return Ontology(ontology.classes, ontology.mappings + _mappings(doc))


def load_ontology(ontology_path: str | Path, mapping_paths: list[str | Path] = ()) -> Ontology:
    """Load the ontology document and per-provider mapping files. Every
    OntologyError names the file that holds the fault: the ontology file
    for its classes, a mapping file for its entries."""
    ontology = load_document(ontology_path, OntologyError, lambda doc: ontology_from_documents(doc, []))
    for path in mapping_paths:
        ontology = load_document(path, OntologyError, functools.partial(_with_mappings, ontology))
    return ontology
