"""Exception types raised across the analysis pipeline."""

from __future__ import annotations


class SkygraphError(Exception):
    """Base class for all errors raised by this package."""


class OntologyError(SkygraphError):
    """Invalid ontology document: unresolved reference, cycle, or duplicate."""


class UnknownClassError(SkygraphError):
    """A class name does not resolve in the ontology or the code-graph classes."""


class UnknownMappingError(SkygraphError):
    """No instance mapping exists for a (provider, provider_type) pair.

    Carries both identifiers so callers can surface which inventory
    resource could not be classified.
    """

    def __init__(self, provider: str, provider_type: str):
        self.provider = provider
        self.provider_type = provider_type
        super().__init__(
            f"no ontology mapping for provider {provider!r} type {provider_type!r}"
        )


class GraphError(SkygraphError):
    """Graph construction violation: dangling endpoint, bad edge type,
    disallowed property key, or mutation after freeze."""


class CodeFactsError(SkygraphError):
    """Invalid code-facts bundle: unresolved expression ref or duplicate name."""


class DiscoveryError(SkygraphError):
    """Invalid inventory or workflow document, or a dangling resource link."""


class AmbiguousStorageError(SkygraphError):
    """A storage request matches more than one storage resource."""


class QuerySyntaxError(SkygraphError):
    """Query text failed to parse; `offset` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class QueryError(SkygraphError):
    """A query file that could not be read, or a query that parsed but
    could not be evaluated."""


class ManifestError(SkygraphError):
    """Bad build manifest: missing file or malformed field."""
