"""The one reader of skygraph's YAML inputs (manifests, ontology and
mapping files, code facts, inventories and workflows), the one check of
every input document's shape, and the one way an error names its file.

Parsing and composing use libyaml (`yaml.CSafeLoader`) when PyYAML was
built with it, and the pure-Python `yaml.SafeLoader` otherwise. Scalars
resolve as YAML 1.1 does in PyYAML (``on:`` is True). Construction is
restricted: mappings, sequences and string scalars with their default tags
become dicts, lists and strs through an explicit queue, and every other
scalar goes through PyYAML's own constructor. A document holding anything
else (a collection reached twice through an alias, a merge key, another
tag, or a key that is not a string) is built by `SafeLoader`'s constructor
instead, so the result, or the error raised, is always `SafeLoader`'s.

A field's declared type (its spec) is a type, a tuple of specs (any one of
them), ``[spec]`` for a list of spec, or ``{key: value}`` specs for a
mapping.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from skygraph.errors import SkygraphError, UnknownClassError

#: Spec of a property value: string, boolean or integer.
SCALAR = (str, bool, int)


_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _TAG + "str", _TAG + "seq", _TAG + "map"
# the other tags YAML 1.1 resolution gives a plain scalar (merge and `=` only
# mean something as keys); SafeConstructor builds each at once, with no generator
_PLAIN_SCALAR_TAGS = frozenset(
    _TAG + name for name in ("null", "bool", "int", "float", "timestamp")
)

# the no-op path hooks of `_RestrictedLoader` would ignore path resolvers
_BASES = (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
if any(base.yaml_path_resolvers for base in _BASES):
    raise ImportError("PyYAML's safe loaders have path resolvers; skygraph's loader ignores them")


class _Unsupported(Exception):
    """The document needs more than the restricted construction builds."""


class _RestrictedLoader:
    """Loader mixin: restricted construction, on top of the base loader's
    parsing, composition and scalar resolution."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # per first character, the base's implicit resolvers for it, then its
        # wildcard ones, the (tag, regexp) pairs `resolve` tries in turn
        resolvers = cls.yaml_implicit_resolvers
        wildcard = resolvers.get(None, [])
        cls._wildcard = tuple(wildcard)
        cls._implicit = {
            first: tuple(pairs + wildcard) for first, pairs in resolvers.items() if first is not None
        }

    # no path resolvers are registered, so tracking the path is wasted work
    def descend_resolver(self, current_node, current_index):
        pass

    def ascend_resolver(self):
        pass

    def resolve(self, kind, value, implicit):
        """The tag `BaseResolver.resolve` gives, without its list
        concatenation per call or its path resolvers, none of which are
        registered."""
        if kind is ScalarNode:
            if implicit[0]:
                for tag, regexp in self._implicit.get(value[:1], self._wildcard):
                    if regexp.match(value):
                        return tag
            return self.DEFAULT_SCALAR_TAG
        if kind is SequenceNode:
            return self.DEFAULT_SEQUENCE_TAG
        if kind is MappingNode:
            return self.DEFAULT_MAPPING_TAG

    def get_single_data(self):
        """The stream's one document, or None for an empty stream."""
        node = self.get_single_node()
        if node is None:
            return None
        try:
            return self._construct(node)
        except _Unsupported:
            return self.construct_document(node)

    def _construct(self, root):
        """`root` as dicts, lists and scalars. Collections are filled
        breadth first, as `construct_document` fills them, so the first
        error raised is the one it would raise; raises `_Unsupported` for a
        document that needs `construct_document`."""
        opened: set = set()  # collection nodes reached so far
        pending: deque = deque()  # (node, empty container) pairs to fill
        data = self._open(root, opened, pending)
        while pending:
            node, container = pending.popleft()
            if type(container) is list:
                for item in node.value:
                    container.append(self._open(item, opened, pending))
                continue
            for key, _ in node.value:
                # a key that is not a string may be a merge key or a `=`
                # key, which `flatten_mapping` rewrites, or unhashable
                if key.tag != _STR or type(key) is not ScalarNode:
                    raise _Unsupported
            for key, value in node.value:
                container[key.value] = self._open(value, opened, pending)
        return data

    def _open(self, node, opened: set, pending: deque):
        """A scalar's value, or a collection's empty container that
        `_construct` fills later."""
        tag, kind = node.tag, type(node)
        if kind is ScalarNode:
            if tag == _STR:
                return node.value
            if tag in _PLAIN_SCALAR_TAGS:
                return self.construct_object(node)
        elif node not in opened:
            opened.add(node)
            if kind is MappingNode and tag == _MAP:
                container = {}
            elif kind is SequenceNode and tag == _SEQ:
                container = []
            else:
                raise _Unsupported
            pending.append((node, container))
            return container
        raise _Unsupported


class _PyLoader(_RestrictedLoader, yaml.SafeLoader):
    """Pure-Python parsing and composition."""


if hasattr(yaml, "CSafeLoader"):

    class _CLoader(_RestrictedLoader, yaml.CSafeLoader):
        """libyaml's parsing and composition."""

else:
    _CLoader = _PyLoader


def _loader() -> type:
    # chosen per call, so that removing `yaml.CSafeLoader` (a PyYAML built
    # without libyaml, or a test) selects the pure-Python loader
    return _CLoader if hasattr(yaml, "CSafeLoader") else _PyLoader


def load_yaml(path: str | Path, error_cls: type[SkygraphError]):
    """Parse one YAML file. A file that cannot be read, decoded as UTF-8
    or parsed (nesting too deep for PyYAML without libyaml included), or
    that holds an impossible date, raises `error_cls` with a message naming
    the file."""
    loader = _loader()
    try:
        with open(path, encoding="utf-8") as fh:
            # through the module attribute, so a wrapped `yaml.load` sees every file
            return yaml.load(fh, Loader=loader)
    # ValueError covers UnicodeDecodeError and PyYAML's `datetime.date(2001, 2, 30)`
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise error_cls(f"cannot load {path}: {exc}") from exc
    # without libyaml, PyYAML's pure-Python parser recurses once per nesting level
    except RecursionError as exc:
        raise error_cls(f"cannot load {path}: nested too deeply to parse") from exc


def in_file(path: str | Path | None, exc: SkygraphError) -> SkygraphError:
    """`exc` with its message prefixed by `path`, unless None: the one way an
    error names the file it is about. Its type and attributes are kept."""
    if path is not None:
        exc.args = (f"{path}: {exc}",)
    return exc


@contextmanager
def ingesting(path: str | Path | None):
    """Name `path` in every `SkygraphError` the block raises but an
    `UnknownClassError`: a class the build writes that the ontology lacks,
    which `build_graph` reports in the ontology file."""
    try:
        yield
    except UnknownClassError:
        raise
    except SkygraphError as exc:
        raise in_file(path, exc)


def load_document(path: str | Path, error_cls: type[SkygraphError], read: Callable):
    """Load one YAML file and turn it into a value with `read`; every
    error raised on the way names the file."""
    doc = load_yaml(path, error_cls)
    try:
        return read(doc)
    except SkygraphError as exc:
        raise in_file(path, exc)


def _conforms(value, spec) -> bool:
    if isinstance(spec, type):
        return isinstance(value, spec)
    if isinstance(spec, list):
        return isinstance(value, list) and all(_conforms(item, spec[0]) for item in value)
    if isinstance(spec, dict):
        ((key_spec, value_spec),) = spec.items()
        return isinstance(value, dict) and all(
            _conforms(k, key_spec) and _conforms(v, value_spec) for k, v in value.items()
        )
    return any(_conforms(value, option) for option in spec)


def _describe(spec) -> str:
    if isinstance(spec, list):
        return f"list of {_describe(spec[0])}"
    if isinstance(spec, dict):
        ((key_spec, value_spec),) = spec.items()
        return f"mapping of {_describe(key_spec)} to {_describe(value_spec)}"
    if isinstance(spec, tuple):
        return " or ".join(map(_describe, spec))
    return spec.__name__


def check_fields(
    value, where: str, error_cls: type[SkygraphError], required: dict, optional: dict, open=False
) -> dict:
    """Check that `value` is a mapping with every `required` key present
    and not None, no keys but the declared ones (any keys when `open`), and
    each declared key that is not None of its spec. Returns `value`;
    raises `error_cls` whose message names `where` and the offending key."""
    if not isinstance(value, dict):
        raise error_cls(f"{where} must be a mapping, got {value!r}")
    for key in required:
        if value.get(key) is None:
            raise error_cls(f"{where} is missing {[k for k in required if value.get(k) is None]}")
    for key, item in value.items():
        spec = required.get(key) or optional.get(key)
        if spec is None:
            if not open:
                unknown = sorted(value.keys() - required.keys() - optional.keys(), key=str)
                raise error_cls(f"unknown keys {unknown} in {where}")
        elif item is not None and not _conforms(item, spec):
            raise error_cls(f"{key!r} in {where} must be of type {_describe(spec)}, got {item!r}")
    return value


# Longest route a `*` segment without an upper bound may take, unless a
# manifest, an export's settings or `query --star-max` says otherwise.
DEFAULT_STAR_MAX = 10


def check_positive_int(value, error_cls: type[Exception], name: str = "") -> int:
    """The one rule for a bound such as `star_max`: an int >= 1, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise error_cls(f"{name} must be a positive integer, got {value!r}".lstrip())
    return value
