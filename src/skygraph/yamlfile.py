"""The one reader of skygraph's YAML inputs (manifests, ontology and
mapping files, code facts, inventories and workflows) and the one check of
every input document's shape.

Parsing uses libyaml (`yaml.CSafeLoader`) when PyYAML was built with it,
and the pure-Python `yaml.SafeLoader` otherwise; both build the same
documents. A field's declared type (its spec) is a type, a tuple of specs
(any one of them), ``[spec]`` for a list of spec, or ``{key: value}`` specs
for a mapping.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import yaml

from skygraph.errors import SkygraphError

#: Spec of a property value: string, boolean or integer.
SCALAR = (str, bool, int)


def load_yaml(path: str | Path, error_cls: type[SkygraphError]):
    """Parse one YAML file. A file that cannot be read, decoded as UTF-8
    or parsed raises `error_cls` with a message naming the file."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, encoding="utf-8") as fh:
            # through the module attribute, so a wrapped `yaml.load` sees every file
            return yaml.load(fh, Loader=loader)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise error_cls(f"cannot load {path}: {exc}") from exc


def load_document(path: str | Path, error_cls: type[SkygraphError], read: Callable):
    """Load one YAML file and turn it into a value with `read`; every
    `error_cls` raised on the way names the file."""
    doc = load_yaml(path, error_cls)
    try:
        return read(doc)
    except error_cls as exc:
        raise error_cls(f"{path}: {exc}") from exc


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
