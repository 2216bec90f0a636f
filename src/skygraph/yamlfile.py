"""The one reader of skygraph's YAML inputs: manifests, ontology and
mapping files, code facts, inventories and workflows.

Parsing uses libyaml (`yaml.CSafeLoader`) when PyYAML was built with it,
and the pure-Python `yaml.SafeLoader` otherwise; both build the same
documents.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from skygraph.errors import SkygraphError


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
