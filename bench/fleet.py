"""Seeded generator of N-tenant deployments built from the bundled testbeds.

Every tenant is a renamed copy of one template fixture (``bookinfo`` or
``bookinfo_clean``). Renaming covers applications, hosts (the first DNS
label becomes ``<tenant>-<label>``, so an application's host still starts
with its own name), images, provider ids, resource names, and storage hosts
and containers. Registry hosts are kept, so all tenants of one template
push to and pull from that template's single registry.

URL paths of application endpoints and of the requests addressing them are
either prefixed with the tenant (``unique``) or left as in the template
(``shared``), where every tenant serves ``/reviews``, ``/login`` and so on.

The seed picks tenant names and the order in which templates are dealt;
each template gets an equal share of tenants (round robin, then shuffled),
so seeds change names and ids but never the amount of work. The same
arguments always produce byte-identical files.
"""

from __future__ import annotations

import random
import re
import shutil
import string
from dataclasses import dataclass
from pathlib import Path

import yaml

TEMPLATES = ("bookinfo", "bookinfo_clean")
PATH_MODES = ("unique", "shared")

_ONTOLOGY_FILES = ("core.yaml", "aws.yaml", "azure.yaml", "k8s.yaml")

# Tokens renamed to ``<tenant>-<token>``; longest alternatives first so a
# token never matches inside a longer one. Registry hosts are matched first
# and kept, because tenants of one template share the registry.
_TOKEN = re.compile(
    r"(?P<keep>registry\.bookinfo\.example|ghcr\.io)"
    r"|\b(?P<name>i-0ratings|vol-0ratings|kubernetes-logs|am-containerlog"
    r"|example\.io|productpage|details|reviews|ratings|bookinfo|amlogs"
    r"|myvolume|aks1|amc1)\b"
)

# Application URL paths in code facts: handler paths and the path part of
# request URLs. Storage URLs live in inventories and are not touched here.
_APP_PATH = re.compile(r"(?P<pre>path: |https?://[^/\s\"]+)(?P<path>/[^\s\",}]*)")


@dataclass(frozen=True)
class Tenant:
    name: str
    template: str


@dataclass(frozen=True)
class Fleet:
    manifest: Path
    tenants: tuple[Tenant, ...]


def tenant_plan(n: int, seed: int, templates: tuple[str, ...] = TEMPLATES) -> tuple[Tenant, ...]:
    """Names and templates of `n` tenants; equal shares of each template."""
    if n < 1:
        raise ValueError("a fleet needs at least one tenant")
    unknown = set(templates) - set(TEMPLATES)
    if unknown or not templates:
        raise ValueError(f"unknown templates {sorted(unknown)}")
    rng = random.Random(seed)
    dealt = [templates[i % len(templates)] for i in range(n)]
    rng.shuffle(dealt)
    tenants = []
    for i, template in enumerate(dealt):
        tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        tenants.append(Tenant(f"t{i:03d}{tag}", template))
    return tuple(tenants)


def render_tenant_file(text: str, tenant: str, paths: str, app_paths: bool) -> str:
    """One template file rewritten for `tenant`."""
    saved: list[str] = []

    def hold_path(m: re.Match) -> str:
        path = m.group("path")
        saved.append(path if paths == "shared" else f"/{tenant}{path}")
        return f"{m.group('pre')}\0{len(saved) - 1}\0"

    if app_paths:
        text = _APP_PATH.sub(hold_path, text)

    def rename(m: re.Match) -> str:
        return m.group("keep") or f"{tenant}-{m.group('name')}"

    text = _TOKEN.sub(rename, text)
    return re.sub("\0(\\d+)\0", lambda m: saved[int(m.group(1))], text)


def _template_manifest(data: Path, template: str) -> dict:
    with open(data / "fixtures" / template / "manifest.yaml", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def generate(
    data: Path,
    out: Path,
    n: int,
    seed: int,
    paths: str = "unique",
    templates: tuple[str, ...] = TEMPLATES,
) -> Fleet:
    """Write an `n`-tenant deployment and its manifest under `out`.

    `data` is the package data directory holding ``fixtures/`` and
    ``ontology/``. `out` is replaced if it exists.
    """
    if paths not in PATH_MODES:
        raise ValueError(f"path mode must be one of {PATH_MODES}, got {paths!r}")
    tenants = tenant_plan(n, seed, templates)
    if out.exists():
        shutil.rmtree(out)
    (out / "ontology").mkdir(parents=True)
    for name in _ONTOLOGY_FILES:
        shutil.copyfile(data / "ontology" / name, out / "ontology" / name)

    sources = {t: _template_manifest(data, t) for t in sorted(set(templates))}
    texts: dict[tuple[str, str], str] = {}
    for template, manifest in sources.items():
        for section in ("inventories", "workflows", "codefacts"):
            for rel in manifest.get(section) or []:
                path = data / "fixtures" / template / rel
                texts[(template, rel)] = path.read_text(encoding="utf-8")

    listed: dict[str, list[str]] = {"inventories": [], "workflows": [], "codefacts": []}
    made: set[Path] = set()  # directories already created
    for tenant in tenants:
        manifest = sources[tenant.template]
        for section in listed:
            for rel in manifest.get(section) or []:
                text = render_tenant_file(
                    texts[(tenant.template, rel)], tenant.name, paths, section == "codefacts"
                )
                target = out / tenant.name / rel
                if target.parent not in made:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    made.add(target.parent)
                target.write_text(text, encoding="utf-8", newline="\n")
                listed[section].append(f"{tenant.name}/{rel}")

    registries: dict[str, str] = {}
    for manifest in sources.values():
        registries.update(manifest.get("registry_locations") or {})
    lines = [
        "ontology: ontology/core.yaml",
        "mappings:",
        *(f"  - ontology/{name}" for name in _ONTOLOGY_FILES[1:]),
    ]
    for section, files in listed.items():
        lines.append(f"{section}:")
        lines.extend(f"  - {rel}" for rel in files)
    lines.append("registry_locations:")
    lines.extend(f"  {host}: {region}" for host, region in sorted(registries.items()))
    lines.append("star_max: 10")
    manifest_path = out / "manifest.yaml"
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return Fleet(manifest_path, tenants)
