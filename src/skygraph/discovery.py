"""Recorded cloud inventories and CI/CD workflow files.

Inventory documents are credential-free snapshots of one provider's
resources; they replace live provider API discovery. An inventory stays
the dict its YAML file loads as: `inventory_from_document` checks it and
returns it unchanged, and `Discovery.ingest_inventory` reads the checked
dict. Each resource is classified through the ontology, gets its offered
security features attached, and is wired to other resources via
structural links (cluster membership, load-balancer targets, image usage,
log forwarding). Workflow files contribute container images and
registries. An image is identified by the `image_key` of its reference,
so references that Docker reads as one image share one node.
"""

from __future__ import annotations

import logging
import re
import shlex
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from skygraph.errors import DiscoveryError, SkygraphError, UnknownMappingError
from skygraph.graph import PropertyGraph
from skygraph.ontology import Ontology
from skygraph.yamlfile import SCALAR, check_fields, load_document

log = logging.getLogger(__name__)

#: The resource properties an inventory may record, with their types.
RECOGNIZED_PROPERTIES = {
    "public_access": bool,
    "at_rest_encryption_enabled": bool,
    "at_rest_algorithm": str,
    "tls_enabled": bool,
    "tls_version": str,
    "http_url": str,
    "auth": str,
}
#: The structural links of a resource: one resource id or a list of them.
RECOGNIZED_LINKS = dict.fromkeys(
    ("member_of", "targets", "image", "forwards_logs_to"), (str, [str])
)
AUTH_VALUES = ("none", "token")

DEFAULT_REGISTRY_HOST = "ghcr.io"

# (required, optional) fields of each document and entry; workflows are
# GitHub Actions files, so keys not read here are allowed
_INVENTORY = ({"provider": str}, {"resources": list})
_RESOURCE = (
    {"id": SCALAR, "name": SCALAR, "provider_type": SCALAR},
    {"region": str, "properties": dict, "links": dict},
)
_WORKFLOW = ({}, {"name": SCALAR, "jobs": dict})
_JOB = ({}, {"steps": list})
_STEP = ({}, {"run": SCALAR})

# The security features fed straight from recorded properties: feature ->
# (edge type, inventory property -> feature property, whether the edge
# starts at the resource's endpoint when it has one)
_RECORDED_FEATURES = {
    "AtRestEncryption": (
        "AT_REST_ENCRYPTION",
        {"at_rest_encryption_enabled": "enabled", "at_rest_algorithm": "algorithm"},
        False,
    ),
    "TransportEncryption": (
        "TRANSPORT_ENCRYPTION",
        {"tls_enabled": "enabled", "tls_version": "tlsVersion"},
        True,
    ),
}


@dataclass
class WorkflowDocument:
    name: str
    #: every line of every step's `run:` script, stripped
    commands: list[str]


# -- document loading ---------------------------------------------------------


def inventory_from_document(doc: dict) -> dict:
    """Check an inventory document; returns `doc` unchanged. Resource ids
    are compared as strings, as `ingest_inventory` records them."""
    check_fields(doc, "inventory", DiscoveryError, *_INVENTORY)
    for entry in doc.get("resources") or []:
        check_fields(entry, "resource entry", DiscoveryError, *_RESOURCE)
        where = f"resource {entry['id']!r}"
        props = entry.get("properties") or {}
        check_fields(props, f"properties of {where}", DiscoveryError, {}, RECOGNIZED_PROPERTIES)
        if "auth" in props and props["auth"] not in AUTH_VALUES:
            raise DiscoveryError(f"{where} has unknown auth value {props['auth']!r}")
        links = entry.get("links") or {}
        check_fields(links, f"links of {where}", DiscoveryError, {}, RECOGNIZED_LINKS)
    seen: set[str] = set()
    for entry in doc.get("resources") or []:
        resource_id = str(entry["id"])
        if resource_id in seen:
            raise DiscoveryError(f"duplicate resource id {resource_id!r}")
        seen.add(resource_id)
    return doc


def load_inventory(path: str | Path) -> dict:
    return load_document(path, DiscoveryError, inventory_from_document)


def workflow_from_document(doc: dict) -> WorkflowDocument:
    """A GitHub Actions workflow: `jobs` maps job ids to jobs. As in the
    shell, a backslash at the end of a script line joins the next."""
    check_fields(doc, "workflow", DiscoveryError, *_WORKFLOW, open=True)
    commands = []
    for job in (doc.get("jobs") or {}).values():
        check_fields(job, "workflow job", DiscoveryError, *_JOB, open=True)
        for step in job.get("steps") or []:
            check_fields(step, "workflow step", DiscoveryError, *_STEP, open=True)
            script = str(step.get("run", ""))
            commands.extend(line.strip() for line in script.replace("\\\n", "").splitlines())
    return WorkflowDocument(name=str(doc.get("name", "")), commands=commands)


def load_workflow(path: str | Path) -> WorkflowDocument:
    return load_document(path, DiscoveryError, workflow_from_document)


# -- security feature attachment ----------------------------------------------


def _resource_endpoint(graph: PropertyGraph, resource_id: int) -> int | None:
    for edge in graph.out_edges(resource_id, "HAS_ENDPOINT"):
        if graph.node(edge.to_id).class_name == "HttpEndpoint":
            return edge.to_id
    return None


def _is_authenticity(ontology: Ontology, feature: str) -> bool:
    return ontology.has_class("Authenticity") and ontology.is_subclass(
        feature, "Authenticity"
    )


def attach_security_features(graph: PropertyGraph, resource_id: int, entry: dict) -> int:
    """Materialize the security features the graph's ontology sanctions
    for the resource's class, fed from the recorded configuration of its
    checked inventory entry. Features whose inputs are entirely absent are
    not created."""
    cls = graph.node(resource_id).class_name
    props = entry.get("properties") or {}
    region = entry.get("region")
    created = 0
    for feature in graph.ontology.offered_features(cls):
        if feature == "GeoLocation":
            if region is None:
                continue
            geo = graph.add_node("GeoLocation", region, {"region": region})
            graph.add_edge(resource_id, geo, "GEO_LOCATION")
            created += 1
        elif feature in _RECORDED_FEATURES:
            edge_type, renames, on_endpoint = _RECORDED_FEATURES[feature]
            feature_props = {ours: props[key] for key, ours in renames.items() if key in props}
            if not feature_props:
                continue
            node = graph.add_node(feature, feature, feature_props)
            anchor = _resource_endpoint(graph, resource_id) if on_endpoint else None
            graph.add_edge(anchor if anchor is not None else resource_id, node, edge_type)
            created += 1
        elif _is_authenticity(graph.ontology, feature):
            if "auth" not in props:
                continue
            cls_name = "NoAuthentication" if props["auth"] == "none" else "TokenBasedAuthentication"
            node = graph.add_node(cls_name, cls_name)
            anchor = _resource_endpoint(graph, resource_id)
            graph.add_edge(
                anchor if anchor is not None else resource_id, node, "AUTHENTICITY"
            )
            created += 1
    return created


# -- discovery pipeline --------------------------------------------------------


class Discovery:
    """Stateful ingestion across multiple inventory and workflow documents.

    Structural links may cross documents, so they are collected during
    ingestion and resolved once every document has been read.
    """

    def __init__(self, graph: PropertyGraph, registry_locations: dict[str, str] | None = None):
        self.graph = graph
        # registry hosts are compared lowercased, as `image_key` gives them
        self.registry_locations = {
            host.lower(): region for host, region in (registry_locations or {}).items()
        }
        # (resource, link key, target id, inventory file or None)
        self._pending_links: list[tuple[int, str, str, str | Path | None]] = []
        # every resource id ingested, as a string -> the file declaring it
        self._declared: dict[str, str | Path | None] = {}
        # `image_key` of every reference seen -> its ContainerImage node
        self._images: dict[str, int] = {}
        # the key of every tag a scanned build names, and each push as
        # (workflow, image as written, its key)
        self._built: set[str] = set()
        self._pushes: list[tuple[str, str, str]] = []

    # -- inventories ----------------------------------------------------

    def ingest_inventory(self, doc: dict, path: str | Path | None = None) -> int:
        """Create one classified resource node per entry of an inventory
        document already checked by `inventory_from_document`.

        An unknown (provider, provider_type) pair raises immediately: an
        unclassifiable resource must surface, not be skipped, and so must a
        resource id an earlier inventory declared. `path`, the file `doc`
        was read from, prefixes those errors and the dangling-link errors
        `resolve_inventory_links` raises for its resources.
        """
        count = 0
        for entry in doc.get("resources") or []:
            provider_id = str(entry["id"])
            if provider_id in self._declared:
                first = self._declared[provider_id] or "an earlier inventory"
                raise _in_file(path, DiscoveryError(f"resource id {provider_id!r} is already declared in {first}"))
            self._declared[provider_id] = path
            try:
                cls = self.graph.ontology.resolve_instance_class(
                    doc["provider"], str(entry["provider_type"])
                )
            except UnknownMappingError as exc:
                raise _in_file(path, exc)
            props = entry.get("properties") or {}
            node_props: dict = {"provider_id": provider_id}
            declared = self.graph.property_keys(cls)
            if "public_access" in props and "public_access" in declared:
                node_props["public_access"] = props["public_access"]
            if "http_url" in props and "url" in declared:
                node_props["url"] = props["http_url"]
            resource_id = self.graph.add_node(cls, str(entry["name"]), node_props)
            if "http_url" in props:
                endpoint = self.graph.add_node(
                    "HttpEndpoint",
                    str(props["http_url"]),
                    {"url": props["http_url"], "method": "ANY"},
                )
                self.graph.add_edge(resource_id, endpoint, "HAS_ENDPOINT")
            attach_security_features(self.graph, resource_id, entry)
            for key, targets in (entry.get("links") or {}).items():
                # a link names one resource id or a list of them
                for target in [targets] if isinstance(targets, str) else targets or []:
                    self._pending_links.append((resource_id, key, target, path))
            count += 1
        return count

    def resolve_inventory_links(self) -> None:
        """Create structural edges once all inventories are ingested."""
        for resource_id, key, target, path in self._pending_links:
            if key == "image":
                image_id, _ = self._image_node(target, [image_key(target)])
                self.graph.add_edge(resource_id, image_id, "USES_IMAGE")
                continue
            target_id = self.graph.find_by_provider_id(target)
            if target_id is None:
                raise _in_file(
                    path,
                    DiscoveryError(
                        f"resource {self.graph.node(resource_id).name!r} links to "
                        f"unknown resource id {target!r}"
                    ),
                )
            if key == "member_of":
                self.graph.add_edge(target_id, resource_id, "CONTAINS")
            elif key == "targets":
                self.graph.add_edge(resource_id, target_id, "TARGETS")
            elif key == "forwards_logs_to":
                self.graph.add_edge(resource_id, target_id, "LOGS_TO")
                request = self.graph.add_node(
                    "ObjectStorageRequest",
                    f"{self.graph.node(resource_id).name}-append",
                    {"type": "append"},
                )
                self.graph.add_edge(request, resource_id, "SOURCE")
                self.graph.add_edge(request, target_id, "TO")
        self._pending_links.clear()

    # -- workflows ------------------------------------------------------

    def _image_node(self, name: str, keys: list[str]) -> tuple[int, bool]:
        """The one lookup-or-create of ContainerImage nodes: the node that
        any of `keys` (one reference's, or those of every tag of one build)
        already indexes, else a new one named `name` as written; and whether
        it is new. Each key that indexes no node yet is indexed to it."""
        image_id = next((self._images[key] for key in keys if key in self._images), None)
        new = image_id is None
        if new:
            image_id = self.graph.add_node("ContainerImage", name)
        for key in keys:
            self._images.setdefault(key, image_id)
        return image_id, new

    def _registry_node(self, host: str) -> int:
        existing = self.graph.find_by_name("ContainerRegistry", host)
        if existing is not None:
            return existing
        registry = self.graph.add_node("ContainerRegistry", host)
        region = self.registry_locations.get(host)
        if region is not None:
            geo = self.graph.add_node("GeoLocation", region, {"region": region})
            self.graph.add_edge(registry, geo, "GEO_LOCATION")
        return registry

    def ingest_workflow(self, doc: WorkflowDocument) -> int:
        """Scan job steps for docker build/push commands; returns the
        number of container image nodes created. A build is one image: its
        node is the one any of its tags already names, else a new one named
        by its first tag, and every tag names it from then on. A push of an
        image that no workflow builds is reported by `link_applications`,
        once every workflow is read."""
        created = 0
        for command in doc.commands:
            build = command.startswith("docker build")
            if build:
                names = _build_image_names(command)
            elif command.startswith("docker push"):
                name = _push_image_name(command)
                names = [] if name is None else [name]
            else:
                continue
            if not names:
                continue
            keys = [image_key(name) for name in names]
            image_id, new = self._image_node(names[0], keys)
            created += new
            if build:
                self._built.update(keys)
                continue
            self._pushes.append((doc.name, names[0], keys[0]))
            # a key's text before its first "/" is its registry host
            registry_id = self._registry_node(keys[0].partition("/")[0])
            self.graph.add_edge_once(image_id, registry_id, "PUSHES_TO")
        return created

    # -- application anchoring -------------------------------------------

    def link_applications(self) -> int:
        """Anchor applications to the compute resources they run on and
        record registry pulls as data flows into the pulling containers.
        Returns the number of RUNS_ON edges created. Runs after the last
        workflow is ingested, so it also warns of each pushed image that no
        workflow builds."""
        for workflow, name, key in self._pushes:
            if key not in self._built:
                log.warning("workflow %r pushes image %r that no scanned workflow builds", workflow, name)
        self._pushes.clear()
        created = 0
        for app_id in self.graph.nodes_with_class("Application"):
            app = self.graph.node(app_id)
            image = app.properties.get("image")
            host = app.properties.get("host")
            anchored = False
            if image is not None:
                image_node = self._images.get(image_key(str(image)))
                if image_node is not None:
                    for edge in self.graph.in_edges(image_node, "USES_IMAGE"):
                        self.graph.add_edge(app_id, edge.from_id, "RUNS_ON")
                        created += 1
                        anchored = True
            elif host is not None:
                host_node = self.graph.find_by_provider_id(str(host))
                if host_node is not None:
                    self.graph.add_edge(app_id, host_node, "RUNS_ON")
                    created += 1
                    anchored = True
            if not anchored:
                log.warning(
                    "application %r has no resolvable image or host; "
                    "location-based queries will not see it",
                    app.name,
                )
        for registry_id in self.graph.nodes_with_class("ContainerRegistry"):
            for push in self.graph.in_edges(registry_id, "PUSHES_TO"):
                for use in self.graph.in_edges(push.from_id, "USES_IMAGE"):
                    self.graph.add_edge_once(registry_id, use.from_id, "DFG")
        return created


def _in_file(path: str | Path | None, exc: SkygraphError) -> SkygraphError:
    """`exc` with its message prefixed by `path`, as `load_document` names a
    file; its type and attributes are kept."""
    if path is not None:
        exc.args = (f"{path}: {exc}",)
    return exc


# What makes `shlex.split` differ from `str.split`: quotes, the escape
# character, and whitespace other than the four shlex splits on
_SHELL_SYNTAX = re.compile(r"[\"'\\]|[^\S \t\r\n]")


def _split_command(command: str) -> list[str]:
    """Tokenize like `shlex.split`; a plain command, made of words and
    space, tab, CR and LF between them, takes the fast `str.split`."""
    if _SHELL_SYNTAX.search(command) is None:
        return command.split()
    try:
        return shlex.split(command)
    except ValueError:
        log.warning("cannot tokenize workflow command %r; skipped", command)
        return []


def _build_image_names(command: str) -> list[str]:
    """Every tag of a `docker build`, in command order."""
    args = iter(_split_command(command))
    names = []
    for arg in args:
        if arg in ("-t", "--tag"):
            names.extend(islice(args, 1))  # its value, if there is one
        elif arg.startswith("--tag="):
            names.append(arg.split("=", 1)[1])
    return names


def _push_image_name(command: str) -> str | None:
    """The image of `docker push [OPTIONS] NAME`: the first argument that
    is not an option; `--platform` is the one option that takes a value."""
    args = iter(_split_command(command)[2:])
    for arg in args:
        if arg == "--platform":
            next(args, None)
        elif not arg.startswith("-"):
            return arg
    return None


def image_key(ref: str) -> str:
    """The identity of an image reference, as Docker's reference grammar
    reads it (`ParseNormalizedNamed`, then `TagNameOnly`): `host/path:tag`,
    with `@digest` after it when the reference has one. Its first path
    component is the registry host when it holds "." or ":", is "localhost"
    or is not lowercase; the host is lowercased, a port stays in it, and a
    reference that names no host gets `DEFAULT_REGISTRY_HOST`. A reference
    with neither tag nor digest gets `:latest`; a digest is kept, so it
    matches only itself. The key's text before its first "/" is the host."""
    name, at, digest = ref.partition("@")
    head, slash, path = name.partition("/")
    if slash and ("." in head or ":" in head or head == "localhost" or head != head.lower()):
        host = head.lower()
    else:
        host, path = DEFAULT_REGISTRY_HOST, name
    if not at and ":" not in path:
        path += ":latest"
    return f"{host}/{path}{at}{digest}"
