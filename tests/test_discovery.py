import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph.codefacts import bundle_from_document, ingest_code_facts
from skygraph.discovery import (
    Discovery,
    _split_command,
    attach_security_features,
    image_key,
    inventory_from_document,
    load_inventory,
    load_workflow,
    workflow_from_document,
)
from skygraph.errors import DiscoveryError, UnknownMappingError
from skygraph.graph import PropertyGraph

from .conftest import data_path


@pytest.fixture
def graph(core_ontology):
    return PropertyGraph(core_ontology)


@pytest.fixture
def discovery(graph):
    return Discovery(graph, {"ghcr.io": "us"})


def inventory(provider, resources):
    return inventory_from_document({"provider": provider, "resources": resources})


def workflow(runs):
    steps = [{"run": r} for r in runs]
    return workflow_from_document({"name": "wf", "jobs": {"job": {"steps": steps}}})


class TestDocumentValidation:
    def test_duplicate_resource_id(self):
        with pytest.raises(DiscoveryError, match="duplicate"):
            inventory(
                "aws",
                [
                    {"id": "a", "name": "x", "provider_type": "T"},
                    {"id": "a", "name": "y", "provider_type": "T"},
                ],
            )

    def test_unrecognized_property(self):
        with pytest.raises(DiscoveryError, match=r"unknown keys \['nope'\] in properties"):
            inventory("aws", [{"id": "a", "name": "x", "provider_type": "T", "properties": {"nope": 1}}])

    def test_unrecognized_link(self):
        with pytest.raises(DiscoveryError, match=r"unknown keys \['nope'\] in links"):
            inventory("aws", [{"id": "a", "name": "x", "provider_type": "T", "links": {"nope": "b"}}])

    def test_bad_auth_value(self):
        with pytest.raises(DiscoveryError, match="auth"):
            inventory("aws", [{"id": "a", "name": "x", "provider_type": "T", "properties": {"auth": "basic"}}])

    @pytest.mark.parametrize("entry", ["a", ["id", "a"], 7, None])
    def test_resource_entry_not_a_mapping(self, entry):
        with pytest.raises(DiscoveryError, match="resource entry must be a mapping"):
            inventory("aws", [entry])

    @pytest.mark.parametrize("key", ["id", "name", "provider_type"])
    def test_resource_missing_required_key(self, key):
        entry = {"id": "a", "name": "x", "provider_type": "T"}
        del entry[key]
        with pytest.raises(DiscoveryError, match=f"missing \\['{key}'\\]"):
            inventory("aws", [entry])

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"properties": ["public_access"]}, "'properties' in resource entry must be of type dict"),
            ({"links": ["member_of"]}, "'links' in resource entry must be of type dict"),
            (
                {"links": {"member_of": 5}},
                "'member_of' in links of resource 'a' must be of type str or list of str",
            ),
        ],
        ids=["extra0-must be mappings", "extra1-must be mappings", "extra2-must be a string or list"],
    )
    def test_resource_properties_and_links_shape(self, extra, message):
        with pytest.raises(DiscoveryError, match=message):
            inventory("aws", [{"id": "a", "name": "x", "provider_type": "T", **extra}])

    @pytest.mark.parametrize(
        "jobs, what",
        [
            ({"build": "build"}, "job"),
            ({"build": None}, "job"),
            ({"j": {"steps": ["docker build -t x ."]}}, "step"),
            ({"j": {"steps": [["run"]]}}, "step"),
        ],
    )
    def test_workflow_job_or_step_not_a_mapping(self, jobs, what):
        with pytest.raises(DiscoveryError, match=f"workflow {what} must be a mapping"):
            workflow_from_document({"name": "wf", "jobs": jobs})

    def test_list_of_jobs_rejected(self):
        jobs = [{"name": "build", "steps": [{"run": "docker build -t x ."}]}]
        with pytest.raises(DiscoveryError, match="'jobs' in workflow must be of type dict"):
            workflow_from_document({"name": "wf", "jobs": jobs})

    @pytest.mark.parametrize(
        "load, text",
        [
            (load_inventory, "provider: aws\nresources:\n  - just-a-string\n"),
            (load_inventory, "provider: aws\nresources:\n  - {id: a, name: x}\n"),
            (load_inventory, "provider: aws\nextra: 1\n"),
            (load_workflow, "name: wf\njobs:\n  j: {steps: [docker push x]}\n"),
            (load_workflow, "name: wf\njobs: {build: build}\n"),
        ],
    )
    def test_loaders_name_the_file(self, tmp_path, load, text):
        path = tmp_path / "input.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DiscoveryError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")


class TestIngestInventory:
    def test_volume_classified_as_block_storage(self, discovery, graph):
        count = discovery.ingest_inventory(
            inventory("aws", [{"id": "v1", "name": "myvolume", "provider_type": "AWS::EC2::Volume"}])
        )
        assert count == 1
        node_id = graph.find_by_name("BlockStorage", "myvolume")
        assert node_id is not None
        assert graph.node(node_id).properties["provider_id"] == "v1"

    def test_empty_resource_list(self, discovery):
        assert discovery.ingest_inventory(inventory("aws", [])) == 0

    def test_public_storage_gets_endpoint_and_no_authentication(self, discovery, graph):
        discovery.ingest_inventory(
            inventory(
                "azure",
                [
                    {
                        "id": "amc1",
                        "name": "am-containerlog",
                        "provider_type": "Microsoft.Storage/storageAccounts/blobServices/containers",
                        "properties": {
                            "http_url": "https://amlogs.blob.example.com/am-containerlog",
                            "auth": "none",
                        },
                    }
                ],
            )
        )
        storage = graph.find_by_name("ObjectStorage", "am-containerlog")
        endpoints = graph.out_edges(storage, "HAS_ENDPOINT")
        assert len(endpoints) == 1
        endpoint = endpoints[0].to_id
        assert graph.node(endpoint).properties["method"] == "ANY"
        auth = graph.out_edges(endpoint, "AUTHENTICITY")
        assert len(auth) == 1
        assert graph.node(auth[0].to_id).class_name == "NoAuthentication"

    def test_unknown_mapping_aborts(self, discovery):
        with pytest.raises(UnknownMappingError):
            discovery.ingest_inventory(
                inventory("aws", [{"id": "a", "name": "x", "provider_type": "AWS::Unknown::Thing"}])
            )

    def test_dangling_link(self, discovery):
        discovery.ingest_inventory(
            inventory(
                "azure",
                [
                    {
                        "id": "aks1",
                        "name": "cluster",
                        "provider_type": "Microsoft.ContainerService/managedClusters",
                        "links": {"forwards_logs_to": "ghost"},
                    }
                ],
            )
        )
        with pytest.raises(DiscoveryError, match="ghost"):
            discovery.resolve_inventory_links()

    def test_resource_id_declared_in_two_files(self, discovery, tmp_path):
        # a link to `x` could reach either VM, so the second file is refused
        first, second = tmp_path / "a.yaml", tmp_path / "b.yaml"
        first.write_text("provider: aws\nresources:\n  - {id: x, name: vm-a, provider_type: AWS::EC2::Instance}\n")
        second.write_text(
            "provider: aws\nresources:\n"
            "  - {id: x, name: vm-b, provider_type: AWS::EC2::Instance}\n"
            "  - {id: v, name: vol, provider_type: AWS::EC2::Volume, links: {member_of: x}}\n"
        )
        discovery.ingest_inventory(load_inventory(first), first)
        with pytest.raises(DiscoveryError) as info:
            discovery.ingest_inventory(load_inventory(second), second)
        assert str(info.value) == f"{second}: resource id 'x' is already declared in {first}"

    def test_resource_ids_compare_as_strings(self, discovery):
        discovery.ingest_inventory(inventory("aws", [{"id": 7, "name": "vm", "provider_type": "AWS::EC2::Instance"}]))
        with pytest.raises(DiscoveryError, match="resource id '7' is already declared in an earlier inventory"):
            discovery.ingest_inventory(inventory("aws", [{"id": "7", "name": "vm", "provider_type": "AWS::EC2::Instance"}]))

    def test_member_of_and_log_forwarding(self, discovery, graph):
        discovery.ingest_inventory(
            inventory(
                "azure",
                [
                    {
                        "id": "aks1",
                        "name": "kubernetes-logs",
                        "provider_type": "Microsoft.ContainerService/managedClusters",
                        "links": {"forwards_logs_to": "amc1"},
                    },
                    {
                        "id": "amc1",
                        "name": "am-containerlog",
                        "provider_type": "Microsoft.Storage/storageAccounts/blobServices/containers",
                    },
                ],
            )
        )
        discovery.ingest_inventory(
            inventory(
                "k8s",
                [
                    {
                        "id": "pod1",
                        "name": "productpage-v1",
                        "provider_type": "Pod",
                        "links": {"member_of": "aks1"},
                    }
                ],
            )
        )
        discovery.resolve_inventory_links()
        cluster = graph.find_by_name("ContainerCluster", "kubernetes-logs")
        pod = graph.find_by_name("Container", "productpage-v1")
        storage = graph.find_by_name("ObjectStorage", "am-containerlog")
        assert graph.has_edge(cluster, pod, "CONTAINS")
        assert graph.has_edge(cluster, storage, "LOGS_TO")
        # the forwarding itself is a synthesized append request
        requests = graph.nodes_with_class("ObjectStorageRequest")
        assert len(requests) == 1
        rq = requests[0]
        assert graph.node(rq).properties["type"] == "append"
        assert graph.has_edge(rq, cluster, "SOURCE")
        assert graph.has_edge(rq, storage, "TO")


class TestAttachSecurityFeatures:
    def make_resource(self, graph, cls, name="r"):
        return graph.add_node(cls, name, {})

    def test_tls_version_lands_on_endpoint(self, graph):
        storage = self.make_resource(graph, "ObjectStorage", "am-containerlog")
        endpoint = graph.add_node("HttpEndpoint", "https://x/y", {"url": "https://x/y", "method": "ANY"})
        graph.add_edge(storage, endpoint, "HAS_ENDPOINT")
        inv = dict(
            id="amc1",
            name="am-containerlog",
            provider_type="T",
            properties={"tls_enabled": True, "tls_version": "TLS1_1"},
        )
        attach_security_features(graph, storage, inv)
        te_edges = graph.out_edges(endpoint, "TRANSPORT_ENCRYPTION")
        assert len(te_edges) == 1
        te = graph.node(te_edges[0].to_id)
        assert te.properties == {"enabled": True, "tlsVersion": "TLS1_1"}

    def test_transport_encryption_falls_back_to_resource(self, graph):
        storage = self.make_resource(graph, "ObjectStorage")
        inv = dict(id="s", name="r", provider_type="T", properties={"tls_enabled": False})
        attach_security_features(graph, storage, inv)
        te_edges = graph.out_edges(storage, "TRANSPORT_ENCRYPTION")
        assert len(te_edges) == 1
        assert graph.node(te_edges[0].to_id).properties == {"enabled": False}

    def test_region_becomes_geo_location(self, graph):
        vm = self.make_resource(graph, "VirtualMachine", "ratings-vm")
        inv = dict(id="i1", name="ratings-vm", provider_type="T", region="us-east-1")
        count = attach_security_features(graph, vm, inv)
        assert count == 1
        geo = graph.out_edges(vm, "GEO_LOCATION")[0].to_id
        assert graph.node(geo).properties == {"region": "us-east-1"}
        assert graph.node(geo).name == "us-east-1"

    def test_class_offering_nothing(self, graph):
        app = self.make_resource(graph, "Application")
        inv = dict(id="a", name="r", provider_type="T", region="westeurope")
        assert attach_security_features(graph, app, inv) == 0

    def test_absent_inputs_create_nothing(self, graph):
        storage = self.make_resource(graph, "ObjectStorage")
        inv = dict(id="s", name="r", provider_type="T")
        assert attach_security_features(graph, storage, inv) == 0

    def test_token_authentication(self, graph):
        storage = self.make_resource(graph, "ObjectStorage")
        inv = dict(id="s", name="r", provider_type="T", properties={"auth": "token"})
        attach_security_features(graph, storage, inv)
        auth = graph.out_edges(storage, "AUTHENTICITY")
        assert graph.node(auth[0].to_id).class_name == "TokenBasedAuthentication"

    def test_at_rest_encryption(self, graph):
        volume = self.make_resource(graph, "BlockStorage")
        inv = dict(
            id="v",
            name="r",
            provider_type="T",
            properties={"at_rest_encryption_enabled": True, "at_rest_algorithm": "AES256"},
        )
        attach_security_features(graph, volume, inv)
        are = graph.out_edges(volume, "AT_REST_ENCRYPTION")[0].to_id
        assert graph.node(are).properties == {"enabled": True, "algorithm": "AES256"}


class TestIngestWorkflow:
    def test_build_and_push(self, discovery, graph):
        count = discovery.ingest_workflow(
            workflow(
                [
                    "docker build -t ghcr.io/acme/productpage .",
                    "docker push ghcr.io/acme/productpage",
                ]
            )
        )
        assert count == 1
        image = graph.find_by_name("ContainerImage", "ghcr.io/acme/productpage")
        registry = graph.find_by_name("ContainerRegistry", "ghcr.io")
        assert graph.has_edge(image, registry, "PUSHES_TO")
        geo = graph.out_edges(registry, "GEO_LOCATION")
        assert graph.node(geo[0].to_id).properties == {"region": "us"}

    def test_multi_line_script(self, discovery, graph):
        script = (
            "cd app\n"
            "docker build \\\n  -t ghcr.io/acme/app .\n"
            "  docker push ghcr.io/acme/app\n"
        )
        assert discovery.ingest_workflow(workflow([script])) == 1
        image = graph.find_by_name("ContainerImage", "ghcr.io/acme/app")
        registry = graph.find_by_name("ContainerRegistry", "ghcr.io")
        assert graph.has_edge(image, registry, "PUSHES_TO")

    def test_github_actions_workflow(self, discovery, graph):
        job = {"runs-on": "ubuntu-latest", "steps": [{"run": "docker build -t x ."}]}
        doc = {"name": "deploy", "on": "push", "jobs": {"build": job}}
        assert discovery.ingest_workflow(workflow_from_document(doc)) == 1
        assert graph.find_by_name("ContainerImage", "x") is not None

    def test_repository_ci_workflow(self, discovery, graph):
        # YAML reads its `on:` as True; it has uses/with steps and multi-line scripts
        doc = load_workflow(Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml")
        assert doc.name == "ci"
        assert "python -m pip install ." in doc.commands
        assert 'cd "$RUNNER_TEMP"' in doc.commands
        assert discovery.ingest_workflow(doc) == 0
        assert graph.nodes_with_class("ContainerImage") == []

    @pytest.mark.parametrize(
        "options",
        [
            "--quiet",
            "-q",
            "--all-tags --disable-content-trust",
            "--platform linux/amd64",
            "--platform=linux/amd64",
        ],
    )
    def test_push_options_skipped(self, discovery, graph, options):
        discovery.ingest_workflow(workflow([f"docker push {options} ghcr.io/acme/app"]))
        images = graph.nodes_with_class("ContainerImage")
        assert [graph.node(n).name for n in images] == ["ghcr.io/acme/app"]
        registry = graph.find_by_name("ContainerRegistry", "ghcr.io")
        assert graph.has_edge(images[0], registry, "PUSHES_TO")

    def test_localhost_is_a_registry_host(self, discovery, graph):
        discovery.ingest_workflow(workflow(["docker push localhost/app"]))
        image = graph.find_by_name("ContainerImage", "localhost/app")
        registry = graph.find_by_name("ContainerRegistry", "localhost")
        assert registry is not None and graph.has_edge(image, registry, "PUSHES_TO")
        assert graph.find_by_name("ContainerRegistry", "ghcr.io") is None

    def test_no_docker_commands(self, discovery):
        assert discovery.ingest_workflow(workflow(["make test", "echo done"])) == 0

    def test_same_image_across_workflows_deduplicated(self, discovery, graph):
        runs = ["docker build -t ghcr.io/acme/app .", "docker push ghcr.io/acme/app"]
        discovery.ingest_workflow(workflow(runs))
        discovery.ingest_workflow(workflow(runs))
        # oracle: distinct image names across all workflows
        assert len(graph.nodes_with_class("ContainerImage")) == 1
        image = graph.find_by_name("ContainerImage", "ghcr.io/acme/app")
        assert len(graph.out_edges(image, "PUSHES_TO")) == 1

    def test_push_without_build_warns_but_creates(self, discovery, graph, caplog):
        with caplog.at_level("WARNING"):
            discovery.ingest_workflow(workflow(["docker push ghcr.io/acme/ghostimage"]))
            discovery.link_applications()
        assert "ghostimage" in caplog.text
        assert graph.find_by_name("ContainerImage", "ghcr.io/acme/ghostimage") is not None

    @pytest.mark.parametrize("push_first", [True, False])
    def test_push_built_by_another_workflow_does_not_warn(self, discovery, caplog, push_first):
        runs = [["docker push ghcr.io/acme/app"], ["docker build -t ghcr.io/acme/app ."]]
        with caplog.at_level("WARNING"):
            for run in runs if push_first else reversed(runs):
                discovery.ingest_workflow(workflow(run))
            discovery.link_applications()
        assert "pushes image" not in caplog.text

    def test_every_build_tag_is_built(self, discovery, graph, caplog):
        # one build is one image: one node, named by the first tag, that a
        # push of any of its tags reaches
        runs = [
            "docker build -t ghcr.io/acme/app:1 --tag ghcr.io/acme/app:2 --tag=localhost:5000/acme/app:3 .",
            "docker push ghcr.io/acme/app:2",
            "docker push localhost:5000/acme/app:3",
        ]
        with caplog.at_level("WARNING"):
            assert discovery.ingest_workflow(workflow(runs)) == 1
            discovery.link_applications()
        assert "pushes image" not in caplog.text
        images = graph.nodes_with_class("ContainerImage")
        assert [graph.node(n).name for n in images] == ["ghcr.io/acme/app:1"]
        pushed = {graph.node(e.to_id).name for e in graph.out_edges(images[0], "PUSHES_TO")}
        assert pushed == {"ghcr.io", "localhost:5000"}

    def test_push_of_another_spelling_is_built(self, discovery, graph, caplog):
        runs = [
            "docker build -t ghcr.io/acme/app:1.4 -t ghcr.io/acme/app .",
            "docker push GHCR.io/acme/app:latest",
        ]
        with caplog.at_level("WARNING"):
            assert discovery.ingest_workflow(workflow(runs)) == 1
            discovery.link_applications()
        assert "pushes image" not in caplog.text

    def test_host_case_reaches_one_registry(self, graph):
        discovery = Discovery(graph, {"GHCR.IO": "us"})
        discovery.ingest_workflow(
            workflow(["docker push GHCR.io/acme/app", "docker push ghcr.io/acme/app"])
        )
        assert len(graph.nodes_with_class("ContainerImage")) == 1
        [registry] = graph.nodes_with_class("ContainerRegistry")
        assert graph.node(registry).name == "ghcr.io"
        assert len(graph.out_edges(registry, "GEO_LOCATION")) == 1

    def test_default_registry_host(self, discovery, graph):
        discovery.ingest_workflow(
            workflow(["docker build -t acme/app .", "docker push acme/app"])
        )
        assert graph.find_by_name("ContainerRegistry", "ghcr.io") is not None

    def test_tag_equals_syntax(self, discovery, graph):
        discovery.ingest_workflow(workflow(["docker build --tag=ghcr.io/acme/app ."]))
        assert graph.find_by_name("ContainerImage", "ghcr.io/acme/app") is not None

    def test_unparseable_command_skipped(self, discovery, caplog):
        with caplog.at_level("WARNING"):
            assert discovery.ingest_workflow(workflow(["docker build -t it's-broken ."])) == 0
        assert "cannot tokenize" in caplog.text


BUNDLED_COMMANDS = sorted(
    command
    for testbed in ("bookinfo", "bookinfo_clean")
    for command in load_workflow(data_path(f"fixtures/{testbed}/workflows/deploy.yaml")).commands
)
# shell syntax, and whitespace that str.split splits on and shlex does not
COMMAND_ALPHABET = "ab -=/:.'\"\\#\x0b\x0c\x1c\x85\xa0\u2028\r\n\t\u00e9\U0001d11e"


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.one_of(st.sampled_from(BUNDLED_COMMANDS), st.text(COMMAND_ALPHABET, max_size=24)))
def test_split_command_matches_shlex(command):
    try:
        expected = shlex.split(command)
    except ValueError:
        expected = []
    assert _split_command(command) == expected


# references that share a key are one image; each key's text up to its
# first "/" is the registry host
@pytest.mark.parametrize(
    "ref, key",
    [
        ("ghcr.io/acme/app", "ghcr.io/acme/app:latest"),
        ("ghcr.io/acme/app:latest", "ghcr.io/acme/app:latest"),
        ("acme/app", "ghcr.io/acme/app:latest"),
        ("GHCR.io/acme/app", "ghcr.io/acme/app:latest"),
        ("docker.io/acme/app", "docker.io/acme/app:latest"),
        ("ghcr.io/acme/app:1", "ghcr.io/acme/app:1"),
        ("ghcr.io/acme/app:2", "ghcr.io/acme/app:2"),
        ("localhost:5000/app", "localhost:5000/app:latest"),
        ("localhost/app:2", "localhost/app:2"),
        ("Registry/app", "registry/app:latest"),
        ("app", "ghcr.io/app:latest"),
        ("ghcr.io/acme/app@sha256:0123abcd", "ghcr.io/acme/app@sha256:0123abcd"),
        ("ghcr.io/acme/app:1@sha256:0123abcd", "ghcr.io/acme/app:1@sha256:0123abcd"),
    ],
)
def test_image_key(ref, key):
    assert image_key(ref) == key


class TestLinkApplications:
    def app_bundle(self, graph, name, image=None, host=None):
        doc = {"application": name, "language": "x"}
        if image:
            doc["image"] = image
        if host:
            doc["host"] = host
        return ingest_code_facts(graph, bundle_from_document(doc))

    def test_image_anchoring(self, discovery, graph):
        app_id = self.app_bundle(graph, "productpage", image="ghcr.io/acme/productpage")
        discovery.ingest_inventory(
            inventory(
                "k8s",
                [
                    {
                        "id": "pod1",
                        "name": "productpage-v1",
                        "provider_type": "Pod",
                        "links": {"image": "ghcr.io/acme/productpage"},
                    }
                ],
            )
        )
        discovery.resolve_inventory_links()
        discovery.ingest_workflow(
            workflow(["docker build -t ghcr.io/acme/productpage .", "docker push ghcr.io/acme/productpage"])
        )
        assert discovery.link_applications() == 1
        pod = graph.find_by_name("Container", "productpage-v1")
        assert graph.has_edge(app_id, pod, "RUNS_ON")
        # pull flow: registry feeds the container that uses the image
        registry = graph.find_by_name("ContainerRegistry", "ghcr.io")
        assert graph.has_edge(registry, pod, "DFG")

    def test_pull_of_a_second_build_tag(self, discovery, graph):
        # the pod uses the tag the build names second; the push names the first
        self.app_bundle(graph, "app", image="ghcr.io/acme/app:latest")
        discovery.ingest_inventory(
            inventory(
                "k8s",
                [
                    {
                        "id": "pod1",
                        "name": "app-v1",
                        "provider_type": "Pod",
                        "links": {"image": "ghcr.io/acme/app:latest"},
                    }
                ],
            )
        )
        discovery.resolve_inventory_links()
        discovery.ingest_workflow(
            workflow(
                [
                    "docker build -t ghcr.io/acme/app:1 -t ghcr.io/acme/app:latest .",
                    "docker push ghcr.io/acme/app:1",
                ]
            )
        )
        assert discovery.link_applications() == 1
        assert len(graph.nodes_with_class("ContainerImage")) == 1
        pod = graph.find_by_name("Container", "app-v1")
        registry = graph.find_by_name("ContainerRegistry", "ghcr.io")
        assert graph.has_edge(registry, pod, "DFG")

    def test_host_anchoring(self, discovery, graph):
        app_id = self.app_bundle(graph, "ratings", host="i-0ratings")
        discovery.ingest_inventory(
            inventory(
                "aws",
                [{"id": "i-0ratings", "name": "ratings-vm", "provider_type": "AWS::EC2::Instance"}],
            )
        )
        discovery.resolve_inventory_links()
        assert discovery.link_applications() == 1
        vm = graph.find_by_name("VirtualMachine", "ratings-vm")
        assert graph.has_edge(app_id, vm, "RUNS_ON")

    def test_duplicate_checks_flat_in_tenants(self, core_ontology):
        """k tenants pull from one registry: the adjacency listed per
        `has_edge` call stays the same from k=40 to k=80."""

        def per_check(tenants):
            graph = PropertyGraph(core_ontology)
            registry = graph.add_node("ContainerRegistry", "ghcr.io")
            for t in range(tenants):
                image = graph.add_node("ContainerImage", f"ghcr.io/acme/app-{t}")
                graph.add_edge(image, registry, "PUSHES_TO")
                graph.add_edge(graph.add_node("Container", f"pod-{t}"), image, "USES_IMAGE")
            tally = {"edges": 0, "checks": 0}

            def listing(method):
                def counted(*args, **kwargs):
                    edges = method(*args, **kwargs)
                    tally["edges"] += len(edges)
                    return edges

                return counted

            def check(*args):
                tally["checks"] += 1
                return PropertyGraph.has_edge(graph, *args)

            graph.out_edges = listing(graph.out_edges)
            graph.in_edges = listing(graph.in_edges)
            graph.has_edge = check
            Discovery(graph).link_applications()
            assert tally["checks"] == sum(e.type == "DFG" for e in graph.edges()) == tenants
            return tally["edges"] / tally["checks"]

        k = 40
        assert per_check(2 * k) <= 1.1 * per_check(k)

    def test_no_containers_no_edges(self, discovery, graph, caplog):
        self.app_bundle(graph, "lonely", image="ghcr.io/acme/ghost")
        with caplog.at_level("WARNING"):
            assert discovery.link_applications() == 0
        assert "lonely" in caplog.text


class TestFixtureInvariants:
    def test_features_are_sanctioned_by_ontology(self, testbed_graph):
        g = testbed_graph
        feature_edges = {
            "GEO_LOCATION": "GeoLocation",
            "AT_REST_ENCRYPTION": "AtRestEncryption",
            "TRANSPORT_ENCRYPTION": "TransportEncryption",
        }
        for edge_type, feature in feature_edges.items():
            for edge in (e for e in g.edges() if e.type == edge_type):
                source = g.node(edge.from_id)
                if source.class_name == "HttpEndpoint":
                    continue  # anchored to the resource's endpoint
                assert feature in g.ontology.offered_features(source.class_name), source

    def test_feature_nodes_have_one_inbound_edge(self, testbed_graph):
        g = testbed_graph
        feature_classes = {
            "GeoLocation",
            "AtRestEncryption",
            "TransportEncryption",
            "NoAuthentication",
            "TokenBasedAuthentication",
        }
        for node in g.nodes():
            if node.class_name in feature_classes:
                assert len(g.in_edges(node.id)) == 1, node

    def test_document_order_independence(self, core_ontology):
        from skygraph.build import load_manifest
        from .conftest import data_path

        manifest = load_manifest(data_path("fixtures/bookinfo/manifest.yaml"))

        def build(order):
            graph = PropertyGraph(core_ontology)
            discovery = Discovery(graph, manifest.registry_locations)
            from skygraph.discovery import load_inventory

            for idx in order:
                discovery.ingest_inventory(load_inventory(manifest.inventories[idx]))
            discovery.resolve_inventory_links()
            nodes = sorted((n.class_name, n.name) for n in graph.nodes())
            edges = sorted(
                (
                    e.type,
                    graph.node(e.from_id).class_name,
                    graph.node(e.from_id).name,
                    graph.node(e.to_id).class_name,
                    graph.node(e.to_id).name,
                )
                for e in graph.edges()
            )
            return nodes, edges

        assert build([0, 1, 2]) == build([2, 0, 1])
