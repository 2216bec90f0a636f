import importlib
from pathlib import Path

import pytest
import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode
from hypothesis import given, settings
from hypothesis import strategies as st

from skygraph import yamlfile
from skygraph.build import load_manifest
from skygraph.codefacts import load_code_facts
from skygraph.discovery import load_inventory, load_workflow
from skygraph.errors import CodeFactsError, DiscoveryError, ManifestError, OntologyError
from skygraph.ontology import load_ontology

from .conftest import DATA, data_path

LOADERS = {
    "manifest": (load_manifest, ManifestError),
    "ontology": (load_ontology, OntologyError),
    "mapping": (lambda path: load_ontology(data_path("ontology/core.yaml"), [path]), OntologyError),
    "codefacts": (load_code_facts, CodeFactsError),
    "inventory": (load_inventory, DiscoveryError),
    "workflow": (load_workflow, DiscoveryError),
}

BAD_FILES = {
    "syntax": "provider: [unclosed\n".encode(),
    "not-utf8": b"provider: \xff\xfe\n",
    "bad-date": b"provider: 2001-02-30\n",
    "missing": None,
}


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_unreadable_yaml_raises_typed_error_naming_file(tmp_path, kind, bad):
    load, error_cls = LOADERS[kind]
    path = tmp_path / f"{kind}-input.yaml"
    if BAD_FILES[bad] is not None:
        path.write_bytes(BAD_FILES[bad])
    with pytest.raises(error_cls, match=f"{kind}-input.yaml"):
        load(path)


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    """The loader `load_yaml` picks, with and without libyaml."""
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return yamlfile._loader()


def outcome(text: str, loader):
    """What loading `text` gives: ("ok", repr of the value) or ("error",
    the exception type). Unlike `==`, comparing reprs tells True from 1,
    finds nan equal to itself, and does not recurse on a recursive value."""
    try:
        return "ok", repr(yaml.load(text, Loader=loader))
    except Exception as exc:  # the exception type is what is compared
        return "error", type(exc)


def assert_loads_as_safe_loader(text: str, loader):
    assert outcome(text, loader) == outcome(text, yaml.SafeLoader), text


def test_loader_builds_on_libyaml_when_present(loader):
    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert issubclass(loader, base) and issubclass(loader, yamlfile._RestrictedLoader)


# scalars for each kind of implicit resolver, and near misses of them
RESOLVED_SCALARS = [
    "", "~", "null", "Null", "nil", "true", "Yes", "no", "OFF", "on", "y", "N", "tRUE",
    "0", "-1", "+12", "0x1F", "0o17", "0b101", "1_000", "190:20:30", "3.5", "-.inf", ".NaN", ".5", "1e3", "1.5e3",
    "2001-02-03", "2001-12-14t21:59:43.10-05:00", "2001-2-3", "<<", "=", "!tag", "&anchor", "*alias", "plain", "é",
]


def test_resolve_gives_pyyaml_tags(loader):
    assert loader.resolve is yamlfile._RestrictedLoader.resolve
    instance = loader("")
    firsts = [first for first in loader.yaml_implicit_resolvers if first]
    values = RESOLVED_SCALARS + firsts + [first + "x" for first in firsts]
    for value in values:
        # plain, quoted, and both
        for implicit in ((True, False), (False, True), (False, False), (True, True)):
            expected = yaml.resolver.BaseResolver.resolve(instance, ScalarNode, value, implicit)
            assert instance.resolve(ScalarNode, value, implicit) == expected, (value, implicit)
    for kind in (SequenceNode, MappingNode):
        for implicit in (True, False):
            assert instance.resolve(kind, None, implicit) == yaml.resolver.BaseResolver.resolve(instance, kind, None, implicit)


def test_bundled_and_fleet_files_load_as_safe_loader(loader, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    fleet = importlib.import_module("fleet")
    files = sorted(Path(str(DATA)).rglob("*.yaml"))
    for paths in fleet.PATH_MODES:
        fleet.generate(Path(str(DATA)), tmp_path / paths, 4, 3, paths)
        files += sorted((tmp_path / paths).rglob("*.yaml"))
    assert len(files) > 40
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=loader) == yaml.load(text, Loader=yaml.SafeLoader), path


EDGE_CASES = {
    "collection alias": "a: &x [1, {b: c}]\nb: *x\n",
    "scalar alias": "a: &x foo\nb: *x\nc: &n 12\nd: *n\n",
    "recursive alias": "&r [1, *r]\n",
    "undefined alias": "a: *nope\n",
    "anchor without alias": "a: &x [1, 2]\nb: &y text\n",
    "merge key": "base: &b {x: 1, y: 2}\nderived:\n  <<: *b\n  y: 3\n",
    "merge list": "- &a {x: 1}\n- &b {y: 2}\n- {<<: [*a, *b], z: 3}\n",
    "bad merge": "a: {<<: 5}\n",
    "bad merge after bad date": "a: {k: 2001-02-30, <<: 5}\n",
    "str tag": "a: !!str 5\nb: !!str yes\n",
    "int tag": "a: !!int '7'\n",
    "str tag on a sequence": "a: !!str [1]\n",
    "seq tag on a scalar": "a: !!seq x\n",
    "set tag on a scalar": "a: !!set x\n",
    "set tag": "a: !!set {x, y}\n",
    "omap tag": "a: !!omap [{x: 1}, {y: 2}]\n",
    "binary tag": "a: !!binary aGVsbG8=\n",
    "custom tag": "a: !custom x\n",
    "yaml 1.1 booleans": "on: push\nyes: no\nb: On\nc: off\n",
    "null": "a: ~\nb: null\nc:\n",
    "hex and octal": "a: 0x1F\nb: 017\nc: 0o17\nd: 1_000\ne: 190:20:30\n",
    "float": "a: 1.5\nb: -.inf\nc: .nan\nd: 6.8523015e+5\n",
    "date": "a: 2001-12-14\n",
    "timestamp": "a: 2001-12-14t21:59:43.10-05:00\nb: 2001-12-14 21:59:43.10\n",
    "invalid date": "a: [x, 2001-02-30]\n",
    # breadth first, the tag is reached before the deeper date
    "custom tag before a deeper invalid date": "[[!custom x], [[2001-02-30]]]\n",
    "value key": "=: 1\n",
    "value scalar": "a: =\n",
    "quoted scalars": "a: 'on'\nb: \"12\"\nc: '~'\n",
    "int keys": "1: a\n2: b\n",
    "bool key": "true: a\n1: b\n",
    "null key": "~: a\n",
    "sequence key": "? [a, b]\n: c\n",
    "mapping key": "? {a: 1}\n: c\n",
    "duplicate keys": "a: 1\nb: 2\na: 3\n",
    "empty stream": "",
    "comment only": "# nothing\n",
    "empty document": "---\n",
    "scalar document": "just text\n",
    "two documents": "--- a\n--- b\n",
    "syntax error": "a: [unclosed\n",
    "deep mappings": "{a: " * 50 + "1" + "}" * 50 + "\n",
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_loads_as_safe_loader(loader, case):
    assert_loads_as_safe_loader(EDGE_CASES[case], loader)


def test_alias_shares_the_value_as_safe_loader(loader):
    data = yaml.load(EDGE_CASES["collection alias"], Loader=loader)
    assert data["a"] is data["b"]


def test_deep_nesting_loads_without_recursion(loader):
    depth = 3000
    text = "[" * depth + "]" * depth
    if "CParser" not in {base.__name__ for base in loader.__mro__}:
        # PyYAML's pure-Python composer recurses, in SafeLoader as here
        assert outcome(text, loader) == outcome(text, yaml.SafeLoader) == ("error", RecursionError)
        return
    data = yaml.load(text, Loader=loader)
    for _ in range(depth - 1):  # compared level by level: `==` would recurse
        assert type(data) is list and len(data) == 1
        data = data[0]
    assert data == []


SCALAR_TEXT = st.sampled_from(
    ["a", "on", "No", "~", "", "0x1F", "1.5", ".nan", "2001-12-14", "2001-02-30", "=", "<<",
     "'on'", '"x y"', "!!str 5", "!!int '7'", "!custom x", "1_000", "190:20:30"]
) | st.from_regex(r"[a-z0-9._-]{1,6}", fullmatch=True)


def _documents():
    """YAML text in flow style: scalars, collections, anchors and aliases."""
    nodes = st.recursive(
        st.tuples(st.just("scalar"), SCALAR_TEXT, st.booleans()),
        lambda children: st.tuples(st.just("seq"), st.lists(children, max_size=4), st.booleans())
        | st.tuples(
            st.just("map"), st.lists(st.tuples(children, children), max_size=4), st.booleans()
        )
        | st.tuples(st.just("alias"), st.integers(0, 3), st.just(False)),
        max_leaves=12,
    )
    return nodes.map(_render)


def _render(node) -> str:
    anchors: list[str] = []

    def text(node) -> str:
        kind, body, anchored = node
        prefix = ""
        if anchored:
            anchors.append(f"a{len(anchors)}")
            prefix = f"&{anchors[-1]} "
        if kind == "alias":
            return f"*{anchors[body % len(anchors)]}" if anchors else "*undefined"
        if kind == "scalar":
            return prefix + body
        if kind == "seq":
            return prefix + "[" + ", ".join(text(item) for item in body) + "]"
        return prefix + "{" + ", ".join(f"{text(k)}: {text(v)}" for k, v in body) + "}"

    return text(node) + "\n"


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.sampled_from(["on", "yes", "~", "0x1F", "1.5", "2001-12-14", "=", "<<"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers() | st.booleans(), children, max_size=4),
    max_leaves=16,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    text=_documents()
    | st.builds(
        lambda value, flow: yaml.safe_dump(value, default_flow_style=flow), VALUES, st.booleans()
    )
)
def test_generated_documents_load_as_safe_loader(text):
    for loader in yamlfile._PyLoader, yamlfile._CLoader:
        assert_loads_as_safe_loader(text, loader)
