import pytest

from skygraph.errors import QuerySyntaxError
from skygraph.query import parse_query
from skygraph.query.syntax import (
    HopRange,
    NodeComparison,
    NodePattern,
    PropertyComparison,
    RelPattern,
    _Parser,
    _tokenize,
)

from .conftest import LISTING_FILES, listing_text


def test_single_node_query():
    ast = parse_query("MATCH (n) RETURN n")
    assert ast.node_patterns == (NodePattern(var="n", label=None),)
    assert ast.rel_patterns == ()
    assert ast.path_var is None
    assert ast.where is None
    assert ast.return_items == ("n",)


def test_weak_transport_encryption_shape():
    ast = parse_query(listing_text("weak-transport-encryption"))
    nodes = ast.node_patterns
    rels = ast.rel_patterns
    assert len(nodes) == 3
    assert len(rels) == 2
    assert all(r.direction == "undirected" and r.type is None for r in rels)
    assert ast.where == (
        (PropertyComparison(var="te", key="enabled", op="=", literal=False),),
        (PropertyComparison(var="te", key="tlsVersion", op="<>", literal="TLS1_2"),),
    )
    assert ast.path_var == "p"
    assert ast.return_items == ("p",)


def test_public_storage_writes_shape():
    ast = parse_query(listing_text("public-storage-writes"))
    rels = ast.rel_patterns
    assert [r.direction for r in rels] == ["left", "right", "undirected", "undirected"]
    assert [r.type for r in rels] == ["SOURCE", "TO", None, "AUTHENTICITY"]
    labels = [n.label for n in ast.node_patterns]
    assert labels == ["CloudResource", "ObjectStorageRequest", "Storage", "HttpEndpoint", "NoAuthentication"]
    assert ast.where == ((PropertyComparison(var="rq", key="type", op="=", literal="append"),),)


def test_variable_length_star():
    ast = parse_query("MATCH p=(e:Expression)-[:DFG*]->(s) RETURN p")
    rel = ast.rel_patterns[0]
    assert rel == RelPattern(var=None, type="DFG", direction="right", hops=HopRange(1, None))


def test_exact_hop_count():
    ast = parse_query("MATCH p=(a)-[*2]-(b) RETURN p")
    assert ast.rel_patterns[0].hops == HopRange(2, 2)


def test_empty_brackets_single_hop():
    ast = parse_query("MATCH (a)-[]-(b) RETURN a")
    assert ast.rel_patterns[0] == RelPattern(var=None, type=None, direction="undirected", hops=HopRange(1, 1))


def test_bare_dashes():
    ast = parse_query("MATCH (a)--(b)-->(c)<--(d) RETURN a")
    assert [r.direction for r in ast.rel_patterns] == ["undirected", "right", "left"]


def test_rel_variable():
    ast = parse_query("MATCH (a)-[r:DFG]->(b) RETURN a")
    assert ast.rel_patterns[0].var == "r"


def test_node_identity_comparison():
    ast = parse_query("MATCH (l1)--(l2) WHERE l1 <> l2 RETURN l1")
    assert ast.where == ((NodeComparison(left="l1", right="l2"),),)


def test_keywords_case_insensitive_labels_not():
    ast = parse_query("match (n:Storage) return n")
    assert ast.node_patterns[0].label == "Storage"
    with pytest.raises(QuerySyntaxError):
        parse_query("MATCH (n:Storage) RETURN m")


def test_and_binds_tighter_than_or():
    ast = parse_query(
        'MATCH (a)--(b) WHERE a.x = 1 OR a.y = 2 AND b.z = 3 RETURN a'
    )
    x, y, z = (
        PropertyComparison("a", "x", "=", 1),
        PropertyComparison("a", "y", "=", 2),
        PropertyComparison("b", "z", "=", 3),
    )
    assert ast.where == ((x,), (y, z))


def test_syntax_error_reports_offset():
    text = "MATCH (n RETURN n"
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert info.value.offset == text.index("RETURN")


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("$MATCH (n) RETURN n", "unexpected character '$'", 0),
        ("MATCH (n)  ? RETURN n", "unexpected character '?'", 11),
        # a string with no closing quote never matches: the error is its opening quote
        ('MATCH (n) WHERE n.name = "abc RETURN n', "unexpected character '\"'", 25),
        ("MATCH (n) ", "expected RETURN, found 'end of input'", 10),
    ],
)
def test_syntax_error_message_and_offset(text, message, offset):
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


def test_unbound_where_variable():
    text = "MATCH (n) WHERE m.x = 1 RETURN n"
    with pytest.raises(QuerySyntaxError, match="not bound") as info:
        parse_query(text)
    assert info.value.offset == text.index("m.x")


def test_unbound_return_variable():
    with pytest.raises(QuerySyntaxError, match="not bound"):
        parse_query("MATCH (n) RETURN q")


def test_hop_count_below_one_reports_the_integer():
    text = "MATCH (a)-[*0]->(b) RETURN a"
    with pytest.raises(QuerySyntaxError, match="hop count") as info:
        parse_query(text)
    assert info.value.offset == text.index("0") == 12


@pytest.mark.parametrize(
    "text, var, kind",
    [
        ('MATCH (a)-[r:RUNS_ON]->(b) WHERE r.name = "x" OR r.name <> "x" RETURN a', "r", "relationship"),
        ('MATCH p=(a)-->(b) WHERE p.name <> "x" RETURN a', "p", "path"),
        ("MATCH (a)-[r]->(b) WHERE a <> r RETURN a", "r", "relationship"),
        ("MATCH p=(a)-->(b) WHERE p <> a RETURN a", "p", "path"),
        ("MATCH (a)-[r]->(b) RETURN r", "r", "relationship"),
    ],
)
def test_only_node_variables_in_where_and_return(text, var, kind):
    with pytest.raises(QuerySyntaxError, match=f"{kind} variable '{var}' cannot be used") as info:
        parse_query(text)
    clause = text.index("WHERE") if "WHERE" in text else text.index("RETURN")
    assert info.value.offset == text.index(f" {var}", clause) + 1


@pytest.mark.parametrize(
    "text, var",
    [
        ("MATCH a=(a)-[:RUNS_ON]->(b) RETURN a", "a"),
        ("MATCH (a)-[a]->(b) RETURN a", "a"),
        ("MATCH (a)-[b]->(b) RETURN a", "b"),
        ("MATCH p=(a)-[p]->(b) RETURN a", "p"),
    ],
)
def test_one_name_bound_as_two_kinds(text, var):
    with pytest.raises(QuerySyntaxError, match=f"variable '{var}' is bound as both"):
        parse_query(text)


def test_one_relationship_variable_on_two_patterns():
    text = "MATCH (a)-[r]->(b)<-[r]-(c) RETURN a"
    with pytest.raises(QuerySyntaxError, match="relationship variable 'r' is bound by two") as info:
        parse_query(text)
    assert info.value.offset == text.rindex("r") == 21


def test_path_var_is_bound():
    ast = parse_query("MATCH p=(n) RETURN p")
    assert ast.path_var == "p"


def test_trailing_garbage_rejected():
    with pytest.raises(QuerySyntaxError, match="trailing"):
        parse_query("MATCH (n) RETURN n LIMIT 5")


def test_literals():
    ast = parse_query('MATCH (n) WHERE n.a = "x y" AND n.b = 5 AND n.c = true RETURN n')
    (comparisons,) = ast.where
    assert comparisons[0].literal == "x y"
    assert comparisons[1].literal == 5
    assert comparisons[2].literal is True


def test_boolean_literal_distinct_from_integer():
    ((comparison,),) = parse_query("MATCH (n) WHERE n.a = false RETURN n").where
    assert comparison.literal is False
    ((comparison,),) = parse_query("MATCH (n) WHERE n.a = 0 RETURN n").where
    assert comparison.literal == 0 and comparison.literal is not False


def test_string_escapes():
    ((comparison,),) = parse_query('MATCH (n) WHERE n.a = "say \\"hi\\"" RETURN n').where
    assert comparison.literal == 'say "hi"'


def test_all_listings_parse():
    for name in LISTING_FILES:
        ast = parse_query(listing_text(name))
        assert ast.path_var == "p"
        assert ast.return_items == ("p",)


def test_whitespace_and_newlines_insignificant():
    ast = parse_query("MATCH\n  (n:Node)\n--\n(m)\nRETURN\nn")
    assert len(ast.node_patterns) == 2


def test_tokens_carry_the_upper_cased_identifier():
    tokens = _tokenize('match (n:Node) WHERE n.x = "s" return n')
    assert [(token.kind, token.word) for token in tokens if token.word] == [
        ("IDENT", word) for word in ("MATCH", "N", "NODE", "WHERE", "N", "X", "RETURN", "N")
    ]
    assert all(token.word == "" for token in tokens if token.kind != "IDENT")


def test_advance_stops_at_the_last_token():
    parser = _Parser("MATCH")
    assert parser.advance().word == "MATCH"
    for _ in range(3):
        assert parser.advance().kind == "EOF" and parser.peek().kind == "EOF"
