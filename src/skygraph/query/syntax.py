"""Query text to AST.

The accepted language is a read-only MATCH/WHERE/RETURN subset:

    query  := "MATCH" pattern ("WHERE" pred)? "RETURN" ident
    pattern := (ident "=")? node (rel node)*
    node   := "(" ident? (":" ident)? ")"
    rel    := "<-" body "-" | "-" body "->" | "-" body "-"
    body   := ("[" ident? (":" TYPE)? ("*" INT?)? "]")?
    pred   := and ("OR" and)* ;  and := cmp ("AND" cmp)*
    cmp    := ident "." ident ("="|"<>") literal | ident "<>" ident

Keywords are case-insensitive; variables, labels and relationship types
are case-sensitive. AND binds tighter than OR, so WHERE parses as an OR of
ANDs. A variable names a node, a relationship or the path, never two of
them, and a relationship variable names one relationship pattern. WHERE
compares node variables only; RETURN takes a node variable or the path
variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from skygraph.errors import QuerySyntaxError

Literal = str | bool | int

KEYWORDS = {"MATCH", "WHERE", "RETURN", "AND", "OR"}


@dataclass(frozen=True)
class NodePattern:
    var: str | None = None
    label: str | None = None


@dataclass(frozen=True)
class HopRange:
    """Hop count bounds of a relationship pattern.

    `max` is None for a bare star, whose upper bound comes from the
    evaluator's configured default.
    """

    min: int = 1
    max: int | None = 1

    @property
    def is_single(self) -> bool:
        return self.min == 1 and self.max == 1


@dataclass(frozen=True)
class RelPattern:
    var: str | None = None
    type: str | None = None
    direction: str = "undirected"  # left | right | undirected
    hops: HopRange = HopRange()


@dataclass(frozen=True)
class PropertyComparison:
    var: str
    key: str
    op: str  # "=" or "<>"
    literal: Literal


@dataclass(frozen=True)
class NodeComparison:
    """`left <> right`: distinct bound nodes by value (class, name and
    properties)."""

    left: str
    right: str


Comparison = PropertyComparison | NodeComparison


@dataclass(frozen=True)
class QueryAst:
    """`rel_patterns[i]` joins `node_patterns[i]` to `node_patterns[i + 1]`.
    `where` is an OR of ANDs: a tuple of disjuncts, each a tuple of
    comparisons; None without a WHERE clause."""

    path_var: str | None
    node_patterns: tuple[NodePattern, ...]
    rel_patterns: tuple[RelPattern, ...]
    where: tuple[tuple[Comparison, ...], ...] | None
    return_items: tuple[str, ...]


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow_left><-)
  | (?P<neq><>)
  | (?P<arrow_right>->)
  | (?P<sym>[()\[\]:.*=,-])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # IDENT, INT, STRING, or the symbol text itself
    value: str
    offset: int


# the kind of a token by its `_TOKEN_RE` group; None skips whitespace, and
# a symbol's group is absent, so its kind is its text
_KINDS = {"ws": None, "ident": "IDENT", "int": "INT", "string": "STRING"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    match = _TOKEN_RE.match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        value = m.group()
        kind = _KINDS.get(m.lastgroup, value)
        if kind is not None:
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", end))
    return tokens


def _expected(what: str, token: _Token) -> QuerySyntaxError:
    found = token.value or "end of input"
    return QuerySyntaxError(f"expected {what}, found {found!r}", token.offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kinds: dict[str, str] = {}  # variable -> node | relationship | path

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise _expected(repr(kind), token)
        return self.advance()

    def keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "IDENT" and token.value.upper() == word

    def expect_keyword(self, word: str) -> None:
        token = self.peek()
        if not self.keyword(word):
            raise _expected(word, token)
        self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "IDENT" or token.value.upper() in KEYWORDS:
            raise _expected("identifier", token)
        return self.advance().value

    def bind(self, kind: str) -> str:
        """A variable the pattern binds as `kind`; only a node variable may
        be bound again."""
        token = self.peek()
        name = self.expect_ident()
        bound = self.kinds.get(name)
        if bound is not None and bound != kind:
            raise QuerySyntaxError(
                f"variable {name!r} is bound as both a {bound} and a {kind}", token.offset
            )
        if bound == "relationship":
            raise QuerySyntaxError(
                f"relationship variable {name!r} is bound by two relationship patterns",
                token.offset,
            )
        self.kinds[name] = kind
        return name

    def use(self, clause: str, *kinds: str) -> str:
        """A variable that `clause` refers to, bound as one of `kinds`."""
        token = self.peek()
        name = self.expect_ident()
        kind = self.kinds.get(name)
        if kind is None:
            raise QuerySyntaxError(f"variable {name!r} is not bound in the pattern", token.offset)
        if kind not in kinds:
            raise QuerySyntaxError(
                f"{kind} variable {name!r} cannot be used in {clause}, "
                f"which takes {' or '.join(kinds)} variables",
                token.offset,
            )
        return name

    # -- grammar --------------------------------------------------------

    def parse(self) -> QueryAst:
        self.expect_keyword("MATCH")
        path_var = None
        if (
            self.peek().kind == "IDENT"
            and self.peek().value.upper() not in KEYWORDS
            and self.peek(1).kind == "="
        ):
            path_var = self.bind("path")
            self.advance()
        nodes = [self.parse_node()]
        rels = []
        while self.peek().kind in ("-", "<-"):
            rels.append(self.parse_rel())
            nodes.append(self.parse_node())
        where = None
        if self.keyword("WHERE"):
            self.advance()
            where = self.parse_where()
        self.expect_keyword("RETURN")
        return_items = (self.use("RETURN", "node", "path"),)
        token = self.peek()
        if token.kind != "EOF":
            raise QuerySyntaxError(f"unexpected trailing {token.value!r}", token.offset)
        return QueryAst(path_var, tuple(nodes), tuple(rels), where, return_items)

    def parse_node(self) -> NodePattern:
        self.expect("(")
        var = None
        label = None
        if self.peek().kind == "IDENT":
            var = self.bind("node")
        if self.peek().kind == ":":
            self.advance()
            label = self.expect_ident()
        self.expect(")")
        return NodePattern(var=var, label=label)

    def parse_rel(self) -> RelPattern:
        token = self.advance()  # "-" or "<-"
        leftward = token.kind == "<-"
        var, rtype, hops = self.parse_rel_body()
        closing = self.peek()
        if leftward:
            self.expect("-")
            direction = "left"
        elif closing.kind == "->":
            self.advance()
            direction = "right"
        elif closing.kind == "-":
            self.advance()
            direction = "undirected"
        else:
            raise _expected("'-' or '->'", closing)
        return RelPattern(var=var, type=rtype, direction=direction, hops=hops)

    def parse_rel_body(self) -> tuple[str | None, str | None, HopRange]:
        if self.peek().kind != "[":
            return None, None, HopRange(1, 1)
        self.advance()
        var = None
        rtype = None
        hops = HopRange(1, 1)
        if self.peek().kind == "IDENT":
            var = self.bind("relationship")
        if self.peek().kind == ":":
            self.advance()
            rtype = self.expect_ident()
        if self.peek().kind == "*":
            self.advance()
            if self.peek().kind == "INT":
                token = self.advance()
                k = int(token.value)
                if k < 1:
                    raise QuerySyntaxError("hop count must be >= 1", token.offset)
                hops = HopRange(k, k)
            else:
                hops = HopRange(1, None)
        self.expect("]")
        return var, rtype, hops

    def parse_where(self) -> tuple[tuple[Comparison, ...], ...]:
        """Comparisons joined by AND and OR, as disjuncts of conjuncts."""
        disjuncts = [[self.parse_cmp()]]
        while self.keyword("AND") or self.keyword("OR"):
            if self.advance().value.upper() == "OR":
                disjuncts.append([])
            disjuncts[-1].append(self.parse_cmp())
        return tuple(tuple(conjuncts) for conjuncts in disjuncts)

    def parse_cmp(self) -> Comparison:
        var = self.use("WHERE", "node")
        token = self.peek()
        if token.kind == ".":
            self.advance()
            key = self.expect_ident()
            op_token = self.peek()
            if op_token.kind not in ("=", "<>"):
                raise _expected("'=' or '<>'", op_token)
            self.advance()
            return PropertyComparison(
                var=var, key=key, op=op_token.kind, literal=self.parse_literal()
            )
        if token.kind == "<>":
            self.advance()
            return NodeComparison(left=var, right=self.use("WHERE", "node"))
        raise _expected("'.' or '<>'", token)

    def parse_literal(self) -> Literal:
        token = self.peek()
        if token.kind == "STRING":
            self.advance()
            body = token.value[1:-1]
            return body.replace('\\"', '"').replace("\\\\", "\\")
        if token.kind == "INT":
            self.advance()
            return int(token.value)
        if token.kind == "IDENT" and token.value.lower() in ("true", "false"):
            self.advance()
            return token.value.lower() == "true"
        raise _expected("literal", token)


def parse_query(text: str) -> QueryAst:
    """Parse query text; raises QuerySyntaxError with the failing offset."""
    return _Parser(text).parse()
