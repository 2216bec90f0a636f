"""Cypher-subset query language: parsing and evaluation."""

from skygraph.query.syntax import (
    HopRange,
    NodeComparison,
    NodePattern,
    PropertyComparison,
    QueryAst,
    RelPattern,
    parse_query,
)
from skygraph.query.engine import MatchResult, evaluate, explain, iter_matches

__all__ = [
    "HopRange",
    "MatchResult",
    "NodeComparison",
    "NodePattern",
    "PropertyComparison",
    "QueryAst",
    "RelPattern",
    "evaluate",
    "explain",
    "iter_matches",
    "parse_query",
]
