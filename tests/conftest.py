"""Shared fixtures and small builders for the test suite."""

from pathlib import Path

from sparqlkb.kb import Term, Var, anonymous, individual, parse_kb
from sparqlkb.mappings import SolutionMapping
from sparqlkb.query import parse_query

FIXTURES = Path(__file__).parent / "fixtures"


def load_kb(name: str):
    return parse_kb((FIXTURES / name).read_text(encoding="utf-8"))


def load_query(name: str):
    return parse_query((FIXTURES / name).read_text(encoding="utf-8"))


def _term(value: str) -> Term:
    return anonymous(value) if value.startswith("_:") else individual(value)


def m(**bindings) -> SolutionMapping:
    """Mapping literal: m(x="Alice") = {?x -> Alice}."""
    return SolutionMapping.of({Var(k): _term(v) for k, v in bindings.items()})


def ms(*mappings) -> frozenset:
    """Mapping-set literal from m(...) values."""
    return frozenset(mappings)


def V(*names) -> frozenset:
    return frozenset(Var(n) for n in names)


def fam(*var_sets) -> frozenset:
    """Family literal: fam(["x"], ["x", "y"])."""
    return frozenset(frozenset(Var(n) for n in vs) for vs in var_sets)


def join_chain(n: int, left_deep: bool = True) -> str:
    """Query text of n JOINs nested inside each other over A(?x)."""
    text = "A(?x)"
    for i in range(n):
        step = f"r(?x, ?y{i})"
        text = f"JOIN({text}, {step})" if left_deep else f"JOIN({step}, {text})"
    return text
