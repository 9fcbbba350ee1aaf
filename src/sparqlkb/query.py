"""SUJO query AST, parser, and the static analyses over it.

Grammar (prefix form):

    query   := atomPat
             | "SELECT{" varlist "}(" query ")"
             | "UNION(" query "," query ")"
             | "JOIN(" query "," query ")"
             | "OPT(" query "," query ")"
    varlist := { var [","] }
    atomPat := Name "(" term ")" | Name "(" term "," term ")"
    term    := "?"var | individual

A varlist's commas are optional and a trailing one is accepted; a leading
comma and two in a row are refused.  SELECT, UNION, JOIN and OPT are
reserved and cannot be used as predicates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

from .errors import QueryShapeError
from .kb import NAME_RE, Term, Var, _parse_args, _parse_individual, _parse_name, _Tokens, individual

VarSet = frozenset[Var]
VarSetFamily = frozenset[VarSet]

_KEYWORDS = {"SELECT", "UNION", "JOIN", "OPT"}

# Operators nested deeper than this are refused when parsing: the analyses
# and the evaluator recurse over the query tree.
_MAX_NESTING = 256


class _Node:
    """A query node stores its hash when it is built: the one a frozen
    dataclass computes from its fields, which would otherwise recurse over
    the whole tree on every lookup in a cache keyed by a query.  Each node
    class names `__hash__` itself, so that the dataclass keeps it."""

    def __post_init__(self):
        # the fields, in order, are all that __init__ has stored
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the stored hash is of strings, which differ between processes
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class TriplePattern(_Node):
    predicate: str
    args: tuple[Union[Var, Term], ...]
    __hash__ = _Node.__hash__

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise ValueError(f"pattern arity must be 1 or 2, got {len(self.args)}")
        super().__post_init__()


@dataclass(frozen=True)
class Select(_Node):
    vars: VarSet
    body: "Query"
    __hash__ = _Node.__hash__

    def __post_init__(self):
        if not self.vars <= query_vars(self.body):
            extra = {str(v) for v in self.vars - query_vars(self.body)}
            raise ValueError(f"SELECT projects variables not in body: {sorted(extra)}")
        super().__post_init__()


@dataclass(frozen=True)
class UnionQ(_Node):
    left: "Query"
    right: "Query"
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class JoinQ(_Node):
    left: "Query"
    right: "Query"
    __hash__ = _Node.__hash__


@dataclass(frozen=True)
class OptQ(_Node):
    left: "Query"
    right: "Query"
    __hash__ = _Node.__hash__


Query = Union[TriplePattern, Select, UnionQ, JoinQ, OptQ]


def query_vars(q: Query) -> VarSet:
    """Variables projected by a query."""
    if isinstance(q, TriplePattern):
        return frozenset(a for a in q.args if isinstance(a, Var))
    if isinstance(q, Select):
        return q.vars
    return query_vars(q.left) | query_vars(q.right)


def triple_pattern_count(q: Query) -> int:
    if isinstance(q, TriplePattern):
        return 1
    if isinstance(q, Select):
        return triple_pattern_count(q.body)
    return triple_pattern_count(q.left) + triple_pattern_count(q.right)


def union_operands(q: Query) -> list[Query]:
    """The operands of q's top-level UNION tree, left to right; [q] if q is
    not a UNION."""
    if isinstance(q, UnionQ):
        return union_operands(q.left) + union_operands(q.right)
    return [q]


def _uses_only(q: Query, types: frozenset[type]) -> bool:
    """True iff every node of q is of one of `types`, stopping at the first
    that is not."""
    if type(q) not in types:
        return False
    if isinstance(q, TriplePattern):
        return True
    if isinstance(q, Select):
        return _uses_only(q.body, types)
    return _uses_only(q.left, types) and _uses_only(q.right, types)


_CQ = frozenset({TriplePattern, JoinQ})
_JO = _CQ | {OptQ}
_UNION_FREE = _JO | {Select}


def is_jo(q: Query) -> bool:
    """True iff q uses only triple patterns, JOIN and OPT."""
    return _uses_only(q, _JO)


def is_union_free(q: Query) -> bool:
    return _uses_only(q, _UNION_FREE)


def is_ucq_shape(q: Query) -> bool:
    """UNION of CQs (SELECT over a JOIN tree of triple patterns) sharing
    the same distinguished variables."""
    seen_vars = set()
    for cq in union_operands(q):
        if not _uses_only(cq.body if isinstance(cq, Select) else cq, _CQ):
            return False
        seen_vars.add(query_vars(cq))
    return len(seen_vars) == 1


@lru_cache(maxsize=256)
def adm(q: Query) -> VarSetFamily:
    """Family of admissible bound-variable sets (relaxed, inductive)."""
    if isinstance(q, TriplePattern):
        return frozenset({query_vars(q)})
    if isinstance(q, Select):
        return frozenset(x & q.vars for x in adm(q.body))
    if isinstance(q, JoinQ):
        return frozenset(x1 | x2 for x1 in adm(q.left) for x2 in adm(q.right))
    if isinstance(q, OptQ):
        return adm(q.left) | adm(JoinQ(q.left, q.right))
    return adm(q.left) | adm(q.right)


@lru_cache(maxsize=256)
def branch(q: Query) -> frozenset[Query]:
    """The UNION-free queries obtained by picking one operand of each UNION.
    A UNION-free query is its own only branch, and that branch is q itself:
    an operand is UNION-free iff it is one of its own branches."""
    if isinstance(q, TriplePattern):
        return frozenset({q})
    if isinstance(q, Select):
        bodies = branch(q.body)
        if q.body in bodies:
            return frozenset({q})
        # A branch of the body may lack some projected variables (they came
        # from another UNION operand); dropping them from the projection set
        # is a no-op, since no mapping of the branch can bind them.
        return frozenset(Select(q.vars & query_vars(b), b) for b in bodies)
    if isinstance(q, UnionQ):
        return branch(q.left) | branch(q.right)
    lefts, rights = branch(q.left), branch(q.right)
    if q.left in lefts and q.right in rights:
        return frozenset({q})
    ctor = JoinQ if isinstance(q, JoinQ) else OptQ
    return frozenset(ctor(b1, b2) for b1 in lefts for b2 in rights)


@lru_cache(maxsize=256)
def _base(q: Query) -> VarSetFamily:
    """base(q) for any UNION-free query.

    Every member contains the family's minimum, and the unions of nonempty
    subfamilies are exactly adm(q).  JOIN and OPT make one member from each
    member of either operand, so |_base(q)| <= triple_pattern_count(q).
    """
    if isinstance(q, TriplePattern):
        return frozenset({query_vars(q)})
    if isinstance(q, Select):
        # intersection distributes over union
        return frozenset(b & q.vars for b in _base(q.body))
    if isinstance(q, UnionQ):
        raise QueryShapeError("base(q) is defined for UNION-free queries only")
    b1, b2 = _base(q.left), _base(q.right)
    anchored = frozenset(_min_of(b1) | y for y in b2)
    if isinstance(q, OptQ):
        # base(JOIN(l, r)) would add x ∪ min(l) ∪ min(r) for each x in
        # base(l): the union of two members already here.
        return b1 | anchored
    m2 = _min_of(b2)
    return frozenset(x | m2 for x in b1) | anchored


def _min_of(family: VarSetFamily) -> VarSet:
    """The unique ⊆-minimum of a base family: every member contains it."""
    low = frozenset.intersection(*family)
    assert low in family, f"base minimum not unique: {sorted(map(sorted, family))}"
    return low


def base(q: Query) -> VarSetFamily:
    """Linear-size generating family whose nonempty unions produce adm(q).

    Defined for JOIN/OPT queries only.
    """
    if not is_jo(q):
        raise QueryShapeError("base(q) is defined for JOIN/OPT queries only")
    return _base(q)


def min_base(q: Query) -> VarSet:
    """The unique ⊆-minimum of base(q)."""
    return _min_of(_base(q))


def _top_inside(q: Query, x: VarSet) -> VarSet | None:
    """The largest admissible subset of x, or None if there is none: the
    union of the base members inside x, provided the minimum is one of them."""
    family = _base(q)
    if not _min_of(family) <= x:
        return None
    top: set[Var] = set()
    for b in family:
        if b <= x:
            top.update(b)
    return frozenset(top)


def is_admissible(q: Query, x: VarSet) -> bool:
    """Decide x ∈ adm(q) via the base families of q's branches.

    adm(q) is the union of its branches' families, and x is admissible for
    a branch iff it is a union of a nonempty subfamily of the branch's base:
    the minimum base element must be contained in x, and the base elements
    inside x must cover it.
    """
    x = frozenset(x)
    return any(_top_inside(b, x) == x for b in branch(q))


def max_admissible_subsets(q: Query, x2: VarSet) -> VarSetFamily:
    """max_⊆(adm(q) ∩ 2^x2) for a UNION-free query.

    adm(q) ∩ 2^x2 is closed under union, so the result is empty or a
    singleton: the union of all base elements contained in x2.
    """
    top = _top_inside(q, frozenset(x2))
    return frozenset() if top is None else frozenset({top})


# --- parsing / serialization ------------------------------------------------

_Q_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[(){},?]")


def _parse_term(toks: _Tokens) -> Union[Var, Term]:
    if toks.at("?"):
        toks.next()
        return Var(_parse_name(toks, "variable name"))
    return individual(_parse_individual(toks))


def _parse_query(toks: _Tokens, depth: int = 0) -> Query:
    value = toks.next()
    at = toks.index - 1
    if not (value[0].isalnum() or value[0] == "_"):
        toks.fail(f"expected query, found {value!r}")
    if value in _KEYWORDS and depth == _MAX_NESTING:
        toks.fail("query nested too deeply")
    if value == "SELECT":
        toks.next("{")
        var_names = []
        while not toks.at("}"):
            var_names.append(_parse_name(toks, "variable name"))
            if toks.at(","):
                toks.next()
        toks.next("}")
        toks.next("(")
        body = _parse_query(toks, depth + 1)
        toks.next(")")
        try:
            return Select(frozenset(Var(v) for v in var_names), body)
        except ValueError as exc:
            toks.fail(str(exc), at)
    if value in ("UNION", "JOIN", "OPT"):
        toks.next("(")
        left = _parse_query(toks, depth + 1)
        toks.next(",")
        right = _parse_query(toks, depth + 1)
        toks.next(")")
        ctor = {"UNION": UnionQ, "JOIN": JoinQ, "OPT": OptQ}[value]
        return ctor(left, right)
    if not NAME_RE.match(value):
        toks.fail(f"invalid predicate name {value!r}")
    return TriplePattern(value, _parse_args(toks, _parse_term))


def parse_query(text: str) -> Query:
    toks = _Tokens(text, _Q_TOKEN_RE)
    q = _parse_query(toks)
    tok = toks.peek()
    if tok is not None:
        toks.fail(f"trailing input: {tok!r}", toks.index)
    return q


def serialize_query(q: Query) -> str:
    if isinstance(q, TriplePattern):
        args = ", ".join(str(a) for a in q.args)
        return f"{q.predicate}({args})"
    if isinstance(q, Select):
        names = ", ".join(sorted(v.name for v in q.vars))
        return f"SELECT{{{names}}}( {serialize_query(q.body)} )"
    op = {UnionQ: "UNION", JoinQ: "JOIN", OptQ: "OPT"}[type(q)]
    return f"{op}( {serialize_query(q.left)}, {serialize_query(q.right)} )"


def format_var_set(x: VarSet) -> str:
    return "{" + ",".join(sorted(v.name for v in x)) + "}"


def format_family(family: VarSetFamily) -> str:
    parts = sorted(
        family, key=lambda s: tuple(sorted(v.name for v in s))
    )
    return "{" + ",".join(format_var_set(x) for x in parts) + "}"
