"""Knowledge base model: terms, atoms, TBox axioms, parsing and serialization.

The ASCII surface syntax (UTF-8, ``#`` comments, ``.``-terminated statements):

    file     := "TBOX:" axiom* "ABOX:" fact*
    axiom    := basic "[=" ("not")? basic "." | roleExpr "[=" roleExpr "."
    basic    := ConceptName | "exists" roleExpr
    roleExpr := RoleName | "inv(" RoleName ")"
    fact     := ConceptName "(" Ind ")" "." | RoleName "(" Ind "," Ind ")" "."

A bare ``X [= Y .`` is ambiguous between a concept and a role inclusion; it is
read as a role inclusion iff at least one side is used as a role elsewhere in
the file (in an ``exists``/``inv``, a binary fact, or another role inclusion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import ParseError

INDIVIDUAL_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_]*\Z")
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Prefixes of the reserved RDF/RDFS/OWL vocabularies; qualified names such as
# rdf:type are rejected up front.
RESERVED_PREFIXES = ("rdf", "rdfs", "owl")


@dataclass(frozen=True, order=True)
class Term:
    """Universe element: a named individual or an anonymous chase witness."""

    kind: str  # "individual" | "anonymous"
    name: str

    def __post_init__(self):
        if self.kind == "individual":
            if not INDIVIDUAL_RE.match(self.name):
                raise ValueError(f"invalid individual name: {self.name!r}")
        elif self.kind == "anonymous":
            if not self.name.startswith("_:"):
                raise ValueError(f"anonymous name must start with '_:': {self.name!r}")
        else:
            raise ValueError(f"unknown term kind: {self.kind!r}")

    @property
    def is_individual(self) -> bool:
        return self.kind == "individual"

    def __str__(self) -> str:
        return self.name


def individual(name: str) -> Term:
    return Term("individual", name)


def anonymous(name: str) -> Term:
    return Term("anonymous", name)


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self) -> str:
        return "?" + self.name


@dataclass(frozen=True, order=True)
class Atom:
    """Ground concept atom A(t) or role atom r(t1, t2)."""

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise ValueError(f"atom arity must be 1 or 2, got {len(self.args)}")

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, order=True)
class RoleExpr:
    """A role name or its inverse."""

    name: str
    inverse: bool = False

    def inverted(self) -> "RoleExpr":
        return RoleExpr(self.name, not self.inverse)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverse else self.name


@dataclass(frozen=True, order=True)
class BasicConcept:
    """Atomic concept A, existential restriction ∃r, or ∃r⁻."""

    kind: str  # "atomic" | "exists" | "exists_inv"
    name: str

    def __post_init__(self):
        if self.kind not in ("atomic", "exists", "exists_inv"):
            raise ValueError(f"unknown concept kind: {self.kind!r}")
        if not self.name:
            raise ValueError("concept name must be nonempty")

    @property
    def role(self) -> RoleExpr:
        if self.kind == "atomic":
            raise ValueError("atomic concept has no role")
        return RoleExpr(self.name, self.kind == "exists_inv")

    def __str__(self) -> str:
        if self.kind == "atomic":
            return self.name
        return f"exists {self.role}"


def exists(role: RoleExpr) -> BasicConcept:
    return BasicConcept("exists_inv" if role.inverse else "exists", role.name)


@dataclass(frozen=True)
class ConceptInclusion:
    lhs: BasicConcept
    rhs: BasicConcept

    def __str__(self) -> str:
        return f"{self.lhs} [= {self.rhs} ."


@dataclass(frozen=True)
class ConceptDisjointness:
    lhs: BasicConcept
    rhs: BasicConcept

    def __post_init__(self):
        if self.lhs == self.rhs:
            raise ValueError("disjointness requires two distinct concepts")

    def __str__(self) -> str:
        return f"{self.lhs} [= not {self.rhs} ."


@dataclass(frozen=True)
class RoleInclusion:
    lhs: RoleExpr
    rhs: RoleExpr

    def __str__(self) -> str:
        return f"{self.lhs} [= {self.rhs} ."


TBoxAxiom = Union[ConceptInclusion, ConceptDisjointness, RoleInclusion]


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable DL-Lite_R knowledge base ⟨TBox, ABox⟩."""

    tbox: frozenset[TBoxAxiom]
    abox: frozenset[Atom]

    def __post_init__(self):
        for atom in self.abox:
            for t in atom.args:
                if not t.is_individual:
                    raise ValueError(f"ABox atom mentions non-individual: {atom}")


def active_domain(kb: KnowledgeBase) -> frozenset[Term]:
    """Individuals appearing syntactically in the TBox or ABox."""
    # TBox axioms in this language never mention individuals.
    return frozenset(t for atom in kb.abox for t in atom.args)


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<subsumed>\[=)
      | (?P<name>[A-Za-z0-9_]+)
      | (?P<punct>[().,:])
    """,
    re.VERBOSE,
)


class _Tokens:
    """Tokenizer for both grammars: token_re's group names are the token
    kinds, and "ws", "comment" and "nl" tokens are dropped."""

    def __init__(self, text: str, token_re: re.Pattern):
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = token_re.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            value = m.group()
            if kind == "nl":
                line += 1
                col = 1
            else:
                if kind not in ("ws", "comment"):
                    self.tokens.append((kind, value, line, col))
                col += len(value)
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self, expected: str | None = None) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else (None, "", 1, 1)
            raise ParseError("unexpected end of input", last[2], last[3])
        if expected is not None and tok[1] != expected:
            raise ParseError(f"expected {expected!r}, found {tok[1]!r}", tok[2], tok[3])
        self.index += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == value


def _check_reserved(name: str, line: int, col: int, toks: _Tokens) -> None:
    if name in RESERVED_PREFIXES and toks.at(":"):
        raise ParseError(f"reserved vocabulary name: {name}", line, col)


def _parse_name(toks: _Tokens, what: str) -> tuple[str, int, int]:
    kind, value, line, col = toks.next()
    if kind != "name" or not NAME_RE.match(value):
        raise ParseError(f"expected {what}, found {value!r}", line, col)
    _check_reserved(value, line, col, toks)
    return value, line, col


def _parse_individual(toks: _Tokens) -> Term:
    kind, value, line, col = toks.next()
    if kind != "name" or not INDIVIDUAL_RE.match(value):
        raise ParseError(f"expected individual, found {value!r}", line, col)
    _check_reserved(value, line, col, toks)
    return individual(value)


def _parse_role_expr(toks: _Tokens) -> RoleExpr:
    name, line, col = _parse_name(toks, "role name")
    if name == "inv":
        toks.next("(")
        inner, _, _ = _parse_name(toks, "role name")
        toks.next(")")
        return RoleExpr(inner, inverse=True)
    return RoleExpr(name)


def _parse_side(toks: _Tokens):
    """One side of an axiom: either a BasicConcept or a RoleExpr.

    A bare name is ambiguous at this point; it is returned as a string and
    resolved once the whole file has been read.
    """
    name, line, col = _parse_name(toks, "concept or role")
    if name == "exists":
        return exists(_parse_role_expr(toks))
    if name == "inv":
        toks.next("(")
        inner, _, _ = _parse_name(toks, "role name")
        toks.next(")")
        return RoleExpr(inner, inverse=True)
    return name


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the KB grammar; raises ParseError with line/column on bad input."""
    toks = _Tokens(text, _TOKEN_RE)
    toks.next("TBOX")
    toks.next(":")

    # First pass: read axioms with bare names left unresolved.
    raw_axioms: list[tuple] = []
    while not (toks.at("ABOX") or toks.peek() is None):
        lhs = _parse_side(toks)
        tok = toks.next("[=")
        negated = False
        if toks.at("not"):
            toks.next()
            negated = True
        rhs = _parse_side(toks)
        raw_axioms.append((lhs, negated, rhs, tok[2], tok[3]))
        toks.next(".")
    toks.next("ABOX")
    toks.next(":")

    facts: list[tuple[str, tuple[Term, ...], int, int]] = []
    while toks.peek() is not None:
        name, line, col = _parse_name(toks, "predicate")
        toks.next("(")
        args = [_parse_individual(toks)]
        if toks.at(","):
            toks.next()
            args.append(_parse_individual(toks))
        toks.next(")")
        toks.next(".")
        facts.append((name, tuple(args), line, col))

    # Vocabulary inference for the ambiguous bare-name inclusions.
    roles: set[str] = {name for name, args, _, _ in facts if len(args) == 2}
    concepts: set[str] = {name for name, args, _, _ in facts if len(args) == 1}
    for lhs, negated, rhs, _, _ in raw_axioms:
        for side in (lhs, rhs):
            if isinstance(side, RoleExpr):
                roles.add(side.name)
            elif isinstance(side, BasicConcept) and side.kind != "atomic":
                roles.add(side.name)
        if negated:
            for side in (lhs, rhs):
                if isinstance(side, str):
                    concepts.add(side)
        if isinstance(lhs, BasicConcept) and isinstance(rhs, str):
            concepts.add(rhs)
        if isinstance(rhs, BasicConcept) and isinstance(lhs, str):
            concepts.add(lhs)

    axioms: list[TBoxAxiom] = []
    for lhs, negated, rhs, line, col in raw_axioms:
        role_axiom = any(
            isinstance(s, RoleExpr) or (isinstance(s, str) and s in roles)
            for s in (lhs, rhs)
        )
        if role_axiom and not negated:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    if s in concepts:
                        raise ParseError(f"{s!r} used both as concept and role", line, col)
                    sides.append(RoleExpr(s))
                elif isinstance(s, RoleExpr):
                    sides.append(s)
                else:
                    raise ParseError(
                        "role inclusion cannot mix concepts and roles", line, col
                    )
            axioms.append(RoleInclusion(sides[0], sides[1]))
            roles.update(s.name for s in sides)
        else:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    sides.append(BasicConcept("atomic", s))
                    concepts.add(s)
                elif isinstance(s, BasicConcept):
                    sides.append(s)
                else:
                    raise ParseError(
                        "disjointness requires basic concepts on both sides", line, col
                    )
            if negated:
                if sides[0] == sides[1]:
                    raise ParseError("disjointness requires distinct concepts", line, col)
                axioms.append(ConceptDisjointness(sides[0], sides[1]))
            else:
                axioms.append(ConceptInclusion(sides[0], sides[1]))

    atoms = []
    for name, args, line, col in facts:
        if name in roles and len(args) == 1:
            raise ParseError(f"role {name!r} used with 1 argument", line, col)
        if name in concepts and len(args) == 2:
            raise ParseError(f"concept {name!r} used with 2 arguments", line, col)
        atoms.append(Atom(name, args))
        (roles if len(args) == 2 else concepts).add(name)

    return KnowledgeBase(frozenset(axioms), frozenset(atoms))


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form: sections with lexicographically sorted statements."""
    lines = ["TBOX:"]
    lines.extend(sorted(str(ax) for ax in kb.tbox))
    lines.append("ABOX:")
    lines.extend(sorted(f"{atom} ." for atom in kb.abox))
    return "\n".join(lines) + "\n"
