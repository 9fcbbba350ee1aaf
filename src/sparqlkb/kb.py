"""Knowledge base model: terms, atoms, TBox axioms, parsing and serialization.

The ASCII surface syntax (UTF-8, ``#`` comments to the end of the line,
whitespace exactly space, tab, CR and LF, ``.``-terminated statements):

    file     := "TBOX:" axiom* "ABOX:" fact*
    axiom    := basic "[=" ("not")? basic "." | roleExpr "[=" roleExpr "."
    basic    := ConceptName | "exists" roleExpr
    roleExpr := RoleName | "inv(" RoleName ")"
    fact     := ConceptName "(" Ind ")" "." | RoleName "(" Ind "," Ind ")" "."

A bare ``X [= Y .`` is ambiguous between a concept and a role inclusion; it is
read as a role inclusion iff at least one side is used as a role elsewhere in
the file (in an ``exists``/``inv``, a binary fact, or another role inclusion),
wherever in the file that use is.

`parse_kb` tokenizes only the text before the ABox and reads the ABox by one
regex scan.  Text that the scan does not read whole, and every error, take
the checking path, which tokenizes the whole text and locates the error.
Both grammars, the KB's and the query's, read every name through
`_parse_name` and every argument list through `_parse_args`, and the scan
is built from the same name, individual and whitespace classes.

The TBox is built once per text by `_tbox` (see there), so KBs over one
ontology share one TBox object, and `chase.saturate`'s cache hits by identity.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import attrgetter
from typing import AbstractSet, Callable, NamedTuple, NoReturn, Union

from .errors import ParseError

# Each lexical class of both grammars, written once; every reader of one,
# the ABox scan's included, is built from these strings.
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_INDIVIDUAL = r"[A-Za-z0-9][A-Za-z0-9_]*"
_WS = " \t\r\n"  # whitespace is exactly these characters

INDIVIDUAL_RE = re.compile(_INDIVIDUAL + r"\Z")
NAME_RE = re.compile(_NAME + r"\Z")

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


_name = attrgetter("name")


def term(name: str) -> Term:
    """The term a name encodes."""
    return Term("anonymous" if name.startswith("_:") else "individual", name)


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


class EncodedAbox(NamedTuple):
    """The ABox as the engine reads it: every term by its name, which is a
    complete encoding (an anonymous name starts with "_:", an individual's
    cannot)."""

    facts: dict[str, frozenset[tuple[str, ...]]]  # predicate -> argument names
    adom: frozenset[str]  # the active domain


def _encoded(facts: dict[str, set[tuple[str, ...]]]) -> EncodedAbox:
    """The EncodedAbox of each predicate's argument-name tuples."""
    adom = frozenset(chain.from_iterable(chain.from_iterable(facts.values())))
    return EncodedAbox({p: frozenset(rows) for p, rows in facts.items()}, adom)


class KnowledgeBase:
    """Immutable DL-Lite_R knowledge base ⟨TBox, ABox⟩.

    It is its TBox and its ABox's name index `encoded`, which is all the
    engine reads; names and Atoms map one to one, so two KBs are equal iff
    their TBoxes and Atom sets are.  The Atoms of `abox` are built on first
    read, unless the constructor was given them.  Like a query node, a KB
    stores its hash when it is built.  `derived` holds what the engine
    derives from the KB (see chase.py and harness.py), so it lives as long
    as the KB; it is not part of the KB's value."""

    def __init__(self, tbox: frozenset[TBoxAxiom], abox: frozenset[Atom]):
        abox = frozenset(abox)  # the argument itself, if it is a frozenset
        facts: dict[str, set[tuple[str, ...]]] = {}
        for atom in abox:
            facts.setdefault(atom.predicate, set()).add(tuple(map(_name, atom.args)))
        encoded = _encoded(facts)
        if any(name.startswith("_:") for name in encoded.adom):
            for atom in abox:
                if not all(t.is_individual for t in atom.args):
                    raise ValueError(f"ABox atom mentions non-individual: {atom}")
        self.__dict__["abox"] = abox
        self._identify(frozenset(tbox), encoded)

    @classmethod
    def of_encoded(cls, tbox: frozenset[TBoxAxiom], encoded: EncodedAbox) -> "KnowledgeBase":
        """The KB of a name index of individuals' names (no predicate may
        map to an empty set)."""
        kb = cls.__new__(cls)
        kb._identify(tbox, encoded)
        return kb

    def _identify(self, tbox: frozenset[TBoxAxiom], encoded: EncodedAbox) -> None:
        hashed = hash((tbox, frozenset(encoded.facts.items())))
        self.__dict__.update(tbox=tbox, encoded=encoded, _hash=hashed, derived={})

    @cached_property
    def abox(self) -> frozenset[Atom]:
        return frozenset(
            Atom(p, tuple(map(individual, args)))
            for p, rows in self.encoded.facts.items()
            for args in rows
        )

    def __setattr__(self, name: str, *value) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not KnowledgeBase:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.tbox == other.tbox
            and self.encoded.facts == other.encoded.facts
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the stored hash is of strings, which differ between processes
        return KnowledgeBase, (self.tbox, self.abox)

    def __repr__(self) -> str:
        return f"KnowledgeBase(tbox={self.tbox!r}, abox={self.abox!r})"


def active_domain(kb: KnowledgeBase) -> frozenset[Term]:
    """Individuals appearing syntactically in the TBox or ABox."""
    # TBox axioms in this language never mention individuals.
    return frozenset(map(individual, kb.encoded.adom))


# --- parsing ----------------------------------------------------------------

# Tokens of the KB grammar, and of the text between them: whitespace (which
# findall skips) and comments (which _Tokens drops).
_TOKEN_RE = re.compile(r"\[=|[A-Za-z0-9_]+|[().,:]|\#[^\n]*")
# After a grammar's tokens, the rest of the text from the first character
# that is neither whitespace nor the start of a token.
_REST = rf"|[^{_WS}][\s\S]*"


class _Tokens:
    """Tokenizer for both grammars: a token is a string that token_re
    matches, and whitespace and ``#`` comments between tokens are dropped.
    Line and column are computed only for an error message."""

    def __init__(self, text: str, token_re: re.Pattern):
        self.text = text
        self.token_re = token_re
        self.tokens: list[str] = re.findall(token_re.pattern + _REST, text)
        if self.tokens and not token_re.fullmatch(self.tokens[-1]):
            scanned = len(text) - len(self.tokens.pop())
            raise ParseError(f"unexpected character {text[scanned]!r}", *self._line_col(scanned))
        if "#" in text:
            self.tokens = [t for t in self.tokens if t[0] != "#"]
        self.index = 0

    def _line_col(self, offset: int) -> tuple[int, int]:
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def fail(self, message: str, index: int | None = None) -> NoReturn:
        """Raise a ParseError at token `index`, by default the last one read."""
        offsets = [m.start() for m in self.token_re.finditer(self.text) if m.group()[0] != "#"]
        offset = offsets[self.index - 1 if index is None else index]
        raise ParseError(message, *self._line_col(offset))

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            if not self.tokens:
                raise ParseError("unexpected end of input", 1, 1)
            self.fail("unexpected end of input", len(self.tokens) - 1)
        self.index += 1
        if expected is not None and tok != expected:
            self.fail(f"expected {expected!r}, found {tok!r}")
        return tok

    def at(self, value: str) -> bool:
        return self.peek() == value


def _parse_name(toks: _Tokens, what: str, pattern: re.Pattern = NAME_RE) -> str:
    """The next token, which must match pattern and be no reserved prefix:
    the one name reader of both grammars."""
    value = toks.next()
    if not pattern.match(value):
        toks.fail(f"expected {what}, found {value!r}")
    if value in RESERVED_PREFIXES and toks.at(":"):
        toks.fail(f"reserved vocabulary name: {value}")
    return value


def _parse_individual(toks: _Tokens) -> str:
    return _parse_name(toks, "individual", INDIVIDUAL_RE)


def _parse_args(toks: _Tokens, read: Callable[[_Tokens], object]) -> tuple:
    """``( x )`` or ``( x , y )``, each x read by read(toks): the one
    argument-list reader of both grammars."""
    toks.next("(")
    args = [read(toks)]
    if toks.at(","):
        toks.next()
        args.append(read(toks))
    toks.next(")")
    return tuple(args)


def _parse_inv(toks: _Tokens) -> RoleExpr:
    """The rest of ``inv ( RoleName )``, once ``inv`` has been read."""
    toks.next("(")
    inner = _parse_name(toks, "role name")
    toks.next(")")
    return RoleExpr(inner, inverse=True)


def _parse_role_expr(toks: _Tokens) -> RoleExpr:
    name = _parse_name(toks, "role name")
    return _parse_inv(toks) if name == "inv" else RoleExpr(name)


def _parse_side(toks: _Tokens):
    """One side of an axiom: either a BasicConcept or a RoleExpr.

    A bare name is ambiguous at this point; it is returned as a string and
    resolved once the whole file has been read.
    """
    name = _parse_name(toks, "concept or role")
    if name == "exists":
        return exists(_parse_role_expr(toks))
    return _parse_inv(toks) if name == "inv" else name


def _read_fact(toks: _Tokens) -> tuple[str, tuple[str, ...]]:
    """One ABox statement, through the checking path, which raises."""
    name = _parse_name(toks, "predicate")
    args = _parse_args(toks, _parse_individual)
    toks.next(".")
    return name, args


_Facts = tuple[dict[str, set], dict[str, set]]  # unary, binary: predicate -> argument tuples


# One scan reads the facts after the ABOX token as _Tokens would, from the
# same lexical classes, and no reserved name, since no ':' follows one.  A
# comment never takes its newline, so deleting the comments leaves the tokens
# as they were.  At text that is not a fact the last alternative takes the
# rest: findall skips none.
_SPACE = f"[{_WS}]*"
_ARG = f"{_SPACE}({_INDIVIDUAL}){_SPACE}"
_FACT_RE = re.compile(rf"{_SPACE}({_NAME}){_SPACE}\({_ARG}(?:,{_ARG})?\){_SPACE}\.|([\s\S]+)")
_COMMENT_RE = re.compile(r"\#[^\n]*")
# The first ABOX token: a whole name with no '#' before it on its line.
_ABOX_RE = re.compile(r"^[^#\n]*?\bABOX\b", re.M | re.A)


def _scan_facts(text: str) -> _Facts | None:
    """The facts of the text after the ABOX token; None unless it is ':'
    and well-formed facts."""
    text = _COMMENT_RE.sub("", text) if "#" in text else text
    body = text.strip(_WS)
    if body[:1] != ":":
        return None
    facts = _FACT_RE.findall(body, 1)
    if facts and facts[-1][3]:
        return None
    unary, binary = defaultdict(set), defaultdict(set)
    for p, a, b, _ in facts:
        if b:
            binary[p].add((a, b))
        else:
            unary[p].add((a,))
    return unary, binary


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the KB grammar; raises ParseError with line/column on bad input.
    Text that the ABox scan does not read whole, or that holds an error,
    takes the checking path (see the module docstring)."""
    split = _ABOX_RE.search(text)
    facts = split and _scan_facts(text[split.end():])
    if facts:
        unary, binary = facts
        try:
            tbox = _tbox(text[: split.end()], frozenset(unary), frozenset(binary))
        except ParseError:
            pass
        else:
            return KnowledgeBase.of_encoded(tbox, _encoded(unary | binary))
    return _parse(_Tokens(text, _TOKEN_RE))


@lru_cache(maxsize=8)
def _tbox(head: str, unary: frozenset[str], binary: frozenset[str]) -> frozenset[TBoxAxiom]:
    """The TBox of `head` (the text through ABOX) in a KB whose ABox uses
    `unary` with one argument and `binary` with two, all that the role
    inference reads of an ABox; raises ParseError on an error in head or on a
    predicate used with the other arity, which the checking path locates."""
    toks = _Tokens(head, _TOKEN_RE)
    tbox, roles, concepts = _axioms(toks, _read_axioms(toks), unary, binary)
    if unary & roles or binary & concepts:
        toks.fail("predicate used with the wrong arity")
    return tbox


def _parse(toks: _Tokens) -> KnowledgeBase:
    """The KB of toks, a whole text, read through the checking path."""
    raw_axioms = _read_axioms(toks)
    toks.next(":")
    start = toks.index
    unary, binary = {}, {}
    while toks.peek() is not None:
        name, args = _read_fact(toks)
        (unary if len(args) == 1 else binary).setdefault(name, set()).add(args)
    tbox, roles, concepts = _axioms(toks, raw_axioms, unary.keys(), binary.keys())

    # A name is used with one arity, as a role or as a concept; the first
    # fact that breaks this is reported.
    if unary.keys() & roles or binary.keys() & concepts:
        toks.index = start
        while True:
            at = toks.index
            name, args = _read_fact(toks)
            if name in roles and len(args) == 1:
                toks.fail(f"role {name!r} used with 1 argument", at)
            if name in concepts and len(args) == 2:
                toks.fail(f"concept {name!r} used with 2 arguments", at)
    return KnowledgeBase.of_encoded(tbox, _encoded(unary | binary))


def _read_axioms(toks: _Tokens) -> list[tuple]:
    """The axioms from the TBOX token through the ABOX token, with bare
    names left unresolved: (lhs, negated, rhs, index of the [= token)."""
    toks.next("TBOX")
    toks.next(":")
    raw_axioms: list[tuple] = []
    while not (toks.at("ABOX") or toks.peek() is None):
        lhs = _parse_side(toks)
        toks.next("[=")
        at = toks.index - 1
        negated = False
        if toks.at("not"):
            toks.next()
            negated = True
        rhs = _parse_side(toks)
        raw_axioms.append((lhs, negated, rhs, at))
        toks.next(".")
    toks.next("ABOX")
    return raw_axioms


def _axioms(
    toks: _Tokens, raw_axioms: list[tuple], unary: AbstractSet[str], binary: AbstractSet[str]
) -> tuple[frozenset[TBoxAxiom], set[str], set[str]]:
    """The TBox of the raw axioms, with the role and concept names, in a KB
    whose ABox uses the names `unary` with one argument and `binary` with
    two; errors are reported at the tokens of toks."""
    # Vocabulary inference for the ambiguous bare-name inclusions, decided
    # before any axiom is built, so that the order of the axioms does not
    # matter.  Role evidence (binary facts, names under exists/inv) spreads to
    # a fixpoint across the bare inclusions, those with no `not` and no basic
    # concept side.  A name with concept evidence takes none: the inclusion
    # that links it to a role reports the clash.
    roles: set[str] = set(binary)
    concepts: set[str] = set(unary)
    linked: dict[str, list[str]] = {}
    for lhs, negated, rhs, _ in raw_axioms:
        roles.update(s.name for s in (lhs, rhs) if not isinstance(s, str))
        if negated or isinstance(lhs, BasicConcept) or isinstance(rhs, BasicConcept):
            concepts.update(s for s in (lhs, rhs) if isinstance(s, str))
        else:
            a, b = (s if isinstance(s, str) else s.name for s in (lhs, rhs))
            linked.setdefault(a, []).append(b)
            linked.setdefault(b, []).append(a)
    stack = list(roles)
    while stack:
        for name in linked.pop(stack.pop(), ()):
            if name not in roles and name not in concepts:
                roles.add(name)
                stack.append(name)

    axioms: list[TBoxAxiom] = []
    for lhs, negated, rhs, at in raw_axioms:
        role_axiom = any(
            isinstance(s, RoleExpr) or (isinstance(s, str) and s in roles)
            for s in (lhs, rhs)
        )
        if role_axiom and not negated:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    if s in concepts:
                        toks.fail(f"{s!r} used both as concept and role", at)
                    sides.append(RoleExpr(s))
                elif isinstance(s, RoleExpr):
                    sides.append(s)
                else:
                    toks.fail("role inclusion cannot mix concepts and roles", at)
            axioms.append(RoleInclusion(sides[0], sides[1]))
        else:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    sides.append(BasicConcept("atomic", s))
                elif isinstance(s, BasicConcept):
                    sides.append(s)
                else:
                    toks.fail("disjointness requires basic concepts on both sides", at)
            if negated:
                if sides[0] == sides[1]:
                    toks.fail("disjointness requires distinct concepts", at)
                axioms.append(ConceptDisjointness(sides[0], sides[1]))
            else:
                axioms.append(ConceptInclusion(sides[0], sides[1]))
    return frozenset(axioms), roles, concepts


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form: sections with lexicographically sorted statements."""
    lines = ["TBOX:"]
    lines.extend(sorted(str(ax) for ax in kb.tbox))
    lines.append("ABOX:")
    lines.extend(sorted(
        f"{p}({', '.join(args)}) ." for p, rows in kb.encoded.facts.items() for args in rows
    ))
    return "\n".join(lines) + "\n"
