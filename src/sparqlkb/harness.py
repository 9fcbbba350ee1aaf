"""Requirement checks, the brute-force `adm` oracle and the instance
generator.

A check reads each semantics' answers as slot rows (`semantics.ROWS`), the
rows that `eval` prints, and states each requirement on them: it builds
SolutionMappings only for the counterexamples of a failing report.  The
answer rows of an instance's checks are kept in its KB's `derived`, beside
the model and its chases (see chase.py), so they live as long as the KB."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .chase import default_bound, is_satisfiable, remember, witness_count
from .errors import QueryShapeError, SparqlKbError
from .graph import Rows, domains, pad, project, to_mappings
from .kb import (
    Atom,
    BasicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    Var,
    individual,
    parse_kb,
    serialize_kb,
)
from .mappings import SolutionMapping
from .query import (
    JoinQ,
    OptQ,
    Query,
    Select,
    TriplePattern,
    UnionQ,
    VarSetFamily,
    is_admissible,
    query_vars,
    serialize_query,
)
from .semantics import ROWS


@dataclass(frozen=True)
class CheckReport:
    requirement: int
    semantics: str
    instance: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    counterexamples: tuple[SolutionMapping, ...] = ()

    def to_dict(self) -> dict:
        return {
            "requirement": self.requirement,
            "semantics": self.semantics,
            "instance": self.instance,
            "verdict": self.verdict,
            "counterexamples": [
                {f"?{v.name}": str(t) for v, t in w.bindings}
                for w in self.counterexamples
            ],
        }


# One instance's checks ask for at most the six semantics on q, q.left and
# q.right: 18 row sets, which the memo of one KB holds before it evicts.
_ROW_SETS = 18


def _rows(name: str, q: Query, kb: KnowledgeBase) -> Rows | None:
    """ROWS[name](q, kb), or None where it rejects q's shape.  Each semantics
    is a pure function of (q, kb), so an instance's checks share its answers
    on q, q.left and q.right, kept in `kb.derived["checks"]`; any other
    error is raised, not kept."""
    memo = kb.derived.setdefault("checks", {})
    if (name, q) not in memo:
        try:
            remember(memo, _ROW_SETS, (name, q), ROWS[name](q, kb))
        except QueryShapeError:
            remember(memo, _ROW_SETS, (name, q), None)
    return memo[name, q]


def check_requirement(
    req_id: int, semantics_name: str, q: Query, kb: KnowledgeBase, instance: str = ""
) -> CheckReport:
    """Evaluate one of the five requirements for one semantics on one instance.

    Each requirement is the set of answer rows that break it (see
    `_offending`), or None where it does not apply: the verdict is pass if
    that set is empty, else fail with the set, as SolutionMappings sorted by
    bindings, as counterexamples."""
    # a bool or a float can equal an id, so the type is checked first
    if type(req_id) is not int or req_id not in range(1, 6):
        raise ValueError(f"requirement id must be in 1..5, got {req_id}")
    if semantics_name not in ROWS:
        raise ValueError(f"semantics must be one of {', '.join(ROWS)}, got {semantics_name!r}")
    answers = _rows(semantics_name, q, kb)
    bad = None if answers is None else _offending(req_id, semantics_name, q, kb, answers)
    if bad is None:
        return CheckReport(req_id, semantics_name, instance, "not-applicable")
    found = sorted(to_mappings(bad), key=lambda w: w.bindings) if bad.rows else ()
    return CheckReport(req_id, semantics_name, instance, "fail" if found else "pass", tuple(found))


def _offending(
    req_id: int, name: str, q: Query, kb: KnowledgeBase, answers: Rows
) -> Rows | None:
    """The answer rows that break requirement `req_id`, or None where it does
    not apply.  1 and 2: the symmetric difference with the certain answers
    (UCQs) or the plain answers (empty TBox).  3: the rows of an OPT's left
    operand that no answer extends: those missing from the answers projected
    onto their domain.  4: the answers whose domain is not admissible.  5:
    the answers of a UNION that one operand does not give and whose domain
    the other does not admit.  Admissibility is decided once per domain."""
    if req_id == 1:
        # certain-ucq rejects exactly the queries that are not UCQ-shaped
        certain = _rows("certain-ucq", q, kb)
        return None if certain is None else Rows(answers.vars, answers.rows ^ certain.rows)
    if req_id == 2:
        plain = None if kb.tbox else _rows("plain", q, kb)
        return None if plain is None else Rows(answers.vars, answers.rows ^ plain.rows)
    if req_id == 4:
        inadmissible = (group for x, group in domains(answers) if not is_admissible(q, x))
        return Rows(answers.vars, set().union(*inadmissible))
    bad: set[tuple] = set()
    if req_id == 3:
        left = _rows(name, q.left, kb) if isinstance(q, OptQ) else None
        if left is None:
            return None
        for x, group in domains(left):
            extended = project(answers, (v.name for v in x)).rows
            # a row's values on its domain: a name is never empty
            bad |= {row for row in group if tuple(filter(None, row)) not in extended}
        return Rows(left.vars, bad)
    if not isinstance(q, UnionQ):
        return None
    a1, a2 = _rows(name, q.left, kb), _rows(name, q.right, kb)
    if a1 is None or a2 is None:
        return None
    rows1, rows2 = pad(a1, answers.vars).rows, pad(a2, answers.vars).rows
    for x, group in domains(answers):
        out1, out2 = not is_admissible(q.left, x), not is_admissible(q.right, x)
        bad |= {row for row in group if (out1 and row not in rows2) or (out2 and row not in rows1)}
    return Rows(answers.vars, bad)


# --- brute-force oracles ----------------------------------------------------


def brute_force_adm(q: Query, var_limit: int = 10) -> VarSetFamily:
    """Direct materialization of the admissible-binding family.

    Independent of the base-family machinery in the query module: plain
    recursion over the AST with Python set comprehensions.
    """
    if len(query_vars(q)) > var_limit:
        raise SparqlKbError(f"query exceeds the {var_limit}-variable oracle limit")

    def rec(node: Query) -> set[frozenset[Var]]:
        if isinstance(node, TriplePattern):
            return {query_vars(node)}
        if isinstance(node, Select):
            return {x & node.vars for x in rec(node.body)}
        if isinstance(node, JoinQ):
            return {x1 | x2 for x1 in rec(node.left) for x2 in rec(node.right)}
        if isinstance(node, OptQ):
            return rec(node.left) | rec(JoinQ(node.left, node.right))
        return rec(node.left) | rec(node.right)

    return frozenset(rec(q))


# --- instance generation ----------------------------------------------------

_CONCEPT_POOL = ["A", "B", "C", "D", "E", "F"]
_ROLE_POOL = ["r", "s", "t", "u"]
_IND_POOL = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]
_VAR_POOL = ["x", "y", "z", "v", "w", "x2", "y2", "z2"]


@dataclass(frozen=True)
class SizeParams:
    concepts: int = 4
    roles: int = 3
    individuals: int = 8
    max_triple_patterns: int = 8
    max_nesting: int = 4

    def __post_init__(self):
        # the pools are sliced by these sizes, so a negative one would slice from the
        # end, and one that is not an integer cannot slice them (a bool would slice as 0 or 1)
        for name, value in vars(self).items():
            if type(value) is not int or value < 0:
                raise ValueError(f"SizeParams.{name} must be an integer >= 0, got {value}")

    def clamped(self) -> "SizeParams":
        return SizeParams(
            min(self.concepts, 6),
            min(self.roles, 4),
            min(self.individuals, 10),
            min(self.max_triple_patterns, 8),
            min(self.max_nesting, 4),
        )


def _random_basic(rng: random.Random, concepts: list[str], roles: list[str]) -> BasicConcept:
    kinds = []
    if concepts:
        kinds.append("atomic")
    if roles:
        kinds.extend(["exists", "exists_inv"])
    kind = rng.choice(kinds)
    if kind == "atomic":
        return BasicConcept("atomic", rng.choice(concepts))
    return BasicConcept(kind, rng.choice(roles))


def _random_kb(rng: random.Random, p: SizeParams) -> KnowledgeBase:
    concepts = _CONCEPT_POOL[: p.concepts]
    roles = _ROLE_POOL[: p.roles]
    inds = _IND_POOL[: p.individuals]
    axioms: list = []
    if concepts or roles:
        for _ in range(rng.randint(1, 4)):
            lhs = _random_basic(rng, concepts, roles)
            rhs = _random_basic(rng, concepts, roles)
            if lhs != rhs:
                axioms.append(ConceptInclusion(lhs, rhs))
        if roles and concepts:
            # keep chases nontrivial: at least one existential axiom
            axioms.append(
                ConceptInclusion(
                    BasicConcept("atomic", rng.choice(concepts)),
                    BasicConcept(
                        rng.choice(["exists", "exists_inv"]), rng.choice(roles)
                    ),
                )
            )
        if len(roles) >= 2 and rng.random() < 0.5:
            lhs = RoleExpr(rng.choice(roles), rng.random() < 0.3)
            rhs = RoleExpr(rng.choice(roles), rng.random() < 0.3)
            if lhs.name != rhs.name:
                axioms.append(RoleInclusion(lhs, rhs))
        if rng.random() < 0.2 and len(concepts) >= 2:
            c1, c2 = rng.sample(concepts, 2)
            axioms.append(
                ConceptDisjointness(
                    BasicConcept("atomic", c1), BasicConcept("atomic", c2)
                )
            )
    facts: set[Atom] = set()
    if inds:
        for _ in range(rng.randint(0, 6)):
            if roles and (not concepts or rng.random() < 0.5):
                facts.add(
                    Atom(
                        rng.choice(roles),
                        (individual(rng.choice(inds)), individual(rng.choice(inds))),
                    )
                )
            elif concepts:
                facts.add(Atom(rng.choice(concepts), (individual(rng.choice(inds)),)))
    return KnowledgeBase(frozenset(axioms), frozenset(facts))


def _random_pattern(rng: random.Random, p: SizeParams, vars_pool: list[Var]) -> TriplePattern:
    concepts = _CONCEPT_POOL[: p.concepts] or ["P"]
    roles = _ROLE_POOL[: p.roles]

    def arg():
        if rng.random() < 0.15 and p.individuals:
            return individual(rng.choice(_IND_POOL[: p.individuals]))
        return rng.choice(vars_pool)

    if roles and rng.random() < 0.6:
        return TriplePattern(rng.choice(roles), (arg(), arg()))
    return TriplePattern(rng.choice(concepts), (arg(),))


def _random_query(
    rng: random.Random,
    p: SizeParams,
    nesting: int,
    tp_budget: int,
    vars_pool: list[Var],
    union_free: bool = False,
) -> Query:
    if nesting <= 0 or tp_budget <= 1 or rng.random() < 0.3:
        return _random_pattern(rng, p, vars_pool)
    roll = rng.random()
    if roll < 0.55 or (roll < 0.75 and not union_free):
        op = OptQ if roll < 0.30 else JoinQ if roll < 0.55 else UnionQ
        left_budget = max(1, tp_budget // 2)
        left = _random_query(rng, p, nesting - 1, left_budget, vars_pool, union_free)
        right = _random_query(
            rng, p, nesting - 1, tp_budget - left_budget, vars_pool, union_free
        )
        return op(left, right)
    body = _random_query(rng, p, nesting - 1, tp_budget, vars_pool, union_free)
    body_vars = sorted(query_vars(body))
    picked = frozenset(v for v in body_vars if rng.random() < 0.6)
    return Select(picked, body)


def _random_ucq(rng: random.Random, p: SizeParams, vars_pool: list[Var]) -> Query:
    n_cq = rng.randint(1, 3)
    cqs = []
    shared: frozenset[Var] | None = None
    for _ in range(n_cq):
        n_tp = rng.randint(1, max(1, p.max_triple_patterns // n_cq))
        body: Query = _random_pattern(rng, p, vars_pool)
        for _ in range(n_tp - 1):
            body = JoinQ(body, _random_pattern(rng, p, vars_pool))
        bvars = query_vars(body)
        if shared is None:
            shared = frozenset(v for v in sorted(bvars) if rng.random() < 0.7)
        if not shared <= bvars:
            # force the shared distinguished variables into the body
            for v in sorted(shared - bvars):
                body = JoinQ(body, TriplePattern((_CONCEPT_POOL[: p.concepts] or ["P"])[0], (v,)))
        cqs.append(Select(shared, body))
    q: Query = cqs[0]
    for cq in cqs[1:]:
        q = UnionQ(q, cq)
    return q


def generate_instances(
    seed: int, params: SizeParams = SizeParams(), jo_only: bool = False
) -> Iterator[tuple[KnowledgeBase, Query]]:
    """Reproducible stream of small (KB, query) pairs.

    Unsatisfiable KBs, KBs that do not round-trip through the concrete
    syntax, and instances whose chase, three levels past the default bound,
    would hold more than 3,000 witnesses are discarded.
    """
    rng = random.Random(seed)
    p = params.clamped()
    vars_pool = [Var(n) for n in _VAR_POOL[:6]]
    while True:
        kb = _random_kb(rng, p)
        if not is_satisfiable(kb):
            continue
        if parse_kb(serialize_kb(kb)) != kb:
            continue
        if jo_only:
            q = _random_query(rng, p, p.max_nesting, p.max_triple_patterns, vars_pool, union_free=True)
            q = _strip_select(q)
        elif rng.random() < 0.2:
            q = _random_ucq(rng, p, vars_pool)
        elif rng.random() < 0.3:
            # bias toward OPT nested under OPT, the hard shape
            inner = _random_query(rng, p, p.max_nesting - 2, max(1, p.max_triple_patterns // 2), vars_pool)
            outer = _random_query(rng, p, 1, 2, vars_pool)
            q = OptQ(_random_pattern(rng, p, vars_pool), OptQ(outer, inner))
        else:
            q = _random_query(rng, p, p.max_nesting, p.max_triple_patterns, vars_pool)
        if witness_count(kb, default_bound(kb, q) + 3) > 3000:
            continue
        yield kb, q


def _strip_select(q: Query) -> Query:
    """Replace any SELECT nodes by their bodies, yielding a JO query."""
    if isinstance(q, TriplePattern):
        return q
    if isinstance(q, Select):
        return _strip_select(q.body)
    return type(q)(_strip_select(q.left), _strip_select(q.right))


def describe_instance(kb: KnowledgeBase, q: Query) -> str:
    facts = sum(map(len, kb.encoded.facts.values()))
    return f"kb<{len(kb.tbox)}ax,{facts}facts> q<{serialize_query(q)}>"
