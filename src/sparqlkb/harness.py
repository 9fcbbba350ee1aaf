"""Requirement checks, brute-force oracles, and the instance generator."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .chase import default_bound, is_satisfiable, witness_count
from .errors import QueryShapeError, SparqlKbError
from .graph import Graph
from .kb import (
    Atom,
    BasicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    Term,
    Var,
    individual,
    parse_kb,
    serialize_kb,
)
from .mappings import MappingSet, SolutionMapping, extends, set_extends
from .query import (
    JoinQ,
    OptQ,
    Query,
    Select,
    TriplePattern,
    UnionQ,
    VarSetFamily,
    is_admissible,
    is_ucq_shape,
    query_vars,
    serialize_query,
    union_operands,
)
from .semantics import SEMANTICS


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


@lru_cache(maxsize=32)
def _try_semantics(name: str, q: Query, kb: KnowledgeBase) -> MappingSet | None:
    """SEMANTICS[name](q, kb), or None where it rejects q's shape.  Each
    semantics is a pure function of (q, kb), so an instance's checks share its
    answers on q, q.left and q.right; any other error is raised, not cached."""
    try:
        return SEMANTICS[name](q, kb)
    except QueryShapeError:
        return None


def check_requirement(
    req_id: int, semantics_name: str, q: Query, kb: KnowledgeBase, instance: str = ""
) -> CheckReport:
    """Evaluate one of the five requirements for one semantics on one instance.

    Each requirement is the set of answers that break it (see `_offending`),
    or None where it does not apply: the verdict is pass if that set is empty,
    else fail with the set, sorted by bindings, as counterexamples."""
    if req_id not in range(1, 6):
        raise ValueError(f"requirement id must be in 1..5, got {req_id}")
    answers = _try_semantics(semantics_name, q, kb)
    bad = None if answers is None else _offending(req_id, semantics_name, q, kb, answers)
    if bad is None:
        return CheckReport(req_id, semantics_name, instance, "not-applicable")
    counterexamples = tuple(sorted(bad, key=lambda w: w.bindings))
    verdict = "fail" if counterexamples else "pass"
    return CheckReport(req_id, semantics_name, instance, verdict, counterexamples)


def _offending(
    req_id: int, name: str, q: Query, kb: KnowledgeBase, answers: MappingSet
) -> MappingSet | None:
    """The answers that break requirement `req_id`, or None where it does not
    apply.  1 and 2: the symmetric difference with the certain answers (UCQs)
    or the plain answers (empty TBox).  3: the answers of an OPT's left operand
    that no answer extends.  4: the answers whose domain is not admissible.
    5: the answers of a UNION that one operand does not give and whose domain
    the other does not admit."""
    if req_id == 1:
        # certain-ucq rejects exactly the queries that are not UCQ-shaped
        certain = _try_semantics("certain-ucq", q, kb)
        return None if certain is None else answers ^ certain
    if req_id == 2:
        return None if kb.tbox else answers ^ _try_semantics("plain", q, kb)
    if req_id == 4:
        return {w for w in answers if not is_admissible(q, w.domain)}
    if req_id == 3:
        left = _try_semantics(name, q.left, kb) if isinstance(q, OptQ) else None
        return None if left is None else {
            w for w in left if not any(extends(w, w2) for w2 in answers)
        }
    if not isinstance(q, UnionQ):
        return None
    a1 = _try_semantics(name, q.left, kb)
    a2 = _try_semantics(name, q.right, kb)
    if a1 is None or a2 is None:
        return None
    return {
        w for w in answers
        if (w not in a2 and not is_admissible(q.left, w.domain))
        or (w not in a1 and not is_admissible(q.right, w.domain))
    }


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


def brute_force_cq_matches(cq: Query, g: Graph) -> MappingSet:
    """Total-match enumeration for UCQ-shaped queries, by backtracking.

    Enumerates total functions from the body variables to graph terms that
    satisfy every pattern, then projects onto the distinguished variables.
    Independent of the compositional evaluator.
    """
    if not is_ucq_shape(cq):
        raise QueryShapeError("oracle requires a UCQ-shaped query")

    out: set[SolutionMapping] = set()
    for conj in union_operands(cq):
        if isinstance(conj, Select):
            distinguished = conj.vars
            body = conj.body
        else:
            distinguished = query_vars(conj)
            body = conj
        patterns: list[TriplePattern] = []
        nodes = [body]
        while nodes:
            node = nodes.pop()
            if isinstance(node, TriplePattern):
                patterns.append(node)
            else:
                nodes.extend((node.left, node.right))
        patterns.sort(key=lambda p: (p.predicate, str(p.args)))

        def backtrack(idx: int, rho: dict[Var, Term]):
            if idx == len(patterns):
                out.add(SolutionMapping.of({v: rho[v] for v in distinguished}))
                return
            tp = patterns[idx]
            for atom in g.by_predicate(tp.predicate):
                if len(atom.args) != len(tp.args):
                    continue
                extension: dict[Var, Term] = {}
                ok = True
                for pat_arg, term in zip(tp.args, atom.args):
                    if isinstance(pat_arg, Var):
                        bound = rho.get(pat_arg, extension.get(pat_arg))
                        if bound is None:
                            extension[pat_arg] = term
                        elif bound != term:
                            ok = False
                            break
                    elif pat_arg != term:
                        ok = False
                        break
                if ok:
                    rho.update(extension)
                    backtrack(idx + 1, rho)
                    for v in extension:
                        del rho[v]

        backtrack(0, {})
    return frozenset(out)


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


# --- differential comparison ------------------------------------------------


@dataclass
class DifferentialReport:
    answers: dict[str, MappingSet | None] = field(default_factory=dict)
    relations: dict[tuple[str, str], str] = field(default_factory=dict)


def _relation(o1: MappingSet, o2: MappingSet) -> str:
    if o1 == o2:
        return "="
    if o1 < o2:
        return "subset"
    if o1 > o2:
        return "superset"
    if set_extends(o1, o2):
        return "extends-into"
    if set_extends(o2, o1):
        return "extended-by"
    return "incomparable"


def differential(q: Query, kb: KnowledgeBase) -> DifferentialReport:
    """Evaluate every semantics and report pairwise set relations."""
    report = DifferentialReport()
    for name in SEMANTICS:
        report.answers[name] = _try_semantics(name, q, kb)
    names = [n for n, a in report.answers.items() if a is not None]
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            report.relations[(n1, n2)] = _relation(
                report.answers[n1], report.answers[n2]
            )
    return report


def describe_instance(kb: KnowledgeBase, q: Query) -> str:
    facts = sum(map(len, kb.encoded.facts.values()))
    return f"kb<{len(kb.tbox)}ax,{facts}facts> q<{serialize_query(q)}>"
