"""The six answer semantics, each a pure function of (query, KB).

Each is defined once, as a function that returns the engine's slot rows
(see graph.py), and `ROWS` is the one table of the six: `eval` prints their
rows, `check` reads them, and the library table `SEMANTICS` wraps each row
function, in `ROWS` order, as the library function (`plain_ans`, ...) that
alone builds SolutionMappings from them.  Besides graph.py's ⋈, ∖, ∪ and π,
the semantics use operators of their own, defined below on slot rows:
Ω ▷ B keeps the rows that range inside the term set B, Ω ▶ B unbinds every
value outside B, and `otimes` is the general Ω ⊗ 𝒳.  `mcan` unbinds each
domain group of a branch's rows to the largest admissible subset of the
domain, read off base: that is ⊗ adm(branch).

Over the chase, ▷, ▶ and ⊗ change only the rows that hold a witness, a
value outside the active domain.  ▶ leaves every other row as it is, and
its domain is in adm(q), by induction over TP, JOIN, OPT, UNION and SELECT,
so ⊗ adm(q) leaves it too.  So each semantics that reads the chase finds
the witness rows first, from the set of values its rows hold, and runs its
post-ops on those rows alone.

Every semantics but `plain` reads ans(q) over a chase, the regime over
the depth-0 chase, through one path, `evaluate_once`, which keeps it on the
chase; `eval` and the library functions take it alike.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from .chase import _ANSWERS, ChaseGraph, chase, default_bound, remember
from .errors import QueryShapeError
from .kb import KnowledgeBase
# sparql_ans, sparql_ans_branch, join, diff and adm are unused here; the
# benchmark tracer looks them up in this module.
from .graph import (
    Rows,
    diff,
    domains,
    evaluate,
    join,
    pad,
    project,
    sparql_ans,
    sparql_ans_branch,
    to_mappings,
)
from .mappings import MappingSet
from .query import (
    Query,
    VarSet,
    VarSetFamily,
    adm,
    branch,
    is_ucq_shape,
    is_union_free,
    max_admissible_subsets,
)


def _witness_rows(rows: Rows, b: frozenset[str]) -> set[tuple]:
    """The rows that hold a value outside B, read off the set of values the
    rows hold: when that set lies inside B, there are none at once."""
    outside = set().union(*rows.rows) - b
    outside.discard(None)
    return {row for row in rows.rows if not outside.isdisjoint(row)} if outside else set()


def restrict_filter(rows: Rows, b: frozenset[str]) -> Rows:
    """Ω ▷ B: keep only the rows whose values all lie in B."""
    held = _witness_rows(rows, b)
    return Rows(rows.vars, rows.rows - held) if held else rows


def restrict_project(rows: Rows, b: frozenset[str]) -> Rows:
    """Ω ▶ B: unbind every slot whose value is not in B."""
    return Rows(rows.vars, {tuple(v if v in b else None for v in row) for row in rows.rows})


def _restrict_domains(rows: Rows, tops: Callable[[VarSet], Iterable[VarSet]]) -> Rows:
    """Each row restricted to every variable set that `tops` gives for its
    domain."""
    out: set[tuple] = set()
    for domain, group in domains(rows):
        for x in tops(domain):
            kept = project(Rows(rows.vars, group), (v.name for v in x))
            out.update(pad(kept, rows.vars).rows)
    return Rows(rows.vars, out)


def otimes(rows: Rows, family: VarSetFamily) -> Rows:
    """Ω ⊗ 𝒳: restrict each row to every maximal X ∈ 𝒳 inside its domain."""
    def tops(domain: VarSet) -> list[VarSet]:
        inside = [x for x in family if x <= domain]
        return [x for x in inside if not any(x < y for y in inside)]

    return _restrict_domains(rows, tops)


def plain_rows(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """SPARQL answers over the ABox viewed as a plain graph; TBox ignored."""
    return evaluate(q, kb.encoded.facts)


def cert_rows_ucq(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Certain answers, via the canonical-model characterization; UCQs only."""
    if not is_ucq_shape(q):
        raise QueryShapeError("certain-answer semantics requires a UCQ-shaped query")
    return can_rows(q, kb, depth)


def er_rows(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Entailment-regime answers: certain answers at triple patterns, then
    the standard operator algebra.

    The depth-0 chase holds exactly the atoms over named individuals that
    the KB entails, the entailed ABox, so the certain answers to a triple
    pattern are its matches there; q is evaluated over it once, as over
    any chase.
    """
    return evaluate_once(q, chase(kb, 0))


def _chase(q: Query, kb: KnowledgeBase, depth: int | None) -> ChaseGraph:
    """The chase to the depth given, or to q's default bound."""
    return chase(kb, default_bound(kb, q) if depth is None else depth)


def can_rows(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Answers over the canonical model, filtered to the active domain."""
    return restrict_filter(evaluate_once(q, _chase(q, kb, depth)), kb.encoded.adom)


def rest_can_rows(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Answers over the canonical model, each projected onto its
    active-domain-valued bindings."""
    answers = evaluate_once(q, _chase(q, kb, depth))
    # ▶ leaves a row whose values all lie in adom as it is
    held = _witness_rows(answers, kb.encoded.adom)
    if not held:
        return answers
    restricted = restrict_project(Rows(answers.vars, held), kb.encoded.adom)
    return Rows(answers.vars, answers.rows - held | restricted.rows)


def m_can_rows_sjo(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Maximal admissible canonical answers for UNION-free queries."""
    if not is_union_free(q):
        raise QueryShapeError("SJO semantics requires a UNION-free query")
    return m_can_rows(q, kb, depth)


def m_can_rows(q: Query, kb: KnowledgeBase, depth: int | None = None) -> Rows:
    """Maximal admissible canonical answers, per branch, for SUJO queries."""
    cg = _chase(q, kb, depth)
    full = evaluate_once(q, cg)
    out: set[tuple] = set()
    for qb in branch(q):
        # sparql_ans_branch(q, cg.graph, qb), with q evaluated once; every
        # branch by this one rule: for a UNION-free q, qb equals q, so its
        # rows are a memo hit and the intersection keeps ans(q)
        answers = Rows(full.vars, full.rows & pad(evaluate_once(qb, cg), full.vars).rows)
        # (Ω ▶ adom) ⊗ adm(qb): ▶ leaves a row without a witness as it is,
        # and its domain, that of a row of ans(qb), is in adm(qb), so ⊗
        # leaves it too.  Inside a witness row's domain the admissible sets
        # are closed under union, so the largest, read off base, is the
        # only maximal one; adm(qb) itself has 2^k members for k OPTs.
        held = _witness_rows(answers, kb.encoded.adom)
        out.update(answers.rows - held)
        if held:
            restricted = restrict_project(Rows(full.vars, held), kb.encoded.adom)
            out.update(_restrict_domains(restricted, partial(max_admissible_subsets, qb)).rows)
    return Rows(full.vars, out)


ROWS = {
    "plain": plain_rows,
    "certain-ucq": cert_rows_ucq,
    "regime": er_rows,
    "canonical": can_rows,
    "restricted": rest_can_rows,
    "mcan": m_can_rows,
}
"""The one table of the six semantics, by name, as slot rows: `eval`
prints these and `check` reads them; `SEMANTICS` and the CLI's choices are
built from it."""


def evaluate_once(q: Query, cg: ChaseGraph) -> Rows:
    """evaluate(q, cg), kept in `cg.answers`: the certain-ucq, regime,
    canonical, restricted and mcan answers all start from ans(q) over a
    chase, and a check run asks for each, and for mcan's branches, on the
    same (q, KB).  Sharing is exact: `evaluate` is a pure function of
    (q, cg), and no operator or semantics changes a Rows it is given or
    returns (see graph.Rows)."""
    if q not in cg.answers:
        remember(cg.answers, _ANSWERS, q, evaluate(q, cg))
    return cg.answers[q]


def _public(rows: Callable[..., Rows]) -> Callable[..., MappingSet]:
    """The library form of a row semantics: its answers as SolutionMappings,
    named as the row function with `_ans` for `_rows`."""

    def answers(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
        return to_mappings(rows(q, kb, depth))

    answers.__name__ = answers.__qualname__ = rows.__name__.replace("_rows", "_ans")
    answers.__doc__ = rows.__doc__
    return answers


SEMANTICS = {name: _public(rows) for name, rows in ROWS.items()}
"""Each semantics by name, in `ROWS` order, as a library function."""

plain_ans, cert_ans_ucq, er_ans, can_ans, rest_can_ans, m_can_ans = SEMANTICS.values()
m_can_ans_sjo = _public(m_can_rows_sjo)
