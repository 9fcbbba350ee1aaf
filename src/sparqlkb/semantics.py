"""The six answer semantics, each a pure function of (query, KB)."""

from __future__ import annotations

from .chase import chase, default_bound, entailed_abox
from .errors import QueryShapeError
from .kb import KnowledgeBase, active_domain
# sparql_ans_branch, join, diff, project and adm are unused here; the
# benchmark tracer looks them up in this module.
from .graph import Graph, sparql_ans, sparql_ans_branch
from .mappings import MappingSet, join, diff, project, otimes, restrict_filter, restrict_project
from .query import (
    JoinQ,
    Query,
    Select,
    TriplePattern,
    UnionQ,
    adm,
    branch,
    is_union_free,
    max_admissible_subsets,
    query_vars,
)


def plain_ans(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """SPARQL answers over the ABox viewed as a plain graph; TBox ignored."""
    return sparql_ans(q, Graph(kb.abox))


def _cq_join_tree(q: Query) -> bool:
    if isinstance(q, TriplePattern):
        return True
    return isinstance(q, JoinQ) and _cq_join_tree(q.left) and _cq_join_tree(q.right)


def is_ucq_shape(q: Query) -> bool:
    """UNION of CQs (SELECT over a JOIN tree of triple patterns) sharing
    the same distinguished variables."""
    cqs = []
    stack = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, UnionQ):
            stack.extend((node.left, node.right))
        else:
            cqs.append(node)
    seen_vars = set()
    for cq in cqs:
        if isinstance(cq, Select):
            if not _cq_join_tree(cq.body):
                return False
        elif not _cq_join_tree(cq):
            return False
        seen_vars.add(query_vars(cq))
    return len(seen_vars) == 1


def cert_ans_ucq(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Certain answers, via the canonical-model characterization; UCQs only."""
    if not is_ucq_shape(q):
        raise QueryShapeError("certain-answer semantics requires a UCQ-shaped query")
    return can_ans(q, kb, depth)


def er_ans(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Entailment-regime answers: certain answers at triple patterns, then
    the standard operator algebra.

    Chase atoms over named individuals are exactly the entailed ABox, so
    the certain answers to a triple pattern are its matches there.
    """
    return sparql_ans(q, entailed_abox(kb))


def can_ans(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Answers over the canonical model, filtered to the active domain."""
    cg = chase(kb, default_bound(kb, q) if depth is None else depth)
    return restrict_filter(sparql_ans(q, cg.graph), active_domain(kb))


def rest_can_ans(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Answers over the canonical model, each projected onto its
    active-domain-valued bindings."""
    cg = chase(kb, default_bound(kb, q) if depth is None else depth)
    return restrict_project(sparql_ans(q, cg.graph), active_domain(kb))


def m_can_ans_sjo(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Maximal admissible canonical answers for UNION-free queries."""
    if not is_union_free(q):
        raise QueryShapeError("SJO semantics requires a UNION-free query")
    return m_can_ans(q, kb, depth)


def m_can_ans(q: Query, kb: KnowledgeBase, depth: int | None = None) -> MappingSet:
    """Maximal admissible canonical answers, per branch, for SUJO queries."""
    cg = chase(kb, default_bound(kb, q) if depth is None else depth)
    adom = active_domain(kb)
    full = sparql_ans(q, cg.graph)
    out: set = set()
    for qb in branch(q):
        # sparql_ans_branch(q, cg.graph, qb), with q evaluated once
        answers = full if qb == q else full & sparql_ans(qb, cg.graph)
        restricted = restrict_project(answers, adom)
        # The largest admissible subset of each row domain, in place of
        # adm(qb), which has 2^k members for k OPTs.  Any such set inside a
        # domain D is admissible, so it lies under D's own: ⊗ keeps the
        # same maximal sets.
        family = frozenset().union(
            *(max_admissible_subsets(qb, d) for d in {w.domain for w in restricted})
        )
        out.update(otimes(restricted, family))
    return frozenset(out)


SEMANTICS = {
    "plain": plain_ans,
    "certain-ucq": cert_ans_ucq,
    "regime": er_ans,
    "canonical": can_ans,
    "restricted": rest_can_ans,
    "mcan": m_can_ans,
}
