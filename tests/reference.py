"""Test-only references: the SolutionMapping-level evaluator and the six
semantics built on it, as the engine computed them before it ran on slot
rows.  They use the public types throughout and the operators of
``sparqlkb.mappings``."""

from sparqlkb.chase import chase, default_bound, entailed_abox
from sparqlkb.errors import QueryShapeError
from sparqlkb.graph import Graph
from sparqlkb.kb import Var, active_domain
from sparqlkb.mappings import (
    SolutionMapping,
    diff,
    join,
    otimes,
    project,
    restrict_filter,
    restrict_project,
)
from sparqlkb.query import (
    JoinQ,
    OptQ,
    TriplePattern,
    UnionQ,
    branch,
    is_union_free,
    max_admissible_subsets,
)
from sparqlkb.semantics import is_ucq_shape


def _match_pattern(tp, g):
    out = set()
    for atom in g.by_predicate(tp.predicate):
        if len(atom.args) != len(tp.args):
            continue
        bindings = {}
        ok = True
        for pat_arg, term in zip(tp.args, atom.args):
            if isinstance(pat_arg, Var):
                if bindings.setdefault(pat_arg, term) != term:
                    ok = False
                    break
            elif pat_arg != term:
                ok = False
                break
        if ok:
            out.add(SolutionMapping.of(bindings))
    return frozenset(out)


def sparql_ans(q, g):
    """Compositional answers over a plain graph, on SolutionMappings."""
    if isinstance(q, TriplePattern):
        return _match_pattern(q, g)
    if isinstance(q, UnionQ):
        return sparql_ans(q.left, g) | sparql_ans(q.right, g)
    if isinstance(q, JoinQ):
        return join(sparql_ans(q.left, g), sparql_ans(q.right, g))
    if isinstance(q, OptQ):
        left = sparql_ans(q.left, g)
        right = sparql_ans(q.right, g)
        return join(left, right) | diff(left, right)
    return project(sparql_ans(q.body, g), q.vars)


def _canonical(q, kb):
    return sparql_ans(q, chase(kb, default_bound(kb, q)).graph)


def plain_ans(q, kb):
    return sparql_ans(q, Graph(kb.abox))


def cert_ans_ucq(q, kb):
    if not is_ucq_shape(q):
        raise QueryShapeError("certain-answer semantics requires a UCQ-shaped query")
    return can_ans(q, kb)


def er_ans(q, kb):
    return sparql_ans(q, entailed_abox(kb))


def can_ans(q, kb):
    return restrict_filter(_canonical(q, kb), active_domain(kb))


def rest_can_ans(q, kb):
    return restrict_project(_canonical(q, kb), active_domain(kb))


def m_can_ans(q, kb):
    g = chase(kb, default_bound(kb, q)).graph
    adom = active_domain(kb)
    full = sparql_ans(q, g)
    out = set()
    for qb in branch(q):
        answers = full if qb == q else full & sparql_ans(qb, g)
        restricted = restrict_project(answers, adom)
        family = frozenset().union(
            *(max_admissible_subsets(qb, d) for d in {w.domain for w in restricted})
        )
        out.update(otimes(restricted, family))
    return frozenset(out)


def m_can_ans_sjo(q, kb):
    if not is_union_free(q):
        raise QueryShapeError("SJO semantics requires a UNION-free query")
    return m_can_ans(q, kb)


SEMANTICS = {
    "plain": plain_ans,
    "certain-ucq": cert_ans_ucq,
    "regime": er_ans,
    "canonical": can_ans,
    "restricted": rest_can_ans,
    "mcan": m_can_ans,
    "mcan-sjo": m_can_ans_sjo,
}
