"""Finite graphs and SUJO query evaluation over them."""

from __future__ import annotations

from typing import Iterable

from .errors import QueryShapeError
from .kb import Atom, Term, Var
from .mappings import (
    MappingSet,
    SolutionMapping,
    diff,
    join,
    project,
)
from .query import JoinQ, OptQ, Query, TriplePattern, UnionQ, branch


class Graph:
    """Immutable set of ground atoms with a by-predicate index."""

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: frozenset[Atom] = frozenset(atoms)
        index: dict[str, list[Atom]] = {}
        for atom in self.atoms:
            index.setdefault(atom.predicate, []).append(atom)
        self._by_predicate = index

    def by_predicate(self, predicate: str) -> list[Atom]:
        return self._by_predicate.get(predicate, [])

    def terms(self) -> frozenset[Term]:
        return frozenset(t for atom in self.atoms for t in atom.args)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(sorted(self.atoms))


def _match_pattern(tp: TriplePattern, g: Graph) -> MappingSet:
    out = set()
    for atom in g.by_predicate(tp.predicate):
        if len(atom.args) != len(tp.args):
            continue
        bindings: dict[Var, Term] = {}
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


def sparql_ans(q: Query, g: Graph) -> MappingSet:
    """Standard compositional answers over a plain graph."""
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


def sparql_ans_branch(q: Query, g: Graph, qb: Query) -> MappingSet:
    """Answers to q obtainable by evaluating one of its branches."""
    if qb not in branch(q):
        raise QueryShapeError("not a branch of the given query")
    if qb == q:
        return sparql_ans(q, g)
    return sparql_ans(q, g) & sparql_ans(qb, g)
