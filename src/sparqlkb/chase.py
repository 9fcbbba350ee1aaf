"""Deterministic restricted chase over DL-Lite_R knowledge bases.

Builds a finite fragment of the canonical model, deep enough for query
evaluation at desk scale.  Anonymous witnesses are named by their creation
path (``_:Alice|teachesTo|knows-``) so that chase output is textually stable;
a trailing ``-`` on a path segment marks an inverse-role step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import UnsatisfiableKbError
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
    active_domain,
    anonymous,
    exists,
)
from .query import Query, triple_pattern_count


@dataclass(frozen=True)
class SaturatedTBox:
    concept_closure: frozenset[tuple[BasicConcept, BasicConcept]]
    role_closure: frozenset[tuple[RoleExpr, RoleExpr]]
    disjointness_closure: frozenset[tuple[BasicConcept, BasicConcept]]
    role_names: frozenset[str]

    def super_roles(self, r: RoleExpr) -> list[RoleExpr]:
        return sorted(s for p, s in self.role_closure if p == r)


def _transitive_closure(pairs: set[tuple], domain: set) -> set[tuple]:
    closure = set(pairs) | {(x, x) for x in domain}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


@lru_cache(maxsize=None)
def saturate(tbox: frozenset) -> SaturatedTBox:
    """Least fixpoint of the inclusion/disjointness closure rules."""
    role_names: set[str] = set()
    atomic_names: set[str] = set()
    for ax in tbox:
        if isinstance(ax, RoleInclusion):
            role_names.update((ax.lhs.name, ax.rhs.name))
        else:
            for c in (ax.lhs, ax.rhs):
                if c.kind == "atomic":
                    atomic_names.add(c.name)
                else:
                    role_names.add(c.name)

    role_domain = {
        RoleExpr(name, inv) for name in role_names for inv in (False, True)
    }
    role_pairs: set[tuple[RoleExpr, RoleExpr]] = set()
    for ax in tbox:
        if isinstance(ax, RoleInclusion):
            role_pairs.add((ax.lhs, ax.rhs))
            role_pairs.add((ax.lhs.inverted(), ax.rhs.inverted()))
    role_closure = _transitive_closure(role_pairs, role_domain)

    concept_domain = {BasicConcept("atomic", n) for n in atomic_names}
    concept_domain.update(exists(r) for r in role_domain)
    concept_pairs: set[tuple[BasicConcept, BasicConcept]] = set()
    for ax in tbox:
        if isinstance(ax, ConceptInclusion):
            concept_pairs.add((ax.lhs, ax.rhs))
    for (r, s) in role_closure:
        concept_pairs.add((exists(r), exists(s)))
    concept_closure = _transitive_closure(concept_pairs, concept_domain)

    declared = set()
    for ax in tbox:
        if isinstance(ax, ConceptDisjointness):
            declared.add((ax.lhs, ax.rhs))
            declared.add((ax.rhs, ax.lhs))
    disjoint = {
        (b1, b2)
        for (d1, d2) in declared
        for (b1, e1) in concept_closure
        if e1 == d1
        for (b2, e2) in concept_closure
        if e2 == d2
    }
    return SaturatedTBox(
        frozenset(concept_closure),
        frozenset(role_closure),
        frozenset(disjoint),
        frozenset(role_names),
    )


@dataclass(frozen=True)
class ChaseGraph:
    graph: Graph
    depth_of: tuple[tuple[str, int], ...]  # anonymous term name -> depth
    bound: int
    kb: KnowledgeBase


class ChaseSizeExceeded(Exception):
    """Internal guard used by the instance generator to skip blowups."""


def _term_index(atoms: set[Atom]) -> dict[Term, set[Atom]]:
    index: dict[Term, set[Atom]] = {}
    for atom in atoms:
        for t in atom.args:
            index.setdefault(t, set()).add(atom)
    return index


def _satisfied_basics(term: Term, atoms: set[Atom]) -> set[BasicConcept]:
    """Basic concepts term satisfies; atoms may be pre-filtered to those
    incident to term."""
    out: set[BasicConcept] = set()
    for atom in atoms:
        if len(atom.args) == 1 and atom.args[0] == term:
            out.add(BasicConcept("atomic", atom.predicate))
        elif len(atom.args) == 2:
            if atom.args[0] == term:
                out.add(exists(RoleExpr(atom.predicate)))
            if atom.args[1] == term:
                out.add(exists(RoleExpr(atom.predicate, inverse=True)))
    return out


def _entailed_basics(
    term: Term, atoms: set[Atom], sat: SaturatedTBox
) -> set[BasicConcept]:
    satisfied = _satisfied_basics(term, atoms)
    entailed = set(satisfied)
    for b in satisfied:
        entailed.update(c for (p, c) in sat.concept_closure if p == b)
    return entailed


def _role_atom(r: RoleExpr, src: Term, dst: Term) -> Atom:
    """The atom asserting r(src, dst), unfolding inverses."""
    if r.inverse:
        return Atom(r.name, (dst, src))
    return Atom(r.name, (src, dst))


def _has_successor(r: RoleExpr, term: Term, atoms: set[Atom]) -> bool:
    for atom in atoms:
        if atom.predicate != r.name or len(atom.args) != 2:
            continue
        if not r.inverse and atom.args[0] == term:
            return True
        if r.inverse and atom.args[1] == term:
            return True
    return False


def _saturated_abox(kb: KnowledgeBase, sat: SaturatedTBox) -> set[Atom]:
    atoms: set[Atom] = set(kb.abox)
    for atom in kb.abox:
        if len(atom.args) == 2:
            r = RoleExpr(atom.predicate)
            for s in sat.super_roles(r):
                atoms.add(_role_atom(s, atom.args[0], atom.args[1]))
    index = _term_index(atoms)
    for term in sorted(active_domain(kb)):
        for b in _entailed_basics(term, index.get(term, set()), sat):
            if b.kind == "atomic":
                atoms.add(Atom(b.name, (term,)))
    return atoms


def _witness_name(parent: Term, r: RoleExpr) -> str:
    prefix = parent.name if parent.kind == "anonymous" else "_:" + parent.name
    return prefix + "|" + r.name + ("-" if r.inverse else "")


def _build_chase(
    kb: KnowledgeBase, bound: int, max_elements: int | None = None
) -> ChaseGraph:
    sat = saturate(kb.tbox)
    atoms = _saturated_abox(kb, sat)
    index = _term_index(atoms)

    def add(atom: Atom) -> None:
        if atom not in atoms:
            atoms.add(atom)
            for t in atom.args:
                index.setdefault(t, set()).add(atom)

    depth_of: dict[str, int] = {}
    queue: deque[tuple[Term, int]] = deque(
        (t, 0) for t in sorted(active_domain(kb))
    )
    while queue:
        term, depth = queue.popleft()
        if depth >= bound:
            continue
        incident = index.setdefault(term, set())
        # Re-derive requirements until no witness is added: a witness created
        # here can feed new entailments back into the same element.
        while True:
            created = False
            entailed = _entailed_basics(term, incident, sat)
            unsatisfied = sorted(
                b.role
                for b in entailed
                if b.kind != "atomic" and not _has_successor(b.role, term, incident)
            )
            # Fire only the sub-role-minimal requirements: the witness edge
            # for s is saturated to every super-role of s, so firing a strict
            # super-role separately would create a redundant witness.
            requirements = [
                r
                for r in unsatisfied
                if not any(
                    s != r
                    and (s, r) in sat.role_closure
                    and (r, s) not in sat.role_closure
                    for s in unsatisfied
                )
            ]
            for r in requirements:
                if _has_successor(r, term, incident):
                    continue
                witness = anonymous(_witness_name(term, r))
                depth_of[witness.name] = depth + 1
                if max_elements is not None and len(depth_of) > max_elements:
                    raise ChaseSizeExceeded()
                add(_role_atom(r, term, witness))
                for s in sat.super_roles(r):
                    add(_role_atom(s, term, witness))
                for b in _entailed_basics(witness, index[witness], sat):
                    if b.kind == "atomic":
                        add(Atom(b.name, (witness,)))
                queue.append((witness, depth + 1))
                created = True
            if not created:
                break
    return ChaseGraph(Graph(atoms), tuple(sorted(depth_of.items())), bound, kb)


@lru_cache(maxsize=256)
def chase(kb: KnowledgeBase, bound: int) -> ChaseGraph:
    """Restricted chase up to the given witness depth; rejects unsat KBs."""
    if not is_satisfiable(kb):
        raise UnsatisfiableKbError("knowledge base is unsatisfiable")
    return _build_chase(kb, bound)


def model_bound(kb: KnowledgeBase) -> int:
    """Chase depth at which every path of witnesses has repeated a type: a
    witness's type is fixed by the role that created it, and the TBox has
    2·|roles| role expressions."""
    return 2 * len(saturate(kb.tbox).role_names) + 1


def default_bound(kb: KnowledgeBase, q: Query) -> int:
    """Depth heuristic: role-type periodicity plus the query's reach."""
    return model_bound(kb) + triple_pattern_count(q)


@lru_cache(maxsize=256)
def is_satisfiable(kb: KnowledgeBase) -> bool:
    """No chase element may satisfy two concepts declared disjoint."""
    sat = saturate(kb.tbox)
    if not sat.disjointness_closure:
        return True
    probe = _build_chase(kb, model_bound(kb))
    index = _term_index(set(probe.graph.atoms))
    elements = sorted(probe.graph.terms())
    for term in elements:
        entailed = _entailed_basics(term, index.get(term, set()), sat)
        for (b1, b2) in sat.disjointness_closure:
            if b1 in entailed and b2 in entailed:
                return False
    return True


@lru_cache(maxsize=256)
def entailed_abox(kb: KnowledgeBase) -> Graph:
    """All atoms over the active domain entailed by the KB."""
    if not is_satisfiable(kb):
        raise UnsatisfiableKbError("knowledge base is unsatisfiable")
    sat = saturate(kb.tbox)
    return Graph(_saturated_abox(kb, sat))
