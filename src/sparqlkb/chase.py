"""Deterministic restricted chase over DL-Lite_R knowledge bases.

Builds a finite fragment of the canonical model, deep enough for query
evaluation at desk scale.  Anonymous witnesses are named by their creation
path (``_:Alice|teachesTo|knows-``) so that chase output is textually stable;
a trailing ``-`` on a path segment marks an inverse-role step.

The chase is type-based: a named individual's type comes from the saturated
ABox, and a witness created through role r has the type closure(∃r⁻), since
its only edges are r and r's super-roles from its parent.
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


@lru_cache(maxsize=256)
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


def _type(
    satisfied: set[BasicConcept], sat: SaturatedTBox
) -> tuple[frozenset[BasicConcept], list[RoleExpr]]:
    """The basic concepts an element satisfying `satisfied` is entailed to
    have, and the roles it must fire: the unsatisfied existentials that
    are sub-role-minimal, and of several equivalent ones the first in
    sorted order.  A witness edge for r is saturated to every super-role
    of r, so firing any other would create a redundant witness."""
    entailed = set(satisfied)
    entailed.update(c for (b, c) in sat.concept_closure if b in satisfied)
    unsatisfied = sorted(
        b.role for b in entailed if b.kind != "atomic" and b not in satisfied
    )
    fire = [
        r
        for r in unsatisfied
        if not any(
            s != r
            and (s, r) in sat.role_closure
            and (s < r or (r, s) not in sat.role_closure)
            for s in unsatisfied
        )
    ]
    return frozenset(entailed), fire


def _witness_type(
    r: RoleExpr, sat: SaturatedTBox
) -> tuple[list[RoleExpr], frozenset[BasicConcept], list[RoleExpr]]:
    """Edge roles from its parent, entailed concepts and fired roles of a
    witness created through r."""
    supers = sat.super_roles(r)
    return (supers, *_type({exists(s.inverted()) for s in supers}, sat))


def _role_atom(r: RoleExpr, src: Term, dst: Term) -> Atom:
    """The atom asserting r(src, dst), unfolding inverses."""
    if r.inverse:
        return Atom(r.name, (dst, src))
    return Atom(r.name, (src, dst))


def _saturated_abox(
    kb: KnowledgeBase, sat: SaturatedTBox
) -> tuple[set[Atom], dict[Term, tuple[frozenset[BasicConcept], list[RoleExpr]]]]:
    """The entailed ABox atoms, and the type of every named individual."""
    atoms: set[Atom] = set(kb.abox)
    for atom in kb.abox:
        if len(atom.args) == 2:
            for s in sat.super_roles(RoleExpr(atom.predicate)):
                atoms.add(_role_atom(s, *atom.args))
    satisfied: dict[Term, set[BasicConcept]] = {t: set() for t in active_domain(kb)}
    for atom in atoms:
        if len(atom.args) == 1:
            satisfied[atom.args[0]].add(BasicConcept("atomic", atom.predicate))
        else:
            satisfied[atom.args[0]].add(exists(RoleExpr(atom.predicate)))
            satisfied[atom.args[1]].add(exists(RoleExpr(atom.predicate, True)))
    by_basics: dict[frozenset[BasicConcept], tuple] = {}
    types = {}
    for t, basics in satisfied.items():
        key = frozenset(basics)
        if key not in by_basics:
            by_basics[key] = _type(basics, sat)
        types[t] = by_basics[key]
    for t, (entailed, _) in types.items():
        atoms.update(Atom(b.name, (t,)) for b in entailed if b.kind == "atomic")
    return atoms, types


def _witness_name(parent: Term, r: RoleExpr) -> str:
    prefix = parent.name if parent.kind == "anonymous" else "_:" + parent.name
    return prefix + "|" + r.name + ("-" if r.inverse else "")


def _build_chase(
    kb: KnowledgeBase, bound: int, max_elements: int | None = None
) -> ChaseGraph:
    sat = saturate(kb.tbox)
    atoms, types = _checked_abox(kb, sat)
    witness_types: dict[RoleExpr, tuple] = {}
    depth_of: dict[str, int] = {}
    queue: deque[tuple[Term, int, list[RoleExpr]]] = deque(
        (t, 0, types[t][1]) for t in sorted(types)
    )
    while queue:
        term, depth, fire = queue.popleft()
        if depth >= bound:
            continue
        for r in fire:
            witness = anonymous(_witness_name(term, r))
            depth_of[witness.name] = depth + 1
            if max_elements is not None and len(depth_of) > max_elements:
                raise ChaseSizeExceeded()
            if r not in witness_types:
                witness_types[r] = _witness_type(r, sat)
            supers, entailed, witness_fire = witness_types[r]
            atoms.update(_role_atom(s, term, witness) for s in supers)
            atoms.update(
                Atom(b.name, (witness,)) for b in entailed if b.kind == "atomic"
            )
            queue.append((witness, depth + 1, witness_fire))
    return ChaseGraph(Graph(atoms), tuple(sorted(depth_of.items())), bound, kb)


# Small caches: a request rarely reuses another's KB, and every entry keeps
# a whole model alive, which lengthens full garbage collections.
@lru_cache(maxsize=8)
def chase(kb: KnowledgeBase, bound: int) -> ChaseGraph:
    """Restricted chase up to the given witness depth; rejects unsat KBs."""
    return _build_chase(kb, bound)


def model_bound(kb: KnowledgeBase) -> int:
    """Chase depth at which every path of witnesses has repeated a type: a
    witness's type is fixed by the role that created it, and the TBox has
    2·|roles| role expressions."""
    return 2 * len(saturate(kb.tbox).role_names) + 1


def default_bound(kb: KnowledgeBase, q: Query) -> int:
    """Depth heuristic: role-type periodicity plus the query's reach."""
    return model_bound(kb) + triple_pattern_count(q)


@lru_cache(maxsize=8)
def is_satisfiable(kb: KnowledgeBase) -> bool:
    """No element of the canonical model may have a type holding two
    concepts declared disjoint."""
    sat = saturate(kb.tbox)
    if not sat.disjointness_closure:
        return True
    return _consistent(_saturated_abox(kb, sat)[1], sat)


def _consistent(
    types: dict[Term, tuple[frozenset[BasicConcept], list[RoleExpr]]],
    sat: SaturatedTBox,
) -> bool:
    """Whether no type of the canonical model holds a disjoint pair.  Its
    types are the named individuals' `types` and closure(∃r⁻) for every
    role r reachable from them through fired roles."""
    if not sat.disjointness_closure:
        return True
    entailed_types = {entailed for entailed, _ in types.values()}
    pending = [r for _, fire in types.values() for r in fire]
    reached: set[RoleExpr] = set()
    while pending:
        r = pending.pop()
        if r not in reached:
            reached.add(r)
            _, entailed, fire = _witness_type(r, sat)
            entailed_types.add(entailed)
            pending.extend(fire)
    return not any(
        b1 in entailed and b2 in entailed
        for entailed in entailed_types
        for (b1, b2) in sat.disjointness_closure
    )


def _checked_abox(kb: KnowledgeBase, sat: SaturatedTBox):
    """`_saturated_abox(kb, sat)`, raising if the KB is unsatisfiable."""
    atoms, types = _saturated_abox(kb, sat)
    if not _consistent(types, sat):
        raise UnsatisfiableKbError("knowledge base is unsatisfiable")
    return atoms, types


@lru_cache(maxsize=8)
def entailed_abox(kb: KnowledgeBase) -> Graph:
    """All atoms over the active domain entailed by the KB."""
    return Graph(_checked_abox(kb, saturate(kb.tbox))[0])
