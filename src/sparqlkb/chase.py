"""Deterministic restricted chase over DL-Lite_R knowledge bases.

Builds a finite fragment of the canonical model, deep enough for query
evaluation at desk scale.  Anonymous witnesses are named by their creation
path (``_:Alice|teachesTo|knows-``) so that chase output is textually stable;
a trailing ``-`` on a path segment marks an inverse-role step.

The chase is type-based, with one type derivation: an element's type is
fixed by the TBox predicates of its facts.  A named individual's are its
unary predicates and its edges' roles that the TBox mentions; a witness
created through role r has one fact, its edge from its parent, so its type
is closure(∃r⁻).  Both depend on the TBox alone, so each type is derived
once per saturated TBox and shared by every KB over it.  `_model` derives
the model once per KB: its saturated TBox, the entailed ABox, the witness
records its named types reach, and the consistency verdict; the chase, its
bound, witness counts and satisfiability all read it, and the entailed ABox
is the depth-0 chase.
A chase is read on demand: query evaluation walks the type graph from the
elements a pattern is keyed to, and the chase is unfolded to its bound only
when it is read whole.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import UnsatisfiableKbError
from .graph import Graph
from .kb import (
    BasicConcept,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    exists,
)
from .query import Query, triple_pattern_count


@dataclass(frozen=True, eq=False)
class SaturatedTBox:
    role_names: frozenset[str]
    # Reachability in the inclusion digraph, whose edges are the inclusion
    # axioms plus ∃r ⊑ ∃s for each role inclusion r ⊑ s: each role's
    # super-roles in sorted order and each basic concept's implied concepts,
    # both reflexive.  `disjoint` holds the declared disjoint pairs, each once
    # (a clash test reads a pair in both orders): a concept set closed under
    # `implied` that holds a concept below each side of a pair holds the pair.
    supers: dict[RoleExpr, tuple[RoleExpr, ...]] = field(repr=False)
    implied: dict[BasicConcept, frozenset[BasicConcept]] = field(repr=False)
    disjoint: frozenset[tuple[BasicConcept, BasicConcept]]
    # The types derived from this TBox alone, filled by `_signature_type`:
    # the TBox predicates of an element's facts (its signature) -> _Type.
    types: dict = field(default_factory=dict, repr=False)

    def super_roles(self, r: RoleExpr) -> tuple[RoleExpr, ...]:
        return self.supers.get(r, ())


def _reachable(successors: dict) -> dict:
    """Each node of the digraph `successors` -> the nodes it reaches, itself
    included: one search per node."""
    reach = {}
    for start in successors:
        reached = {start}
        pending = [start]
        while pending:
            for b in successors[pending.pop()]:
                if b not in reached:
                    reached.add(b)
                    pending.append(b)
        reach[start] = reached
    return reach


@lru_cache(maxsize=8)
def saturate(tbox: frozenset) -> SaturatedTBox:
    """The TBox's entailed inclusions as reachability in its inclusion
    digraph, searched from every role expression and basic concept of its
    signature, and its declared disjoint pairs."""
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

    roles: dict[RoleExpr, list[RoleExpr]] = {
        RoleExpr(name, inv): [] for name in role_names for inv in (False, True)
    }
    concepts: dict[BasicConcept, list[BasicConcept]] = {
        BasicConcept("atomic", n): [] for n in atomic_names
    }
    concepts.update((exists(r), []) for r in roles)
    disjoint = set()
    for ax in tbox:
        if isinstance(ax, RoleInclusion):
            for r, s in ((ax.lhs, ax.rhs), (ax.lhs.inverted(), ax.rhs.inverted())):
                roles[r].append(s)
                concepts[exists(r)].append(exists(s))
        elif isinstance(ax, ConceptInclusion):
            concepts[ax.lhs].append(ax.rhs)
        else:
            disjoint.add((ax.lhs, ax.rhs))
    return SaturatedTBox(
        frozenset(role_names),
        {r: tuple(sorted(ss)) for r, ss in _reachable(roles).items()},
        {b: frozenset(cs) for b, cs in _reachable(concepts).items()},
        frozenset(disjoint),
    )


class _Type(NamedTuple):
    """What an element is entailed to be: the names of its atomic concepts,
    the roles it must fire, and whether it holds two disjoint concepts."""

    atomic: tuple[str, ...]
    fire: tuple[RoleExpr, ...]
    clash: bool


def _type(satisfied: set[BasicConcept], sat: SaturatedTBox) -> _Type:
    """The type of an element satisfying `satisfied`.  It fires the
    unsatisfied existentials that are sub-role-minimal, and of several
    equivalent ones the first in sorted order.  A witness edge for r is
    saturated to every super-role of r, so firing any other would create a
    redundant witness."""
    entailed = set(satisfied)
    for b in satisfied:
        entailed.update(sat.implied.get(b, ()))
    unsatisfied = sorted(
        b.role for b in entailed if b.kind != "atomic" and b not in satisfied
    )
    fire = tuple(
        r
        for r in unsatisfied
        if not any(
            s != r
            and r in sat.super_roles(s)
            and (s < r or s not in sat.super_roles(r))
            for s in unsatisfied
        )
    )
    atomic = tuple(sorted(b.name for b in entailed if b.kind == "atomic"))
    clash = any(b1 in entailed and b2 in entailed for b1, b2 in sat.disjoint)
    return _Type(atomic, fire, clash)


def _segment(r: RoleExpr) -> str:
    """A witness name's path segment for r: a trailing - marks an inverse."""
    return r.name + ("-" if r.inverse else "")


class _Witness(NamedTuple):
    """A witness created through a role r.  Its edge from its parent is
    saturated to every super-role s of r: `edges` holds each s's name and
    whether s is an inverse (its atom then runs from the witness to its
    parent).  `atomic` names its type's atomic concepts, and `fire` holds
    the path segments of the roles its type fires."""

    edges: tuple[tuple[str, bool], ...]
    atomic: tuple[str, ...]
    fire: tuple[str, ...]


class _Model(NamedTuple):
    """The canonical model of a KB as a finite type graph: its saturated TBox,
    the entailed ABox, the witnesses each named individual's type fires, and
    one record per fired role, keyed by the path segment that names its
    witnesses.  Readers share `index`, so one that extends it extends a copy."""

    sat: SaturatedTBox  # the chase bound reads its roles
    index: dict[str, set[tuple[str, ...]]]  # the entailed ABox, by predicate
    fire: dict[str, tuple[str, ...]]  # named individual -> segments its type fires
    witness: dict[str, _Witness]  # path segment -> the witness of its role
    carried: frozenset[str]  # the predicates of witness atoms
    consistent: bool  # no type holds a disjoint pair
    args: dict[tuple[str, int], dict]  # `by_arg`'s lookups, each built on first use

    def by_arg(self, p: str, pos: int) -> dict[str, list[tuple[str, ...]]]:
        """The entailed ABox's atoms of p, by their argument at pos."""
        if (p, pos) not in self.args:
            found: dict[str, list[tuple[str, ...]]] = {}
            for args in self.index.get(p, ()):
                if pos < len(args):
                    found.setdefault(args[pos], []).append(args)
            self.args[p, pos] = found
        return self.args[p, pos]


def _signature_type(sat: SaturatedTBox, key: frozenset) -> _Type:
    """The type of the elements whose facts' TBox predicates are key: the
    concept names of their unary facts, and (p, inverse) for their edges
    of TBox role p.  A witness created through r has one fact, its edge
    from its parent, so its key is {(r's name, r is not an inverse)}."""
    if key not in sat.types:
        satisfied = set()
        for k in key:
            if isinstance(k, str):
                satisfied.add(BasicConcept("atomic", k))
            else:
                satisfied.update(exists(s) for s in sat.super_roles(RoleExpr(*k)))
        remember(sat.types, _SIGNATURE_TYPES, key, _type(satisfied, sat))
    return sat.types[key]


def remember(memo: dict, cap: int, key, value) -> None:
    """memo[key] = value, evicting memo's oldest entry first if it holds cap."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


# Memos live on what they derive from, capped where callers can grow them
# without end: a TBox's types, a KB's model and chases by bound (in
# `kb.derived["chase"]`), and each chase's answers.  Nothing refers back from
# a model to its chases, so refcounting frees them all with the KB.
_SIGNATURE_TYPES, _CHASES, _ANSWERS = 512, 8, 16


def _model(kb: KnowledgeBase) -> _Model:
    """The model of a KB, derived once per KB (see `_derive`)."""
    return (kb.derived.get("chase") or _derive(kb))[0]


def _derive(kb: KnowledgeBase) -> tuple[_Model, dict]:
    """A KB's `derived["chase"]`: its model, from its TBox's types, and no chase.

    An element's type is read off its signature (see `_signature_type`).
    A fact over a predicate the TBox never mentions is in the entailed
    ABox already, and no axiom implies it or is implied by it, so it is
    left out.  Elements with the same signature share one type.  What
    depends on the KB is derived here: the entailed ABox, `witness`, the
    records of every role reachable from the named types through fired
    roles, and `carried` and `consistent`, read off the types reached.
    The model keeps the saturated TBox, so no other function saturates.
    """
    sat = saturate(kb.tbox)
    facts = kb.encoded.facts
    index: dict[str, set[tuple[str, ...]]] = {p: set(rows) for p, rows in facts.items()}
    signature: dict[str, set] = {t: set() for t in kb.encoded.adom}
    for p, rows in facts.items():
        is_role = p in sat.role_names
        is_concept = BasicConcept("atomic", p) in sat.implied
        out_key, in_key = (p, False), (p, True)
        for args in rows if is_role or is_concept else ():
            if len(args) == 2:
                if is_role:
                    signature[args[0]].add(out_key)
                    signature[args[1]].add(in_key)
            elif is_concept:
                signature[args[0]].add(p)
        if not is_role:
            continue
        role = RoleExpr(p)
        supers = [s for s in sat.super_roles(role) if s != role]
        binary = [args for args in rows if len(args) == 2] if supers else []
        for s in supers:
            edges = index.setdefault(s.name, set())
            if s.inverse:
                edges.update((b, a) for a, b in binary)
            else:
                edges.update(binary)

    groups: dict[frozenset, list[str]] = {}
    for t, key in signature.items():
        groups.setdefault(frozenset(key), []).append(t)
    fire: dict[str, tuple[str, ...]] = {}
    reached = []
    for key, members in groups.items():
        typ = _signature_type(sat, key)
        reached.append(typ)
        fire.update(dict.fromkeys(members, tuple(map(_segment, typ.fire))))
        for a in typ.atomic:
            index.setdefault(a, set()).update(zip(members))

    witness: dict[str, _Witness] = {}
    pending = [r for typ in reached for r in typ.fire]
    while pending:
        r = pending.pop()
        segment = _segment(r)
        if segment not in witness:
            typ = _signature_type(sat, frozenset({(r.name, not r.inverse)}))
            edges = tuple([(s.name, s.inverse) for s in sat.super_roles(r)])
            witness[segment] = _Witness(edges, typ.atomic, tuple(map(_segment, typ.fire)))
            reached.append(typ)
            pending.extend(typ.fire)
    carried = {a for w in witness.values() for a in w.atomic}
    carried.update(p for w in witness.values() for p, _ in w.edges)
    consistent = not any(typ.clash for typ in reached)
    found = kb.derived["chase"] = (_Model(sat, index, fire, witness, frozenset(carried), consistent, {}), {})
    return found


@dataclass(frozen=True, eq=False)
class ChaseGraph:
    """The restricted chase of a KB up to a witness depth, read on demand.

    Its atoms over named individuals are the model's entailed ABox.  Each
    witness adds the atoms its record (`_Witness`) lists: its edges from its
    parent and its atomic concepts.  Both readers read those records:
    `graph` unfolds them to the bound on first read, and `match` walks them
    from the values it is given.  `rows` unfolds them only for a predicate
    that witness atoms carry.
    """

    model: _Model = field(repr=False)
    bound: int
    answers: dict = field(default_factory=dict, repr=False)  # query -> Rows

    @cached_property
    def graph(self) -> Graph:
        """The whole chase: the witness records unfolded breadth-first from
        the named individuals to the bound."""
        model, bound = self.model, self.bound
        witnesses = model.witness
        index = defaultdict(set, {p: set(rows) for p, rows in model.index.items()})
        queue: deque[tuple[str, int, tuple[str, ...]]] = deque(
            (t, 0, fire) for t, fire in model.fire.items() if fire
        )
        while queue:
            parent, depth, fire = queue.popleft()
            if depth >= bound:
                continue
            prefix = (parent if parent.startswith("_:") else "_:" + parent) + "|"
            for segment in fire:
                w = witnesses[segment]
                witness = prefix + segment
                for p, inverse in w.edges:
                    index[p].add((witness, parent) if inverse else (parent, witness))
                for a in w.atomic:
                    index[a].add((witness,))
                queue.append((witness, depth + 1, w.fire))
        return Graph(dict(index))

    def carries(self, p: str) -> bool:
        """Whether a witness atom can have predicate p."""
        return self.bound > 0 and p in self.model.carried

    def rows(self, p: str) -> Iterable[tuple[str, ...]]:
        """The atoms of predicate p."""
        return (self.graph.index if self.carries(p) else self.model.index).get(p, ())

    def match(self, p: str, pos: int, values: Iterable[str]) -> list[tuple[str, ...]]:
        """The atoms of p whose argument at pos is one of values, each an
        element of this chase.  A walk of the type graph from each value:
        a named one has its entailed ABox atoms and the edges to the
        witnesses its type fires; a witness, whose record is named by its
        last path segment and whose depth is its number of segments, has
        its concepts, the edge to its parent, and below the bound the edges
        to its children."""
        model, bound = self.model, self.bound
        witnesses, named = model.witness, model.by_arg(p, pos)
        # the edge of a witness at pos from its parent, and to its child
        inward, outward = (p, pos == 0), (p, pos == 1)
        found: list[tuple[str, ...]] = []
        for v in values:
            if v.startswith("_:"):
                parent, _, segment = v.rpartition("|")
                w = witnesses[segment]
                if p in w.atomic:
                    found.append((v,))
                if inward in w.edges:
                    if "|" not in parent:
                        parent = parent[2:]
                    found.append((v, parent) if pos == 0 else (parent, v))
                fire = w.fire if v.count("|") < bound else ()
                prefix = v + "|"
            else:
                found.extend(named.get(v, ()))
                fire = model.fire.get(v, ()) if bound > 0 else ()
                prefix = "_:" + v + "|"
            for segment in fire:
                if outward in witnesses[segment].edges:
                    child = prefix + segment
                    found.append((v, child) if pos == 0 else (child, v))
        return found


def _checked(kb: KnowledgeBase, bound: int) -> tuple[_Model, dict]:
    """kb's `derived["chase"]`, once the bound is an integer >= 0 (not a
    bool, which would share a key with 0 or 1) and the KB is satisfiable."""
    if type(bound) is not int or bound < 0:
        raise ValueError(f"chase bound must be an integer >= 0, got {bound}")
    found = kb.derived.get("chase") or _derive(kb)
    if not found[0].consistent:
        raise UnsatisfiableKbError("knowledge base is unsatisfiable")
    return found


def chase(kb: KnowledgeBase, bound: int) -> ChaseGraph:
    """Restricted chase up to the given witness depth; rejects unsat KBs."""
    model, chases = _checked(kb, bound)
    if bound not in chases:
        remember(chases, _CHASES, bound, ChaseGraph(model, bound))
    return chases[bound]


def witness_count(kb: KnowledgeBase, bound: int) -> int:
    """The number of witnesses in `chase(kb, bound)`, counted over the
    types without building the chase; it refuses what `chase` refuses.
    A witness made through r, with d levels left to the bound, heads
    W(r, d) = 1 + Σ W(s, d − 1) witnesses, over the roles s its type
    fires, and W(r, 0) = 0: one pass per level."""
    model = _checked(kb, bound)[0]
    heads = dict.fromkeys(model.witness, 0)
    for _ in range(bound):
        heads = {r: 1 + sum(heads[s] for s in w.fire) for r, w in model.witness.items()}
    return sum(heads[s] for fire in model.fire.values() for s in fire)


def model_bound(kb: KnowledgeBase) -> int:
    """Chase depth at which every path of witnesses has repeated a type: a
    witness's type is fixed by the role that created it, and the TBox has
    2·|roles| role expressions."""
    return 2 * len(_model(kb).sat.role_names) + 1


def default_bound(kb: KnowledgeBase, q: Query) -> int:
    """Depth heuristic: role-type periodicity plus the query's reach."""
    return model_bound(kb) + triple_pattern_count(q)


def is_satisfiable(kb: KnowledgeBase) -> bool:
    """No element of the canonical model may have a type holding two
    concepts declared disjoint."""
    return _model(kb).consistent
