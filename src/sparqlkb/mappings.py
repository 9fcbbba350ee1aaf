"""Solution mappings and the set-level operators used by every semantics."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

from .kb import Term, Var
from .query import VarSetFamily

MappingSet = frozenset["SolutionMapping"]


@dataclass(frozen=True)
class SolutionMapping:
    """Finite partial function from variables to universe terms."""

    bindings: tuple[tuple[Var, Term], ...]

    @staticmethod
    def of(values: Mapping[Var, Term] | Iterable[tuple[Var, Term]]) -> "SolutionMapping":
        items = dict(values)
        return SolutionMapping(tuple(sorted(items.items())))

    def __post_init__(self):
        names = [v.name for v, _ in self.bindings]
        if len(set(names)) != len(names):
            raise ValueError("variable bound twice")
        # with each variable bound once, the pairs are sorted iff the names are
        if names != sorted(names):
            raise ValueError("bindings must be sorted; use SolutionMapping.of")

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(v for v, _ in self.bindings)

    @property
    def range(self) -> frozenset[Term]:
        return frozenset(t for _, t in self.bindings)

    def as_dict(self) -> dict[Var, Term]:
        return dict(self.bindings)

    def restrict(self, x: Iterable[Var]) -> "SolutionMapping":
        """ω|_X: keep bindings whose variable lies in X."""
        xs = frozenset(x)
        return SolutionMapping(tuple(b for b in self.bindings if b[0] in xs))

    def restrict_range(self, b: Iterable[Term]) -> "SolutionMapping":
        """ω‖_B: keep bindings whose value lies in B."""
        bs = frozenset(b)
        return SolutionMapping(tuple(p for p in self.bindings if p[1] in bs))

    def __str__(self) -> str:
        inner = ", ".join(f"?{v.name}={t}" for v, t in self.bindings)
        return "{" + inner + "}"


EMPTY_MAPPING = SolutionMapping(())


def compatible(w1: SolutionMapping, w2: SolutionMapping) -> bool:
    d2 = w2.as_dict()
    return all(d2.get(v, t) == t for v, t in w1.bindings)


def merge(w1: SolutionMapping, w2: SolutionMapping) -> SolutionMapping:
    d = w1.as_dict()
    d.update(w2.bindings)
    return SolutionMapping.of(d)


def extends(w1: SolutionMapping, w2: SolutionMapping) -> bool:
    """ω1 ⪯ ω2: ω2 agrees with ω1 on all of dom(ω1)."""
    return w1.domain <= w2.domain and compatible(w1, w2)


def set_extends(omega1: MappingSet, omega2: MappingSet) -> bool:
    """Ω1 ⪯_g Ω2: every ω1 extends to some ω2 ∈ Ω2."""
    return all(any(extends(w1, w2) for w2 in omega2) for w1 in omega1)


def _partition(omega1: MappingSet, omega2: MappingSet):
    """Hash-partition Ω2 on the variables that every row of Ω1 and Ω2
    binds: rows that differ there are incompatible, so a row of Ω1 need
    only be checked against its own bucket.  With no such variable the
    key is () and the one bucket holds all of Ω2."""
    shared = {v for v, _ in next(iter(omega1)).bindings}
    for w in chain(omega1, omega2):
        if not shared:
            break
        shared.intersection_update(v for v, _ in w.bindings)

    def key(w: SolutionMapping) -> tuple[Term, ...]:
        # bindings are sorted by variable, so the values come in one order
        return tuple(t for v, t in w.bindings if v in shared)

    buckets: dict[tuple[Term, ...], list[SolutionMapping]] = {}
    for w2 in omega2:
        buckets.setdefault(key(w2), []).append(w2)
    return key, buckets


def join(omega1: MappingSet, omega2: MappingSet) -> MappingSet:
    """Ω1 ⋈ Ω2 as a hash join; `compatible` checks the unkeyed variables."""
    if not omega1 or not omega2:
        return frozenset()
    key, buckets = _partition(omega1, omega2)
    return frozenset(
        merge(w1, w2)
        for w1 in omega1
        for w2 in buckets.get(key(w1), ())
        if compatible(w1, w2)
    )


def diff(omega1: MappingSet, omega2: MappingSet) -> MappingSet:
    """Ω1 ∖ Ω2 as a hash anti-join on the same partition as `join`."""
    if not omega1 or not omega2:
        return frozenset(omega1)
    key, buckets = _partition(omega1, omega2)
    return frozenset(
        w1
        for w1 in omega1
        if not any(compatible(w1, w2) for w2 in buckets.get(key(w1), ()))
    )


def project(omega: MappingSet, x: Iterable[Var]) -> MappingSet:
    xs = frozenset(x)
    return frozenset(w.restrict(xs) for w in omega)


def restrict_filter(omega: MappingSet, b: Iterable[Term]) -> MappingSet:
    """Ω ▷ B: keep only mappings ranging entirely inside B."""
    bs = frozenset(b)
    return frozenset(w for w in omega if w.range <= bs)


def restrict_project(omega: MappingSet, b: Iterable[Term]) -> MappingSet:
    """Ω ▶ B: restrict each mapping to its bindings with values in B."""
    bs = frozenset(b)
    return frozenset(w.restrict_range(bs) for w in omega)


def otimes(omega: MappingSet, family: VarSetFamily) -> MappingSet:
    """Ω ⊗ 𝒳: restrict each ω to every maximal X ∈ 𝒳 with X ⊆ dom(ω)."""
    out = set()
    for w in omega:
        inside = [x for x in family if x <= w.domain]
        maximal = [x for x in inside if not any(x < y for y in inside)]
        for x in maximal:
            out.add(w.restrict(x))
    return frozenset(out)


def sort_mappings(omega: MappingSet) -> list[SolutionMapping]:
    """Deterministic order: lexicographic over the sorted binding pairs
    (keyed on the fields that order Var and Term, which compare faster)."""
    return sorted(omega, key=lambda w: [(v.name, t.kind, t.name) for v, t in w.bindings])
