"""Solution mappings: the public answer type.  The answer algebra runs on
slot rows (see graph.py and semantics.py)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .kb import Term, Var

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

    def as_dict(self) -> dict[Var, Term]:
        return dict(self.bindings)

    def __str__(self) -> str:
        inner = ", ".join(f"?{v.name}={t}" for v, t in self.bindings)
        return "{" + inner + "}"


# compatible is unused in src/; the benchmark tracer counts its calls.
def compatible(w1: SolutionMapping, w2: SolutionMapping) -> bool:
    d2 = w2.as_dict()
    return all(d2.get(v, t) == t for v, t in w1.bindings)
