"""Finite graphs and SUJO query evaluation over them.

The engine runs on names: a term is its name string (an anonymous one
starts with ``_:``, an individual's cannot), a graph is a per-predicate
index of argument-name tuples, and an answer set is a set of slot rows over
a sorted list of variable names, one slot per variable, None where it is
unbound.  `Atom`, `Term` and `SolutionMapping` are built only where a public
function returns.

⋈ and ∖ group each operand's rows by the common variables they bind, and
hash each pair of groups on the common variables both bind: two rows are
compatible iff their keys are equal, so no pair of rows is compared.

`evaluate` recurses over the query tree, node by node, over a source: an
index, or a chase read on demand (`chase.ChaseGraph`), which a triple
pattern reads through key lookups.  Keys K map some variables to sets of
values, and r_K(Ω) keeps the rows of Ω that bind each keyed variable, if
they bind it at all, to one of its values.  Every node keeps the invariant
r_K(ans(q)) ⊆ eval(q, K) ⊆ ans(q):
- a triple pattern over a predicate that witnesses carry reads only the
  atoms whose argument at one keyed variable is one of its values;
- JOIN passes its right operand the values of each variable that every
  left row binds, and its own keys for the other variables: a right row
  that joins with a left row agrees with it there;
- OPT passes its right operand the left's values only: a right row outside
  an outer key can still be compatible with a left row that leaves that
  variable unbound, and the anti-join must see it;
- SELECT passes the keys of the variables it projects, UNION its own.
The root has no keys, so it returns ans(q).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .errors import QueryShapeError
from .kb import Atom, Term, Var, atoms_of, term
from .mappings import MappingSet, SolutionMapping
from .query import JoinQ, Query, Select, TriplePattern, UnionQ, VarSet, branch

if TYPE_CHECKING:
    from .chase import ChaseGraph

Index = dict[str, "set[tuple[str, ...]] | frozenset[tuple[str, ...]]"]


class Graph:
    """Immutable set of ground atoms, held by name in a per-predicate
    index, in which no predicate maps to an empty set; the Atom objects
    are built on first use."""

    def __init__(self, index: Index):
        self.index = index

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        return atoms_of(self.index)

    def terms(self) -> frozenset[Term]:
        names = {name for rows in self.index.values() for args in rows for name in args}
        return frozenset(map(term, names))

    def __len__(self) -> int:
        return sum(map(len, self.index.values()))

    def __iter__(self):
        return iter(sorted(self.atoms))


class Rows:
    """A set of slot rows over the sorted variable names `vars`.  The
    operators below never change a Rows they are given or return."""

    __slots__ = ("vars", "rows")

    def __init__(self, vars: tuple[str, ...], rows: set | frozenset):
        self.vars = vars
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


def _picker(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """row -> the tuple of row's values at positions."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _key(positions: tuple[int, ...]) -> Callable[[tuple], object]:
    """A hashable key of row's values at positions (a scalar for one)."""
    return itemgetter(*positions) if positions else lambda row: ()


@lru_cache(maxsize=256)
def _merge_plan(lvars: tuple[str, ...], rvars: tuple[str, ...]):
    """Rows over lvars and rvars merge into rows over their sorted union
    `out`; `lslots` and `rslots` are the slots of the common variables."""
    out = tuple(sorted(set(lvars) | set(rvars)))
    lslots = tuple(lvars.index(v) for v in out if v in lvars and v in rvars)
    rslots = tuple(rvars.index(v) for v in out if v in lvars and v in rvars)
    return out, lslots, rslots


@lru_cache(maxsize=256)
def _pair_plan(lvars: tuple, rvars: tuple, lbound: tuple, rbound: tuple):
    """How a group of rows over lvars that binds the common slots `lbound`
    meets one over rvars that binds `rbound`: `lkey` and `rkey` key a row by
    the common variables both bind, and `pick` picks an out row from l + r,
    reading a common variable from r only where only r's group binds it."""
    out, lslots, rslots = _merge_plan(lvars, rvars)
    keyed = [i in lbound and j in rbound for i, j in zip(lslots, rslots)]
    lkey, rkey = (_key(tuple(compress(slots, keyed))) for slots in (lslots, rslots))
    from_r = {lvars[i] for i, j in zip(lslots, rslots) if i not in lbound and j in rbound}
    lr = lvars + rvars
    return lkey, rkey, _picker(tuple(lr.index(v, len(lvars) if v in from_r else 0) for v in out))


def bound_groups(rows: set | frozenset, slots: tuple[int, ...]) -> dict:
    """The rows grouped under the tuple of the `slots` they bind (a name is
    never empty), each group a nonempty set; when a scan of each slot's
    column finds no None, the one group is `rows` itself."""
    for i in slots:
        if None in map(itemgetter(i), rows):
            break
    else:
        return {slots: rows} if rows else {}
    pick = _picker(slots)
    groups: dict[tuple[int, ...], set[tuple]] = {}
    for row in rows:
        groups.setdefault(tuple(compress(slots, pick(row))), set()).add(row)
    return groups


def domains(rows: Rows) -> Iterator[tuple[VarSet, set]]:
    """The rows grouped by domain: each group with the variables it binds."""
    for bound, group in bound_groups(rows.rows, tuple(range(len(rows.vars)))).items():
        yield frozenset(Var(rows.vars[i]) for i in bound), group


def join(left: Rows, right: Rows) -> Rows:
    """Ω1 ⋈ Ω2: the merge of every pair of compatible rows (rows that agree
    on each variable both bind), as a hash join of each pair of groups."""
    out, lslots, rslots = _merge_plan(left.vars, right.vars)
    if not left.rows or not right.rows:
        return Rows(out, frozenset())
    rgroups = bound_groups(right.rows, rslots)
    rows: set[tuple] = set()
    for lbound, lgroup in bound_groups(left.rows, lslots).items():
        for rbound, rgroup in rgroups.items():
            lkey, rkey, pick = _pair_plan(left.vars, right.vars, lbound, rbound)
            buckets: dict = {}
            for r in rgroup:
                buckets.setdefault(rkey(r), []).append(r)
            rows |= {pick(l + r) for l in lgroup for r in buckets.get(lkey(l), ())}
    return Rows(out, rows)


def diff(left: Rows, right: Rows) -> Rows:
    """Ω1 ∖ Ω2: the rows of Ω1 compatible with no row of Ω2, as a hash
    anti-join of each group of Ω1 with each group of Ω2 in turn."""
    if not left.rows or not right.rows:
        return left
    _, lslots, rslots = _merge_plan(left.vars, right.vars)
    rgroups = bound_groups(right.rows, rslots)
    rows: set[tuple] = set()
    for lbound, kept in bound_groups(left.rows, lslots).items():
        for rbound, rgroup in rgroups.items():
            lkey, rkey, _ = _pair_plan(left.vars, right.vars, lbound, rbound)
            keys = set(map(rkey, rgroup))
            kept = {l for l in kept if lkey(l) not in keys}
        rows |= kept
    return Rows(left.vars, rows)


def union(left: Rows, right: Rows) -> Rows:
    """Ω1 ∪ Ω2, both padded to the union of their variables."""
    out = _merge_plan(left.vars, right.vars)[0]
    return Rows(out, pad(left, out).rows | pad(right, out).rows)


def pad(rows: Rows, out: tuple[str, ...]) -> Rows:
    """The rows over `out`, a sorted superset of their variables, unbound
    in the added slots."""
    if rows.vars == out:
        return rows
    pick = _pad_picker(rows.vars, out)
    return Rows(out, {pick(row + (None,)) for row in rows.rows})


@lru_cache(maxsize=256)
def _pad_picker(names: tuple[str, ...], out: tuple[str, ...]) -> Callable[[tuple], tuple]:
    """Picks a row over `out` from a row over `names` + (None,)."""
    return _picker(tuple(names.index(v) if v in names else len(names) for v in out))


def project(rows: Rows, names: Iterable[str]) -> Rows:
    """π_X(Ω): every row restricted to the variables in X, over the
    variables of X that the rows have."""
    out = tuple(sorted(set(names) & set(rows.vars)))
    if out == rows.vars:
        return rows
    pick = _picker(tuple(rows.vars.index(v) for v in out))
    return Rows(out, set(map(pick, rows.rows)))


# What a query reads: an Index, or a chase read on demand, whose `rows(p)`
# are the atoms of p, `match(p, pos, values)` the atoms of p whose argument
# at pos is one of values, and `carries(p)` whether witnesses carry p.
Source = Union[Index, "ChaseGraph"]
# A key lookup (variable -> the values it is keyed to, or None), or None.
Keys = Optional[Callable[[str], Optional[set]]]


class _PatternPlan:
    """The rows of a triple pattern: the atoms of its predicate and arity
    that agree with its constants and repeated variables.  Over a chase, a
    pattern over a predicate that witnesses carry reads only the atoms at
    the values of its keyed variable with the fewest values."""

    __slots__ = ("predicate", "n", "out", "keyed", "consts", "repeats", "pick")

    def __init__(self, tp: TriplePattern):
        self.predicate, self.n = tp.predicate, len(tp.args)
        self.consts = tuple((i, a.name) for i, a in enumerate(tp.args) if not isinstance(a, Var))
        first: dict[str, int] = {}
        repeats = []
        for i, a in enumerate(tp.args):
            if isinstance(a, Var):
                if a.name in first:
                    repeats.append((first[a.name], i))
                else:
                    first[a.name] = i
        self.repeats = tuple(repeats)
        self.out = tuple(sorted(first))
        self.keyed = tuple((i, v) for v, i in first.items())
        whole = not self.consts and not repeats and self.out == tuple(a.name for a in tp.args)
        self.pick = None if whole else _picker(tuple(first[v] for v in self.out))

    def anchor(self, keys: Callable[[str], set[str] | None]) -> tuple[int, set[str]] | None:
        """The position and values of the keyed variable with the fewest
        values, if any variable is keyed."""
        best = None
        for i, v in self.keyed:
            values = keys(v)
            if values is not None and (best is None or len(values) < len(best[1])):
                best = (i, values)
        return best

    def __call__(self, source: Source, keys: Keys) -> Rows:
        predicate, n = self.predicate, self.n
        if isinstance(source, dict):
            atoms = source.get(predicate, ())
        else:
            anchor = keys is not None and source.carries(predicate) and self.anchor(keys)
            atoms = source.match(predicate, *anchor) if anchor else source.rows(predicate)
        pick, consts, repeats = self.pick, self.consts, self.repeats
        if pick is None:
            return Rows(self.out, {args for args in atoms if len(args) == n})
        return Rows(
            self.out,
            {
                pick(args)
                for args in atoms
                if len(args) == n
                and all(args[i] == c for i, c in consts)
                and all(args[i] == args[j] for i, j in repeats)
            },
        )


@lru_cache(maxsize=256)
def _pattern(tp: TriplePattern) -> _PatternPlan:
    """tp's reader, shared by every pattern equal to it."""
    return _PatternPlan(tp)


class _LeftValues:
    """The key lookup that a join passes to its right operand: a variable
    that every left row binds is keyed to its values there, any other to
    its outer key.  Each variable's values are collected on first lookup."""

    __slots__ = ("rows", "outer", "found")

    def __init__(self, rows: Rows, outer: Keys):
        self.rows, self.outer, self.found = rows, outer, {}

    def __call__(self, v: str) -> set[str] | None:
        if v not in self.found:
            values = None
            if v in self.rows.vars:
                values = set(map(itemgetter(self.rows.vars.index(v)), self.rows.rows))
            if values is None or None in values:
                values = self.outer(v) if self.outer is not None else None
            self.found[v] = values
        return self.found[v]


def _eval(q: Query, source: Source, keys: Keys) -> Rows:
    """q's rows over source under the key lookup `keys`."""
    if isinstance(q, TriplePattern):
        return _pattern(q)(source, keys)
    if isinstance(q, Select):
        names = tuple(v.name for v in q.vars)
        inner = keys and (lambda v: keys(v) if v in names else None)
        return project(_eval(q.body, source, inner), names)
    left = _eval(q.left, source, keys)
    if isinstance(q, UnionQ):
        return union(left, _eval(q.right, source, keys))
    if isinstance(q, JoinQ):
        return join(left, _eval(q.right, source, _LeftValues(left, keys)))
    right = _eval(q.right, source, _LeftValues(left, None))
    return union(join(left, right), diff(left, right))


def evaluate(q: Query, source: Source) -> Rows:
    """Standard compositional answers over an index or a chase, as slot
    rows."""
    return _eval(q, source, None)


def to_mappings(rows: Rows) -> MappingSet:
    """The public form of slot rows: one SolutionMapping per row."""
    # one (Var, Term) pair per slot and value, shared by the rows
    pairs: list[dict[str, tuple[Var, Term]]] = []
    for slot, v in enumerate(rows.vars):
        var = Var(v)
        names = set(map(itemgetter(slot), rows.rows))
        names.discard(None)
        pairs.append({name: (var, term(name)) for name in names})
    get = dict.__getitem__
    return frozenset(
        SolutionMapping(
            tuple(map(get, pairs, row))
            if None not in row
            else tuple(get(p, name) for p, name in zip(pairs, row) if name is not None)
        )
        for row in rows.rows
    )


def sparql_ans(q: Query, g: Graph) -> MappingSet:
    """Standard compositional answers over a plain graph."""
    return to_mappings(evaluate(q, g.index))


def sparql_ans_branch(q: Query, g: Graph, qb: Query) -> MappingSet:
    """Answers to q obtainable by evaluating one of its branches."""
    if qb not in branch(q):
        raise QueryShapeError("not a branch of the given query")
    return sparql_ans(q, g) & sparql_ans(qb, g)
