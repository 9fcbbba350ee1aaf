"""Solution mappings, and the laws of the answer algebra: graph.py's ⋈, ∖,
∪ and π and semantics.py's ▷, ▶ and ⊗ on slot rows, checked against the
definitions on SolutionMappings in reference.py."""

import pytest
from hypothesis import given, strategies as st

import reference
from conftest import m, ms, V
from reference import extends, set_extends
from sparqlkb import graph
from sparqlkb.graph import Rows, diff, join, project, to_mappings, union
from sparqlkb.kb import Var, individual
from sparqlkb.mappings import (
    SolutionMapping,
    compatible,
)
from sparqlkb.semantics import otimes, restrict_filter, restrict_project

_VARS = st.sampled_from([Var(n) for n in "xyzvw"])
_TERMS = st.sampled_from([individual(n) for n in "abcd"])

mappings = st.dictionaries(_VARS, _TERMS, max_size=4).map(SolutionMapping.of)
mapping_sets = st.frozensets(mappings, max_size=6)
var_sets = st.frozensets(_VARS, max_size=4)
term_sets = st.frozensets(_TERMS, max_size=3)
families = st.frozensets(var_sets, min_size=1, max_size=5)


def _rows(always: frozenset, pool: str):
    """Mapping sets whose rows bind every variable in `always` and any
    others from `pool`, so row domains differ as under OPT and UNION."""
    fixed = st.fixed_dictionaries({v: _TERMS for v in always})
    extra = st.dictionaries(st.sampled_from([Var(n) for n in pool]), _TERMS, max_size=3)
    row = st.builds(lambda f, e: SolutionMapping.of({**e, **f}), fixed, extra)
    return st.frozensets(row, max_size=8)


@st.composite
def operand_pairs(draw):
    """(Ω1, Ω2), either with variables both sides always bind, or over
    disjoint variable pools, so that no variable is shared."""
    if draw(st.booleans()):
        always = draw(st.frozensets(_VARS, max_size=2))
        return draw(_rows(always, "xyzvw")), draw(_rows(always, "xyzvw"))
    return draw(_rows(frozenset(), "xyz")), draw(_rows(frozenset(), "vw"))


def _slot_rows(omega, extra=()):
    """Ω as slot rows over the variables its rows bind and those in extra."""
    names = tuple(sorted({v.name for w in omega for v in w.domain} | {v.name for v in extra}))
    named = [{v.name: t.name for v, t in w.bindings} for w in omega]
    rows = {tuple(d.get(n) for n in names) for d in named}
    return Rows(names, rows)


# Ω as mappings and as slot rows whose var list may hold variables no row binds
slot_sets = st.builds(lambda omega, extra: (omega, _slot_rows(omega, extra)), mapping_sets, var_sets)


def _y_split(rows):
    """Operands over (x, y) and (y, z) built by `rows(names, *columns)`:
    every 500th row of each leaves y, their only common variable, unbound,
    so each splits into a group that binds y and one that does not."""
    n = range(2000)
    left = rows(("x", "y"), [f"c{i}" for i in n], [f"a{i}" if i % 500 else None for i in n])
    right = rows(
        ("y", "z"), [f"a{i + 1000}" if i % 500 else None for i in n], [f"b{i}" for i in n]
    )
    return left, right


def _names(xs) -> frozenset[str]:
    """The names of a set of variables or terms, as the engine holds them."""
    return frozenset(x.name for x in xs)


class TestSolutionMapping:
    def test_constructor_canonicalizes(self):
        w = SolutionMapping.of([(Var("y"), individual("b")), (Var("x"), individual("a"))])
        assert w == m(x="a", y="b")
        assert str(w) == "{?x=a, ?y=b}"

    def test_double_binding_rejected(self):
        with pytest.raises(ValueError):
            SolutionMapping(
                ((Var("x"), individual("a")), (Var("x"), individual("b")))
            )

    def test_unsorted_bindings_rejected(self):
        with pytest.raises(ValueError):
            SolutionMapping(
                ((Var("y"), individual("a")), (Var("x"), individual("b")))
            )

    @given(mappings, var_sets)
    def test_restrict_shrinks_the_domain(self, w, xs):
        assert reference.restrict(w, xs).domain == w.domain & xs

    @given(mappings, term_sets)
    def test_restrict_range_keeps_only_those_values(self, w, bs):
        restricted = reference.restrict_range(w, bs)
        assert {t for _, t in restricted.bindings} <= bs
        assert extends(restricted, w)


class TestJoin:
    @given(slot_sets, slot_sets)
    def test_commutative(self, o1, o2):
        (_, r1), (_, r2) = o1, o2
        assert to_mappings(join(r1, r2)) == to_mappings(join(r2, r1))

    @given(slot_sets, slot_sets, slot_sets)
    def test_associative(self, o1, o2, o3):
        (_, r1), (_, r2), (_, r3) = o1, o2, o3
        assert to_mappings(join(join(r1, r2), r3)) == to_mappings(join(r1, join(r2, r3)))

    @given(slot_sets)
    def test_unit_is_the_empty_mapping(self, operand):
        omega, rows = operand
        assert to_mappings(join(rows, Rows((), {()}))) == omega

    @given(slot_sets)
    def test_zero_is_the_empty_set(self, operand):
        _, rows = operand
        assert to_mappings(join(rows, Rows((), frozenset()))) == frozenset()

    @given(mappings, mappings)
    def test_merge_extends_both_when_compatible(self, w1, w2):
        if compatible(w1, w2):
            merged = reference.merge(w1, w2)
            assert extends(w1, merged) and extends(w2, merged)


class TestHashAlgebra:
    """graph.join and diff, on slot rows over just the variables the rows
    bind, against the nested-loop definitions."""

    @given(operand_pairs())
    def test_join_matches_the_nested_loop(self, operands):
        omega1, omega2 = operands
        out = join(_slot_rows(omega1), _slot_rows(omega2))
        assert to_mappings(out) == reference.nested_loop_join(omega1, omega2)

    @given(operand_pairs())
    def test_diff_matches_the_nested_loop(self, operands):
        omega1, omega2 = operands
        out = diff(_slot_rows(omega1), _slot_rows(omega2))
        assert to_mappings(out) == reference.nested_loop_diff(omega1, omega2)

    @given(mapping_sets, mapping_sets)
    def test_arbitrary_domains_match_the_nested_loop(self, o1, o2):
        rows1, rows2 = _slot_rows(o1), _slot_rows(o2)
        assert to_mappings(join(rows1, rows2)) == reference.nested_loop_join(o1, o2)
        assert to_mappings(diff(rows1, rows2)) == reference.nested_loop_diff(o1, o2)

    def test_join_checks_only_rows_with_equal_keys(self):
        """Rows are compared only through hash lookups on the common
        variables both bind, so values are compared only where the keys are
        equal: at most once per merged pair and key variable, never once
        per pair of rows."""
        compared = []

        class Value(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                if isinstance(other, Value):
                    compared.append(None)
                return str.__eq__(self, other)

        def rows(names, *columns):
            return Rows(names, {tuple(c and Value(c) for c in row) for row in zip(*columns)})

        # x, which every row binds, and y, which rows of both operands
        # sometimes leave unbound
        n = range(2000)
        left = rows(("x", "y"), [f"c{i}" for i in n], [f"a{i}" if i % 2 else None for i in n])
        right = rows(
            ("x", "y", "z"),
            [f"c{i + 1000}" for i in n],
            [f"a{i + 1000}" if i % 3 else None for i in n],
            [f"b{i}" for i in n],
        )
        out = join(left, right)
        assert len(out) == 1000
        assert len(compared) <= len(left) + len(out)
        # y alone, which rows of both operands sometimes leave unbound: each
        # such row is compatible with every row of the other operand
        compared.clear()
        left, right = _y_split(rows)
        out = join(left, right)
        assert len(out) == 998 + 4 * 2000 + 1996 * 4
        assert len(compared) <= len(left) + len(out)

    def test_split_operands_take_one_pass(self, monkeypatch):
        """⋈ and ∖ of operands that split into groups on both sides are one
        call each: no call re-enters join or diff, and none projects, pads or
        unites groups."""
        left, right = _y_split(lambda names, *columns: Rows(names, set(zip(*columns))))
        calls = []
        for name in ("join", "diff", "project", "pad", "union"):

            def traced(*args, _name=name, _call=getattr(graph, name)):
                calls.append(_name)
                return _call(*args)

            monkeypatch.setattr(graph, name, traced)
        assert len(graph.join(left, right)) == 998 + 4 * 2000 + 1996 * 4
        assert calls == ["join"]
        calls.clear()
        # each left row meets the right rows that leave y unbound
        assert len(graph.diff(left, right)) == 0
        assert calls == ["diff"]


@st.composite
def slot_operand_pairs(draw):
    """(Ω1, Ω2) as mapping sets and as slot rows: the rows mix bound and
    unbound slots, and a var list may hold variables no row binds."""
    omega1, omega2 = draw(operand_pairs())
    return (
        omega1,
        omega2,
        _slot_rows(omega1, draw(var_sets)),
        _slot_rows(omega2, draw(var_sets)),
    )


class TestSlotRows:
    """graph.join, diff, union and project against their definitions."""

    @given(slot_operand_pairs())
    def test_join_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert to_mappings(join(rows1, rows2)) == reference.nested_loop_join(omega1, omega2)

    @given(slot_operand_pairs())
    def test_diff_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert to_mappings(diff(rows1, rows2)) == reference.nested_loop_diff(omega1, omega2)

    @given(slot_operand_pairs())
    def test_union_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert to_mappings(union(rows1, rows2)) == omega1 | omega2

    @given(slot_operand_pairs(), var_sets)
    def test_project_matches_mappings(self, operands, xs):
        omega1, _, rows1, _ = operands
        assert to_mappings(project(rows1, _names(xs))) == reference.project(omega1, xs)

    @given(slot_sets, slot_sets)
    def test_arbitrary_domains_match_mappings(self, o1, o2):
        (omega1, rows1), (omega2, rows2) = o1, o2
        assert to_mappings(join(rows1, rows2)) == reference.nested_loop_join(omega1, omega2)
        assert to_mappings(diff(rows1, rows2)) == reference.nested_loop_diff(omega1, omega2)


class TestDiffAndProject:
    @given(slot_sets, slot_sets)
    def test_diff_keeps_only_incompatible_rows(self, o1, o2):
        (_, r1), (omega2, r2) = o1, o2
        for w in to_mappings(diff(r1, r2)):
            assert not any(compatible(w, w2) for w2 in omega2)

    @given(slot_sets, var_sets, var_sets)
    def test_projection_composes_by_intersection(self, operand, xs, ys):
        _, rows = operand
        twice = project(project(rows, _names(xs)), _names(ys))
        assert to_mappings(twice) == to_mappings(project(rows, _names(xs & ys)))

    def test_opt_shape_example(self):
        left = _slot_rows(ms(m(x="a"), m(x="b")))
        right = _slot_rows(ms(m(x="a", y="c")))
        assert to_mappings(union(join(left, right), diff(left, right))) == ms(
            m(x="a", y="c"), m(x="b")
        )


class TestDomainRestrictions:
    @given(slot_sets, term_sets)
    def test_filter_is_a_subset_selection(self, operand, bs):
        omega, rows = operand
        out = to_mappings(restrict_filter(rows, _names(bs)))
        assert out <= omega
        assert all(t in bs for w in out for _, t in w.bindings)

    @given(slot_sets, term_sets)
    def test_filtered_rows_survive_projection_variant(self, operand, bs):
        _, rows = operand
        filtered = to_mappings(restrict_filter(rows, _names(bs)))
        assert filtered <= to_mappings(restrict_project(rows, _names(bs)))

    @given(slot_sets, term_sets)
    def test_both_restrictions_are_idempotent(self, operand, bs):
        _, rows = operand
        b = _names(bs)
        for restrict in (restrict_filter, restrict_project):
            once = restrict(rows, b)
            assert to_mappings(restrict(once, b)) == to_mappings(once)

    @given(slot_sets, term_sets)
    def test_both_restrictions_match_the_reference(self, operand, bs):
        omega, rows = operand
        b = _names(bs)
        assert to_mappings(restrict_filter(rows, b)) == reference.restrict_filter(omega, bs)
        assert to_mappings(restrict_project(rows, b)) == reference.restrict_project(omega, bs)


class TestExtensionOrder:
    @given(mappings)
    def test_reflexive(self, w):
        assert extends(w, w)

    @given(mappings, mappings, mappings)
    def test_transitive(self, w1, w2, w3):
        if extends(w1, w2) and extends(w2, w3):
            assert extends(w1, w3)

    @given(mappings, mappings)
    def test_antisymmetric(self, w1, w2):
        if extends(w1, w2) and extends(w2, w1):
            assert w1 == w2

    @given(mapping_sets)
    def test_set_order_reflexive(self, omega):
        assert set_extends(omega, omega)

    @given(mapping_sets, mapping_sets, mapping_sets)
    def test_set_order_transitive(self, o1, o2, o3):
        if set_extends(o1, o2) and set_extends(o2, o3):
            assert set_extends(o1, o3)

    @given(mapping_sets)
    def test_empty_set_extends_into_anything(self, omega):
        assert set_extends(frozenset(), omega)


class TestOtimes:
    @given(slot_sets, families)
    def test_result_domains_come_from_the_family(self, operand, family):
        _, rows = operand
        for w in to_mappings(otimes(rows, family)):
            assert w.domain in family

    @given(slot_sets, families)
    def test_each_result_restricts_some_input(self, operand, family):
        omega, rows = operand
        for w in to_mappings(otimes(rows, family)):
            assert any(extends(w, w2) for w2 in omega)

    def test_keeps_every_maximal_subset(self):
        family = frozenset({V("x"), V("y")})
        rows = _slot_rows(ms(m(x="a", y="b")))
        assert to_mappings(otimes(rows, family)) == ms(m(x="a"), m(y="b"))

    @given(slot_sets)
    def test_full_domain_family_is_identity(self, operand):
        omega, rows = operand
        family = frozenset(w.domain for w in omega)
        if family:
            assert to_mappings(otimes(rows, family)) == omega

    @given(slot_sets, families)
    def test_matches_the_reference(self, operand, family):
        omega, rows = operand
        assert to_mappings(otimes(rows, family)) == reference.otimes(omega, family)
