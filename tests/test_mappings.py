"""Solution mappings and the set-level operators, mostly as properties."""

import pytest
from hypothesis import given, strategies as st

from conftest import m, ms, V
import sparqlkb.graph as graph_module
import sparqlkb.mappings as mappings_module
from sparqlkb.kb import Var, individual
from sparqlkb.mappings import (
    EMPTY_MAPPING,
    SolutionMapping,
    compatible,
    diff,
    extends,
    join,
    merge,
    otimes,
    project,
    restrict_filter,
    restrict_project,
    set_extends,
    sort_mappings,
)

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


def nested_loop_join(omega1, omega2):
    """Reference: Ω1 ⋈ Ω2 by checking every pair of rows."""
    return frozenset(
        merge(w1, w2) for w1 in omega1 for w2 in omega2 if compatible(w1, w2)
    )


def nested_loop_diff(omega1, omega2):
    """Reference: Ω1 ∖ Ω2 by checking every pair of rows."""
    return frozenset(
        w1 for w1 in omega1 if not any(compatible(w1, w2) for w2 in omega2)
    )


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
        assert w.restrict(xs).domain == w.domain & xs

    @given(mappings, term_sets)
    def test_restrict_range_keeps_only_those_values(self, w, bs):
        assert w.restrict_range(bs).range <= bs
        assert extends(w.restrict_range(bs), w)


class TestJoin:
    @given(mapping_sets, mapping_sets)
    def test_commutative(self, o1, o2):
        assert join(o1, o2) == join(o2, o1)

    @given(mapping_sets, mapping_sets, mapping_sets)
    def test_associative(self, o1, o2, o3):
        assert join(join(o1, o2), o3) == join(o1, join(o2, o3))

    @given(mapping_sets)
    def test_unit_is_the_empty_mapping(self, omega):
        assert join(omega, ms(EMPTY_MAPPING)) == omega

    @given(mapping_sets)
    def test_zero_is_the_empty_set(self, omega):
        assert join(omega, frozenset()) == frozenset()

    @given(mappings, mappings)
    def test_merge_extends_both_when_compatible(self, w1, w2):
        if compatible(w1, w2):
            merged = merge(w1, w2)
            assert extends(w1, merged) and extends(w2, merged)


class TestHashAlgebra:
    @given(operand_pairs())
    def test_join_matches_the_nested_loop(self, operands):
        assert join(*operands) == nested_loop_join(*operands)

    @given(operand_pairs())
    def test_diff_matches_the_nested_loop(self, operands):
        assert diff(*operands) == nested_loop_diff(*operands)

    @given(mapping_sets, mapping_sets)
    def test_arbitrary_domains_match_the_nested_loop(self, o1, o2):
        assert join(o1, o2) == nested_loop_join(o1, o2)
        assert diff(o1, o2) == nested_loop_diff(o1, o2)

    def test_join_checks_only_rows_with_equal_keys(self, monkeypatch):
        calls = []
        check = mappings_module.compatible

        def counting(w1, w2):
            calls.append(None)
            return check(w1, w2)

        monkeypatch.setattr(mappings_module, "compatible", counting)
        left = frozenset(m(x=f"c{i}", y=f"a{i}") for i in range(2000))
        right = frozenset(m(x=f"c{i + 1000}", z=f"b{i}") for i in range(2000))
        out = join(left, right)
        assert len(out) == 1000
        assert len(calls) <= len(left) + len(out)


def _slot_rows(omega, extra):
    """Ω as slot rows over the variables its rows bind and those in extra."""
    names = tuple(sorted({v.name for w in omega for v in w.domain} | {v.name for v in extra}))
    named = [{v.name: t.name for v, t in w.bindings} for w in omega]
    rows = {tuple(d.get(n) for n in names) for d in named}
    return graph_module.Rows(names, rows)


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
    """graph.join/diff/union on slot rows against the mapping-level
    operators, which define them."""

    @given(slot_operand_pairs())
    def test_join_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert graph_module.to_mappings(graph_module.join(rows1, rows2)) == join(omega1, omega2)

    @given(slot_operand_pairs())
    def test_diff_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert graph_module.to_mappings(graph_module.diff(rows1, rows2)) == diff(omega1, omega2)

    @given(slot_operand_pairs())
    def test_union_matches_mappings(self, operands):
        omega1, omega2, rows1, rows2 = operands
        assert graph_module.to_mappings(graph_module.union(rows1, rows2)) == omega1 | omega2

    @given(slot_operand_pairs(), var_sets)
    def test_project_matches_mappings(self, operands, xs):
        omega1, _, rows1, _ = operands
        projected = graph_module.project(rows1, (v.name for v in xs))
        assert graph_module.to_mappings(projected) == project(omega1, xs)

    @given(mapping_sets, mapping_sets, var_sets, var_sets)
    def test_arbitrary_domains_match_mappings(self, o1, o2, x1, x2):
        rows1, rows2 = _slot_rows(o1, x1), _slot_rows(o2, x2)
        assert graph_module.to_mappings(graph_module.join(rows1, rows2)) == join(o1, o2)
        assert graph_module.to_mappings(graph_module.diff(rows1, rows2)) == diff(o1, o2)


class TestDiffAndProject:
    @given(mapping_sets, mapping_sets)
    def test_diff_keeps_only_incompatible_rows(self, o1, o2):
        for w in diff(o1, o2):
            assert not any(compatible(w, w2) for w2 in o2)

    @given(mapping_sets, var_sets, var_sets)
    def test_projection_composes_by_intersection(self, omega, xs, ys):
        assert project(project(omega, xs), ys) == project(omega, xs & ys)

    def test_opt_shape_example(self):
        left = ms(m(x="a"), m(x="b"))
        right = ms(m(x="a", y="c"))
        assert join(left, right) | diff(left, right) == ms(
            m(x="a", y="c"), m(x="b")
        )


class TestDomainRestrictions:
    @given(mapping_sets, term_sets)
    def test_filter_is_a_subset_selection(self, omega, bs):
        out = restrict_filter(omega, bs)
        assert out <= omega
        assert all(w.range <= bs for w in out)

    @given(mapping_sets, term_sets)
    def test_filtered_rows_survive_projection_variant(self, omega, bs):
        assert restrict_filter(omega, bs) <= restrict_project(omega, bs)

    @given(mapping_sets, term_sets)
    def test_both_restrictions_are_idempotent(self, omega, bs):
        assert restrict_filter(restrict_filter(omega, bs), bs) == restrict_filter(
            omega, bs
        )
        assert restrict_project(
            restrict_project(omega, bs), bs
        ) == restrict_project(omega, bs)


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
    @given(mapping_sets, families)
    def test_result_domains_come_from_the_family(self, omega, family):
        for w in otimes(omega, family):
            assert w.domain in family

    @given(mapping_sets, families)
    def test_each_result_restricts_some_input(self, omega, family):
        for w in otimes(omega, family):
            assert any(extends(w, w2) for w2 in omega)

    def test_keeps_every_maximal_subset(self):
        family = frozenset({V("x"), V("y")})
        assert otimes(ms(m(x="a", y="b")), family) == ms(m(x="a"), m(y="b"))

    @given(mapping_sets)
    def test_full_domain_family_is_identity(self, omega):
        family = frozenset(w.domain for w in omega)
        if family:
            assert otimes(omega, family) == omega


def test_sort_mappings_is_deterministic():
    omega = ms(m(x="b"), m(x="a", y="c"), m())
    assert sort_mappings(omega) == [m(), m(x="a", y="c"), m(x="b")]
