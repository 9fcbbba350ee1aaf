"""Compositional query evaluation over plain graphs."""

import gc
import weakref
from itertools import islice

import pytest

from conftest import load_kb, load_query, m, ms
from reference import brute_force_cq_matches
from sparqlkb.errors import QueryShapeError
from sparqlkb.chase import chase
from sparqlkb.graph import Graph, evaluate, sparql_ans, sparql_ans_branch
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import Atom, Var, individual, parse_kb
from sparqlkb.mappings import extends, set_extends
from sparqlkb.query import (
    OptQ,
    TriplePattern,
    UnionQ,
    adm,
    branch,
    is_union_free,
    parse_query,
    query_vars,
)
from sparqlkb.semantics import is_ucq_shape

X, Y = Var("x"), Var("y")


def _graph(kb_text: str) -> Graph:
    return Graph(parse_kb(kb_text).abox)


class TestGraph:
    def test_equality_ignores_index_state(self):
        atoms = {Atom("A", (individual("a"),))}
        assert Graph(atoms) == Graph(list(atoms))
        assert hash(Graph(atoms)) == hash(Graph(list(atoms)))

    def test_iteration_is_sorted(self):
        g = _graph("TBOX: ABOX: B(b) . A(a) . A(c) .")
        assert [str(a) for a in g] == ["A(a)", "A(c)", "B(b)"]

    def test_terms_and_index(self):
        g = _graph("TBOX: ABOX: r(a, b) . A(a) .")
        assert g.terms() == frozenset({individual("a"), individual("b")})
        assert g.index["r"] == {("a", "b")}
        assert "missing" not in g.index


class TestTriplePatterns:
    def test_variable_pattern_matches_all_rows(self):
        g = _graph("TBOX: ABOX: r(a, b) . r(a, c) .")
        assert sparql_ans(TriplePattern("r", (X, Y)), g) == ms(
            m(x="a", y="b"), m(x="a", y="c")
        )

    def test_constant_pattern_filters(self):
        g = _graph("TBOX: ABOX: r(a, b) . r(c, b) .")
        q = TriplePattern("r", (individual("a"), Y))
        assert sparql_ans(q, g) == ms(m(y="b"))

    def test_repeated_variable_requires_equal_arguments(self):
        g = _graph("TBOX: ABOX: r(a, a) . r(a, b) .")
        assert sparql_ans(TriplePattern("r", (X, X)), g) == ms(m(x="a"))

    def test_ground_pattern_yields_the_empty_mapping(self):
        g = _graph("TBOX: ABOX: A(a) .")
        q = TriplePattern("A", (individual("a"),))
        assert sparql_ans(q, g) == ms(m())
        assert sparql_ans(TriplePattern("A", (individual("b"),)), g) == frozenset()


class TestOperators:
    def test_optional_keeps_unextendable_rows(self):
        g = Graph(load_kb("ex2.kb").abox)
        assert sparql_ans(load_query("ex2.sq"), g) == ms(m(x="Alice"))

    def test_optional_extends_when_it_can(self):
        g = Graph(load_kb("ex2i.kb").abox)
        assert sparql_ans(load_query("ex2.sq"), g) == ms(m(x="Alice", y="12345"))

    def test_projection_after_optional(self):
        g = Graph(load_kb("ex3.kb").abox)
        assert sparql_ans(load_query("ex3.sq"), g) == ms(
            m(x="Alice", z="Carol"), m(x="Alice")
        )

    def test_union_merges_both_sides(self):
        g = _graph("TBOX: ABOX: A(a) . r(a, b) .")
        q = UnionQ(TriplePattern("A", (X,)), TriplePattern("r", (X, Y)))
        assert sparql_ans(q, g) == ms(m(x="a"), m(x="a", y="b"))


class TestEvaluate:
    def test_a_query_is_garbage_once_evaluated(self):
        """Evaluation shares a reader per triple pattern, and keeps no
        query node alive past the call."""
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) . r(a, b) . s(b, c) .")
        q = parse_query("OPT(JOIN(A(?x), r(?x, ?y)), SELECT{y}(s(?y, ?z)))")
        ref = weakref.ref(q)
        evaluate(q, kb.encoded.facts)
        evaluate(q, chase(kb, 2))
        del q
        gc.collect()
        assert ref() is None


class TestBranchEvaluation:
    def test_union_free_query_equals_plain_evaluation(self):
        g = Graph(load_kb("ex3.kb").abox)
        q = load_query("ex3.sq")
        assert sparql_ans_branch(q, g, q) == sparql_ans(q, g)

    def test_branch_of_a_union(self):
        g = _graph("TBOX: ABOX: A(a) . r(a, b) .")
        q = UnionQ(TriplePattern("A", (X,)), TriplePattern("r", (X, Y)))
        assert sparql_ans_branch(q, g, TriplePattern("A", (X,))) == ms(m(x="a"))

    def test_rejects_non_branches(self):
        g = _graph("TBOX: ABOX: A(a) .")
        q = TriplePattern("A", (X,))
        with pytest.raises(QueryShapeError):
            sparql_ans_branch(q, g, TriplePattern("B", (X,)))


class TestGeneratedProperties:
    """Structural invariants of the evaluator over random instances."""

    INSTANCES = 120

    def _instances(self):
        return islice(generate_instances(7, SizeParams()), self.INSTANCES)

    def test_answer_domains_are_admissible(self):
        for kb, q in self._instances():
            g = Graph(kb.abox)
            family = adm(q)
            for w in sparql_ans(q, g):
                assert w.domain in family

    def test_answers_are_covered_by_branches(self):
        for kb, q in self._instances():
            g = Graph(kb.abox)
            covered = frozenset().union(
                *(sparql_ans(qb, g) for qb in branch(q))
            )
            assert sparql_ans(q, g) <= covered

    def test_optional_left_side_extends_into_the_whole(self):
        for kb, q in self._instances():
            if not isinstance(q, OptQ) or not is_union_free(q):
                continue
            g = Graph(kb.abox)
            assert set_extends(sparql_ans(q.left, g), sparql_ans(q, g))

    def test_ucq_evaluation_agrees_with_backtracking_oracle(self):
        checked = 0
        for kb, q in islice(generate_instances(11, SizeParams()), 400):
            if not is_ucq_shape(q):
                continue
            g = Graph(kb.abox)
            assert sparql_ans(q, g) == brute_force_cq_matches(q, g)
            checked += 1
        assert checked >= 30
