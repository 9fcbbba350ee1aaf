"""The six semantics on the worked examples and their structural relations."""

import gc
import io
from itertools import islice
from unittest import mock

import pytest

import reference
import sparqlkb.query
import sparqlkb.semantics
from conftest import FIXTURES, TEACHING_QUERY, load_kb, load_query, m, ms, teaching_kb_text
from sparqlkb import chase as chase_module
from sparqlkb.chase import ChaseGraph, chase, default_bound
from sparqlkb.cli import EXIT_OK, EXIT_USAGE, main
from sparqlkb.errors import QueryShapeError
from sparqlkb.graph import Rows, evaluate, sparql_ans_branch
from sparqlkb.harness import SizeParams, check_requirement, generate_instances
from sparqlkb.kb import KnowledgeBase, Var, active_domain, parse_kb
from sparqlkb.query import (
    JoinQ,
    OptQ,
    Select,
    TriplePattern,
    UnionQ,
    adm,
    branch,
    is_admissible,
    parse_query,
    serialize_query,
)
from sparqlkb.semantics import (
    ROWS,
    SEMANTICS,
    can_ans,
    cert_ans_ucq,
    er_ans,
    evaluate_once,
    is_ucq_shape,
    m_can_ans,
    m_can_ans_sjo,
    plain_ans,
    rest_can_ans,
)

X, Y, Z = Var("x"), Var("y"), Var("z")


class TestUcqShape:
    def test_select_over_join_tree(self):
        assert is_ucq_shape(load_query("ex5.sq"))
        assert is_ucq_shape(load_query("ex1.sq"))
        assert is_ucq_shape(parse_query("Driver(?x)"))

    def test_union_of_cqs_with_shared_vars(self):
        q = UnionQ(
            Select(frozenset({X}), TriplePattern("A", (X,))),
            Select(frozenset({X}), TriplePattern("B", (X,))),
        )
        assert is_ucq_shape(q)

    def test_mismatched_distinguished_vars_rejected(self):
        q = UnionQ(TriplePattern("A", (X,)), TriplePattern("r", (X, Y)))
        assert not is_ucq_shape(q)

    def test_opt_is_not_a_cq(self):
        assert not is_ucq_shape(load_query("ex2.sq"))

    def test_a_select_inside_the_join_tree_is_not_a_cq(self):
        assert not is_ucq_shape(parse_query("SELECT{x}(JOIN(A(?x), SELECT{x}(r(?x,?y))))"))

    def test_a_join_tree_of_three_patterns_is_a_cq(self):
        assert is_ucq_shape(parse_query("SELECT{x}(JOIN(JOIN(A(?x), r(?x,?y)), B(?y)))"))
        assert is_ucq_shape(parse_query("JOIN(A(?x), JOIN(r(?x,?y), B(?y)))"))


class TestWorkedExamples:
    """Exact answer sets for the running driver/teacher scenarios."""

    def test_incomplete_data_splits_the_semantics(self):
        kb, q = load_kb("ex1.kb"), load_query("ex1.sq")
        assert plain_ans(q, kb) == frozenset()
        assert cert_ans_ucq(q, kb) == ms(m(x="Alice"))
        assert er_ans(q, kb) == frozenset()
        assert can_ans(q, kb) == ms(m(x="Alice"))
        assert rest_can_ans(q, kb) == ms(m(x="Alice"))
        assert m_can_ans(q, kb) == ms(m(x="Alice"))

    def test_optional_over_plain_data(self):
        q = load_query("ex2.sq")
        assert plain_ans(q, load_kb("ex2.kb")) == ms(m(x="Alice"))
        assert plain_ans(q, load_kb("ex2i.kb")) == ms(m(x="Alice", y="12345"))

    def test_projection_after_optional(self):
        kb, q = load_kb("ex3.kb"), load_query("ex3.sq")
        expected = ms(m(x="Alice", z="Carol"), m(x="Alice"))
        assert plain_ans(q, kb) == expected
        assert m_can_ans(q, kb) == expected

    def test_regime_loses_certain_answers_on_joins(self):
        kb, q = load_kb("ex1.kb"), load_query("ex5.sq")
        assert cert_ans_ucq(q, kb) == ms(m(x="Alice"))
        assert er_ans(q, kb) == frozenset()

    def test_canonical_drops_partially_anonymous_rows(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        assert can_ans(q, kb) == frozenset()
        assert can_ans(load_query("ex6b.sq"), kb) == ms(m(x="Alice"))
        assert rest_can_ans(q, kb) == ms(m(x="Alice"))
        assert m_can_ans(q, kb) == ms(m(x="Alice"))

    def test_inverse_role_collapses_restricted_answers(self):
        kb, q = load_kb("ex7.kb"), load_query("ex7.sq")
        assert rest_can_ans(q, kb) == ms(m(x="Alice", z="Alice"))
        assert m_can_ans(q, kb) == ms(m(x="Alice"))


class TestShapeGuards:
    def test_certain_answers_reject_optional(self):
        with pytest.raises(QueryShapeError):
            cert_ans_ucq(load_query("ex2.sq"), load_kb("ex2.kb"))

    def test_the_ucq_guard_is_syntactic(self):
        """certain-ucq rejects a JOIN over a UNION and answers its
        distributed UNION of JOINs, which has the same answers."""
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) . A(b) . s(b, c) . r(c, d) .")
        with pytest.raises(QueryShapeError):
            cert_ans_ucq(parse_query("JOIN(A(?x), UNION(r(?x,?y), s(?x,?y)))"), kb)
        q = parse_query("UNION(JOIN(A(?x), r(?x,?y)), JOIN(A(?x), s(?x,?y)))")
        assert cert_ans_ucq(q, kb) == ms(m(x="b", y="c"))

    def test_union_free_variant_rejects_union(self):
        q = UnionQ(TriplePattern("A", (X,)), TriplePattern("B", (X,)))
        with pytest.raises(QueryShapeError):
            m_can_ans_sjo(q, load_kb("ex2.kb"))

    def test_union_free_variant_agrees_with_the_general_one(self):
        cases = [
            ("ex2.kb", "ex2.sq"),
            ("ex3.kb", "ex3.sq"),
            ("ex1.kb", "ex6.sq"),
            ("ex7.kb", "ex7.sq"),
        ]
        for kb_name, q_name in cases:
            kb, q = load_kb(kb_name), load_query(q_name)
            assert m_can_ans_sjo(q, kb) == m_can_ans(q, kb), (kb_name, q_name)


class TestUnionProvenance:
    def test_branch_answers_union_up(self):
        kb = load_kb("ex2.kb")  # just Person(Alice)
        q = UnionQ(
            TriplePattern("Person", (X,)), TriplePattern("hasLicense", (X, Y))
        )
        assert m_can_ans(q, kb) == ms(m(x="Alice"))

    def test_deduplication_across_branches(self):
        kb = load_kb("ex2.kb")
        q = UnionQ(TriplePattern("Person", (X,)), TriplePattern("Person", (X,)))
        assert m_can_ans(q, kb) == ms(m(x="Alice"))

    def test_branch_keeps_only_answers_of_the_whole_query(self):
        # The r-branch alone would give {?x=a}; the whole query extends it.
        kb = parse_kb("TBOX: ABOX: A(a) . s(a, c) .")
        q = OptQ(
            TriplePattern("A", (X,)),
            UnionQ(TriplePattern("r", (X, Y)), TriplePattern("s", (X, Z))),
        )
        assert m_can_ans(q, kb) == ms(m(x="a", z="c"))


def m_can_ans_reference(q, kb):
    """mcan by its definition: each branch's restricted answers ⊗ adm(qb)."""
    g = chase(kb, default_bound(kb, q)).graph
    adom = active_domain(kb)
    out = set()
    for qb in branch(q):
        restricted = reference.restrict_project(sparql_ans_branch(q, g, qb), adom)
        out.update(reference.otimes(restricted, adm(qb)))
    return frozenset(out)


class TestMaximalAdmissible:
    @pytest.mark.parametrize("seed", [5, 13])
    def test_agrees_with_the_adm_reference(self, seed):
        texts = []
        for kb, q in islice(generate_instances(seed, SizeParams()), 300):
            assert m_can_ans(q, kb) == m_can_ans_reference(q, kb), q
            texts.append(serialize_query(q))
        for op in ("UNION", "SELECT", "OPT"):
            assert sum(op in t for t in texts) >= 30, op

    def test_a_long_opt_chain_never_materializes_adm(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return adm(q)

        def no_family(rows, family):
            raise AssertionError("mcan built a family for otimes")

        monkeypatch.setattr(sparqlkb.query, "adm", counted)
        monkeypatch.setattr(sparqlkb.semantics, "adm", counted)
        monkeypatch.setattr(sparqlkb.semantics, "otimes", no_family)
        text = "A(?x)"
        for i in range(12):
            text = f"OPT({text}, p{i}(?x, ?y{i}))"
        kb = parse_kb("TBOX: ABOX: A(a) . A(b) . p3(a, c) . p7(a, d) . p7(b, c) .")
        assert m_can_ans(parse_query(text), kb) == ms(
            m(x="a", y3="c", y7="d"), m(x="b", y7="c")
        )
        assert calls == []


class TestEmptyTBoxRelations:
    """With no axioms the canonical model is the data itself."""

    INSTANCES = 120

    def _empty_tbox_instances(self):
        stream = generate_instances(31, SizeParams())
        for kb, q in islice(stream, self.INSTANCES):
            yield type(kb)(frozenset(), kb.abox), q

    def test_plain_equals_canonical_family(self):
        for kb, q in self._empty_tbox_instances():
            expected = plain_ans(q, kb)
            assert can_ans(q, kb) == expected
            assert rest_can_ans(q, kb) == expected
            assert er_ans(q, kb) == sparql_regime_reference(q, kb)

    def test_mcan_refines_by_admissibility_only(self):
        for kb, q in self._empty_tbox_instances():
            for w in m_can_ans(q, kb):
                assert w.domain in adm(q)


def sparql_regime_reference(q, kb):
    """With an empty TBox the regime evaluation is plain evaluation."""
    return plain_ans(q, kb)


class TestDepthIndependence:
    def test_deeper_chase_does_not_change_answers(self):
        for kb_name, q_name in (
            ("ex1.kb", "ex1.sq"),
            ("ex1.kb", "ex5.sq"),
            ("ex1.kb", "ex6.sq"),
            ("ex7.kb", "ex7.sq"),
        ):
            kb, q = load_kb(kb_name), load_query(q_name)
            for name, fn in SEMANTICS.items():
                if name in ("plain",):
                    continue
                try:
                    shallow = fn(q, kb)
                except QueryShapeError:
                    continue
                assert shallow == fn(q, kb, depth=12), (kb_name, q_name, name)


class TestSlotRowEngine:
    """The engine runs on names and slot rows, and reads the chase on
    demand, walking the type graph from the values a join's left operand
    binds.  The SolutionMapping-level references in reference.py, and the
    engine's own evaluation over the materialized chase, define what it
    must return."""

    CHASE_READERS = {"certain-ucq", "regime", "canonical", "restricted", "mcan", "mcan-sjo"}

    @pytest.mark.parametrize("seed", [3, 11, 17, 23, 31])
    def test_every_semantics_matches_the_reference(self, seed):
        functions = dict(SEMANTICS, **{"mcan-sjo": m_can_ans_sjo})
        for kb, q in islice(generate_instances(seed, SizeParams()), 400):
            for name, fn in functions.items():
                try:
                    answers = fn(q, kb)
                except QueryShapeError:
                    with pytest.raises(QueryShapeError):
                        reference.SEMANTICS[name](q, kb)
                    continue
                assert answers == reference.SEMANTICS[name](q, kb), (name, serialize_query(q))
                materialized, bounds = reference.materialized(fn, q, kb)
                assert answers == materialized, (name, serialize_query(q))
                assert bool(bounds) == (name in self.CHASE_READERS), name
            for bound in (0, 1, 2, default_bound(kb, q)):
                cg = chase(kb, bound)
                for x in {q} | branch(q):
                    lazy, full = evaluate(x, cg), evaluate(x, cg.graph.index)
                    assert (lazy.vars, lazy.rows) == (full.vars, full.rows), (
                        bound, serialize_query(x))

    def test_the_reference_run_reads_nothing_memoized(self, monkeypatch):
        """`reference.materialized` makes its own evaluations, over the
        materialized chase, after the engine has memoized its rows: it
        never calls the engine's `evaluate_once`."""
        functions = dict(SEMANTICS, **{"mcan-sjo": m_can_ans_sjo})
        sources = []
        memo_reads = []

        def counted(q, source):
            sources.append(source)
            return evaluate(q, source)

        def once(q, cg):
            memo_reads.append(q)
            return evaluate_once(q, cg)

        monkeypatch.setattr(reference, "evaluate", counted)
        monkeypatch.setattr(sparqlkb.semantics, "evaluate_once", once)
        checked = 0
        for kb, q in islice(generate_instances(3, SizeParams()), 40):
            for name in self.CHASE_READERS:
                try:
                    answers = functions[name](q, kb)
                except QueryShapeError:
                    continue
                assert memo_reads, name
                memo_reads.clear()
                sources.clear()
                assert reference.materialized(functions[name], q, kb)[0] == answers
                assert memo_reads == [], name
                assert sources and all(isinstance(s, dict) for s in sources), name
                checked += 1
        assert checked >= 100


class TestSharedEvaluation:
    """The semantics that read the chase share one evaluation of each query
    over each chase, through `evaluate_once`, which keeps it on the chase;
    `eval` and the library functions read it alike."""

    def test_a_check_run_evaluates_each_query_once_per_chase(self, monkeypatch):
        calls = []

        def counted(q, source):
            calls.append((q, source))
            return evaluate(q, source)

        monkeypatch.setattr(sparqlkb.semantics, "evaluate", counted)
        covered = set()
        for kb, q in islice(generate_instances(5, SizeParams()), 80):
            kb = KnowledgeBase.of_encoded(kb.tbox, kb.encoded)
            calls.clear()
            for name in SEMANTICS:
                for req_id in range(1, 6):
                    check_requirement(req_id, name, q, kb)
            keys = [(x, id(source)) for x, source in calls]
            assert len(keys) == len(set(keys)), serialize_query(q)
            over_chase = {x for x, source in calls if isinstance(source, ChaseGraph)}
            operands = {q.left, q.right} if isinstance(q, (OptQ, UnionQ)) else set()
            covered.add(type(q))
            if operands & over_chase:
                covered.add("operand")
            if over_chase - operands - {q}:
                covered.add("branch")
        assert {OptQ, UnionQ, "operand", "branch"} <= covered

    def test_the_memos_of_one_kb_are_capped(self):
        """One KB asked 40 distinct queries at each of 20 depths keeps the
        chases of the last _CHASES depths, and each chase the answers of
        the last _ANSWERS queries."""
        kb = parse_kb("TBOX: A [= exists r . exists inv(r) [= A . ABOX: A(a) . r(a, b) .")
        queries = [TriplePattern("r", (X, Var(f"y{i}"))) for i in range(40)]
        expected = [can_ans(q, kb) for q in queries]
        for depth in range(20):
            assert [can_ans(q, kb, depth) for q in queries] == expected
        chases = kb.derived["chase"][1]
        assert list(chases) == list(range(20))[-chase_module._CHASES:]
        for cg in chases.values():
            assert list(cg.answers) == queries[-chase_module._ANSWERS:]

    @pytest.mark.parametrize("name", sorted(SEMANTICS))
    def test_eval_leaves_nothing_it_derived_alive(self, name, monkeypatch):
        """`eval` reads ans(q) through `evaluate_once`, as the library does,
        and what a request derives lives on its KB: once `main` returns,
        refcounting alone, with the collector off, has freed every model,
        chase and answer set that the request derived."""
        models, reads = [], []
        derive = chase_module._derive
        monkeypatch.setattr(chase_module, "_derive", lambda kb: models.append(1) or derive(kb))
        monkeypatch.setattr(
            sparqlkb.semantics, "evaluate_once", lambda q, cg: reads.append(1) or evaluate_once(q, cg)
        )

        def alive() -> set[int]:
            kinds = (ChaseGraph, chase_module._Model, Rows)
            return {id(o) for o in gc.get_objects() if isinstance(o, kinds)}

        gc.collect()
        before = alive()
        gc.disable()
        try:
            codes = [
                main(["eval", "--kb", str(FIXTURES / "ex7.kb"), "--query", str(FIXTURES / query),
                      "--semantics", name], out=io.StringIO())
                for query in ("ex1.sq", "ex7.sq")
            ]
            left = alive() - before
        finally:
            gc.enable()
        # certain-ucq rejects the OPT query ex7.sq
        assert codes == [EXIT_OK, EXIT_USAGE if name == "certain-ucq" else EXIT_OK]
        assert bool(models) == (name != "plain")
        assert bool(reads) == (name in TestSlotRowEngine.CHASE_READERS)
        assert left == set()


def _chased_instances():
    """The first 300 instances of three generated streams, each at the
    default chase bound and at bounds 1 and 4, with its chase."""
    for seed in (3, 7, 606):
        for kb, q in islice(generate_instances(seed, SizeParams()), 300):
            for depth in (None, 1, 4):
                yield kb, q, depth, chase(kb, default_bound(kb, q) if depth is None else depth)


def _holds_witness(row, adom) -> bool:
    return any(name is not None and name not in adom for name in row)


class TestWitnessRows:
    """▷, ▶ and ⊗ change only the rows that hold a witness.  ▶ leaves every
    other row as it is, and the domain of each row of ans(qb) is in
    adm(qb), so ⊗ adm(qb) leaves it too: the semantics run their post-ops
    on the witness rows alone."""

    def test_every_branch_row_has_an_admissible_domain(self):
        checked = 0
        for kb, q, depth, cg in _chased_instances():
            for qb in branch(q):
                rows = evaluate(qb, cg)
                for row in rows.rows:
                    dom = frozenset(Var(v) for v, name in zip(rows.vars, row) if name is not None)
                    assert is_admissible(qb, dom), (serialize_query(qb), row)
                checked += len(rows)
        assert checked >= 10_000

    def test_no_semantics_returns_a_witness_name(self):
        rows_seen = 0
        for kb, q, depth, _ in _chased_instances():
            for name, rows_of in ROWS.items():
                try:
                    rows = rows_of(q, kb, depth)
                except QueryShapeError:
                    continue
                for row in rows.rows:
                    assert not any(v is not None and v.startswith("_:") for v in row), name
                rows_seen += len(rows)
        assert rows_seen >= 5_000

    def test_answer_sets_with_and_without_witness_rows_match_the_reference(self):
        mixed = 0
        for kb, q, depth, cg in _chased_instances():
            held = [_holds_witness(row, kb.encoded.adom) for row in evaluate(q, cg).rows]
            if all(held) or not any(held):
                continue
            mixed += 1
            bound = default_bound(kb, q) if depth is None else depth
            with mock.patch.object(reference, "default_bound", lambda kb, q: bound):
                for name in ("canonical", "restricted", "mcan"):
                    expected = reference.SEMANTICS[name](q, kb)
                    assert SEMANTICS[name](q, kb, depth) == expected, (name, serialize_query(q))
        assert mixed >= 100

    @pytest.mark.parametrize("shape", ["nested-opt", "teaching-opt"])
    def test_witness_free_answers_skip_the_post_ops(self, shape, monkeypatch):
        if shape == "nested-opt":
            # an empty TBox and a chain of 10 OPTs: the chase adds no witness
            text = "A(?x)"
            for i in range(10):
                text = f"OPT({text}, p{i}(?x, ?y{i}))"
            kb = parse_kb(
                "TBOX: ABOX: A(a) . A(b) . A(c) . p1(a, b) . p1(a, c) . p4(a, d) . "
                "p4(b, a) . p9(c, c) . p9(c, d) ."
            )
            q = parse_query(text)
        else:
            # the witnesses are bound to ?y only, which the SELECT drops
            kb, q = parse_kb(teaching_kb_text()), parse_query(TEACHING_QUERY)
        names = ("canonical", "restricted", "mcan")
        expected = {name: SEMANTICS[name](q, kb) for name in names}
        assert all(expected.values())

        def unreachable(*args):
            raise AssertionError("a post-op ran on a witness-free row")

        monkeypatch.setattr(sparqlkb.semantics, "restrict_project", unreachable)
        monkeypatch.setattr(sparqlkb.semantics, "_restrict_domains", unreachable)
        for name in names:
            assert SEMANTICS[name](q, kb) == expected[name] == reference.SEMANTICS[name](q, kb)
