"""Requirement checks, brute-force oracles, generator, and differential runs."""

import gc
import hashlib
from collections import Counter
from itertools import islice

import pytest

import reference
from conftest import load_kb, load_query, m, ms
from reference import brute_force_cq_matches
from sparqlkb import chase as chase_module
from sparqlkb import harness
from sparqlkb import query as query_module
from sparqlkb.chase import ChaseGraph
from sparqlkb.errors import SparqlKbError, UnsatisfiableKbError
from sparqlkb.graph import Graph, Rows
from sparqlkb.harness import (
    SizeParams,
    brute_force_adm,
    check_requirement,
    describe_instance,
    differential,
    generate_instances,
)
from sparqlkb.kb import KnowledgeBase, Var, parse_kb, serialize_kb
from sparqlkb.query import (
    JoinQ,
    OptQ,
    TriplePattern,
    adm,
    parse_query,
    serialize_query,
)
from sparqlkb.semantics import ROWS, SEMANTICS, is_ucq_shape

X, Y = Var("x"), Var("y")


def _opt_chain(k: int, var: str) -> str:
    """Query text of a left-deep chain of k OPTs over A(?x), its i-th step
    binding ?{var}{i}: it has 2^k admissible variable sets."""
    text = "A(?x)"
    for i in range(k):
        text = f"OPT({text}, r(?x, ?{var}{i}))"
    return text


class TestCheckRequirement:
    def test_invalid_requirement_id(self):
        with pytest.raises(ValueError):
            check_requirement(6, "mcan", load_query("ex1.sq"), load_kb("ex1.kb"))

    def test_unknown_semantics_names_the_known_ones(self):
        with pytest.raises(ValueError, match="plain, certain-ucq, regime, canonical, restricted, mcan"):
            check_requirement(1, "nope", load_query("ex1.sq"), load_kb("ex1.kb"))

    def test_certain_answer_compliance_pass_and_fail(self):
        kb, q = load_kb("ex1.kb"), load_query("ex5.sq")
        assert check_requirement(1, "mcan", q, kb).verdict == "pass"
        report = check_requirement(1, "regime", q, kb)
        assert report.verdict == "fail"
        assert report.counterexamples == (m(x="Alice"),)

    def test_certain_answer_check_skips_non_ucqs(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        assert check_requirement(1, "mcan", q, kb).verdict == "not-applicable"

    def test_plain_compliance_needs_an_empty_tbox(self):
        kb, q = load_kb("ex2.kb"), load_query("ex2.sq")
        assert check_requirement(2, "mcan", q, kb).verdict == "pass"
        assert (
            check_requirement(2, "mcan", q, load_kb("ex1.kb")).verdict
            == "not-applicable"
        )

    def test_optional_extension_fails_for_canonical(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        report = check_requirement(3, "canonical", q, kb)
        assert report.verdict == "fail"
        assert report.counterexamples == (m(x="Alice"),)
        assert check_requirement(3, "mcan", q, kb).verdict == "pass"

    def test_variable_binding_fails_for_restricted(self):
        kb, q = load_kb("ex7.kb"), load_query("ex7.sq")
        report = check_requirement(4, "restricted", q, kb)
        assert report.verdict == "fail"
        assert report.counterexamples == (m(x="Alice", z="Alice"),)
        assert check_requirement(4, "mcan", q, kb).verdict == "pass"

    def test_provenance_needs_a_union(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        assert check_requirement(5, "mcan", q, kb).verdict == "not-applicable"
        union_q = parse_query("UNION( Driver(?x), hasLicense(?x, ?y) )")
        assert check_requirement(5, "mcan", union_q, kb).verdict == "pass"

    def test_shape_limited_semantics_report_not_applicable(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        assert (
            check_requirement(4, "certain-ucq", q, kb).verdict == "not-applicable"
        )

    def test_report_serialization(self):
        kb, q = load_kb("ex7.kb"), load_query("ex7.sq")
        d = check_requirement(4, "restricted", q, kb, instance="ex7").to_dict()
        assert d["verdict"] == "fail"
        assert d["instance"] == "ex7"
        assert d["counterexamples"] == [{"?x": "Alice", "?z": "Alice"}]

    @pytest.mark.parametrize(
        "q_text",
        [_opt_chain(24, "y"), f"UNION({_opt_chain(12, 'y')}, {_opt_chain(12, 'z')})"],
        ids=["chain-24", "union-of-chains-12"],
    )
    def test_admissibility_builds_no_adm_family(self, monkeypatch, q_text):
        """Requirements 4 and 5 decide admissibility from the base families:
        a chain of 24 OPTs has 2^24 admissible sets, and none is built."""

        def refuse(q):
            raise AssertionError("adm materialized")

        monkeypatch.setattr(query_module, "adm", refuse)
        assert not hasattr(harness, "adm")
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) . A(b) . r(a, c) . B(d) . A(e) .")
        q = parse_query(q_text)
        verdicts = Counter()
        for name in SEMANTICS:
            for req_id in range(1, 6):
                report = check_requirement(req_id, name, q, kb)
                verdicts[name, report.verdict] += 1
        assert verdicts["mcan", "fail"] == 0
        assert verdicts["mcan", "pass"] >= 1


class TestAnswerMemo:
    """check_requirement evaluates each semantics once per (query, KB), and
    keeps the rows with the KB."""

    @pytest.mark.parametrize(
        ("kb_text", "q_text"),
        [
            ("TBOX: ABOX: Person(Alice) . hasLicense(Bob, L1) .",
             "OPT( Person(?x), hasLicense(?x, ?y) )"),
            ("TBOX: Driver [= exists hasLicense . ABOX: Driver(Alice) .",
             "UNION( SELECT{x}( hasLicense(?x, ?y) ), Driver(?x) )"),
        ],
    )
    def test_each_semantics_runs_once_per_query(self, monkeypatch, kb_text, q_text):
        kb, q = parse_kb(kb_text), parse_query(q_text)
        calls = Counter()

        def counting(name, fn):
            def run(query, kb):
                calls[name, query] += 1
                return fn(query, kb)

            return run

        for name, fn in list(ROWS.items()):
            monkeypatch.setitem(ROWS, name, counting(name, fn))
        for name in ROWS:
            for req_id in range(1, 6):
                check_requirement(req_id, name, q, kb)
        assert {query for _, query in calls} <= {q, q.left, q.right}
        assert all(calls[name, q] == 1 for name in ROWS), calls
        assert max(calls.values()) == 1, calls

    @pytest.mark.parametrize("seed", [3, 41])
    def test_reports_equal_uncached_reports(self, seed):
        """A report equals the one computed on an equal fresh KB, whose memo
        is empty, and the one computed with no memo at all, by the
        SolutionMapping oracle."""
        checks = [(r, name) for name in SEMANTICS for r in range(1, 6)]
        for kb, q in islice(generate_instances(seed, SizeParams()), 150):
            memoized = [check_requirement(r, name, q, kb).to_dict() for r, name in checks]
            fresh = []
            for r, name in checks:
                cold = KnowledgeBase.of_encoded(kb.tbox, kb.encoded)
                fresh.append(check_requirement(r, name, q, cold).to_dict())
            plain = [reference.check_requirement(r, name, q, kb).to_dict() for r, name in checks]
            assert memoized == fresh == plain, describe_instance(kb, q)

    @pytest.mark.parametrize(("req_id", "name"), [(1, "plain"), (3, "mcan"), (4, "regime")])
    def test_unsatisfiable_kb_raises_every_time(self, req_id, name):
        kb = parse_kb("TBOX: A [= not B . ABOX: A(c) . B(c) .")
        q = parse_query("A(?x)")
        for _ in range(2):
            with pytest.raises(UnsatisfiableKbError):
                check_requirement(req_id, name, q, kb)

    def test_certain_ucq_is_not_applicable_to_opt(self):
        kb, q = load_kb("ex1.kb"), load_query("ex6.sq")
        verdicts = {check_requirement(r, "certain-ucq", q, kb).verdict for r in range(1, 6)}
        assert verdicts == {"not-applicable"}

    def test_a_check_run_leaves_nothing_it_derived_alive(self):
        """What a check run derives lives on its KBs: once it drops them,
        refcounting alone, with the collector off, has freed every KB,
        model, chase and row set that it derived."""
        kinds = (KnowledgeBase, chase_module._Model, ChaseGraph, Rows)

        def alive() -> set[int]:
            return {id(o) for o in gc.get_objects() if isinstance(o, kinds)}

        gc.collect()
        before = alive()
        gc.disable()
        try:
            stream = generate_instances(7, SizeParams())
            instances = list(islice(stream, 40))
            for kb, q in instances:
                for name in SEMANTICS:
                    for req_id in range(1, 6):
                        check_requirement(req_id, name, q, kb)
            del stream, instances, kb, q
            left = alive() - before
        finally:
            gc.enable()
        assert left == set()


class TestRowChecks:
    """The requirements are checked on slot rows; the SolutionMapping check
    that ran before (`reference.check_requirement`) is the oracle."""

    def test_reports_equal_the_mapping_oracle(self):
        verdicts = Counter()
        unbound = empty_select = 0
        for seed in (3, 5, 7, 41):
            for kb, q in islice(generate_instances(seed, SizeParams()), 500):
                for name in SEMANTICS:
                    for r in range(1, 6):
                        report = check_requirement(r, name, q, kb).to_dict()
                        assert report == reference.check_requirement(r, name, q, kb).to_dict(), (
                            r, name, describe_instance(kb, q))
                        verdicts[report["verdict"]] += 1
                rows = [found for found in kb.derived["checks"].values() if found is not None]
                unbound += any(None in row for found in rows for row in found.rows)
                empty_select += any(found.vars == () and found.rows for found in rows)
        assert sum(verdicts.values()) == 2000 * 6 * 5
        assert verdicts["fail"] >= 200, verdicts
        # rows with unbound slots, and the one row () of a SELECT{}
        assert unbound >= 100 and empty_select >= 10, (unbound, empty_select)


class TestBruteForceAdm:
    def test_agrees_with_inductive_adm_on_fixtures(self):
        for name in ("ex1.sq", "ex2.sq", "ex3.sq", "ex5.sq", "ex6.sq", "ex7.sq"):
            q = load_query(name)
            assert brute_force_adm(q) == adm(q), name

    def test_rejects_oversized_queries(self):
        q = TriplePattern("r", (X, Y))
        for i in range(6):
            q = JoinQ(q, TriplePattern("r", (Var(f"a{i}"), Var(f"b{i}"))))
        with pytest.raises(SparqlKbError):
            brute_force_adm(q, var_limit=10)


class TestBruteForceCqMatches:
    def test_projection_and_join(self):
        kb = load_kb("ex3.kb")
        q = parse_query("SELECT{x}( JOIN( teachesTo(?x, ?y), knows(?y, ?z) ) )")
        assert brute_force_cq_matches(q, Graph(kb.abox)) == frozenset({m(x="Alice")})

    def test_rejects_optional(self):
        from sparqlkb.errors import QueryShapeError

        with pytest.raises(QueryShapeError):
            brute_force_cq_matches(load_query("ex2.sq"), Graph(frozenset()))


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = list(islice(generate_instances(5, SizeParams()), 25))
        b = list(islice(generate_instances(5, SizeParams()), 25))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(islice(generate_instances(5, SizeParams()), 25))
        b = list(islice(generate_instances(6, SizeParams()), 25))
        assert a != b

    def test_instances_round_trip_and_are_satisfiable(self):
        from sparqlkb.chase import is_satisfiable

        for kb, q in islice(generate_instances(13, SizeParams()), 40):
            assert parse_kb(serialize_kb(kb)) == kb
            assert parse_query(serialize_query(q)) == q
            assert is_satisfiable(kb)

    def test_jo_mode_emits_only_join_opt_queries(self):
        from sparqlkb.query import is_jo

        for _, q in islice(generate_instances(17, SizeParams(), jo_only=True), 40):
            assert is_jo(q)

    @pytest.mark.parametrize(
        "field", ["concepts", "roles", "individuals", "max_triple_patterns", "max_nesting"]
    )
    def test_a_negative_size_is_refused(self, field):
        """A size slices a pool, so a negative one would draw from the
        pool's end; zero draws from none."""
        with pytest.raises(ValueError, match=f"SizeParams.{field} "):
            SizeParams(**{field: -1})
        next(generate_instances(1, SizeParams(**{field: 0})))

    def test_stream_contains_ucq_shapes(self):
        shapes = [
            is_ucq_shape(q)
            for _, q in islice(generate_instances(19, SizeParams()), 80)
        ]
        assert any(shapes) and not all(shapes)


class TestStream:
    """The generated stream is pinned: sha256 over serialize_kb(kb) +
    serialize_query(q) of its first 200 instances."""

    @pytest.mark.parametrize(
        ("seed", "jo_only", "digest"),
        [
            (1, False, "0f44248b2307a728513ace5b51a9e662a8fa082b488ba70f413854cede1ba9a9"),
            (7, False, "a72aae84fb1afa4c295a52ced300abe15688faf8c7d0175ef8af2b1b6c7b0552"),
            (29, False, "ab5d7d2b283748823eef7c906456bbc9d225c778af3cc196ce5bc8546982972d"),
            (1, True, "70b2c3bc57c1a1ee1f870c4d01db4bcc2b83893778ea5c64588b15796f6f45c2"),
            (7, True, "52e9aa6dd9ef1fa54c97a71f4c6130414408f98f19b172777bc9281e279343c2"),
            (29, True, "bcf64677cd30d8df48430a554846e5cbc9d407be14e64fb0fa575b770d733fca"),
        ],
    )
    def test_first_instances_are_unchanged(self, seed, jo_only, digest):
        h = hashlib.sha256()
        for kb, q in islice(generate_instances(seed, jo_only=jo_only), 200):
            h.update((serialize_kb(kb) + serialize_query(q)).encode())
        assert h.hexdigest() == digest


class TestDifferential:
    def test_all_semantics_agree_on_complete_data(self):
        kb = parse_kb("TBOX: ABOX: Driver(Alice) . hasLicense(Alice, L1) .")
        q = load_query("ex1.sq")
        report = differential(q, kb)
        values = set(report.answers.values())
        assert values == {frozenset({m(x="Alice")})}
        assert set(report.relations.values()) == {"="}

    def test_restricted_extends_canonical_on_incomplete_data(self):
        report = differential(load_query("ex6.sq"), load_kb("ex1.kb"))
        assert report.answers["canonical"] == frozenset()
        assert report.relations[("canonical", "restricted")] == "subset"
        assert report.relations[("restricted", "mcan")] in ("=", "extends-into", "extended-by")

    @pytest.mark.parametrize("o1, o2, verdict", [
        (ms(m(x="a")), ms(m(x="a")), "="),
        (ms(), ms(m(x="a")), "subset"),
        (ms(m(x="a"), m(x="b")), ms(m(x="a")), "superset"),
        (ms(m(x="a")), ms(m(x="a", y="b")), "extends-into"),
        (ms(m(x="a"), m(x="b")), ms(m(x="a", y="c"), m(x="b"), m(x="d")), "extends-into"),
        (ms(m(x="a", y="b")), ms(m(x="a"), m(y="b")), "extended-by"),
        # each extends into the other, and extends-into is asked first
        (ms(m(x="a"), m(x="a", y="b")), ms(m(x="a", y="b"), m(y="b")), "extends-into"),
        (ms(m(x="a")), ms(m(x="b")), "incomparable"),
        (ms(m(x="a"), m(x="b", y="c")), ms(m(x="a", y="d"), m(x="b")), "incomparable"),
    ])
    def test_relation_of_hand_built_answer_sets(self, o1, o2, verdict):
        assert harness._relation(o1, o2) == verdict

    def test_describe_mentions_sizes(self):
        desc = describe_instance(load_kb("ex1.kb"), load_query("ex1.sq"))
        assert "1ax" in desc and "1facts" in desc
