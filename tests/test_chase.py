"""TBox saturation, the deterministic chase, and satisfiability."""

import gc
import random
from itertools import chain, combinations, islice, product

import pytest

from conftest import load_kb, load_query, m, ms
import reference
from sparqlkb import chase as chase_module, kb as kb_module
from sparqlkb.chase import (
    ChaseGraph,
    SaturatedTBox,
    chase,
    default_bound,
    entailed_abox,
    is_satisfiable,
    model_bound,
    saturate,
    witness_count,
)
from sparqlkb.errors import QueryShapeError, UnsatisfiableKbError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import (
    Atom,
    BasicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    Var,
    anonymous,
    exists,
    individual,
    parse_kb,
)
from sparqlkb.graph import evaluate
from sparqlkb.query import JoinQ, OptQ, TriplePattern, parse_query, triple_pattern_count
from sparqlkb.semantics import SEMANTICS, can_ans, er_ans, m_can_ans


class TestSaturate:
    def test_single_axiom_closure_is_reflexive_plus_axiom(self):
        kb = load_kb("ex1.kb")
        sat = saturate(kb.tbox)
        driver = BasicConcept("atomic", "Driver")
        has = exists(RoleExpr("hasLicense"))
        assert has in sat.implied[driver]
        assert driver in sat.implied[driver]
        assert driver not in sat.implied[has]

    def test_role_inclusion_lifts_to_existentials(self):
        kb = load_kb("ex7.kb")
        sat = saturate(kb.tbox)
        teaches = RoleExpr("teachesTo")
        taught_by = RoleExpr("hasTeacher", inverse=True)
        assert taught_by in sat.super_roles(teaches)
        assert taught_by.inverted() in sat.super_roles(teaches.inverted())
        assert exists(taught_by) in sat.implied[exists(teaches)]
        assert exists(RoleExpr("hasTeacher")) in sat.implied[exists(teaches.inverted())]

    def test_empty_tbox_saturates_to_nothing(self):
        sat = saturate(frozenset())
        assert sat.supers == {}
        assert sat.implied == {}
        assert sat.disjoint == frozenset()
        assert sat.role_names == frozenset()

    def test_disjointness_propagates_down_the_hierarchy(self):
        """A concept below one side of a declared disjointness, atomic or
        existential, clashes with the other side."""
        for tbox, fact in (
            ("Student [= Person . Person [= not Robot .", "Student(a)"),
            ("exists r [= Person . Person [= not Robot .", "r(a, b)"),
        ):
            assert not is_satisfiable(parse_kb(f"TBOX: {tbox} ABOX: {fact} . Robot(a) ."))
            assert is_satisfiable(parse_kb(f"TBOX: {tbox} ABOX: {fact} . Robot(c) ."))

    def test_saturation_is_a_fixpoint(self):
        kb = load_kb("ex7.kb")
        sat = saturate(kb.tbox)
        for b, cs in sat.implied.items():
            assert all(sat.implied[c] <= cs for c in cs), b
        for r, ss in sat.supers.items():
            assert all(set(sat.super_roles(s)) <= set(ss) for s in ss), r


def _random_tbox(rng: random.Random) -> frozenset:
    """1 to 25 axioms over 6 concepts and 4 roles, inverses included."""
    concepts, roles = "ABCDEF", "rstu"

    def basic() -> BasicConcept:
        kind = rng.choice(["atomic", "atomic", "exists", "exists_inv"])
        return BasicConcept(kind, rng.choice(concepts if kind == "atomic" else roles))

    def role() -> RoleExpr:
        return RoleExpr(rng.choice(roles), rng.random() < 0.4)

    tbox: set = set()
    for _ in range(rng.randint(1, 25)):
        axiom, make = rng.choice([
            (ConceptInclusion, basic), (ConceptInclusion, basic),
            (RoleInclusion, role), (ConceptDisjointness, basic),
        ])
        lhs, rhs = make(), make()
        if lhs != rhs:
            tbox.add(axiom(lhs, rhs))
    return frozenset(tbox)


def _count_calls(monkeypatch, name: str) -> list:
    """Records the arguments of every call of the chase module's function
    `name` from here on."""
    calls = []
    fn = getattr(chase_module, name)
    monkeypatch.setattr(chase_module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _count_types(monkeypatch) -> list:
    """Records every type derived from here on, with `saturate`'s cache and
    every KB's model cleared."""
    saturate.cache_clear()
    chase_module._DERIVED.clear()
    return _count_calls(monkeypatch, "_type")


def _closure_tboxes() -> list[frozenset]:
    """600 `_random_tbox` TBoxes and those of the first 200 instances of
    `generate_instances` seeds 3, 7 and 606."""
    tboxes = [_random_tbox(random.Random(seed)) for seed in range(600)]
    for seed in (3, 7, 606):
        tboxes.extend(kb.tbox for kb, _ in islice(generate_instances(seed, SizeParams()), 200))
    return tboxes


class TestClosure:
    def test_one_search_per_node_equals_the_fixpoint(self):
        """`saturate`'s lookups and every type read off them equal the
        naive pair closures': on each basic concept and each pair of them."""
        clashes = fired = 0
        tboxes = _closure_tboxes()
        assert len(tboxes) >= 1000
        for tbox in tboxes:
            sat, ref = saturate.__wrapped__(tbox), reference.closure_tbox(tbox)
            assert sat.role_names == ref.role_names
            assert sat.supers == ref.supers()
            assert sat.implied == ref.implied()
            basics = sorted(sat.implied)
            for satisfied in chain(combinations(basics, 1), combinations(basics, 2)):
                typ = chase_module._type(set(satisfied), sat)
                assert typ == reference.closure_type(set(satisfied), ref), (tbox, satisfied)
                clashes += typ.clash
                fired += bool(typ.fire)
        assert clashes > 1000 and fired > 1000


class TestChase:
    def test_single_existential_step(self):
        cg = chase(load_kb("ex1.kb"), 1)
        assert sorted(str(a) for a in cg.graph) == [
            "Driver(Alice)",
            "hasLicense(Alice, _:Alice|hasLicense)",
        ]
        assert dict(_witnesses(cg))[_w("Alice|hasLicense")] == 1

    def test_role_inclusion_consequences_are_materialized(self):
        cg = chase(load_kb("ex7.kb"), 1)
        assert sorted(str(a) for a in cg.graph) == [
            "Teacher(Alice)",
            "hasTeacher(_:Alice|teachesTo, Alice)",
            "teachesTo(Alice, _:Alice|teachesTo)",
        ]

    def test_empty_tbox_chase_is_the_abox(self):
        kb = load_kb("ex3.kb")
        cg = chase(kb, 5)
        assert cg.graph.atoms == kb.abox
        assert _witnesses(cg) == []

    def test_no_witness_beyond_the_bound(self):
        kb = parse_kb("TBOX: A [= exists r . exists inv(r) [= A . ABOX: A(a) .")
        depths = [d for _, d in _witnesses(chase(kb, 3))]
        assert depths and max(depths) <= 3

    def test_witness_names_encode_their_paths(self):
        kb = parse_kb("TBOX: A [= exists r . exists inv(r) [= exists s . ABOX: A(a) .")
        cg = chase(kb, 2)
        names = {name for name, _ in _witnesses(cg)}
        assert names == {"_:a|r", "_:a|r|s"}

    def test_inverse_requirement_marks_the_path_segment(self):
        kb = parse_kb("TBOX: A [= exists inv(r) . ABOX: A(a) .")
        cg = chase(kb, 1)
        assert sorted(str(a) for a in cg.graph) == ["A(a)", "r(_:a|r-, a)"]

    def test_restricted_chase_reuses_existing_successors(self):
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) . r(a, b) .")
        cg = chase(kb, 3)
        assert _witnesses(cg) == []

    def test_of_equivalent_roles_the_first_fires(self):
        kb = parse_kb(
            "TBOX: A [= exists s . A [= exists r . r [= s . s [= r . ABOX: A(a) ."
        )
        cg = chase(kb, 1)
        assert sorted(str(a) for a in cg.graph) == [
            "A(a)", "r(a, _:a|r)", "s(a, _:a|r)",
        ]

    def test_no_duplicate_witness_per_role(self):
        for kb, q in islice(generate_instances(23, SizeParams()), 60):
            cg = chase(kb, default_bound(kb, q))
            seen = set()
            for name, _ in _witnesses(cg):
                parent, _, step = name.rpartition("|")
                assert (parent, step) not in seen
                seen.add((parent, step))

    def test_a_witness_type_depends_only_on_its_role(self):
        """Witnesses created through the same role (the same last path
        segment) and expanded below the bound have equal atomic concepts
        and equal child segments."""
        for kb, q in islice(generate_instances(23, SizeParams()), 60):
            cg = chase(kb, default_bound(kb, q))
            concepts: dict[str, set[str]] = {}
            children: dict[str, set[str]] = {}
            for atom in cg.graph.atoms:
                if len(atom.args) == 1 and not atom.args[0].is_individual:
                    concepts.setdefault(atom.args[0].name, set()).add(atom.predicate)
            for name, _ in _witnesses(cg):
                parent, _, step = name.rpartition("|")
                children.setdefault(parent, set()).add(step)
            seen: dict[str, tuple] = {}
            for name, depth in _witnesses(cg):
                if depth < cg.bound:
                    step = name.rpartition("|")[2]
                    shape = (concepts.get(name, set()), children.get(name, set()))
                    assert seen.setdefault(step, shape) == shape

    def test_one_build_per_request(self, monkeypatch):
        """A request builds one chase, which a second request on the KB
        reuses; deciding satisfiability builds none."""
        chase_module._DERIVED.clear()
        built = _count_calls(monkeypatch, "ChaseGraph")
        kb = parse_kb(
            "TBOX: A [= exists r . exists inv(r) [= B . B [= not C . ABOX: A(a) ."
        )
        m_can_ans(parse_query("r(?x, ?y)"), kb)
        assert len(built) == 1
        can_ans(parse_query("r(?x, ?y)"), kb)
        assert len(built) == 1
        assert not is_satisfiable(parse_kb("TBOX: A [= not B . ABOX: A(c) . B(c) ."))
        assert len(built) == 1

    def test_one_model_per_kb(self, monkeypatch):
        """Satisfiability, witness counts, chases and the entailed ABox of a
        KB read one model: its types are derived once, and no chase extends
        the entailed ABox that the model holds."""
        derived = _count_types(monkeypatch)
        models = _count_calls(monkeypatch, "_derive")
        kb = parse_kb(
            "TBOX: A [= exists r . exists inv(r) [= A . A [= not C . ABOX: A(a) . C(b) ."
        )
        assert is_satisfiable(kb)
        types = len(derived)
        assert types > 0
        assert (witness_count(kb, 2), witness_count(kb, 4)) == (2, 4)
        assert (len(_witnesses(chase(kb, 2))), len(_witnesses(chase(kb, 4)))) == (2, 4)
        assert sorted(str(a) for a in entailed_abox(kb)) == ["A(a)", "C(b)"]
        assert len(derived) == types
        assert len(models) == 1

    def test_no_predicate_maps_to_an_empty_set(self):
        """Graph.of_index's precondition: a chase adds a predicate to its
        index only with an atom."""
        for kb, q in islice(generate_instances(7, SizeParams()), 300):
            for depth in (0, 1, default_bound(kb, q)):
                index = chase(kb, depth).graph.index
                assert [p for p, rows in index.items() if not rows] == [], depth

    def test_determinism(self):
        kb = load_kb("ex7.kb")
        first = chase(kb, 4)
        chase_module._DERIVED.clear()
        second = chase(kb, 4)
        assert second is not first
        assert first.graph == second.graph
        assert _witnesses(first) == _witnesses(second)

    def test_rejects_unsatisfiable_kb(self):
        kb = parse_kb("TBOX: A [= not B . ABOX: A(c) . B(c) .")
        with pytest.raises(UnsatisfiableKbError):
            chase(kb, 2)


class TestWitnessCount:
    @pytest.mark.parametrize("seed", [1, 7, 29])
    def test_equals_the_chase_size_at_every_depth(self, seed):
        for kb, q in islice(generate_instances(seed, SizeParams()), 200):
            for d in range(default_bound(kb, q) + 1):
                assert witness_count(kb, d) == len(_witnesses(chase(kb, d))), (seed, d)


# The TBox of the benchmark's branching-chase workload over one A
# individual: its chase doubles every two levels.
BRANCHING = parse_kb(
    "TBOX: A [= exists r . exists inv(r) [= exists s . exists inv(r) [= exists t ."
    " exists inv(s) [= exists r . exists inv(t) [= exists r . exists inv(s) [= C ."
    " C [= D . A [= not B . ABOX: A(a) ."
)


def _branching_abox(names: str) -> frozenset[Atom]:
    """An ABox over `BRANCHING`'s predicates, its five individuals named by
    the letters of names: renamings of it have the same signatures."""
    a, b, c, d, e = (individual(n) for n in names)
    return frozenset({
        Atom("A", (a,)), Atom("A", (b,)), Atom("B", (c,)),
        Atom("r", (a, c)), Atom("r", (b, d)), Atom("s", (d, e)),
    })


class TestTypesPerTBox:
    """The types are derived once per saturated TBox and shared by the
    KBs over it; each KB's model and witness records are its own."""

    def test_a_renamed_abox_derives_no_type(self, monkeypatch):
        derived = _count_types(monkeypatch)
        first = KnowledgeBase(BRANCHING.tbox, _branching_abox("abcde"))
        second = KnowledgeBase(BRANCHING.tbox, _branching_abox("vwxyz"))
        assert is_satisfiable(first)
        assert derived
        derived.clear()
        assert is_satisfiable(second)
        assert derived == []
        assert witness_count(second, 9) == witness_count(first, 9) > 0

    def test_the_signature_memo_is_bounded(self, monkeypatch):
        """More distinct signatures than the cap, over one TBox: each
        individual holds its own subset of ten TBox concepts."""
        cap = chase_module._SIGNATURE_TYPES
        derived = _count_types(monkeypatch)
        concepts = [f"C{i}" for i in range(10)]
        tbox = BRANCHING.tbox | {
            ConceptInclusion(BasicConcept("atomic", c), BasicConcept("atomic", "D"))
            for c in concepts
        }
        names = [f"i{n}" for n in range(cap + 10)]
        atoms = {
            Atom(c, (individual(name),))
            for n, name in enumerate(names)
            for i, c in enumerate(concepts)
            if n >> i & 1
        }
        atoms.update(Atom("A", (individual(name),)) for name in names[::2])
        kb = KnowledgeBase(tbox, frozenset(atoms))
        assert is_satisfiable(kb)
        assert len(derived) > cap
        assert len(saturate(kb.tbox).types) == cap
        fire = chase_module._model(kb).fire
        assert [fire[name] for name in names] == [("r",), ()] * ((cap + 10) // 2)

    def test_abox_only_predicates_derive_one_type(self, monkeypatch):
        """Predicates that the TBox never mentions make no signature: 20
        individuals with pairwise distinct ones share the empty type."""
        derived = _count_types(monkeypatch)
        atoms = {
            Atom(f"P{j}", (individual(f"i{n}"),)) for n in range(20) for j in range(n + 1)
        }
        kb = KnowledgeBase(frozenset(), frozenset(atoms))
        assert is_satisfiable(kb)
        assert len(derived) == 1
        assert len(chase_module._model(kb).fire) == 20

    def test_a_name_of_both_arities(self):
        """A KB built through its constructor can use a TBox concept as a
        binary predicate and a TBox role as a unary one: only the concept's
        unary facts and the role's binary facts type an individual."""
        a, b, c, d, e, f = (individual(n) for n in "abcdef")
        kb = KnowledgeBase(
            parse_kb(
                "TBOX: A [= exists r . exists inv(r) [= B . B [= not C . ABOX: A(a) ."
            ).tbox,
            frozenset({
                Atom("A", (a,)), Atom("A", (b, c)), Atom("r", (d,)), Atom("r", (e, f)),
            }),
        )
        for ans in (can_ans, m_can_ans):
            assert ans(parse_query("A(?x)"), kb) == ms(m(x="a"))
            assert ans(parse_query("B(?x)"), kb) == ms(m(x="f"))
            assert ans(parse_query("A(?x, ?y)"), kb) == ms(m(x="b", y="c"))
            assert ans(parse_query("r(?x)"), kb) == ms(m(x="d"))
        q = parse_query("SELECT{x}(JOIN(A(?x), r(?x, ?y)))")
        assert can_ans(q, kb) == ms(m(x="a"))
        assert er_ans(q, kb) == ms()
        assert " ".join(sorted(map(str, chase(kb, 2).graph))) == (
            "A(a) A(b, c) B(_:a|r) B(f) r(a, _:a|r) r(d) r(e, f)"
        )
        assert witness_count(kb, 3) == 1

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_clash_one_kb_reaches_leaves_another_satisfiable(self, first):
        """The witnesses made through r hold the disjoint B and C: a KB
        with an A-individual reaches them, one without does not."""
        tbox = parse_kb(
            "TBOX: A [= exists r . exists inv(r) [= B . exists inv(r) [= C . B [= not C ."
            " ABOX: D(d) ."
        ).tbox
        kbs = [
            KnowledgeBase(tbox, frozenset({Atom("A", (individual("a"),))})),
            KnowledgeBase(tbox, frozenset({Atom("D", (individual("d"),))})),
        ]
        saturate.cache_clear()
        chase_module._DERIVED.clear()
        verdicts = {i: is_satisfiable(kbs[i]) for i in (first, 1 - first)}
        assert verdicts == {0: False, 1: True}
        assert [chase_module._model(kb).witness.keys() for kb in kbs] == [{"r"}, set()]

    def test_models_equal_a_derivation_with_empty_caches(self):
        """The slow oracle: each generated TBox over its own ABox and the
        next two instances' ABoxes, so that three KBs share its types.  The
        models read with the types the earlier KBs left equal the models
        derived with `saturate` and every KB's model cleared."""
        kbs = [
            kb
            for seed in (3, 7, 606)
            for kb, _ in islice(generate_instances(seed, SizeParams()), 340)
        ]
        verdicts = set()
        for i, kb in enumerate(kbs):
            shared = [
                KnowledgeBase.of_encoded(kb.tbox, kbs[(i + j) % len(kbs)].encoded)
                for j in range(3)
            ]
            saturate.cache_clear()
            chase_module._DERIVED.clear()
            models = [chase_module._model(other) for other in shared]
            for other, model in zip(shared, models):
                saturate.cache_clear()
                chase_module._DERIVED.clear()
                fresh = chase_module._model(other)
                assert (model.carried, model.fire, model.witness, model.consistent) == (
                    fresh.carried, fresh.fire, fresh.witness, fresh.consistent
                ), (i, str(other))
                verdicts.add(model.consistent)
        assert verdicts == {True, False}


def _saturated_alive() -> int:
    """The number of `SaturatedTBox` objects alive after a collection."""
    gc.collect()
    return sum(isinstance(o, SaturatedTBox) for o in gc.get_objects())


class TestSaturationOnTheModel:
    """A KB's model keeps its saturated TBox, so every reader of the TBox
    reads the model, and only the ontologies that requests re-parse keep a
    saturated TBox once their KBs are dropped."""

    def test_readers_of_a_derived_model_saturate_nothing(self, monkeypatch):
        instances = list(islice(generate_instances(13, SizeParams()), 60))
        bounds = [2 * len(saturate(kb.tbox).role_names) + 1 for kb, _ in instances]
        for kb, _ in instances:
            chase_module._model(kb)
        calls = _count_calls(monkeypatch, "saturate")
        for (kb, q), bound in zip(instances, bounds):
            assert model_bound(kb) == bound
            assert default_bound(kb, q) == bound + triple_pattern_count(q)
            assert is_satisfiable(kb)
            assert witness_count(kb, bound) == len(_witnesses(chase(kb, bound)))
            assert entailed_abox(kb).index == chase(kb, 0).graph.index
        assert calls == []

    def test_dropped_models_keep_no_saturated_tbox_past_the_cache(self):
        """The models of 40 KBs with pairwise distinct TBoxes, each derived
        and dropped."""
        encoded = {}
        for kb, _ in generate_instances(17, SizeParams()):
            encoded.setdefault(kb.tbox, kb.encoded)
            if len(encoded) == 40:
                break
        del kb
        saturate.cache_clear()
        chase_module._DERIVED.clear()
        before = _saturated_alive()
        for tbox, facts in encoded.items():
            chase_module._model(KnowledgeBase.of_encoded(tbox, facts))
        assert _saturated_alive() - before <= kb_module._tbox.cache_parameters()["maxsize"]


class TestDepthStability:
    """Answers at the default bound equal those at twice it: a check well
    beyond the acceptance suite's bound + 3."""

    @staticmethod
    def _answers(name, q, kb, depth):
        try:
            return SEMANTICS[name](q, kb, depth)
        except QueryShapeError:
            return None

    def _assert_stable(self, q, kb, deep):
        for name in ("certain-ucq", "regime", "canonical", "restricted", "mcan"):
            assert self._answers(name, q, kb, None) == self._answers(name, q, kb, deep), (
                name, str(q))

    @pytest.mark.parametrize("seed, skipped", [(7, 1), (606, 0)])
    def test_generated_instances(self, seed, skipped):
        """Instances whose chase at twice the bound exceeds 20,000
        witnesses are skipped, and counted."""
        skips = 0
        for kb, q in islice(generate_instances(seed, SizeParams()), 300):
            deep = 2 * default_bound(kb, q)
            if witness_count(kb, deep) > 20_000:
                skips += 1
            else:
                self._assert_stable(q, kb, deep)
        assert skips == skipped

    @pytest.mark.parametrize("query", [
        "SELECT{x}( JOIN( A(?x), r(?x, ?y) ) )",
        "OPT( A(?x), JOIN( r(?x, ?y), s(?y, ?z) ) )",
        "SELECT{x}( JOIN( r(?x, ?y), JOIN( s(?y, ?z), JOIN( r(?z, ?w), D(?z) ) ) ) )",
        "UNION( JOIN( r(?x, ?y), C(?y) ), OPT( r(?x, ?y), t(?y, ?z) ) )",
    ])
    def test_a_tbox_whose_chase_branches(self, query):
        q = parse_query(query)
        self._assert_stable(q, BRANCHING, 2 * default_bound(BRANCHING, q))

    @pytest.mark.parametrize("kb_text, query, name", [
        pytest.param(
            "TBOX: exists inv(r) [= exists s . exists inv(s) [= exists r . ABOX: r(a, b) .",
            "SELECT{z}(OPT(JOIN(r(?x,?y), r(?x,?u)), s(?y,?z)))", "canonical",
            marks=pytest.mark.xfail(strict=True, reason=(
                "a witness at the bound has no children, so an OPT keeps the left"
                " row that its missing s-child would extend; the canonical answer"
                " alternates with the bound's parity")),
        ),
        pytest.param(
            "TBOX: A [= exists r . exists inv(r) [= exists s . exists inv(r) [= exists t ."
            " exists inv(s) [= exists r . exists inv(t) [= exists r . exists inv(s) [= C ."
            " C [= D . ABOX: A(a) . r(a, b) .",
            "OPT(OPT(r(?x,?y), s(?y,?z)), r(?z,?v))", "restricted",
            marks=pytest.mark.xfail(strict=True, reason=(
                "every raw row behind the answer {?v=b, ?z=a} at bound B holds a"
                " witness at depth B, whose missing children the OPTs cannot see")),
        ),
    ], ids=["two-role-cycle-canonical", "branching-restricted"])
    def test_an_opt_over_a_cyclic_tbox_at_consecutive_bounds(self, kb_text, query, name):
        """Twice the default bound has the default's parity, so the test
        above cannot see this.  The first KB gives `[]` at odd bounds and
        `[{}]` at even ones; on the second, `BRANCHING` without `A ⊑ ¬B`,
        the answers at B and B + 1 differ for every B from the default (10)
        to 13."""
        kb, q = parse_kb(kb_text), parse_query(query)
        answers = SEMANTICS[name]
        start = default_bound(kb, q)
        for b in range(start, start + 4):
            assert answers(q, kb, b) == answers(q, kb, b + 1), b


class TestAnchoredChains:
    """JOIN and OPT chains of 1 to 5 role steps, forward and inverse,
    anchored at a concept, read on demand equal the materialized chase at
    bounds 0 to 4.  A chain longer than the bound walks to the witnesses at
    the bound, which have no children, and an inverse step walks back to a
    witness's parent."""

    STEPS = (("r", False), ("r", True), ("s", False), ("s", True))

    @pytest.mark.parametrize("anchor", ["A", "C"])
    @pytest.mark.parametrize("op", [JoinQ, OptQ])
    def test_equals_the_materialized_chase(self, anchor, op):
        chases = [chase(BRANCHING, bound) for bound in range(5)]
        v = [Var(f"v{i}") for i in range(6)]
        checked = 0
        for n in range(1, 6):
            for steps in product(self.STEPS, repeat=n):
                q = TriplePattern(anchor, (v[0],))
                for i, (role, inverse) in enumerate(steps):
                    args = (v[i + 1], v[i]) if inverse else (v[i], v[i + 1])
                    q = op(q, TriplePattern(role, args))
                for cg in chases:
                    lazy, full = evaluate(q, cg), evaluate(q, cg.graph.index)
                    assert (lazy.vars, lazy.rows) == (full.vars, full.rows), (cg.bound, steps)
                    checked += 1
        assert checked == 1364 * 5


class TestDefaultBound:
    def test_single_role_single_pattern(self):
        kb = load_kb("ex1.kb")
        assert default_bound(kb, load_query("ex1.sq")) == 4

    def test_two_roles_three_patterns(self):
        kb = load_kb("ex7.kb")
        assert default_bound(kb, load_query("ex7.sq")) == 8

    def test_empty_tbox_counts_no_roles(self):
        kb = load_kb("ex3.kb")
        q = parse_query("knows(?x, ?y)")
        assert default_bound(kb, q) == 2


class TestEntailedAbox:
    def test_no_new_atoms_among_individuals(self):
        kb = load_kb("ex7.kb")
        assert sorted(str(a) for a in entailed_abox(kb)) == ["Teacher(Alice)"]

    def test_empty_tbox_is_identity(self):
        kb = load_kb("ex3.kb")
        assert entailed_abox(kb).atoms == kb.abox

    def test_role_saturation_adds_super_role_atoms(self):
        kb = parse_kb("TBOX: r [= s . ABOX: r(a, b) .")
        assert sorted(str(a) for a in entailed_abox(kb)) == ["r(a, b)", "s(a, b)"]

    def test_concept_entailment_on_individuals(self):
        kb = parse_kb("TBOX: exists r [= A . ABOX: r(a, b) .")
        assert sorted(str(a) for a in entailed_abox(kb)) == ["A(a)", "r(a, b)"]

    @pytest.mark.parametrize("seed", [1, 5, 29])
    def test_is_the_named_part_of_every_chase(self, seed):
        """The chase adds atoms only at anonymous witnesses, so the regime
        semantics may evaluate over the entailed ABox instead of the chase."""
        for kb, q in islice(generate_instances(seed, SizeParams()), 100):
            expected = entailed_abox(kb).atoms
            for depth in (0, 1, 3, default_bound(kb, q)):
                named = {
                    a for a in chase(kb, depth).graph.atoms
                    if all(t.is_individual for t in a.args)
                }
                assert named == expected


class TestSatisfiability:
    def test_kb_without_disjointness_is_satisfiable(self):
        assert is_satisfiable(load_kb("ex7.kb"))

    def test_direct_violation(self):
        kb = parse_kb("TBOX: A [= not B . ABOX: A(c) . B(c) .")
        assert not is_satisfiable(kb)

    def test_violation_through_entailment(self):
        kb = parse_kb(
            "TBOX: A [= exists r . exists inv(r) [= B . B [= not C . C [= exists s ."
            " ABOX: A(a) . C(a) . r(a, b) ."
        )
        # a's r-successor b gets B; but the clash is on b only if C(b) holds.
        assert is_satisfiable(kb)
        kb2 = parse_kb(
            "TBOX: exists inv(r) [= B . B [= not C . ABOX: r(a, b) . C(b) ."
        )
        assert not is_satisfiable(kb2)

    def test_violation_on_an_anonymous_witness(self):
        kb = parse_kb(
            "TBOX: A [= exists r . exists inv(r) [= B . exists inv(r) [= C ."
            " B [= not C . ABOX: A(a) ."
        )
        assert not is_satisfiable(kb)

    def test_agrees_with_the_probe_on_dense_kbs(self):
        for seed in range(400):
            kb = _dense_kb(random.Random(seed))
            assert is_satisfiable(kb) == _probe_is_satisfiable(kb), seed

    def test_agrees_with_the_probe_on_generated_instances(self):
        for kb, _ in islice(generate_instances(5, SizeParams()), 100):
            assert is_satisfiable(kb) == _probe_is_satisfiable(kb)


def _probe_is_satisfiable(kb: KnowledgeBase) -> bool:
    """Reference oracle: chase the KB without its disjointness axioms to
    model_bound(kb), then look for an element whose entailed type (its
    incident atoms closed under the concept closure) holds a disjoint pair."""
    ref = reference.closure_tbox(kb.tbox)
    tbox = frozenset(ax for ax in kb.tbox if not isinstance(ax, ConceptDisjointness))
    probe = chase(KnowledgeBase(tbox, kb.abox), model_bound(kb))
    satisfied: dict = {}
    for atom in probe.graph.atoms:
        if len(atom.args) == 1:
            satisfied.setdefault(atom.args[0], set()).add(
                BasicConcept("atomic", atom.predicate)
            )
        else:
            satisfied.setdefault(atom.args[0], set()).add(exists(RoleExpr(atom.predicate)))
            satisfied.setdefault(atom.args[1], set()).add(
                exists(RoleExpr(atom.predicate, inverse=True))
            )
    for basics in satisfied.values():
        entailed = basics | {c for (b, c) in ref.concept_closure if b in basics}
        for (b1, b2) in ref.disjointness_closure:
            if b1 in entailed and b2 in entailed:
                return False
    return True


def _dense_kb(rng: random.Random) -> KnowledgeBase:
    """3 concepts, 3 roles, 4 individuals; 1-7 concept inclusions, 0-3 role
    inclusions (40 % inverses), 0-2 disjointness axioms, 0-5 facts."""
    concepts, roles, inds = ["A", "B", "C"], ["r", "s", "t"], ["a", "b", "c", "d"]

    def basic() -> BasicConcept:
        kind = rng.choice(["atomic", "exists", "exists_inv"])
        return BasicConcept(kind, rng.choice(concepts if kind == "atomic" else roles))

    def role() -> RoleExpr:
        return RoleExpr(rng.choice(roles), rng.random() < 0.4)

    tbox: set = set()
    for count, make, axiom in (
        (rng.randint(1, 7), basic, ConceptInclusion),
        (rng.randint(0, 3), role, RoleInclusion),
        (rng.randint(0, 2), basic, ConceptDisjointness),
    ):
        for _ in range(count):
            lhs, rhs = make(), make()
            if lhs != rhs:
                tbox.add(axiom(lhs, rhs))
    abox = set()
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5:
            abox.add(Atom(rng.choice(concepts), (individual(rng.choice(inds)),)))
        else:
            args = (individual(rng.choice(inds)), individual(rng.choice(inds)))
            abox.add(Atom(rng.choice(roles), args))
    return KnowledgeBase(frozenset(tbox), frozenset(abox))


def _w(path: str) -> str:
    return anonymous("_:" + path).name


def _witnesses(cg: ChaseGraph) -> list[tuple[str, int]]:
    """Each witness of the whole chase and its depth, sorted by name: the
    depth is the number of segments of its path, the rule `match` reads."""
    return sorted(
        (t.name, t.name.count("|")) for t in cg.graph.terms() if not t.is_individual
    )


def test_chase_graph_is_immutable_value_object():
    kb = load_kb("ex1.kb")
    cg = chase(kb, 1)
    assert isinstance(cg, ChaseGraph)
    with pytest.raises(AttributeError):
        cg.bound = 2
