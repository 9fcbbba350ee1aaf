"""Knowledge-base model, parser, and serializer."""

import copy
import os
import pickle
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from conftest import FIXTURES, load_kb
from sparqlkb import chase as chase_module
from sparqlkb.errors import ParseError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import (
    Atom,
    BasicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    Term,
    active_domain,
    anonymous,
    exists,
    individual,
    parse_kb,
    serialize_kb,
)


class TestTerms:
    def test_individual_allows_digit_leading_names(self):
        assert individual("12345").name == "12345"

    def test_individual_rejects_bad_characters(self):
        with pytest.raises(ValueError):
            individual("a-b")
        with pytest.raises(ValueError):
            individual("")

    def test_anonymous_requires_prefix(self):
        assert anonymous("_:Alice|teachesTo").kind == "anonymous"
        with pytest.raises(ValueError):
            anonymous("Alice")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Term("literal", "x")


class TestVocabulary:
    def test_role_expr_inversion_is_involutive(self):
        r = RoleExpr("teachesTo")
        assert r.inverted().inverted() == r
        assert str(r.inverted()) == "inv(teachesTo)"

    def test_exists_round_trips_the_role(self):
        for r in (RoleExpr("r"), RoleExpr("r", inverse=True)):
            assert exists(r).role == r

    def test_atomic_concept_has_no_role(self):
        with pytest.raises(ValueError):
            BasicConcept("atomic", "Driver").role

    def test_atom_arity_enforced(self):
        with pytest.raises(ValueError):
            Atom("r", (individual("a"), individual("b"), individual("c")))

    def test_disjointness_requires_distinct_sides(self):
        a = BasicConcept("atomic", "A")
        with pytest.raises(ValueError):
            ConceptDisjointness(a, a)

    def test_abox_terms_must_be_individuals(self):
        with pytest.raises(ValueError):
            KnowledgeBase(
                frozenset(), frozenset({Atom("A", (anonymous("_:w"),))})
            )


class TestParsing:
    def test_example_kb_structure(self):
        kb = load_kb("ex1.kb")
        assert kb.tbox == frozenset(
            {
                ConceptInclusion(
                    BasicConcept("atomic", "Driver"),
                    exists(RoleExpr("hasLicense")),
                )
            }
        )
        assert kb.abox == frozenset({Atom("Driver", (individual("Alice"),))})

    def test_role_inclusion_with_inverse(self):
        kb = load_kb("ex7.kb")
        assert (
            RoleInclusion(RoleExpr("teachesTo"), RoleExpr("hasTeacher", True))
            in kb.tbox
        )

    def test_disjointness_axiom(self):
        kb = parse_kb("TBOX: Car [= not Truck . ABOX:")
        (ax,) = kb.tbox
        assert isinstance(ax, ConceptDisjointness)

    def test_bare_inclusion_defaults_to_concepts(self):
        kb = parse_kb("TBOX: Student [= Person . ABOX:")
        (ax,) = kb.tbox
        assert isinstance(ax, ConceptInclusion)
        assert ax.lhs == BasicConcept("atomic", "Student")

    def test_bare_inclusion_becomes_role_with_binary_evidence(self):
        kb = parse_kb("TBOX: worksFor [= employedBy . ABOX: worksFor(a, b) .")
        (ax,) = kb.tbox
        assert isinstance(ax, RoleInclusion)

    def test_mixed_concept_and_role_use_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("TBOX: exists r [= A . A [= r . ABOX:")

    def test_reserved_vocabulary_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("TBOX: ABOX: rdf:type(a) .")

    def test_arity_conflicts_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("TBOX: ABOX: r(a, b) . r(a) .")
        with pytest.raises(ParseError):
            parse_kb("TBOX: A [= exists r . ABOX: A(a, b) .")

    def test_missing_terminator_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("TBOX: ABOX: Driver(Alice)")
        assert "end of input" in str(exc.value)

    def test_comments_and_whitespace_ignored(self):
        kb = parse_kb("# header\nTBOX:\n# none\nABOX:\nA(a) .  # trailing\n")
        assert kb.abox == frozenset({Atom("A", (individual("a"),))})


class TestRoleInference:
    """A bare inclusion is a role inclusion iff role evidence reaches one of
    its sides, whatever the order of the axioms."""

    INPUTS = Path(__file__).parent / "golden" / "inputs"

    @pytest.mark.parametrize("tbox", ["X [= Y . Y [= Z .", "Y [= Z . X [= Y ."])
    def test_role_evidence_spreads_in_either_order(self, tbox):
        kb = parse_kb(f"TBOX: {tbox} ABOX: X(a, b) .")
        assert kb.tbox == frozenset(
            {RoleInclusion(RoleExpr("X"), RoleExpr("Y")),
             RoleInclusion(RoleExpr("Y"), RoleExpr("Z"))}
        )

    def test_a_chain_of_role_inclusions_round_trips(self):
        a, b, c = RoleExpr("a"), RoleExpr("b"), RoleExpr("c")
        x, y = individual("x"), individual("y")
        kb = KnowledgeBase(
            frozenset({RoleInclusion(a, b), RoleInclusion(b, c)}),
            frozenset({Atom("c", (x, y))}),
        )
        assert parse_kb(serialize_kb(kb)) == kb

    @pytest.mark.parametrize(
        "name", ["teaching.kb", "branching.kb", "kb_concept_and_role.kb", "chain"]
    )
    def test_shuffled_axioms_give_one_outcome(self, name):
        if name == "chain":
            text = "TBOX: a [= b . b [= c . c [= inv(d) . e [= a . ABOX: A(x) ."
        else:
            lines = (self.INPUTS / name).read_text(encoding="utf-8").splitlines()
            text = " ".join(line for line in lines if not line.lstrip().startswith("#"))
        tbox, abox = text.split("TBOX:")[1].split("ABOX:")
        statements = [st.strip() for st in tbox.split(".") if st.strip()]
        outcomes = set()
        for seed in range(20):
            random.Random(seed).shuffle(statements)
            shuffled = "TBOX: " + " ".join(f"{st} ." for st in statements) + " ABOX: " + abox
            try:
                outcomes.add(parse_kb(shuffled))
            except ParseError:
                outcomes.add(ParseError)
        assert len(outcomes) == 1, outcomes


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.kb")))
    def test_round_trip_on_fixtures(self, name):
        kb = load_kb(name)
        assert parse_kb(serialize_kb(kb)) == kb

    def test_output_is_sorted_and_stable(self):
        kb = parse_kb("TBOX: ABOX: B(b) . A(a) .")
        text = serialize_kb(kb)
        assert text == "TBOX:\nABOX:\nA(a) .\nB(b) .\n"
        assert serialize_kb(parse_kb(text)) == text


class TestDerivedViews:
    def test_active_domain_collects_abox_individuals(self):
        kb = load_kb("ex3.kb")
        assert active_domain(kb) == frozenset(
            individual(n) for n in ("Alice", "Bob", "Carol", "Dan")
        )

    def test_empty_kb_has_empty_views(self):
        kb = KnowledgeBase(frozenset(), frozenset())
        assert active_domain(kb) == frozenset()


class TestIdentity:
    """A KB is its TBox and its ABox's name index: the parser builds the
    index without Atoms, the constructor from the Atoms it is given."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_a_parsed_kb_equals_the_kb_it_was_written_from(self, seed):
        previous = None
        for kb, _ in islice(generate_instances(seed, SizeParams()), 500):
            parsed = parse_kb(serialize_kb(kb))
            assert parsed == kb and hash(parsed) == hash(kb)
            assert parsed.abox == kb.abox
            if previous is not None:
                same = serialize_kb(kb) == serialize_kb(previous)
                assert (parsed == previous) == same
            previous = kb

    def test_kbs_that_differ_in_one_fact_differ(self):
        kbs = [parse_kb(f"TBOX: A [= exists r . ABOX: {abox}") for abox in (
            "", "A(a) .", "A(b) .", "r(a, b) .", "r(b, a) .", "A(a) . r(a, b) .",
        )]
        for i, kb in enumerate(kbs):
            assert [kb == other for other in kbs] == [j == i for j in range(len(kbs))]

    def test_what_a_kb_derives_is_not_part_of_its_value(self):
        """`derived` is a memo: a pickled or copied KB equals the KB and
        starts with an empty one, and deriving changes no hash or repr."""
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) . r(a, b) .")
        before = (hash(kb), repr(kb))
        assert kb.derived == {}
        chase_module.chase(kb, 2)
        assert "chase" in kb.derived
        for other in (pickle.loads(pickle.dumps(kb)), copy.copy(kb)):
            assert other == kb and other is not kb
            assert other.derived == {}
        assert (hash(kb), repr(kb)) == before

    def test_the_constructor_keeps_the_atoms_it_is_given(self):
        atoms = frozenset({Atom("A", (individual("a"),))})
        assert KnowledgeBase(frozenset(), atoms).abox is atoms

    def test_a_non_individual_term_is_rejected_from_any_collection(self):
        with pytest.raises(ValueError):
            KnowledgeBase(frozenset(), {Atom("r", (individual("a"), anonymous("_:w")))})

    def test_is_immutable(self):
        kb = parse_kb("TBOX: A [= exists r . ABOX: A(a) .")
        for name in ("tbox", "abox", "encoded"):
            with pytest.raises(AttributeError):
                setattr(kb, name, frozenset())
            with pytest.raises(AttributeError):
                delattr(kb, name)
        assert kb == parse_kb("TBOX: A [= exists r . ABOX: A(a) .")

    def test_pickles_across_processes(self, tmp_path):
        """The stored hash is of strings, whose hashes differ between
        processes, so it is not pickled."""
        kb = load_kb("ex7.kb")
        assert pickle.loads(pickle.dumps(kb)) == kb
        (tmp_path / "kb.pickle").write_bytes(pickle.dumps(kb))
        check = (
            "import pickle, sys\n"
            "from conftest import load_kb\n"
            "kb = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print(kb in {load_kb('ex7.kb')})\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", check, str(tmp_path / "kb.pickle")],
            env=env, cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
        )
        assert out.stdout == "True\n"
