"""Knowledge-base model, parser, and serializer."""

import pytest

from conftest import FIXTURES, load_kb
from sparqlkb.errors import ParseError
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
