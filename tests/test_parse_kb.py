"""parse_kb reads the ABox by one scan of its text and sends every other
input through the token path.  The parser it replaced, kept as
reference.token_parse_kb, defines what it must return or raise; the scan
must read the benchmark's KB shapes on its own."""

import random
import re
from itertools import islice
from pathlib import Path

import pytest

import reference
from conftest import FIXTURES, teaching_kb_text
from sparqlkb import chase as chase_module
from sparqlkb import kb as kb_module
from sparqlkb.errors import ParseError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import parse_kb, serialize_kb

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
EDITS = ["#", "\v", "\f", "\xa0", ":", ",", "(", ")", "_", ".", "ABOX", "rdf:", " ", "\n", "a"]
SEPARATORS = [" ", "", "\n", "\t", "\r\n", "  ", " # a comment, ABOX: A(a) .\n", "#\n"]


def outcome(parse, text: str):
    """The KB that parse returns, or the text of the ParseError it raises."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def respaced(text: str, rng: random.Random, separators=SEPARATORS) -> str:
    """text's tokens with random separators between them: whitespace,
    comments, or none (which may join two names)."""
    tokens = re.findall(r"\[=|[A-Za-z0-9_]+|[().,:]", text)
    return "".join(token + rng.choice(separators) for token in tokens)


def edited(text: str, rng: random.Random) -> str:
    """text with one character inserted, replaced or deleted."""
    i = rng.randrange(len(text) + 1)
    edit = rng.choice(EDITS)
    return rng.choice([
        text[:i] + edit + text[i:],
        text[:i] + edit + text[i + 1:],
        text[:i] + text[i + 1:],
    ])


@pytest.mark.parametrize(
    "path",
    sorted(FIXTURES.glob("*.kb")) + sorted(GOLDEN_INPUTS.glob("*.kb")),
    ids=lambda path: path.name,
)
def test_fixture_and_golden_kbs_parse_as_the_token_parser(path):
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    assert outcome(parse_kb, text) == outcome(reference.token_parse_kb, text)


def test_edited_generated_kbs_parse_as_the_token_parser():
    rng = random.Random(26)
    parsed = raised = 0
    for kb, _ in islice(generate_instances(26, SizeParams()), 400):
        text = serialize_kb(kb)
        spaced = respaced(text, rng)
        for case in (text, spaced, edited(text, rng), edited(spaced, rng),
                     edited(edited(spaced, rng), rng)):
            expected = outcome(reference.token_parse_kb, case)
            assert outcome(parse_kb, case) == expected, case
            if isinstance(expected, str):
                raised += 1
            else:
                parsed += 1
    assert parsed >= 1000 and raised >= 500, (parsed, raised)


# --- the scan reads these shapes without the token path --------------------


def branching_chase_kb_text() -> str:
    """A branching-chase-shaped KB (perfbench/workloads.py): a TBox whose
    chase branches two ways, 40 individuals, sorted facts."""
    rng = random.Random(3)
    names = [f"I{i}" for i in rng.sample(range(40), 40)]
    facts = [f"A({x})" for x in names[:20]] + [f"B({x})" for x in names[20:30]]
    facts += [f"r({rng.choice(names)}, {rng.choice(names)})" for _ in range(10)]
    facts += [f"s({rng.choice(names)}, {rng.choice(names)})" for _ in range(5)]
    return (
        "TBOX:\nA [= exists r .\nexists inv(r) [= exists s .\nexists inv(r) [= exists t .\n"
        "exists inv(s) [= exists r .\nexists inv(t) [= exists r .\nexists inv(s) [= C .\n"
        "C [= D .\nA [= not B .\nABOX:\n" + "".join(f"{f} .\n" for f in sorted(facts))
    )


def nested_opt_kb_text() -> str:
    """A nested-opt-shaped KB (perfbench/workloads.py): an empty TBox, ten
    A-individuals with successors under four of ten predicates."""
    rng = random.Random(5)
    names = [f"N{i}" for i in range(20)]
    facts = []
    for x in sorted(rng.sample(names, 10)):
        facts.append(f"A({x})")
        for j, p in enumerate(rng.sample([f"p{i}" for i in range(10)], 4)):
            facts += [f"{p}({x}, {y})" for y in sorted(rng.sample(names, 2 if j < 3 else 1))]
    return "TBOX:\nABOX:\n" + "".join(f"{f} .\n" for f in facts)


def test_the_scan_reads_the_benchmark_shapes_and_generated_kbs(monkeypatch):
    texts = [teaching_kb_text(), branching_chase_kb_text(), nested_opt_kb_text()]
    kbs = [kb for kb, _ in islice(generate_instances(8, SizeParams()), 200)]
    texts += [serialize_kb(kb) for kb in kbs]
    # with whitespace and comments, some holding ABOX, between all tokens
    rng = random.Random(8)
    texts += [respaced(serialize_kb(kb), rng, [s for s in SEPARATORS if s]) for kb in kbs]
    expected = [reference.token_parse_kb(text) for text in texts]

    def token_path(toks):
        raise AssertionError("the ABox went through the token path")

    monkeypatch.setattr(kb_module, "_read_fact", token_path)
    assert [parse_kb(text) for text in texts] == expected
    assert all(len(kb.encoded.adom) >= 20 for kb in expected[:3])


# --- whitespace is exactly space, tab, CR and LF ----------------------------


@pytest.mark.parametrize(
    "text, error",
    [
        ("TBOX:\nABOX:\nA(a) .\vB(b) .\n", "3:7: unexpected character '\\x0b'"),
        ("TBOX:\nABOX:\nA(a) .\n\fB(b) .\n", "4:1: unexpected character '\\x0c'"),
        ("TBOX:\nABOX:\nA(a) .\xa0\n", "3:7: unexpected character '\\xa0'"),
        ("TBOX:\nABOX:\nr(a,\vb) .\n", "3:5: unexpected character '\\x0b'"),
        ("TBOX:\nABOX:\nr(a\f, b) .\n", "3:4: unexpected character '\\x0c'"),
        ("TBOX:\nABOX:\nA(\xa0a) .\n", "3:3: unexpected character '\\xa0'"),
        ("TBOX:\nABOX:\nA\v(a) .\n", "3:2: unexpected character '\\x0b'"),
        ("TBOX:\nABOX:\nA(a)\f.\n", "3:5: unexpected character '\\x0c'"),
        ("TBOX:\nABOX:\vA(a) .\n", "2:6: unexpected character '\\x0b'"),
        ("TBOX:\nABOX:\nA(a) . # \v is a comment\nB(b)\xa0.\n",
         "4:5: unexpected character '\\xa0'"),
    ],
)
def test_other_whitespace_in_the_abox_is_an_unexpected_character(text, error):
    assert outcome(reference.token_parse_kb, text) == error
    with pytest.raises(ParseError) as exc:
        parse_kb(text)
    assert str(exc.value) == error


# --- one TBox per text: the cache key holds the ABox's arities -------------


def test_the_tbox_cache_is_keyed_by_the_abox_arities():
    """One TBox head reads as a role inclusion, a concept inclusion or a
    clash, by the ABox alone; with the cache warm, in either order, each
    parse gives what the token parser gives, and a failed parse is not
    cached and fails again with the same message."""
    head = "TBOX: A [= B . ABOX: "
    texts = [head + "A(a, b) .", head + "A(a) .", head + "A(a, b) . B(c) ."]
    expected = [outcome(reference.token_parse_kb, text) for text in texts]
    assert [type(e) for e in expected] == [kb_module.KnowledgeBase] * 2 + [str]
    assert [type(ax) for e in expected[:2] for ax in e.tbox] == [
        kb_module.RoleInclusion, kb_module.ConceptInclusion]
    kb_module._tbox.cache_clear()
    for order in (texts, texts[::-1], texts):
        for text in order:
            size = kb_module._tbox.cache_info().currsize
            assert outcome(parse_kb, text) == expected[texts.index(text)]
            if text == texts[2]:
                assert kb_module._tbox.cache_info().currsize == size
    assert kb_module._tbox.cache_info().currsize == 2
    assert kb_module._tbox.cache_info().hits == 4


def test_kbs_over_one_tbox_text_share_its_axioms():
    """The benchmark's shape: renaming the individuals keeps the TBox text,
    so both KBs hold one TBox object, and the second KB's model saturates
    no TBox."""
    text = branching_chase_kb_text()
    renamed = re.sub(r"\bI(\d+)\b", r"K\1", text)
    assert renamed != text
    kb1, kb2 = parse_kb(text), parse_kb(renamed)
    assert kb1 != kb2 and kb1.tbox is kb2.tbox
    assert (kb1, kb2) == (reference.token_parse_kb(text), reference.token_parse_kb(renamed))
    chase_module._model(kb1)
    misses = chase_module.saturate.cache_info().misses
    chase_module._model(kb2)
    assert chase_module.saturate.cache_info().misses == misses
