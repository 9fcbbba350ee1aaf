"""One digest pins what both parsers return or raise on a corpus of valid
and edited texts: the fixture, golden and generated queries with seeded
one-character edits, and generated KBs with seeded insertions.  An edited
KB that holds an error takes parse_kb's token path, which reads its facts
through kb._read_fact.

An outcome is the serialized node or the ParseError text, never a repr: a
frozenset's repr order changes with the hash seed."""

import hashlib
import random
from itertools import islice
from pathlib import Path

from conftest import FIXTURES
from sparqlkb.errors import ParseError
from sparqlkb.harness import generate_instances
from sparqlkb.kb import parse_kb, serialize_kb
from sparqlkb.query import parse_query, serialize_query

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
QUERY_EDITS = ["?", "{", "}", "(", ")", ",", "_", "1", " ", "\n",
               "SELECT", "OPT", "rdf", ":", "x", "#"]
KB_INSERTS = ["inv(", "exists", "not", "(", ")", ",", "_", "1", ".", "rdf:", "[="]

# sha256 of the corpus's (text, outcome) lines, in corpus order
DIGEST = "a0d452afc77b3a3042c23031d6871b356c8f71b1c862623457d672cd2bf8ae2a"


def outcome(parse, serialize, text: str) -> str:
    try:
        return serialize(parse(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def edited_query(text: str, rng: random.Random) -> str:
    """text with one of QUERY_EDITS inserted at, or put in place of, one
    character, or with that character deleted."""
    i = rng.randrange(len(text) + 1)
    edit = rng.choice(QUERY_EDITS)
    return rng.choice([
        text[:i] + edit + text[i:],
        text[:i] + edit + text[i + 1:],
        text[:i] + text[i + 1:],
    ])


def inserted_kb(text: str, rng: random.Random) -> str:
    """text with one of KB_INSERTS inserted, alone or between spaces."""
    i = rng.randrange(len(text) + 1)
    insert = rng.choice(KB_INSERTS)
    if rng.random() < 0.5:
        insert = f" {insert} "
    return text[:i] + insert + text[i:]


def query_corpus() -> list[str]:
    paths = sorted(FIXTURES.glob("*.sq")) + sorted(GOLDEN_INPUTS.glob("*.sq"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    texts += [serialize_query(q) for _, q in islice(generate_instances(5), 300)]
    rng = random.Random(28)
    return [case for text in texts
            for case in [text] + [edited_query(text, rng) for _ in range(10)]]


def kb_corpus() -> list[str]:
    rng = random.Random(28)
    texts = [serialize_kb(kb) for kb, _ in islice(generate_instances(7), 200)]
    return [case for text in texts
            for case in [text] + [inserted_kb(text, rng) for _ in range(5)]]


def test_parse_outcomes_are_pinned():
    lines = [f"{text!r}\t{outcome(parse_query, serialize_query, text)}"
             for text in query_corpus()]
    lines += [f"{text!r}\t{outcome(parse_kb, serialize_kb, text)}" for text in kb_corpus()]
    raised = sum("\tParseError: " in line for line in lines)
    # both outcomes are common enough for the digest to pin each parser's
    # readers and its error messages
    assert raised >= 3000 and len(lines) - raised >= 1000, (raised, len(lines))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == DIGEST
