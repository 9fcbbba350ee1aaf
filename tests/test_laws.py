"""Metamorphic laws: rewrites of a (KB, query) instance that no semantics
may notice.

Under every semantics, each rewrite below gives the answers of the
original instance, or the same QueryShapeError:
- the operands of every JOIN swapped (⋈ is commutative);
- the operands of every UNION swapped (∪ is commutative);
- every JOIN(JOIN(a, b), c) reassociated to JOIN(a, JOIN(b, c)) (⋈ is
  associative);
- the individuals renamed by a permutation into fresh names, with the
  answers renamed the same way;
- the TBox and ABox statements shuffled in the KB text.
Every JOIN(a, UNION(b, c)) distributed to UNION(JOIN(a, b), JOIN(a, c)),
and every JOIN(UNION(b, c), a) likewise, gives the same answers under
each semantics that answers both queries: the copies of a's patterns
raise the default chase bound, so both run at the larger one, and the
UCQ-shape guard of certain-ucq can accept the distributed query alone.

The instances come from `generate_instances` seeds that no other test
draws, each kept only if some semantics gives it an answer row, and each
random choice from a generator seeded per instance, so the run is
deterministic.  Answers are compared as slot rows.  The generator rarely
nests a JOIN under a JOIN or over a UNION, so reassociation and
distribution also run on JOIN(JOIN(a, b), c) and JOIN(a, UNION(b, c)),
composed of answered subtrees of each instance's query.  Each law asserts
a floor on the instances that its rewrite changes.
"""

import random
from itertools import islice

import pytest

from sparqlkb.chase import default_bound, saturate
from sparqlkb.errors import QueryShapeError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import Atom, KnowledgeBase, Var, individual, parse_kb, serialize_kb
from sparqlkb.query import JoinQ, Query, Select, TriplePattern, UnionQ
from sparqlkb.semantics import ROWS

SEEDS = (707, 808, 909)
PER_SEED = 220
# each seed gives PER_SEED answered instances within this many draws (627,
# 753 and 730 today)
MAX_DRAWS = 1000


def _answers(q: Query, kb: KnowledgeBase, depth: int | None = None) -> dict:
    """Each semantics' answers as (variables, rows), or its shape error."""
    out = {}
    for name, rows in ROWS.items():
        try:
            answer = rows(q, kb, depth)
            out[name] = (answer.vars, frozenset(answer.rows))
        except QueryShapeError as e:
            out[name] = str(e)
    return out


def _answered(seed: int) -> list:
    """(KB, query, answers) for the first PER_SEED instances of the seed's
    stream that some semantics gives an answer row."""
    found = []
    for kb, q in islice(generate_instances(seed, SizeParams()), MAX_DRAWS):
        answers = _answers(q, kb)
        if _has_rows(answers):
            found.append((kb, q, answers))
            if len(found) == PER_SEED:
                break
    return found


@pytest.fixture(scope="module")
def instances():
    """(KB, query, answers) for each answered instance of the seeded
    streams; a generator that stops giving answer rows fails here."""
    found = {seed: _answered(seed) for seed in SEEDS}
    assert {seed: len(f) for seed, f in found.items()} == dict.fromkeys(SEEDS, PER_SEED)
    return [instance for seed in SEEDS for instance in found[seed]]


@pytest.fixture(scope="module")
def parts(instances):
    """Three subtrees of each instance's query, drawn from those that some
    semantics gives an answer row (from all of them if none has one)."""
    drawn = []
    for i, (kb, q, _) in enumerate(instances):
        subtrees = list(_subtrees(q))
        answered = [t for t in subtrees if _has_rows(_answers(t, kb))] or subtrees
        rng = random.Random(i)
        drawn.append(tuple(rng.choice(answered) for _ in range(3)))
    return drawn


def _has_rows(answers: dict) -> bool:
    return any(not isinstance(a, str) and a[1] for a in answers.values())


def _subtrees(q: Query):
    """q and every query node below it."""
    yield q
    if isinstance(q, Select):
        yield from _subtrees(q.body)
    elif not isinstance(q, TriplePattern):
        yield from _subtrees(q.left)
        yield from _subtrees(q.right)


def _swapped(q: Query, op: type) -> Query:
    """q with the operands of every `op` node swapped."""
    if isinstance(q, TriplePattern):
        return q
    if isinstance(q, Select):
        return Select(q.vars, _swapped(q.body, op))
    left, right = _swapped(q.left, op), _swapped(q.right, op)
    return type(q)(right, left) if isinstance(q, op) else type(q)(left, right)


def _reassociated(q: Query) -> Query:
    """q with every JOIN(JOIN(a, b), c) rewritten to JOIN(a, JOIN(b, c)),
    so that each chain of JOINs nests to the right."""
    if isinstance(q, TriplePattern):
        return q
    if isinstance(q, Select):
        return Select(q.vars, _reassociated(q.body))
    left, right = _reassociated(q.left), _reassociated(q.right)
    if isinstance(q, JoinQ) and isinstance(left, JoinQ):
        return JoinQ(left.left, _reassociated(JoinQ(left.right, right)))
    return type(q)(left, right)


def _distributed(q: Query) -> Query:
    """q with every JOIN that has a UNION operand rewritten to the UNION of
    the JOINs of the other operand with each of the UNION's operands."""
    if isinstance(q, TriplePattern):
        return q
    if isinstance(q, Select):
        return Select(q.vars, _distributed(q.body))
    left, right = _distributed(q.left), _distributed(q.right)
    if isinstance(q, JoinQ) and isinstance(right, UnionQ):
        return UnionQ(*(_distributed(JoinQ(left, r)) for r in (right.left, right.right)))
    if isinstance(q, JoinQ) and isinstance(left, UnionQ):
        return UnionQ(*(_distributed(JoinQ(l, right)) for l in (left.left, left.right)))
    return type(q)(left, right)


def _renamed_query(q: Query, rename: dict[str, str]) -> Query:
    if isinstance(q, TriplePattern):
        args = tuple(a if isinstance(a, Var) else individual(rename[a.name]) for a in q.args)
        return TriplePattern(q.predicate, args)
    if isinstance(q, Select):
        return Select(q.vars, _renamed_query(q.body, rename))
    return type(q)(_renamed_query(q.left, rename), _renamed_query(q.right, rename))


def _constants(q: Query) -> set[str]:
    if isinstance(q, TriplePattern):
        return {a.name for a in q.args if not isinstance(a, Var)}
    if isinstance(q, Select):
        return _constants(q.body)
    return _constants(q.left) | _constants(q.right)


def _renamed_answers(answers: dict, rename: dict[str, str]) -> dict:
    rename = {**rename, None: None}
    return {
        name: answer
        if isinstance(answer, str)
        else (answer[0], frozenset(tuple(map(rename.get, row)) for row in answer[1]))
        for name, answer in answers.items()
    }


def _check(instances, rewrite) -> int:
    """Every instance's rewrite, (KB', query', expected answers), gives
    the expected answers.  Returns how many rewrites changed the query or
    the KB."""
    changed = 0
    for i, (kb, q, answers) in enumerate(instances):
        kb2, q2, expected = rewrite(random.Random(i), kb, q, answers)
        assert _answers(q2, kb2) == expected, (serialize_kb(kb), str(q))
        changed += (q2, kb2) != (q, kb)
    return changed


def test_swapping_join_operands(instances):
    swapped = _check(instances, lambda rng, kb, q, answers: (kb, _swapped(q, JoinQ), answers))
    assert swapped >= 300


def test_swapping_union_operands(instances):
    swapped = _check(instances, lambda rng, kb, q, answers: (kb, _swapped(q, UnionQ), answers))
    assert swapped >= 300


def _both_answer(before: dict, after: dict, kb: KnowledgeBase, q: Query) -> list:
    """The semantics that answer both q and its rewrite, with equal answers."""
    both = [s for s in ROWS if isinstance(before[s], tuple) and isinstance(after[s], tuple)]
    assert [before[s] for s in both] == [after[s] for s in both], (serialize_kb(kb), str(q))
    return both


def test_reassociating_joins(instances, parts):
    """Also on each composed JOIN(JOIN(a, b), c), at the chase bound of
    the instance's query: the composition's own bound can be far deeper."""
    changed = _check(instances, lambda rng, kb, q, answers: (kb, _reassociated(q), answers))
    assert changed >= 70
    answered = 0
    for (kb, q, _), (a, b, c) in zip(instances, parts):
        composed, depth = JoinQ(JoinQ(a, b), c), default_bound(kb, q)
        expected = _answers(composed, kb, depth)
        assert _answers(_reassociated(composed), kb, depth) == expected, (
            serialize_kb(kb),
            str(composed),
        )
        answered += _has_rows(expected)
    assert answered >= 500


def test_distributing_join_over_union(instances, parts):
    """On each instance whose query distribution changes, at the larger of
    the two default bounds, and on each composed JOIN(a, UNION(b, c)) at
    the chase bound of the instance's query."""
    changed = answered = 0
    for (kb, q, _), (a, b, c) in zip(instances, parts):
        q2 = _distributed(q)
        if q2 != q:
            depth = max(default_bound(kb, q), default_bound(kb, q2))
            _both_answer(_answers(q, kb, depth), _answers(q2, kb, depth), kb, q)
            changed += 1
        composed, depth = JoinQ(a, UnionQ(b, c)), default_bound(kb, q)
        before = _answers(composed, kb, depth)
        both = _both_answer(before, _answers(_distributed(composed), kb, depth), kb, composed)
        answered += any(before[s][1] for s in both)
    assert changed >= 35
    assert answered >= 500


def test_renaming_individuals(instances):
    def rewrite(rng, kb, q, answers):
        names = sorted(kb.encoded.adom | _constants(q))
        fresh = [f"n{i}" for i in range(len(names))]
        rng.shuffle(fresh)
        rename = dict(zip(names, fresh))
        abox = frozenset(
            Atom(a.predicate, tuple(individual(rename[t.name]) for t in a.args)) for a in kb.abox
        )
        return (
            KnowledgeBase(kb.tbox, abox),
            _renamed_query(q, rename),
            _renamed_answers(answers, rename),
        )

    assert _check(instances, rewrite) == len(instances)


def test_shuffling_statements(instances):
    """The shuffled text parses to a fresh KB equal to the original, which
    derives its own model, and the cache keyed by TBox is emptied first:
    the answers must come from the shuffled KB itself."""

    moved = 0

    def rewrite(rng, kb, q, answers):
        nonlocal moved
        lines = serialize_kb(kb).splitlines()
        split = lines.index("ABOX:")
        tbox, abox = lines[1:split], lines[split + 1 :]
        order = (tbox[:], abox[:])
        rng.shuffle(tbox)
        rng.shuffle(abox)
        moved += (tbox, abox) != order
        saturate.cache_clear()
        return parse_kb("\n".join(["TBOX:", *tbox, "ABOX:", *abox])), q, answers

    _check(instances, rewrite)
    assert moved >= 600
