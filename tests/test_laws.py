"""Metamorphic laws: rewrites of a (KB, query) instance that no semantics
may notice.

Under every semantics, each rewrite below gives the answers of the
original instance, or the same QueryShapeError:
- the operands of every JOIN swapped (⋈ is commutative);
- the operands of every UNION swapped (∪ is commutative);
- the individuals renamed by a permutation into fresh names, with the
  answers renamed the same way;
- the TBox and ABox statements shuffled in the KB text.

The instances come from `generate_instances` seeds that no other test
draws, and each random choice from a generator seeded per instance, so the
run is deterministic.  Answers are compared as slot rows.
"""

import random
from itertools import islice

import pytest

from sparqlkb.chase import _model, chase, saturate
from sparqlkb.errors import QueryShapeError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import Atom, KnowledgeBase, Var, individual, parse_kb, serialize_kb
from sparqlkb.query import JoinQ, Query, Select, TriplePattern, UnionQ
from sparqlkb.semantics import ROWS

SEEDS = (707, 808, 909)
PER_SEED = 220


def _answers(q: Query, kb: KnowledgeBase) -> dict:
    """Each semantics' answers as (variables, rows), or its shape error."""
    out = {}
    for name, rows in ROWS.items():
        try:
            answer = rows(q, kb)
            out[name] = (answer.vars, frozenset(answer.rows))
        except QueryShapeError as e:
            out[name] = str(e)
    return out


@pytest.fixture(scope="module")
def instances():
    """(KB, query, answers) for each instance of the seeded streams."""
    return [
        (kb, q, _answers(q, kb))
        for seed in SEEDS
        for kb, q in islice(generate_instances(seed, SizeParams()), PER_SEED)
    ]


def _swapped(q: Query, op: type) -> Query:
    """q with the operands of every `op` node swapped."""
    if isinstance(q, TriplePattern):
        return q
    if isinstance(q, Select):
        return Select(q.vars, _swapped(q.body, op))
    left, right = _swapped(q.left, op), _swapped(q.right, op)
    return type(q)(right, left) if isinstance(q, op) else type(q)(left, right)


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


def _check(instances, rewrite) -> None:
    """Every instance's rewrite, (KB', query', expected answers), gives
    the expected answers."""
    for i, (kb, q, answers) in enumerate(instances):
        kb2, q2, expected = rewrite(random.Random(i), kb, q, answers)
        assert _answers(q2, kb2) == expected, (serialize_kb(kb), str(q))


def test_swapping_join_operands(instances):
    _check(instances, lambda rng, kb, q, answers: (kb, _swapped(q, JoinQ), answers))


def test_swapping_union_operands(instances):
    _check(instances, lambda rng, kb, q, answers: (kb, _swapped(q, UnionQ), answers))


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

    _check(instances, rewrite)


def test_shuffling_statements(instances):
    """The shuffled text parses to a KB equal to the original, so the
    caches keyed by KB or TBox are emptied first: the answers must come
    from the shuffled KB itself."""

    def rewrite(rng, kb, q, answers):
        lines = serialize_kb(kb).splitlines()
        split = lines.index("ABOX:")
        tbox, abox = lines[1:split], lines[split + 1 :]
        rng.shuffle(tbox)
        rng.shuffle(abox)
        for cache in (saturate, _model, chase):
            cache.cache_clear()
        return parse_kb("\n".join(["TBOX:", *tbox, "ABOX:", *abox])), q, answers

    _check(instances, rewrite)
