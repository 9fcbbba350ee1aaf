"""Answers pinned: one sha256 over the answers of every semantics, at the
default chase bound and at bounds 1 and 4, on the first 500 instances of
three generated streams, followed by each KB's witness count at bound 5
and its chase at bound 3.  A change to the chase or the algebra that moves
a single answer, witness or chase atom changes the digest."""

import hashlib
from itertools import islice

from sparqlkb.chase import chase, witness_count
from sparqlkb.errors import QueryShapeError
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.semantics import SEMANTICS

DIGEST = "7b2d0fdefcb3a695870acc8140397c2eb8cf77c03e473460d1982d4afd62b6d1"


def test_generated_answers_are_unchanged():
    h = hashlib.sha256()
    for seed in (3, 7, 606):
        for kb, q in islice(generate_instances(seed, SizeParams()), 500):
            for depth in (None, 1, 4):
                for name, f in SEMANTICS.items():
                    try:
                        ans = sorted(str(w) for w in f(q, kb, depth))
                    except QueryShapeError:
                        ans = ["shape"]
                    h.update(repr((seed, depth, name, ans)).encode())
            h.update(repr(witness_count(kb, 5)).encode())
            h.update(repr(sorted(map(str, chase(kb, 3).graph))).encode())
    assert h.hexdigest() == DIGEST
