"""`check` reports pinned: sha256 over json.dumps(report.to_dict(),
sort_keys=True) of every requirement check, in the order (instance,
SEMANTICS, requirements 1-5).  Generated KBs all have a TBox, so the
golden KB x query pairs are pinned too: they are where requirement 2
applies."""

import hashlib
import json
from collections import Counter
from itertools import islice

import pytest

from golden_cases import TESTS, cases
from sparqlkb.harness import SizeParams, check_requirement, generate_instances
from sparqlkb.kb import parse_kb
from sparqlkb.query import parse_query
from sparqlkb.semantics import SEMANTICS


def _digest(instances) -> tuple[str, Counter]:
    """sha256 of the reports on the (kb, q) instances, and how often each
    (requirement, verdict) came up."""
    h, verdicts = hashlib.sha256(), Counter()
    for kb, q in instances:
        for name in SEMANTICS:
            for req_id in range(1, 6):
                report = check_requirement(req_id, name, q, kb)
                verdicts[req_id, report.verdict] += 1
                h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest(), verdicts


@pytest.mark.parametrize(
    ("seed", "digest"),
    [
        (3, "062125ce3cd0f94291e4bb05f4d39dd86d1db3d7dda7e5cee10fc8996889fa2d"),
        (7, "914af3448a19680d571758d88839b441c893bab11464524a37da184541f06d50"),
        (606, "4b57be20761f0683ca34af13145b1449c451e551218a679d04ad37d4c42caa82"),
    ],
)
def test_generated_reports_are_unchanged(seed, digest):
    assert _digest(islice(generate_instances(seed, SizeParams()), 200))[0] == digest


def test_golden_pair_reports_are_unchanged():
    pairs = dict.fromkeys((argv[2], argv[4]) for group, argv in cases() if group == "eval")
    assert len(pairs) == 77

    def read(path):
        return (TESTS / path).read_text(encoding="utf-8")

    instances = [(parse_kb(read(kb)), parse_query(read(q))) for kb, q in pairs]
    digest, verdicts = _digest(instances)
    assert digest == "2648a50feceae05a46e8bf658e7ab1ae003b98ed6b0d949c0eacf11a8d09c56d"
    assert verdicts[2, "pass"] == 174
