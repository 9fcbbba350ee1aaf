"""CLI output pinned byte for byte: exit code, stdout and stderr of eval,
chase and analyze on the fixtures and on malformed inputs (see
golden_cases.py for the cases and how expected.json was written)."""

import json

import pytest

from golden_cases import EXPECTED, cases, key, run_case

GOLDEN = json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(key(argv) for _, argv in cases()) == sorted(GOLDEN)


@pytest.mark.parametrize("group", ["eval", "chase", "analyze", "malformed"])
def test_output_is_unchanged(group):
    argvs = [argv for g, argv in cases() if g == group]
    assert argvs
    changed = [key(argv) for argv in argvs if run_case(argv) != GOLDEN[key(argv)]]
    assert changed == [], f"{len(changed)} of {len(argvs)} differ, first: {changed[0]}"
