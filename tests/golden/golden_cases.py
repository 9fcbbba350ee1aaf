"""The golden-output cases: CLI runs whose exit code, stdout and stderr are
pinned in expected.json.

Paths in a case's argv are relative to the ``tests`` directory.  To write
expected.json from the sparqlkb on PYTHONPATH (done once, from the commit
whose output is to be pinned):

    PYTHONPATH=src python tests/golden/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"

SEMANTICS = ["plain", "certain-ucq", "regime", "canonical", "restricted", "mcan"]


def _names(directory: str, pattern: str) -> list[str]:
    return sorted(
        str(p.relative_to(TESTS)) for p in (TESTS / directory).glob(pattern)
    )


def cases() -> list[tuple[str, list[str]]]:
    """(group, argv) for every pinned run."""
    kbs = _names("fixtures", "*.kb") + [
        "golden/inputs/teaching.kb", "golden/inputs/branching.kb",
    ]
    queries = _names("fixtures", "*.sq") + [
        f"golden/inputs/{name}.sq" for name in ("teaching", "union", "nested", "witness")
    ]
    bad_kbs = _names("golden/inputs", "kb_*.kb")
    bad_queries = _names("golden/inputs", "q_*.sq")
    out = []
    for kb in kbs:
        for q in queries:
            for name in SEMANTICS:
                for fmt in ("tsv", "json"):
                    out.append(("eval", ["eval", "--kb", kb, "--query", q,
                                         "--semantics", name, "--format", fmt]))
    for kb in kbs:
        out.append(("chase", ["chase", "--kb", kb]))
        for depth in range(5):
            out.append(("chase", ["chase", "--kb", kb, "--depth", str(depth)]))
    for q in queries:
        out.append(("analyze", ["analyze", "--query", q]))
    for kb in bad_kbs:
        out.append(("malformed", ["eval", "--kb", kb, "--query", "fixtures/ex1.sq",
                                  "--semantics", "mcan"]))
        out.append(("malformed", ["chase", "--kb", kb]))
    for q in bad_queries:
        out.append(("malformed", ["eval", "--kb", "fixtures/ex1.kb", "--query", q,
                                  "--semantics", "mcan"]))
        out.append(("malformed", ["analyze", "--query", q]))
    return out


def run_case(argv: list[str]) -> dict:
    """Run the CLI in-process on argv (paths relative to TESTS)."""
    from sparqlkb.cli import main

    resolved = [
        str(TESTS / a) if a.endswith((".kb", ".sq")) else a for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(resolved, out=out)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(argv: list[str]) -> str:
    return " ".join(argv)


if __name__ == "__main__":
    results = {key(argv): run_case(argv) for _, argv in cases()}
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {EXPECTED}", file=sys.stderr)
