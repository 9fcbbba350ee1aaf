"""The functions of src/sparqlkb that no request, and no CLI command, enters.

Run from anywhere:

    python3 tools/reach.py

Under ``sys.settrace``, the script imports sparqlkb from this checkout's
src/ and runs each workload of perfbench/workloads.py (loaded as
tools/stages.py loads them, from the file, which this script does not
change) in the order perfbench/worker.py runs it: one warm-up request at
the worker's warm-up seed, then REQUESTS requests drawn as the worker draws
a run's requests at seed SEED, checking each answer with the workload's
oracle.  It then runs every ``sparqlkb`` command in-process on
tests/fixtures: ``eval`` on every (.kb, .sq) pair under every semantics in
both formats, ``check --all-semantics`` on every pair, ``chase`` on every
KB, ``analyze`` on every query and one ``gen``.  It prints, one a line, each
function and method defined in src/sparqlkb that none of these entered, as
module.qualname.  A function that runs only at import counts as entered if
the package is first imported by this script.  The trace records calls
alone, not lines.  It uses only the standard library.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparqlkb"
FIXTURES = ROOT / "tests" / "fixtures"
REQUESTS = 3
SEED = 0
# perfbench/worker.py's seed of the warm-up request.
WARM_UP_SEED = 2**61 - 1


def _stages():
    spec = importlib.util.spec_from_file_location("tools_stages", ROOT / "tools" / "stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def functions() -> dict[tuple[str, int], str]:
    """module.qualname of each function and method in src/sparqlkb, by
    (file, first line): the line its code object starts at, which is its
    first decorator's, if it has one."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        module = "sparqlkb" if path.stem == "__init__" else f"sparqlkb.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), path, module + ".")
    return found


def run_workloads(sparqlkb, workloads: dict) -> None:
    """Each workload's warm-up request and REQUESTS timed ones, seeded as
    perfbench/worker.py seeds them; raises if an answer is wrong."""
    for workload_class in workloads.values():
        with tempfile.TemporaryDirectory() as workdir:
            workload = workload_class(Path(workdir))
            workload.start(sparqlkb, WARM_UP_SEED)
            _request(sparqlkb, workload, random.Random(WARM_UP_SEED))
            workload.start(sparqlkb, SEED)
            rng = random.Random(f"{SEED}:requests")
            for _ in range(REQUESTS):
                _request(sparqlkb, workload, rng)


def _request(sparqlkb, workload, rng: random.Random) -> None:
    expected = workload.prepare(rng)
    if not workload.check(expected, workload.run(sparqlkb)):
        raise SystemExit(f"{workload.name}: a request gave a wrong answer")


def cli_runs(semantics, workdir: Path) -> list[list[str]]:
    """The argv of every command run on tests/fixtures."""
    kbs = [str(p) for p in sorted(FIXTURES.glob("*.kb"))]
    queries = [str(p) for p in sorted(FIXTURES.glob("*.sq"))]
    runs = []
    for kb in kbs:
        runs.append(["chase", "--kb", kb])
        for q in queries:
            runs += [["eval", "--kb", kb, "--query", q, "--semantics", name, "--format", fmt]
                     for name in semantics for fmt in ("tsv", "json")]
            runs.append(["check", "--kb", kb, "--query", q, "--all-semantics"])
    runs += [["analyze", "--query", q] for q in queries]
    runs.append(["gen", "--seed", "1", "--count", "2", "--out", str(workdir)])
    return runs


def unentered() -> list[str]:
    """module.qualname of each src/ function that no run entered, in the
    order of the modules and, within one, of the source."""
    stages = _stages()
    workloads = stages.load_workloads()
    entered: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        sparqlkb = stages.import_sparqlkb()
        run_workloads(sparqlkb, workloads)
        with tempfile.TemporaryDirectory() as workdir, \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in cli_runs(sparqlkb.semantics.ROWS, Path(workdir)):
                sparqlkb.cli.main(argv, io.StringIO())
    finally:
        sys.settrace(previous)
    files = {name: str(Path(name).resolve()) for name, _ in entered}
    reached = {(files[name], line) for name, line in entered}
    return [name for key, name in functions().items() if key not in reached]


def main() -> int:
    print("\n".join(unentered()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
