"""Per-stage in-process times of the benchmark's workloads.

Run from anywhere:

    python3 tools/stages.py --requests 300 --seed 0 [--workload NAME ...]

For each eval workload of perfbench/workloads.py (imported from its file,
which this script does not change), the script writes --requests fresh
requests through the workload, runs each as ``sparqlkb eval`` runs it, one
stage at a time, and times every stage with ``time.perf_counter``: argparse,
file read, parse_kb, parse_query, _model (the chase's model of the KB, which
the semantics then reads from its cache), semantics and print.  For
property-corpus it draws and filters each request's batch of instances
untimed, through the workload's own ``prepare``, and times the check run
alone.  One untimed request runs first.  Every answer is checked with the
workload's oracle.  For each workload it prints the mean time of each stage
and its share of the request.  --workload, which may be repeated, runs only
the workloads named, in the order given; by default the three eval
workloads run.  The package is imported from this checkout's src/.  It uses
only the standard library.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("argparse", "file read", "parse_kb", "parse_query", "_model", "semantics", "print")
CHECK_STAGES = ("check run",)
EVAL_WORKLOADS = ("teaching-opt", "branching-chase", "nested-opt")
WORKLOADS = EVAL_WORKLOADS + ("property-corpus",)


def load_workloads() -> dict:
    """perfbench's workload classes by name."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def import_sparqlkb():
    sys.path.insert(0, str(ROOT / "src"))
    import sparqlkb.chase
    import sparqlkb.cli
    import sparqlkb.semantics

    return sparqlkb


def run_staged(sparqlkb, workload) -> tuple[list[float], str]:
    """The seconds each stage of the workload's prepared request took, and
    what the request printed."""
    cli = sparqlkb.cli
    argv = ["eval", "--kb", str(workload.kb_path), "--query", str(workload.query_path),
            "--semantics", workload.semantics]
    out = io.StringIO()
    clock = time.perf_counter
    t0 = clock()
    args = cli.build_parser().parse_args(argv)
    t1 = clock()
    kb_text = Path(args.kb).read_text(encoding="utf-8")
    query_text = Path(args.query).read_text(encoding="utf-8")
    t2 = clock()
    kb = cli.parse_kb(kb_text)
    t3 = clock()
    q = cli.parse_query(query_text)
    t4 = clock()
    sparqlkb.chase._model(kb)
    t5 = clock()
    rows = sparqlkb.semantics.ROWS[args.semantics](q, kb, args.depth)
    t6 = clock()
    cli._print_rows(rows, args.format, out)
    t7 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6], out.getvalue()


def run_checks(sparqlkb, workload) -> tuple[list[float], list]:
    """The seconds the check run of the workload's prepared batch took, and
    its reports."""
    start = time.perf_counter()
    reports = workload.run(sparqlkb)
    return [time.perf_counter() - start], reports


def measure(sparqlkb, workload_class, requests: int, seed: int) -> list[list[float]]:
    """Each timed request's stage times; raises if an answer is wrong."""
    with tempfile.TemporaryDirectory() as workdir:
        workload = workload_class(Path(workdir))
        workload.start(sparqlkb, seed)
        rng = random.Random(seed)
        times = []
        for i in range(requests + 1):
            expected = workload.prepare(rng)
            if workload.name in EVAL_WORKLOADS:
                stage_times, printed = run_staged(sparqlkb, workload)
                outcome = (0, printed)
            else:
                stage_times, outcome = run_checks(sparqlkb, workload)
            if not workload.check(expected, outcome):
                raise SystemExit(f"{workload.name}: request {i} printed a wrong answer")
            if i:  # the first request warms up
                times.append(stage_times)
    return times


def summarize(name: str, times: list[list[float]]) -> list[str]:
    """One line for the workload's mean request, one per stage."""
    stages = STAGES if name in EVAL_WORKLOADS else CHECK_STAGES
    means = [sum(column) / len(times) * 1e3 for column in zip(*times)]
    total = sum(means)
    lines = [f"{name}: {total:.3f} ms per request (mean of {len(times)})"]
    lines += [f"  {stage:<12}{ms:8.3f} ms {ms / total:6.1%}" for stage, ms in zip(stages, means)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    sparqlkb = import_sparqlkb()
    workloads = load_workloads()
    for name in args.workload or EVAL_WORKLOADS:
        times = measure(sparqlkb, workloads[name], args.requests, args.seed)
        print("\n".join(summarize(name, times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
