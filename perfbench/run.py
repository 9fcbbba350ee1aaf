"""Seeded, closed-loop benchmark of sparqlkb (one client, no threads).

Run from the root of a checkout:

    python3 perfbench/run.py --workload teaching-opt --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: SEGMENTS fresh worker
processes, one after another, each set up the workload (import, one untimed
warm-up request) and then run requests back to back for their share of
``--seconds``; so the set-ups are spread over the run.  Its times are
scaled to a reference host speed by calibration units measured next to each
request (see hostspeed.py).  With ``--trace 1``
it reports the per-layer metrics: two fresh workers run the same fixed number
of requests, the first untraced and the second traced, and the ratio of their
request times is the tracing overhead.

Every answer is checked against an oracle (see workloads.py).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` of the checkout; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["teaching-opt", "branching-chase", "nested-opt", "property-corpus"]

# A --trace 0 run is split over this many fresh workers, so that setup_s is
# the median of as many set-ups taken seconds apart.
SEGMENTS = 5
# Requests per second of --seconds in a traced run, so that its untraced and
# traced passes together take about two thirds of --seconds at the commit
# that defined the benchmark.  A fixed count makes every count metric repeat
# exactly.
TRACE_REQUESTS_PER_SECOND = {
    "teaching-opt": 0.6,
    "branching-chase": 0.6,
    "nested-opt": 1.1,
    "property-corpus": 0.9,
}
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170.0

SELF_TIME_LAYERS = [
    "kb.parse_kb",
    "query.parse_query",
    "cli.main",
    "chase.saturate",
    "chase.is_satisfiable",
    "chase.chase",
    "graph.sparql_ans",
    "mappings.join",
    "mappings.diff",
    "mappings.restrict",
    "mappings.otimes",
    "query.adm",
    "query.branch",
    "semantics",
    "harness.check_requirement",
]
COUNTS = [
    "chase.chase.calls",
    "chase.chase.builds",
    "chase.elements",
    "chase.atoms",
    "graph.sparql_ans.rows_out",
    "mappings.join.pairs_in",
    "mappings.join.rows_out",
    "mappings.diff.pairs_in",
    "mappings.compatible.calls",
    "mappings.otimes.family_scanned",
    "query.adm.family_size",
    "query.branch.count",
]


class BenchmarkError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def worker(self, mode: str, **options) -> dict:
        """Run one worker to its end; return its JSON result."""
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--root", str(ROOT), "--workdir", str(self.workdir),
            "--workload", self.args.workload, "--mode", mode,
        ]
        for key, value in options.items():
            command += [f"--{key}", str(value)]
        # A fixed hash seed fixes the iteration order of sets, on which
        # short-circuiting counts such as mappings.compatible.calls depend.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    """Every time is scaled to the reference host speed (see hostspeed.py):
    a request by the median of the six calibration units that bracket it
    and its two neighbours (more than its own two, to damp the noise of a
    single unit), a set-up by the median unit of its worker."""
    seed, seconds = runner.args.seed, runner.args.seconds / SEGMENTS
    setups, raw_setups, rss, latencies, raw, failed = [], [], [], [], [], 0
    totals = {"attempted": 0, "failed": 0}
    for segment in range(SEGMENTS):
        result = runner.worker("measure", seed=seed * SEGMENTS + segment, seconds=seconds)
        # Request i was bracketed by units[2i] and units[2i + 1].
        units = [u for pair in result["units_s"] for u in pair]
        raw_setups.append(result["setup_s"])
        setups.append(hostspeed.scale(result["setup_s"], statistics.median(units)))
        rss.append(result["peak_rss_mb"])
        raw += result["latencies_s"]
        latencies += [hostspeed.scale(t, statistics.median(units[max(0, 2 * i - 2):2 * i + 4]))
                      for i, t in enumerate(result["latencies_s"])]
        failed += result["failed"]
        # The warm-up request is checked too, but not timed.
        totals["attempted"] += result["attempted"] + 1
        totals["failed"] += result["failed"] + result["warm_up_failed"]
    latencies.sort()
    n = len(latencies)
    # The highest percentile with at least ten samples beyond it (or the
    # maximum, in a run too short to have one).
    tail_index = n - 11 if n > 10 else n - 1
    tail_percentile = 100.0 * (tail_index + 1) / n
    print(
        f"{runner.args.workload}: {n} requests, latency_tail_ms is "
        f"p{tail_percentile:.1f} of {n} samples; unscaled: latency p50 "
        f"{statistics.median(raw) * 1000:.1f} ms, set-ups (s) {raw_setups}"
    )
    metrics = {
        "throughput_rps": metric((n - failed) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": metric(latencies[tail_index] * 1000, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    return metrics, totals


def per_layer(runner: Runner) -> tuple[dict, dict]:
    requests = max(3, round(runner.args.seconds * TRACE_REQUESTS_PER_SECOND[runner.args.workload]))
    seed = runner.args.seed
    plain = runner.worker("trace", seed=seed, requests=requests, traced=0)
    traced = runner.worker("trace", seed=seed, requests=requests, traced=1)
    missing = traced["missing"] + sorted(
        k.removeprefix("missing:") for k in traced["counts"] if k.startswith("missing:")
    )
    if missing:
        print(f"not traced (reported as 0): {', '.join(missing)}", file=sys.stderr)
    metrics = {f"{layer}.self_s": metric(traced["self_s"].get(layer, 0.0), "s")
               for layer in SELF_TIME_LAYERS}
    metrics.update({name: metric(traced["counts"].get(name, 0), "count") for name in COUNTS})
    metrics["harness.verdicts.fail"] = metric(traced["verdicts_fail"], "count")
    metrics["trace.untraced_s"] = metric(traced["untraced_s"], "s")
    metrics["trace.overhead_ratio"] = metric(
        sum(traced["latencies_s"]) / sum(plain["latencies_s"]), "ratio"
    )
    request_s = sum(traced["latencies_s"])
    print(f"{runner.args.workload}: {requests} traced requests, {request_s:.3f} s of request time")
    totals = {
        "attempted": plain["attempted"] + traced["attempted"] + 2,
        "failed": sum(r["failed"] + r["warm_up_failed"] for r in (plain, traced)),
    }
    return metrics, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparqlkb" / "__init__.py").is_file():
        print(f"no sparqlkb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(args, workdir)
        metrics, totals = per_layer(runner) if args.trace else end_to_end(runner)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
