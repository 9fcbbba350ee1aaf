"""Alternating benchmark pairs of two checkouts, summarized per metric.

Run from anywhere, with two checkouts of the repository whose paths have
equal length (perfbench's peak_rss_mb moves with it, so the script refuses
checkouts whose resolved paths differ in length before it runs anything):

    python3 tools/pairs.py --base ../a --change ../b --workload property-corpus \\
        --first-seed 41 --pairs 10 --seconds 8

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds N --trace 0``
in both checkouts, one after the other; the base runs first in even pairs and
the change in odd ones.  Each run's result is the JSON object on the last line
of its standard output.  For each end-to-end metric the script prints both
sides' medians and quartiles, the number of pairs the change won (strictly
better, in the direction that BENCHMARK.json declares) and every pair's two
values.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_result(stdout: str) -> dict:
    """The result object of one perfbench run: its last output line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited with {done.returncode}\n{done.stderr}")
    return parse_result(done.stdout)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One block of lines per metric for (base, change) result pairs.
    `better` maps each metric name to "higher" or "lower"."""
    lines = []
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = _quartiles(base), _quartiles(change)
        lines.append(
            f"{name} ({direction} is better): base {b2:.4g} [{b1:.4g}-{b3:.4g}], "
            f"change {c2:.4g} [{c1:.4g}-{c3:.4g}], change won {won} of {len(pairs)}"
        )
        lines.append("  " + ", ".join(f"{b:.4g}->{c:.4g}" for b, c in zip(base, change)))
    failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
    attempted = [sum(r["attempted"] for r in side) for side in zip(*pairs)]
    lines.append(f"failed: base {failed[0]} of {attempted[0]}, change {failed[1]} of {attempted[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args(argv)
    base_path, change_path = str(args.base.resolve()), str(args.change.resolve())
    if len(base_path) != len(change_path):
        raise SystemExit(
            f"checkout paths differ in length ({base_path!r}: {len(base_path)}, "
            f"{change_path!r}: {len(change_path)}); peak_rss_mb moves with it"
        )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        runs = [("base", args.base), ("change", args.change)]
        if i % 2:
            runs.reverse()
        results = {side: run_once(checkout, args.workload, seed, args.seconds)
                   for side, checkout in runs}
        pairs.append((results["base"], results["change"]))
        print(f"pair {i + 1} (seed {seed}) done", file=sys.stderr)
    print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
