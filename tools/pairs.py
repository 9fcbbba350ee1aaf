"""Alternating benchmark pairs of two checkouts, summarized per metric.

Run from anywhere, with two checkouts of the repository whose paths have
equal length (perfbench's peak_rss_mb moves with it, so the script refuses
checkouts whose resolved paths differ in length before it runs anything):

    python3 tools/pairs.py --base ../a --change ../b --first-seed 41 --pairs 10 \\
        --seconds 8 [--workload NAME ...]

Without --workload it runs every workload of BENCHMARK.json, one after the
other; --workload, which may be repeated, runs only the workloads named.
For each workload W, pair i runs
``perfbench/run.py --workload W --seed S+i --seconds N --trace 0`` in both
checkouts, one after the other; the base runs first in even pairs and the
change in odd ones.  Each run's result is the JSON object on the last line
of its standard output.  Each workload's summary block starts with its name;
for each end-to-end metric it gives both sides' medians and quartiles, the
number of pairs the change won (strictly better, in the direction that
BENCHMARK.json declares) and every pair's two values, then both sides'
failed requests.  The block ends with one verdict line per metric: the
change of the medians as a fraction of the base median, signed so that
positive means worse, the metric's bound from BENCHMARK.json, and the
verdict (see `verdict`); then one verdict line on the share of requests
that failed (see `failed_share`).  It uses only the standard library.
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


def failed_counts(pairs: list[tuple[dict, dict]]) -> list[tuple[int, int]]:
    """(failed, attempted) requests summed over the base runs, then over
    the change runs."""
    return [(sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
            for side in zip(*pairs)]


def failed_share(pairs: list[tuple[dict, dict]]) -> tuple[bool, str]:
    """Whether the change failed a larger share of its requests than the
    base, and the verdict line that says so: "more failed" or "not more"."""
    (fb, ab), (fc, ac) = failed_counts(pairs)
    more = fc * ab > fb * ac
    said = "more failed" if more else "not more"
    return more, f"failed share: base {fb / ab:.4f}, change {fc / ac:.4f}: {said}"


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
    (fb, ab), (fc, ac) = failed_counts(pairs)
    lines.append(f"failed: base {fb} of {ab}, change {fc} of {ac}")
    return lines


def verdict(
    base: list[float], change: list[float], direction: str, bound: float,
    more_failed: bool = False,
) -> tuple[float, str]:
    """The change of the medians as a fraction of the base median, positive
    when worse, and the verdict on the pairs (base[i], change[i]), in order:
    "gain" when the change won at least 9 in 10 of the pairs, the medians differ
    by more than the base's interquartile range, and the change did not fail
    a larger share of its requests (`more_failed`); "unresolved" when that range
    is wider than the bound and not every change run beats every base run;
    "beyond bound" when the change is worse by more than the bound; else
    "within bound"."""
    sign = 1 if direction == "higher" else -1
    (b1, b2, b3), (_, c2, _) = _quartiles(base), _quartiles(change)
    worse = sign * (b2 - c2) / b2
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if worse < 0 and 10 * won >= 9 * len(base) and abs(c2 - b2) > b3 - b1 and not more_failed:
        return worse, "gain"
    separated = all(sign * (c - b) > 0 for b in base for c in change)
    if (b3 - b1) / b2 > bound and not separated:
        return worse, "unresolved"
    return worse, "beyond bound" if worse > bound else "within bound"


def verdicts(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One verdict line per BENCHMARK.json end-to-end metric (a dict with
    "name", "better" and "bound") for (base, change) result pairs.  A gain
    does not count where the change failed a larger share of its requests,
    so no metric reads "gain" there."""
    more = failed_share(pairs)[0]
    lines = []
    for m in metrics:
        base = [b["metrics"][m["name"]]["value"] for b, _ in pairs]
        change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
        worse, said = verdict(base, change, m["better"], m["bound"], more)
        lines.append(f"{m['name']}: medians {worse:+.4f} of base (positive is worse), "
                     f"bound {m['bound']:g}: {said}")
    return lines



def chosen_workloads(named: list[str] | None, benchmark: dict) -> list[str]:
    """The workloads to run: those named, in order, or else every workload
    of the benchmark declaration."""
    return named or [w["name"] for w in benchmark["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    base_path, change_path = str(args.base.resolve()), str(args.change.resolve())
    if len(base_path) != len(change_path):
        raise SystemExit(
            f"checkout paths differ in length ({base_path!r}: {len(base_path)}, "
            f"{change_path!r}: {len(change_path)}); peak_rss_mb moves with it"
        )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    for workload in chosen_workloads(args.workload, benchmark):
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            runs = [("base", args.base), ("change", args.change)]
            if i % 2:
                runs.reverse()
            results = {side: run_once(checkout, workload, seed, args.seconds)
                       for side, checkout in runs}
            pairs.append((results["base"], results["change"]))
            print(f"{workload}: pair {i + 1} (seed {seed}) done", file=sys.stderr)
        lines = [f"{workload}:"] + summarize(pairs, better) + verdicts(pairs, benchmark["end_to_end"])
        lines.append(failed_share(pairs)[1])
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
