"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py, one fresh process per pass, so that peak memory and every
``lru_cache`` in sparqlkb start empty.  Set-up is interpreter start, the
import and one untimed warm-up request on a fixed input, the same for every
seed, so that set-up time does not depend on the seed.  The worker prints one
JSON line with its raw measurements when it finishes.

Times are CPU times of this process (``time.process_time``): sparqlkb is
single-threaded and a request waits for nothing, so a request's CPU time is
its duration on an idle machine, without the slices the scheduler gives to
other processes.  Set-up time is the CPU time from process start to the
first timed request.

Modes:
  measure  closed-loop requests for --seconds (and at least the workload's
           rss_after_requests), tracing off, each request bracketed by
           two host-speed calibration units
  trace    exactly --requests requests, traced if --traced 1, so that two
           runs with one seed make the same calls
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS

# The warm-up request comes from its own fixed stream, apart from the timed
# ones, whose seeds run.py derives from small benchmark seeds.
WARM_UP_SEED = 2**61 - 1


def import_sparqlkb(root: Path):
    """Import the package from root/src, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sparqlkb
    import sparqlkb.cli
    import sparqlkb.harness
    import sparqlkb.semantics

    if src not in Path(sparqlkb.__file__).resolve().parents:
        raise ImportError(f"sparqlkb was imported from {sparqlkb.__file__}, not {src}")
    return sparqlkb


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Session:
    """Sends one workload's requests one at a time and checks each answer."""

    def __init__(self, workload, sparqlkb, tracer: Tracer | None = None):
        self.workload = workload
        self.sparqlkb = sparqlkb
        self.tracer = tracer
        # If set, each timed request is bracketed by two calibration units,
        # run right before and right after it (see hostspeed.py).
        self.calibrate = False
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts_fail = 0
        self.latencies_s: list[float] = []
        self.units_s: list[tuple[float, float]] = []
        if self.tracer:
            self.tracer.reset()

    def request(self, rng: random.Random) -> None:
        """Prepare, time and check one request.  A wrong answer, an exception
        or a non-zero exit code counts as a failed request."""
        workload, tracer = self.workload, self.tracer
        expected = workload.prepare(rng)
        self.attempted += 1
        before = hostspeed.unit() if self.calibrate else 0.0
        start = time.process_time()
        try:
            if tracer:
                outcome = tracer.request(workload.run, self.sparqlkb)
            else:
                outcome = workload.run(self.sparqlkb)
            ok = True
        except Exception as exc:  # noqa: BLE001 - any exception fails the request
            ok = False
            print(f"request {self.attempted} raised {exc!r}", file=sys.stderr)
        self.latencies_s.append(time.process_time() - start)
        if self.calibrate:
            self.units_s.append((before, hostspeed.unit()))
        if ok and not workload.check(expected, outcome):
            ok = False
            print(f"request {self.attempted} gave a wrong answer", file=sys.stderr)
        if not ok:
            self.failed += 1
        elif hasattr(workload, "other_fails"):
            self.verdicts_fail += workload.other_fails(outcome)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["measure", "trace"])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    sparqlkb = import_sparqlkb(Path(args.root))
    workload = WORKLOADS[args.workload](Path(args.workdir))
    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    session = Session(workload, sparqlkb, tracer)

    workload.start(sparqlkb, WARM_UP_SEED)
    session.request(random.Random(WARM_UP_SEED))
    warm_up_failed = session.failed
    session.reset()
    session.calibrate = args.mode == "measure"  # set-up runs no units
    workload.start(sparqlkb, args.seed)
    rng = random.Random(f"{args.seed}:requests")
    setup_s = time.process_time()

    loop_start = time.perf_counter()
    peak_rss_mb = None
    if args.mode == "measure":
        while (
            session.attempted < workload.rss_after_requests
            or time.perf_counter() - loop_start < args.seconds
        ):
            session.request(rng)
            if session.attempted == workload.rss_after_requests:
                peak_rss_mb = _peak_rss_mb()
    else:
        for _ in range(args.requests):
            session.request(rng)
    result = {
        "setup_s": setup_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "warm_up_failed": warm_up_failed,
        "latencies_s": session.latencies_s,
        "units_s": session.units_s,
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
        "verdicts_fail": session.verdicts_fail,
    }
    if tracer:
        tracer.uninstall()
        result.update(
            self_s=tracer.self_s,
            counts=tracer.counts,
            untraced_s=tracer.untraced_s,
            missing=tracer.missing,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
