"""Host-speed calibration, so that the timings of runs taken at different
host speeds can be compared.

The benchmark runs on a few cores of a shared host.  Requests are timed in
CPU time (see worker.py), which leaves out the slices the scheduler gives
to other processes, but CPU time still moves by a third and more in phases
of seconds to minutes, as other tenants of the host compete for its caches
and cores.  Every timed request is therefore bracketed by calibration
units: a fixed piece of interpreted work that does not call sparqlkb, so no
change to the program moves it.  run.py scales a request's time by
REFERENCE_UNIT_S over the median of the units nearest to it: the result is
the time the request would take on a host on which one unit takes
REFERENCE_UNIT_S.  The host's speed cancels out; the program's does not.

The unit is a nested-loop join of small dict mappings, the same kind of
work (dicts, tuples, generator expressions, frozensets) the engine's
algebra does, so that a host slowdown slows both alike.  Garbage collection
is off during a unit, so its time does not depend on how large a heap the
program has built.
"""

from __future__ import annotations

import gc
import random
import time

# About the median CPU time of one unit on the 2-vCPU Xeon VM on which the
# benchmark was defined.  It only sets the scale of the reported times.
REFERENCE_UNIT_S = 0.006

_rng = random.Random(0)
_LEFT = [tuple(sorted({("x", f"a{_rng.randrange(40)}"), ("y", f"b{_rng.randrange(40)}")}))
         for _ in range(40)]
_RIGHT = [tuple(sorted({("y", f"b{_rng.randrange(40)}"), ("z", f"c{_rng.randrange(40)}")}))
          for _ in range(80)]


def _join() -> int:
    out = set()
    for w1 in _LEFT:
        for w2 in _RIGHT:
            d2 = dict(w2)
            if all(d2.get(v, t) == t for v, t in w1):
                d = dict(w1)
                d.update(w2)
                out.add(frozenset(d.items()))
    return len(out)


def unit() -> float:
    """Run one calibration unit; return its CPU time in seconds."""
    gc.disable()
    try:
        start = time.process_time()
        _join()
        return time.process_time() - start
    finally:
        gc.enable()


def scale(seconds: float, unit_s: float) -> float:
    """seconds measured while one unit took unit_s, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s
