"""Per-layer tracing of sparqlkb from outside the package.

The tracer replaces selected public functions by timing wrappers at every
place they are bound: each ``sparqlkb`` module attribute that holds the
function (its definition site and every ``from ... import`` of it), and each
value of a module-level dict such as ``SEMANTICS``.  Recursive calls made
through the module global therefore open nested spans too.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Only calls made during a request open spans: input
preparation between requests is not traced.  Counts are taken inside the span from the call's
arguments and result, so they cost the layer that does the work.

A target that no longer exists is recorded in ``missing``, and a counter
that can no longer read a call's arguments or result is counted under
``missing:<name>``, instead of raising: the benchmark keeps working after a
refactor, and the lost coverage shows up in ``trace.untraced_s``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _counted(layer: str, **counters):
    """A call runner that adds counters(args, result) under layer.<name>."""

    def run(fn, args, kwargs):
        result = fn(*args, **kwargs)
        try:
            counts = {f"{layer}.{k}": count(args, result) for k, count in counters.items()}
        except (AttributeError, IndexError, TypeError):
            counts = {f"missing:{layer}.{k}": 1 for k in counters}
        return result, counts

    return run


def _pairs_in(args, result):
    return len(args[0]) * len(args[1])


def _rows_out(args, result):
    return len(result)


def _chase_run(fn, args, kwargs):
    """Run a chase call; a cache miss is a build, whose size is counted."""
    info = getattr(fn, "cache_info", None)
    before = info().misses if info else 0
    cg = fn(*args, **kwargs)
    built = info is None or info().misses > before
    counts = {"chase.chase.calls": 1, "chase.chase.builds": int(built)}
    if built:
        try:
            counts["chase.atoms"] = len(cg.graph)
            counts["chase.elements"] = len(cg.graph.terms())
        except (AttributeError, TypeError):
            counts["missing:chase.atoms"] = 1
    return cg, counts


# (module, attribute, layer, call runner or None for time only)
TIMED = [
    ("sparqlkb.cli", "main", "cli.main", None),
    ("sparqlkb.cli", "parse_kb", "kb.parse_kb", None),
    ("sparqlkb.cli", "parse_query", "query.parse_query", None),
    ("sparqlkb.semantics", "chase", "chase.chase", _chase_run),
    ("sparqlkb.chase", "is_satisfiable", "chase.is_satisfiable", None),
    ("sparqlkb.chase", "saturate", "chase.saturate", None),
    ("sparqlkb.semantics", "sparql_ans", "graph.sparql_ans",
     _counted("graph.sparql_ans", rows_out=_rows_out)),
    ("sparqlkb.semantics", "sparql_ans_branch", "graph.sparql_ans", None),
    ("sparqlkb.graph", "join", "mappings.join",
     _counted("mappings.join", pairs_in=_pairs_in, rows_out=_rows_out)),
    ("sparqlkb.semantics", "join", "mappings.join",
     _counted("mappings.join", pairs_in=_pairs_in, rows_out=_rows_out)),
    ("sparqlkb.graph", "diff", "mappings.diff", _counted("mappings.diff", pairs_in=_pairs_in)),
    ("sparqlkb.semantics", "diff", "mappings.diff", _counted("mappings.diff", pairs_in=_pairs_in)),
    ("sparqlkb.graph", "project", "mappings.restrict", None),
    ("sparqlkb.semantics", "project", "mappings.restrict", None),
    ("sparqlkb.semantics", "restrict_filter", "mappings.restrict", None),
    ("sparqlkb.semantics", "restrict_project", "mappings.restrict", None),
    ("sparqlkb.semantics", "otimes", "mappings.otimes",
     _counted("mappings.otimes", family_scanned=_pairs_in)),
    ("sparqlkb.semantics", "adm", "query.adm", _counted("query.adm", family_size=_rows_out)),
    ("sparqlkb.semantics", "branch", "query.branch", _counted("query.branch", count=_rows_out)),
    ("sparqlkb.harness", "check_requirement", "harness.check_requirement", None),
]

# Called too often to time: only the calls are counted, and their time stays
# in the caller's self time.
COUNTED = [("sparqlkb.mappings", "compatible", "mappings.compatible.calls")]

# Dicts each of whose values is timed under one layer.
TIMED_DICT_VALUES = [("sparqlkb.semantics", "SEMANTICS", "semantics")]


def _resolve(module: str, attribute: str):
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span stack and per-layer sums for one traced process."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.untraced_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.untraced_s = 0.0

    def span(self, layer: str, fn, *args, _run=None, **kwargs):
        """Run fn(*args, **kwargs) as a span of the given layer, if a
        request is running."""
        if not self._stack:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            if _run is None:
                return fn(*args, **kwargs)
            result, counts = _run(fn, args, kwargs)
            for key, value in counts.items():
                self.counts[key] += value
            return result
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._stack[-1][0] += elapsed
            self.self_s[layer] += elapsed - frame[0]

    def request(self, fn, *args, **kwargs):
        """Run fn as one request; time that no span covers adds to untraced_s."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.untraced_s += elapsed - frame[0]

    def _timed(self, fn, layer: str, run):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(layer, fn, *args, _run=run, **kwargs)

        return wrapper

    def _count_calls(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in sparqlkb by its wrapper."""
        replace: dict[int, tuple[object, object]] = {}

        def add(module, attribute, make):
            fn = _resolve(module, attribute)
            if fn is None:
                self.missing.append(f"{module}.{attribute}")
            elif id(fn) not in replace:
                replace[id(fn)] = (fn, make(fn))

        for module, attribute, layer, run in TIMED:
            add(module, attribute, lambda fn: self._timed(fn, layer, run))
        for module, attribute, key in COUNTED:
            add(module, attribute, lambda fn: self._count_calls(fn, key))
        for module, attribute, layer in TIMED_DICT_VALUES:
            table = _resolve(module, attribute)
            if not isinstance(table, dict):
                self.missing.append(f"{module}.{attribute}")
                continue
            for fn in table.values():
                replace.setdefault(id(fn), (fn, self._timed(fn, layer, None)))

        def wrapper_for(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sparqlkb" or name.startswith("sparqlkb.")):
                continue
            for attribute, value in list(vars(mod).items()):
                wrapper = wrapper_for(value)
                if wrapper is not None:
                    setattr(mod, attribute, wrapper)
                    self._undo.append((setattr, mod, attribute, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = wrapper_for(item)
                        if wrapper is not None:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)
