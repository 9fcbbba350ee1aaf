"""The benchmark's tracer (perfbench/tracer.py) finds every sparqlkb
function it wraps, so removing or renaming one fails here, and it still
counts what a request's chase builds."""

import importlib.util
from pathlib import Path

from sparqlkb import semantics
from sparqlkb.kb import parse_kb
from sparqlkb.query import parse_query

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_tracer_target_exists():
    tracer = _tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_a_traced_request_counts_its_chase():
    kb = parse_kb("TBOX: A [= exists r . exists inv(r) [= B . ABOX: A(a) .")
    q = parse_query("SELECT{x}( JOIN( A(?x), r(?x, ?y) ) )")
    tracer = _tracer()
    tracer.install()
    try:
        tracer.request(semantics.SEMANTICS["canonical"], q, kb)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts["chase.chase.calls"] == tracer.counts["chase.chase.builds"] == 1
    assert tracer.counts["chase.atoms"] > 0 and tracer.counts["chase.elements"] > 0
    assert [key for key in tracer.counts if key.startswith("missing:")] == []
