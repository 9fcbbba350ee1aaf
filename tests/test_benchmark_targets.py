"""The benchmark's tracer (perfbench/tracer.py) finds every sparqlkb
function it wraps, so removing or renaming one fails here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
