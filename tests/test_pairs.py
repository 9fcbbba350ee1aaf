"""tools/pairs.py's summary of alternating benchmark pairs, on canned
result lines: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def _pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(rps: float, p50: float, failed: int = 0) -> str:
    """A perfbench --trace 0 run's output: a status line, then its result."""
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_rps": {"value": rps, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    }
    return f"property-corpus: 100 requests, latency_tail_ms is p90.0\n{json.dumps(result)}\n"


BETTER = {"throughput_rps": "higher", "latency_p50_ms": "lower"}


def test_summary_reports_medians_quartiles_and_pairs_won():
    pairs = _pairs()
    canned = [((50, 20), (60, 18)), ((52, 19), (51, 19)), ((54, 21), (64, 17)),
              ((56, 20), (62, 16)), ((58, 22), (66, 15))]
    results = [(pairs.parse_result(_stdout(*b)), pairs.parse_result(_stdout(*c))) for b, c in canned]
    lines = pairs.summarize(results, BETTER)
    assert lines == [
        "throughput_rps (higher is better): base 54 [52-56], change 62 [60-64], change won 4 of 5",
        "  50->60, 52->51, 54->64, 56->62, 58->66",
        # an equal value wins no pair
        "latency_p50_ms (lower is better): base 20 [20-21], change 17 [16-18], change won 4 of 5",
        "  20->18, 19->19, 21->17, 20->16, 22->15",
        "failed: base 0 of 500, change 0 of 500",
    ]


def test_summary_counts_failures_per_side():
    pairs = _pairs()
    results = [(pairs.parse_result(_stdout(50, 20)), pairs.parse_result(_stdout(60, 18, failed=3)))]
    lines = pairs.summarize(results, BETTER)
    assert lines[0].endswith("change won 1 of 1")
    assert lines[-1] == "failed: base 0 of 100, change 3 of 100"

