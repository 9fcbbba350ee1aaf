"""tools/pairs.py's summary of alternating benchmark pairs, on canned
result lines, its choice of workloads, and its refusal of checkouts whose
paths differ in length: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ROOT / "tools" / "pairs.py"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


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


BOUNDED = [{"name": "throughput_rps", "better": "higher", "bound": 0.25},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]


def _results(base, change):
    """Canned (base, change) result pairs from (rps, p50) value lists."""
    pairs = _pairs()
    return [(pairs.parse_result(_stdout(*b)), pairs.parse_result(_stdout(*c)))
            for b, c in zip(zip(*base), zip(*change))]


def test_verdicts_gain_and_beyond_bound():
    # the change wins every pair on rps, by more than the base's interquartile
    # range, and its p50 is 38 % worse
    results = _results((range(100, 110), range(100, 110)), (range(120, 130), range(140, 150)))
    assert _pairs().verdicts(results, BOUNDED) == [
        "throughput_rps: medians -0.1914 of base (positive is worse), bound 0.25: gain",
        "latency_p50_ms: medians +0.3828 of base (positive is worse), bound 0.25: beyond bound",
    ]


def test_verdicts_unresolved_and_within_bound():
    # the base's rps quartiles (82.5 and 127.5 around 105) are further apart
    # than the bound, and the change's runs equal the base's
    wide = range(60, 160, 10)
    results = _results((wide, range(100, 110)), (wide, range(107, 117)))
    assert _pairs().verdicts(results, BOUNDED) == [
        "throughput_rps: medians +0.0000 of base (positive is worse), bound 0.25: unresolved",
        "latency_p50_ms: medians +0.0670 of base (positive is worse), bound 0.25: within bound",
    ]


def test_a_change_that_fails_a_larger_share_gains_nothing():
    # the change wins every pair on rps, by more than the base's
    # interquartile range, but fails 1 request in 1,000 where the base
    # fails none
    pairs = _pairs()
    results = _results((range(100, 110), range(100, 110)), (range(120, 130), range(100, 110)))
    assert pairs.verdicts(results, BOUNDED)[0].endswith(": gain")
    assert pairs.failed_share(results) == (
        False, "failed share: base 0.0000, change 0.0000: not more")
    results[3] = (results[3][0], pairs.parse_result(_stdout(123, 103, failed=1)))
    assert pairs.verdicts(results, BOUNDED)[0] == (
        "throughput_rps: medians -0.1914 of base (positive is worse), bound 0.25: within bound")
    assert pairs.failed_share(results) == (
        True, "failed share: base 0.0000, change 0.0010: more failed")


def test_a_change_that_wins_fewer_than_9_in_10_pairs_is_no_gain():
    pairs = _pairs()
    assert pairs.verdict([50, 52, 54, 56, 58], [60, 51, 64, 62, 66], "higher", 0.25) == (
        pytest.approx(-8 / 54), "within bound")
    assert pairs.verdict([20, 19, 21, 20, 22], [18, 18, 17, 16, 15], "lower", 0.25) == (
        pytest.approx(-3 / 20), "gain")


def _args(base: Path, change: Path) -> list[str]:
    return ["--base", str(base), "--change", str(change), "--workload", "property-corpus",
            "--first-seed", "1", "--pairs", "2"]


def test_checkouts_whose_paths_differ_in_length_are_refused(tmp_path, monkeypatch):
    pairs = _pairs()
    base, change = tmp_path / "a", tmp_path / "bb"
    base.mkdir()
    change.mkdir()
    ran = []
    monkeypatch.setattr(pairs, "run_once", lambda *args: ran.append(args))
    with pytest.raises(SystemExit, match="differ in length") as refused:
        pairs.main(_args(base, change))
    assert refused.value.code != 0 and ran == []


def test_a_count_of_pairs_below_one_is_refused(tmp_path, monkeypatch, capsys):
    pairs = _pairs()
    base, change = tmp_path / "a", tmp_path / "b"
    base.mkdir()
    change.mkdir()
    ran = []
    monkeypatch.setattr(pairs, "run_once", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as refused:
        pairs.main(_args(base, change)[:-1] + ["0"])
    assert refused.value.code == 2 and ran == []
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err


def test_checkouts_whose_paths_have_equal_length_run(tmp_path, monkeypatch, capsys):
    pairs = _pairs()
    base, change = tmp_path / "a", tmp_path / "b"
    base.mkdir()
    change.mkdir()
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append((checkout.name, seed))
        value = 2.0 if checkout == change else 1.0
        metrics = {name: {"value": value} for name in METRICS}
        return {"attempted": 100, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(_args(base, change)) == 0
    # the base runs first in even pairs, the change in odd ones
    assert ran == [("a", 1), ("b", 1), ("b", 2), ("a", 2)]
    assert "throughput_rps (higher is better): base 1 [1-1], change 2 [2-2], change won 2 of 2" in (
        capsys.readouterr().out.splitlines())


def test_no_workload_chooses_every_benchmark_workload_and_a_name_chooses_itself():
    pairs = _pairs()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    every = [w["name"] for w in benchmark["workloads"]]
    assert len(every) >= 2
    assert pairs.chosen_workloads(None, benchmark) == every
    assert pairs.chosen_workloads([every[-1], every[0]], benchmark) == [every[-1], every[0]]


def test_every_workload_runs_and_prints_its_own_block(tmp_path, monkeypatch, capsys):
    pairs = _pairs()
    base, change = tmp_path / "a", tmp_path / "b"
    base.mkdir()
    change.mkdir()
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append((workload, checkout.name, seed))
        metrics = {name: {"value": 1.0} for name in METRICS}
        return {"attempted": 100, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["--base", str(base), "--change", str(change), "--first-seed", "5", "--pairs", "1"]
    assert pairs.main(argv) == 0
    every = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert ran == [(w, side, 5) for w in every for side in ("a", "b")]
    out = capsys.readouterr().out.splitlines()
    # one header, one line pair per metric, the failure line, one
    # verdict line per metric and the failed-share verdict line
    block = 1 + 2 * len(METRICS) + 1 + len(METRICS) + 1
    assert len(out) == block * len(every)
    assert [out[i * block] for i in range(len(every))] == [f"{w}:" for w in every]

