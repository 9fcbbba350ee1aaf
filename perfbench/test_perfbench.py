"""Self-tests of the benchmark: oracles, failure counting, tracing, counts.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TIMED, Tracer  # noqa: E402
from worker import Session, import_sparqlkb  # noqa: E402
from workloads import WORKLOADS, NestedOpt, PropertyCorpus, TeachingOpt  # noqa: E402

sparqlkb = import_sparqlkb(ROOT)


def _session(cls, tmp_path, seed=5, tracer=None):
    workload = cls(tmp_path)
    workload.start(sparqlkb, seed)
    return Session(workload, sparqlkb, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_the_engine_answers(name, tmp_path):
    session = _session(WORKLOADS[name], tmp_path)
    rng = random.Random(11)
    for _ in range(2):
        session.request(rng)
    assert (session.attempted, session.failed) == (2, 0)


class DropsOneAnswer(TeachingOpt):
    def run(self, sparqlkb):
        code, text = super().run(sparqlkb)
        return code, "\n".join(text.splitlines()[1:])


class ExitsNonZero(NestedOpt):
    def run(self, sparqlkb):
        return 2, super().run(sparqlkb)[1]


class Raises(NestedOpt):
    def run(self, sparqlkb):
        raise RuntimeError("injected")


class McanFails(PropertyCorpus):
    def run(self, sparqlkb):
        reports = super().run(sparqlkb)
        mcan = next(r for r in reports if r.semantics == "mcan")
        return reports + [type(mcan)(mcan.requirement, "mcan", "", "fail")]


@pytest.mark.parametrize("cls", [DropsOneAnswer, ExitsNonZero, Raises, McanFails])
def test_a_wrong_answer_is_counted_as_failed(cls, tmp_path):
    session = _session(cls, tmp_path)
    session.request(random.Random(3))
    assert (session.attempted, session.failed) == (1, 1)


def test_other_semantics_fails_are_counted_not_failed(tmp_path):
    session = _session(PropertyCorpus, tmp_path, seed=101)
    rng = random.Random(0)
    for _ in range(4):
        session.request(rng)
    assert session.failed == 0
    assert session.verdicts_fail > 0


def test_tracer_covers_a_request_and_restores_the_package(tmp_path):
    originals = (sparqlkb.cli.main, sparqlkb.semantics.join, dict(sparqlkb.semantics.SEMANTICS))
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        session = _session(TeachingOpt, tmp_path, tracer=tracer)
        session.request(random.Random(1))
    finally:
        tracer.uninstall()
    assert session.failed == 0
    assert (sparqlkb.cli.main, sparqlkb.semantics.join, sparqlkb.semantics.SEMANTICS) == (
        originals[0], originals[1], originals[2])
    assert tracer.self_s["mappings.join"] > 0
    assert tracer.counts["mappings.join.pairs_in"] == tracer.counts["mappings.diff.pairs_in"]
    assert tracer.counts["chase.chase.builds"] == 1
    assert tracer.untraced_s < 0.1 * sum(session.latencies_s)


def test_a_vanished_target_is_reported_missing(monkeypatch):
    monkeypatch.setattr(
        "tracer.TIMED", TIMED + [("sparqlkb.semantics", "no_such_function", "x", None)]
    )
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["sparqlkb.semantics.no_such_function"]


def test_measured_requests_are_bracketed_by_calibration_units(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", str(tmp_path),
         "--workload", "nested-opt", "--mode", "measure", "--seed", "3", "--seconds", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == len(result["latencies_s"]) == NestedOpt.rss_after_requests
    assert len(result["units_s"]) == result["attempted"]
    assert all(before > 0 and after > 0 for before, after in result["units_s"])
    assert result["setup_s"] > 0


def _run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_for_one_seed(name):
    results = []
    for _ in range(2):
        proc = _run_benchmark(ROOT, name, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert all(r["correct"] for r in results)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(tmp_path, "teaching-opt", trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
