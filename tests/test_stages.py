"""tools/stages.py's per-stage summary, on canned times, one staged
request of each eval workload, which prints what `sparqlkb eval` prints, and
the timed check run of property-corpus."""

import importlib.util
import random
from pathlib import Path

import pytest

import sparqlkb.cli

STAGES_PATH = Path(__file__).resolve().parents[1] / "tools" / "stages.py"


def _stages():
    spec = importlib.util.spec_from_file_location("tools_stages", STAGES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reports_each_stage_mean_and_share():
    stages = _stages()
    # seconds per stage, two requests: the means are 1, 2, 3, 4, 5, 6, 4 ms
    times = [[0.001, 0.001, 0.002, 0.004, 0.005, 0.006, 0.003],
             [0.001, 0.003, 0.004, 0.004, 0.005, 0.006, 0.005]]
    assert stages.summarize("teaching-opt", times) == [
        "teaching-opt: 25.000 ms per request (mean of 2)",
        "  argparse       1.000 ms   4.0%",
        "  file read      2.000 ms   8.0%",
        "  parse_kb       3.000 ms  12.0%",
        "  parse_query    4.000 ms  16.0%",
        "  _model         5.000 ms  20.0%",
        "  semantics      6.000 ms  24.0%",
        "  print          4.000 ms  16.0%",
    ]


@pytest.mark.parametrize("name", ["teaching-opt", "branching-chase", "nested-opt"])
def test_a_staged_request_prints_what_eval_prints(name, tmp_path):
    stages = _stages()
    workload = stages.load_workloads()[name](tmp_path)
    expected = workload.prepare(random.Random(1))
    times, printed = stages.run_staged(sparqlkb, workload)
    assert len(times) == len(stages.STAGES) and min(times) >= 0
    assert workload.run(sparqlkb) == (0, printed)
    assert workload.check(expected, (0, printed))


def test_measure_times_each_request_after_the_warm_up():
    stages = _stages()
    times = stages.measure(sparqlkb, stages.load_workloads()["nested-opt"], requests=2, seed=1)
    assert len(times) == 2 and all(len(row) == len(stages.STAGES) for row in times)


def test_workload_runs_only_the_workloads_named(capsys):
    stages = _stages()
    assert stages.main(["--requests", "1", "--workload", "nested-opt",
                        "--workload", "teaching-opt"]) == 0
    heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
             if not line.startswith(" ")]
    assert heads == ["nested-opt", "teaching-opt"]
    with pytest.raises(SystemExit):
        stages.main(["--workload", "no-such-workload"])


@pytest.mark.parametrize("requests", ["0", "-1"])
def test_a_count_of_requests_below_one_is_refused(requests, capsys):
    stages = _stages()
    with pytest.raises(SystemExit) as refused:
        stages.main(["--requests", requests, "--workload", "nested-opt"])
    assert refused.value.code == 2
    assert f"--requests must be at least 1, got {requests}" in (
        capsys.readouterr().err)


def test_property_corpus_times_the_check_run(capsys):
    """Each request's one stage is its batch's check run, and the batch's
    reports pass the workload's oracle."""
    stages = _stages()
    workload = stages.load_workloads()["property-corpus"]
    times = stages.measure(sparqlkb, workload, requests=2, seed=1)
    assert len(times) == 2 and all(len(row) == 1 and row[0] > 0 for row in times)
    assert stages.main(["--requests", "1", "--workload", "property-corpus"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["property-corpus:", "check"]
