"""tools/reach.py, on its requests of each workload and the commands on
tests/fixtures: a request's join is entered, and the oracle that only the
tests call is not."""

import importlib.util
from pathlib import Path

REACH_PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("tools_reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_request_enters_join_and_no_run_enters_the_adm_oracle():
    reach = _reach()
    defined = set(reach.functions().values())
    assert {"sparqlkb.graph.join", "sparqlkb.harness.brute_force_adm"} <= defined
    unentered = reach.unentered()
    assert "sparqlkb.graph.join" not in unentered
    assert "sparqlkb.harness.brute_force_adm" in unentered
