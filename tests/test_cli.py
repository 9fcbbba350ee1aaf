"""Command-line interface: subcommands, formats, exit codes."""

import io
import json
import time

import pytest

from conftest import FIXTURES, TEACHING_QUERY, join_chain, teaching_kb_text
from sparqlkb import SEMANTICS
from sparqlkb.kb import Atom, Term
from sparqlkb.mappings import SolutionMapping
from sparqlkb.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REQ_FAILED,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestEval:
    def test_tsv_output(self):
        code, text = run(
            "eval", "--kb", fixture("ex1.kb"), "--query", fixture("ex1.sq"),
            "--semantics", "mcan",
        )
        assert code == EXIT_OK
        assert text == "?x=Alice\n"

    def test_json_output(self):
        code, text = run(
            "eval", "--kb", fixture("ex3.kb"), "--query", fixture("ex3.sq"),
            "--semantics", "plain", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(text) == [
            {"?x": "Alice"},
            {"?x": "Alice", "?z": "Carol"},
        ]

    def test_empty_answer_set_is_empty_output(self):
        code, text = run(
            "eval", "--kb", fixture("ex1.kb"), "--query", fixture("ex1.sq"),
            "--semantics", "plain",
        )
        assert code == EXIT_OK and text == ""

    def test_explicit_depth_accepted(self):
        code, text = run(
            "eval", "--kb", fixture("ex7.kb"), "--query", fixture("ex7.sq"),
            "--semantics", "mcan", "--depth", "10",
        )
        assert code == EXIT_OK and text == "?x=Alice\n"

    def test_shape_error_exits_with_usage(self):
        code, _ = run(
            "eval", "--kb", fixture("ex1.kb"), "--query", fixture("ex6.sq"),
            "--semantics", "certain-ucq",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("semantics", ["canonical", "restricted", "mcan"])
    def test_a_deep_bound_costs_only_what_the_query_reads(self, tmp_path, semantics):
        """The query reads depth 1 of a chase that grows a witness per
        level, so a bound of 100,000 answers as fast as, and the same as,
        a bound of 5."""
        kb, q = tmp_path / "chain.kb", tmp_path / "anchored.sq"
        kb.write_text(
            "TBOX: A [= exists r . exists inv(r) [= exists s . exists inv(s) [= exists r ."
            " ABOX: A(a) ."
        )
        q.write_text("JOIN( A(?x), r(?x, ?y) )")
        argv = ("eval", "--kb", str(kb), "--query", str(q), "--semantics", semantics)
        start = time.process_time()
        deep = run(*argv, "--depth", "100000")
        assert time.process_time() - start < 2
        assert deep == run(*argv, "--depth", "5")
        assert deep[0] == EXIT_OK


class TestBoundary:
    """The engine runs on names and slot rows, and `eval` prints the slot
    rows: an eval request builds no public type.  The parser builds the
    ABox's name index, and no Atom of it; the printer writes the names in
    the rows, and no Term or SolutionMapping of them."""

    def test_one_request_builds_public_types_only_at_the_boundary(
        self, tmp_path, monkeypatch
    ):
        kb = tmp_path / "teaching.kb"
        kb.write_text(teaching_kb_text())
        q = tmp_path / "teaching.sq"
        q.write_text(TEACHING_QUERY + "\n")
        built = {Atom: 0, SolutionMapping: 0, Term: 0}
        for cls in built:
            check = cls.__post_init__

            def counting(self, cls=cls, check=check):
                built[cls] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        code, text = run(
            "eval", "--kb", str(kb), "--query", str(q), "--semantics", "mcan"
        )
        assert code == EXIT_OK
        rows = text.count("\n")
        assert rows > 200
        assert built == {Atom: 0, SolutionMapping: 0, Term: 0}


class TestChase:
    def test_dumps_fact_syntax(self):
        code, text = run("chase", "--kb", fixture("ex1.kb"), "--depth", "1")
        assert code == EXIT_OK
        assert text == (
            "Driver(Alice) .\nhasLicense(Alice, _:Alice|hasLicense) .\n"
        )

    def test_default_depth_is_the_library_model_bound(self, tmp_path):
        # One TBox role gives depth 2*1 + 1 = 3; the ABox-only role knows
        # does not count.
        kb = tmp_path / "cycle.kb"
        kb.write_text(
            "TBOX: A [= exists r . exists inv(r) [= A . ABOX: A(a) . knows(a, b) ."
        )
        code, text = run("chase", "--kb", str(kb))
        assert code == EXIT_OK
        assert text == (
            "A(_:a|r) .\nA(_:a|r|r) .\nA(_:a|r|r|r) .\nA(a) .\n"
            "knows(a, b) .\nr(_:a|r, _:a|r|r) .\nr(_:a|r|r, _:a|r|r|r) .\n"
            "r(a, _:a|r) .\n"
        )

    def test_runs_are_byte_identical(self):
        first = run("chase", "--kb", fixture("ex7.kb"))
        second = run("chase", "--kb", fixture("ex7.kb"))
        assert first == second


class TestAnalyze:
    def test_reports_vars_adm_and_branches(self):
        code, text = run("analyze", "--query", fixture("ex7.sq"))
        assert code == EXIT_OK
        assert "vars: {x,y,z}" in text
        assert "adm: {{x},{x,y,z}}" in text
        assert "branches: 1" in text
        assert "base: {{x},{x,y,z}}" in text

    def test_left_deep_opt_chain_prints_the_linear_base(self, tmp_path):
        q = tmp_path / "chain.sq"
        q.write_text("OPT(OPT(A(?x), R(?x,?y)), S(?x,?w))\n")
        code, text = run("analyze", "--query", str(q))
        assert code == EXIT_OK
        assert "  adm: {{w,x},{w,x,y},{x},{x,y}}\n" in text
        assert "  base: {{w,x},{x},{x,y}}\n" in text


@pytest.mark.parametrize("left_deep", [True, False])
def test_nesting_at_the_limit_runs_everywhere(tmp_path, left_deep):
    kb, q = tmp_path / "deep.kb", tmp_path / "deep.sq"
    kb.write_text("TBOX: A [= exists r . ABOX: A(a) . r(a, b) .\n")
    q.write_text(join_chain(256, left_deep) + "\n")
    for name in SEMANTICS:
        code, text = run("eval", "--kb", str(kb), "--query", str(q), "--semantics", name)
        assert code == EXIT_OK and text.startswith("?x=a\t"), name
    code, text = run("analyze", "--query", str(q))
    assert code == EXIT_OK and "branches: 1\n" in text
    code, _ = run("check", "--kb", str(kb), "--query", str(q), "--all-semantics")
    assert code == EXIT_OK


class TestCheck:
    def test_all_pass_for_mcan(self):
        code, text = run(
            "check", "--kb", fixture("ex7.kb"), "--query", fixture("ex7.sq")
        )
        assert code == EXIT_OK
        reports = [json.loads(line) for line in text.splitlines()]
        assert {r["requirement"] for r in reports} == {1, 2, 3, 4, 5}
        assert all(r["verdict"] in ("pass", "not-applicable") for r in reports)

    def test_failure_sets_the_exit_code(self):
        code, text = run(
            "check", "--kb", fixture("ex7.kb"), "--query", fixture("ex7.sq"),
            "--requirements", "4", "--all-semantics",
        )
        assert code == EXIT_REQ_FAILED
        verdicts = {
            json.loads(line)["semantics"]: json.loads(line)["verdict"]
            for line in text.splitlines()
        }
        assert verdicts["restricted"] == "fail"
        assert verdicts["mcan"] == "pass"


class TestGen:
    def test_writes_parseable_instances(self, tmp_path):
        code, text = run("gen", "--seed", "3", "--count", "4", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert len(list(tmp_path.glob("*.kb"))) == 4
        assert len(list(tmp_path.glob("*.sq"))) == 4
        from sparqlkb import parse_kb, parse_query

        for p in tmp_path.glob("*.kb"):
            parse_kb(p.read_text())
        for p in tmp_path.glob("*.sq"):
            parse_query(p.read_text())

    def test_env_seed_override(self, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MCAN_SEED", "9")
        run("gen", "--seed", "1", "--count", "2", "--out", str(d1))
        run("gen", "--seed", "2", "--count", "2", "--out", str(d2))
        assert (d1 / "0000.kb").read_text() == (d2 / "0000.kb").read_text()


class TestErrorPaths:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("TBOX ABOX")
        code, _ = run(
            "eval", "--kb", str(bad), "--query", fixture("ex1.sq"),
            "--semantics", "plain",
        )
        assert code == EXIT_PARSE

    def test_non_utf8_input_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_bytes(b"\xff\xfeTBOX: ABOX: A(a) .")
        code, _ = run(
            "eval", "--kb", str(bad), "--query", fixture("ex1.sq"),
            "--semantics", "plain",
        )
        assert code == EXIT_PARSE

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        q = tmp_path / "deep.sq"
        q.write_text(join_chain(1200) + "\n")
        code, text = run(
            "eval", "--kb", fixture("ex1.kb"), "--query", str(q),
            "--semantics", "mcan",
        )
        assert code == EXIT_PARSE and text == ""
        err = capsys.readouterr().err
        assert "query nested too deeply" in err and "Traceback" not in err

    def test_unsat_kb_exit_code(self, tmp_path):
        kb = tmp_path / "unsat.kb"
        kb.write_text("TBOX:\nA [= not B .\nABOX:\nA(c) .\nB(c) .\n")
        code, _ = run(
            "eval", "--kb", str(kb), "--query", fixture("ex6b.sq"),
            "--semantics", "mcan",
        )
        assert code == EXIT_UNSAT

    def test_missing_file_exit_code(self):
        code, _ = run(
            "eval", "--kb", "/nonexistent.kb", "--query", fixture("ex1.sq"),
            "--semantics", "plain",
        )
        assert code == EXIT_USAGE

    def test_unknown_subcommand_is_usage(self):
        code, _ = run("frobnicate")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("ids", ["x", "7"])
    def test_bad_requirement_ids_are_usage(self, ids, capsys):
        code, text = run(
            "check", "--kb", fixture("ex7.kb"), "--query", fixture("ex7.sq"),
            "--requirements", ids,
        )
        assert code == EXIT_USAGE and text == ""
        assert "expected ids in 1..5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--kb", fixture("ex1.kb"), "--query", fixture("ex1.sq"),
         "--semantics", "mcan", "--depth", "-2"],
        ["chase", "--kb", fixture("ex1.kb"), "--depth", "-3"],
    ])
    def test_negative_depth_is_usage(self, command, capsys):
        code, text = run(*command)
        assert code == EXIT_USAGE and text == ""
        assert "expected a non-negative integer" in capsys.readouterr().err

    def test_negative_count_is_usage(self, tmp_path, capsys):
        code, _ = run("gen", "--count", "-1", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "expected a non-negative integer" in capsys.readouterr().err

    def test_non_integer_env_seed_is_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MCAN_SEED", "abc")
        code, _ = run("gen", "--count", "1", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "MCAN_SEED must be an integer" in capsys.readouterr().err
