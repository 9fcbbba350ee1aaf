"""What `eval` prints.  It prints the engine's slot rows directly; the
SolutionMapping printer it replaced, kept in reference.py, defines the
bytes it must print."""

import io
from itertools import islice

import pytest

import reference
from conftest import m, ms
from sparqlkb.cli import EXIT_OK, EXIT_USAGE, _print_rows, main
from sparqlkb.errors import QueryShapeError
from sparqlkb.graph import Rows, to_mappings
from sparqlkb.harness import SizeParams, generate_instances
from sparqlkb.kb import parse_kb, serialize_kb
from sparqlkb.query import parse_query, serialize_query
from sparqlkb.semantics import SEMANTICS

FORMATS = ("tsv", "json")


def oracle(omega, fmt: str) -> str:
    out = io.StringIO()
    reference.print_mappings(omega, fmt, out)
    return out.getvalue()


def eval_stdout(kb_path, q_path, name: str, fmt: str):
    out = io.StringIO()
    code = main(
        ["eval", "--kb", str(kb_path), "--query", str(q_path), "--semantics", name,
         "--format", fmt],
        out=out,
    )
    return code, out.getvalue()


def assert_prints_as_the_oracle(tmp_path, kb_text: str, q_text: str) -> dict:
    """eval's stdout under every semantics and format equals the oracle's
    over SEMANTICS; returns the tsv output of each semantics that ran."""
    kb_path, q_path = tmp_path / "i.kb", tmp_path / "i.sq"
    kb_path.write_text(kb_text, encoding="utf-8")
    q_path.write_text(q_text + "\n", encoding="utf-8")
    kb, q = parse_kb(kb_text), parse_query(q_text)
    printed = {}
    for name, fn in SEMANTICS.items():
        try:
            omega = fn(q, kb, None)
        except QueryShapeError:
            for fmt in FORMATS:
                assert eval_stdout(kb_path, q_path, name, fmt) == (EXIT_USAGE, ""), name
            continue
        for fmt in FORMATS:
            expected = oracle(omega, fmt)
            assert eval_stdout(kb_path, q_path, name, fmt) == (EXIT_OK, expected), (
                name, fmt, q_text)
        printed[name] = oracle(omega, "tsv")
    return printed


@pytest.mark.parametrize("seed", [5, 29])
def test_generated_instances_print_as_the_oracle(tmp_path, seed):
    shape_errors = 0
    for kb, q in islice(generate_instances(seed, SizeParams()), 500):
        printed = assert_prints_as_the_oracle(tmp_path, serialize_kb(kb), serialize_query(q))
        shape_errors += len(SEMANTICS) - len(printed)
    assert shape_errors > 0


class TestHandCases:
    def test_an_empty_answer_set(self, tmp_path):
        printed = assert_prints_as_the_oracle(tmp_path, "TBOX:\nABOX:\nA(a) .\n", "B(?x)")
        assert set(printed.values()) == {""}
        assert eval_stdout(tmp_path / "i.kb", tmp_path / "i.sq", "mcan", "json") == (
            EXIT_OK, "[]\n")

    def test_the_single_empty_mapping(self, tmp_path):
        # ROADMAP item 1's two-role cycle: [{}] at the default bound
        printed = assert_prints_as_the_oracle(
            tmp_path,
            "TBOX: exists inv(r) [= exists s . exists inv(s) [= exists r . ABOX: r(a, b) .",
            "SELECT{z}(OPT(JOIN(r(?x,?y), r(?x,?u)), s(?y,?z)))",
        )
        assert printed["canonical"] == "\n"
        assert eval_stdout(tmp_path / "i.kb", tmp_path / "i.sq", "canonical", "json") == (
            EXIT_OK, "[{}]\n")

    def test_rows_with_unbound_slots(self, tmp_path):
        printed = assert_prints_as_the_oracle(
            tmp_path,
            "TBOX:\nABOX:\nA(a) .\nA(b) .\nB(a) .\nr(a, c) .\n",
            "UNION(UNION(OPT(A(?x), r(?x,?y)), A(?x)), B(?y))",
        )
        assert printed["plain"] == "?x=a\n?x=a\t?y=c\n?x=b\n?y=a\n"

    def test_names_sort_by_text_not_by_number(self, tmp_path):
        printed = assert_prints_as_the_oracle(
            tmp_path, "TBOX:\nABOX:\nA(I9) .\nA(I10) .\nA(I100) .\n", "A(?x)"
        )
        assert printed["plain"] == "?x=I10\n?x=I100\n?x=I9\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_sort_by_their_bound_variable_name_pairs(self, fmt):
        # a row's pairs in variable order; "Z" < "a" by text, yet ?x=a comes
        # before ?y=Z, and a row before every row it is a prefix of
        rows = Rows(
            ("x", "y"),
            {("a", "b"), ("a", None), ("Z", "a"), (None, "Z"), (None, "a"), ("Z", None)},
        )
        out = io.StringIO()
        _print_rows(rows, fmt, out)
        assert out.getvalue() == oracle(to_mappings(rows), fmt)
        if fmt == "tsv":
            assert out.getvalue() == "?x=Z\n?x=Z\t?y=a\n?x=a\n?x=a\t?y=b\n?y=Z\n?y=a\n"


def test_sort_mappings_is_deterministic():
    omega = ms(m(x="b"), m(x="a", y="c"), m())
    assert reference.sort_mappings(omega) == [m(), m(x="a", y="c"), m(x="b")]
