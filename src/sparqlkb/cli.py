"""Command-line front end: eval, chase, analyze, check, gen."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import islice
from pathlib import Path

from .chase import chase, model_bound
from .errors import ParseError, QueryShapeError, SparqlKbError, UnsatisfiableKbError
from .graph import Rows
from .harness import (
    SizeParams,
    check_requirement,
    describe_instance,
    generate_instances,
)
from .kb import KnowledgeBase, parse_kb, serialize_kb
from .query import (
    Query,
    adm,
    base,
    branch,
    format_family,
    format_var_set,
    is_jo,
    parse_query,
    query_vars,
    serialize_query,
)
from .semantics import ROWS, SEMANTICS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_UNSAT = 3
EXIT_REQ_FAILED = 4


def _load_kb(path: str) -> KnowledgeBase:
    return parse_kb(Path(path).read_text(encoding="utf-8"))


def _load_query(path: str) -> Query:
    return parse_query(Path(path).read_text(encoding="utf-8"))


def _print_rows(rows: Rows, fmt: str, out) -> None:
    """Print answer rows in the order of their bound (variable, name) pairs.
    That is the order of their SolutionMappings as long as no row holds a
    `_:` name, which Term puts before every individual; no semantics returns
    one (tests/test_semantics.py::TestWitnessRows::
    test_no_semantics_returns_a_witness_name).  A row's key is its tsv
    line with "\\x01" for "=", which, like the tab, sorts before every name
    character, so keys sort as the pairs do ("?x=" sorts after "?x1=")."""
    heads = [f"?{v}\x01" for v in rows.vars]
    keys = sorted(
        "\t".join([head + name for head, name in zip(heads, row) if name is not None])
        for row in rows.rows
    )
    if fmt == "json":
        payload = [dict(pair.split("\x01") for pair in key.split("\t") if pair) for key in keys]
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    out.write("".join(key + "\n" for key in keys).replace("\x01", "="))


def _cmd_eval(args, out) -> int:
    kb = _load_kb(args.kb)
    q = _load_query(args.query)
    _print_rows(ROWS[args.semantics](q, kb, args.depth), args.format, out)
    return EXIT_OK


def _cmd_chase(args, out) -> int:
    kb = _load_kb(args.kb)
    depth = args.depth if args.depth is not None else model_bound(kb)
    cg = chase(kb, depth)
    for atom in cg.graph:
        print(f"{atom} .", file=out)
    return EXIT_OK


def _cmd_analyze(args, out) -> int:
    q = _load_query(args.query)
    print(f"vars: {format_var_set(query_vars(q))}", file=out)
    print(f"adm: {format_family(adm(q))}", file=out)
    branches = sorted(branch(q), key=serialize_query)
    print(f"branches: {len(branches)}", file=out)
    for qb in branches:
        print(f"branch: {serialize_query(qb)}", file=out)
        print(f"  adm: {format_family(adm(qb))}", file=out)
        if is_jo(qb):
            print(f"  base: {format_family(base(qb))}", file=out)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    kb = _load_kb(args.kb)
    q = _load_query(args.query)
    req_ids = args.requirements or [1, 2, 3, 4, 5]
    semantics = list(SEMANTICS) if args.all_semantics else ["mcan"]
    instance = f"{args.kb}:{args.query}"
    any_fail = False
    for name in semantics:
        for req_id in req_ids:
            report = check_requirement(req_id, name, q, kb, instance)
            print(json.dumps(report.to_dict(), sort_keys=True), file=out)
            any_fail = any_fail or report.verdict == "fail"
    return EXIT_REQ_FAILED if any_fail else EXIT_OK


def _cmd_gen(args, out) -> int:
    seed = args.seed
    env_seed = os.environ.get("MCAN_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise SparqlKbError(f"MCAN_SEED must be an integer, got {env_seed!r}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = generate_instances(seed, SizeParams())
    for i, (kb, q) in enumerate(islice(stream, args.count)):
        (out_dir / f"{i:04d}.kb").write_text(serialize_kb(kb), encoding="utf-8")
        (out_dir / f"{i:04d}.sq").write_text(serialize_query(q) + "\n", encoding="utf-8")
        print(f"{i:04d}: {describe_instance(kb, q)}", file=out)
    return EXIT_OK


def _requirement_ids(text: str) -> list[int]:
    try:
        ids = [int(r) for r in text.split(",")]
    except ValueError:
        ids = []
    if not ids or not all(1 <= i <= 5 for i in ids):
        raise argparse.ArgumentTypeError(f"expected ids in 1..5 separated by commas, got {text!r}")
    return ids


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# Built once per process: parse_args does not change the parser.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparqlkb",
        description="Query answering over DL-Lite_R knowledge bases "
        "under six comparable semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query under one semantics")
    p_eval.add_argument("--kb", required=True)
    p_eval.add_argument("--query", required=True)
    p_eval.add_argument("--semantics", required=True, choices=sorted(SEMANTICS))
    p_eval.add_argument("--depth", type=_count, default=None)
    p_eval.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p_eval.set_defaults(fn=_cmd_eval)

    p_chase = sub.add_parser("chase", help="dump the chase graph of a KB")
    p_chase.add_argument("--kb", required=True)
    p_chase.add_argument("--depth", type=_count, default=None)
    p_chase.set_defaults(fn=_cmd_chase)

    p_an = sub.add_parser("analyze", help="static query analyses")
    p_an.add_argument("--query", required=True)
    p_an.set_defaults(fn=_cmd_analyze)

    p_check = sub.add_parser("check", help="run requirement checks")
    p_check.add_argument("--kb", required=True)
    p_check.add_argument("--query", required=True)
    p_check.add_argument("--requirements", type=_requirement_ids, default=None)
    p_check.add_argument("--all-semantics", action="store_true")
    p_check.set_defaults(fn=_cmd_check)

    p_gen = sub.add_parser("gen", help="write generated instances to a directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=_count, default=10)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args, out)
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsatisfiableKbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except (QueryShapeError, SparqlKbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
