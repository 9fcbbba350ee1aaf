"""Line counts of the sparqlkb modules: lines, code lines and LRU caches.

    python3 tools/loc.py [DIR]

For each module of DIR (default: the repository's src/sparqlkb), and in
total, it prints three counts:

- lines, as ``wc -l`` counts them (newline characters);
- code lines: the lines that hold a token other than a comment, less the
  lines of every statement that is a string alone (module, class and
  function docstrings, and the attribute docstrings after an assignment);
- ``@lru_cache`` decorators, with or without arguments.

It uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def counts(text: str) -> tuple[int, int, int]:
    """(lines, code lines, @lru_cache decorators) of one module's source."""
    tree = ast.parse(text)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    caches = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            code.difference_update(range(node.lineno, node.end_lineno + 1))
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            caches += getattr(target, "id", getattr(target, "attr", None)) == "lru_cache"
    return text.count("\n"), len(code), caches


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "sparqlkb")
    args = parser.parse_args(argv)
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'lru_cache':>11}")
    total = [0, 0, 0]
    for path in sorted(args.dir.glob("*.py")):
        found = counts(path.read_text(encoding="utf-8"))
        total = [t + n for t, n in zip(total, found)]
        print(f"{path.name:<16}{found[0]:>7}{found[1]:>7}{found[2]:>11}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}{total[2]:>11}")


if __name__ == "__main__":
    main()
