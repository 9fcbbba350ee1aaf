"""tools/loc.py's counts on a small module whose counts are known."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring
over two lines."""

import functools
from functools import lru_cache

# a comment
X = 1
"""An attribute docstring."""


@lru_cache(maxsize=8)
def f(a):
    """One line."""
    return (a,
            a)  # a trailing comment


@functools.lru_cache
def g():
    text = """a string
    that is code"""
    return text


@staticmethod
def h():
    pass
'''


def _loc():
    spec = importlib.util.spec_from_file_location("tools_loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_known_module():
    # code: the two imports, X = 1, f's four lines besides its docstring,
    # g's five (its string is a value, not a docstring) and h's three
    assert _loc().counts(SOURCE) == (28, 15, 2)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    _loc().main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "28", "15", "2"],
        ["b.py", "1", "1", "0"],
        ["total", "29", "16", "2"],
    ]
