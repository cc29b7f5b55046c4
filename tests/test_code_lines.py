"""Checks on `tests/code_lines.py`, the counter behind every claim that a
change adds or removes code."""

import contextlib
import io

import code_lines

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        x = (1 +
             2)
        text = """not a docstring,
        so it is code"""
        return x, text, os
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    """Code: the import, `class A:`, `def f`, the two lines of `x`, the
    two of `text` and the return."""
    assert code_lines.code_lines(SNIPPET) == 8


def test_main_prints_each_module_and_their_sum():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code_lines.main([])
    *modules, total = [line.split() for line in out.getvalue().splitlines()]
    assert total[1] == "total"
    assert [name for _, name in modules] == sorted(p.name for p in code_lines.SRC.glob("*.py"))
    assert int(total[0]) == sum(int(count) for count, _ in modules)
