"""Checks on the source of src/plstm, read with stdlib `ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plstm"


def unread_parameters(tree):
    """(function, parameter) for each parameter, `self` and `cls` aside, of
    a function in `tree` whose body never reads it."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(fn.name, p.arg) for p in params
                  if p is not None and p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_checker_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b=1, *c, d, **e):\n"
                     "    def g(self):\n        return a + e\n"
                     "    b = 2\n    return g\n")
    assert unread_parameters(tree) == [("f", "b"), ("f", "c"), ("f", "d")]


def test_every_parameter_is_read():
    """A parameter that no body reads is an option that does nothing."""
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
