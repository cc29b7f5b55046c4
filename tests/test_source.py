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


REPO = SRC.parents[1]
# name -> why it may stay without a reader for now
UNREFERENCED_OK = {
    "model.aggregate": "ROADMAP item 1 gives it a consumer: the eval report's final row",
}


def public_functions(tree):
    """(qualified name, name) of each public module-level function and
    public method in `tree`."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not item.name.startswith("_")]
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            found.append((node.name, node.name))
    return found


def referenced_names(tree):
    """Every name `tree` reads, as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_reference_checker_finds_an_unreferenced_function():
    tree = ast.parse("def f():\n    return g()\n\ndef g():\n    pass\n\n"
                     "class C:\n    def m(self):\n        return self.n\n"
                     "    def n(self):\n        pass\n    def _p(self):\n        pass\n")
    assert public_functions(tree) == [("f", "f"), ("g", "g"), ("C.m", "m"), ("C.n", "n")]
    assert {"g", "n"} <= referenced_names(tree) and not {"f", "m"} & referenced_names(tree)


def test_every_public_function_has_a_reader():
    """No public function exists only for tests: each public function and
    method of src/plstm is read by src/plstm, the bench harness or the
    acceptance checks."""
    sources = sorted(SRC.glob("*.py"))
    readers = [*sources, *sorted((REPO / "bench").glob("*.py")),
               REPO / "tests" / "test_acceptance.py"]
    read = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in readers))
    found = [f"{path.stem}.{qualified}" for path in sources
             for qualified, name in public_functions(ast.parse(path.read_text(encoding="utf-8")))
             if name not in read]
    assert sorted(set(found) - set(UNREFERENCED_OK)) == []
