"""The benchmark in bench/ hooks plstm functions by name and silently skips
a name it cannot find, so a rename would zero a per-layer span or break the
eval fingerprint only at bench time. These checks catch that in the unit
tests. They only read bench/."""

import ast
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import plstm.cli  # noqa: E402,F401  loads every module the tracer rebinds
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_unit_hooks():
    """Function names in the `hooks` dicts that `workloads.run_unit` patches."""
    tree = ast.parse(inspect.getsource(workloads.run_unit))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "hooks" for t in node.targets):
            for d in ast.walk(node.value):
                if isinstance(d, ast.Dict):
                    names.update(k.value for k in d.keys)
    return names


def found_by_patched(names):
    """The subset of `names` that `tracer.patched` finds in plstm."""
    found = set()

    def factory(fn):
        found.add(fn.__name__)
        return fn

    with tracer.patched({name: factory for name in names}):
        pass
    return found


def test_run_unit_hooks_are_found():
    assert {"train", "encode_dataset", "forward_batch"} <= run_unit_hooks()


def test_every_hooked_name_is_a_plstm_function():
    names = set(tracer.TRACED) | run_unit_hooks()
    assert sorted(names - found_by_patched(names)) == []
