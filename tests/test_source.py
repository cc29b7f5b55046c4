"""Checks on the source of src/plstm, read with stdlib `ast`."""

import ast
import contextlib
import io
from dataclasses import fields
from pathlib import Path

import pytest

from plstm import cli, model, worker
from plstm.model import BRANCH_NAMES, init_model
from plstm.train import TrainConfig

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


def reader_trees():
    """The parsed files whose reads keep a name of src/plstm in use:
    src/plstm itself, the bench harness and the acceptance checks."""
    readers = [*sorted(SRC.glob("*.py")), *sorted((REPO / "bench").glob("*.py")),
               REPO / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in readers]


def test_every_public_function_has_a_reader():
    """No public function exists only for tests: each public function and
    method of src/plstm is read by src/plstm, the bench harness or the
    acceptance checks."""
    sources = sorted(SRC.glob("*.py"))
    read = set().union(*(referenced_names(tree) for tree in reader_trees()))
    found = [f"{path.stem}.{qualified}" for path in sources
             for qualified, name in public_functions(ast.parse(path.read_text(encoding="utf-8")))
             if name not in read]
    assert sorted(set(found) - set(UNREFERENCED_OK)) == []


# module.class.field -> why it may stay without an attribute reader
UNREAD_FIELDS_OK = {
    "corpus.Document.id": "the loaders parse it, and that parse is how a malformed "
                          "record id is rejected",
}


def class_fields(tree):
    """(class.field, field) for each annotated field of a class in `tree`."""
    return [(f"{node.name}.{item.target.id}", item.target.id)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attribute_reads(tree):
    """Every name `tree` reads as an attribute, except of the bare name
    `args`: the argparse namespaces of `cli.py` and `bench/run.py` read an
    option, not a field."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}


def test_field_checker_finds_an_unread_field():
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z = 1\n"
                     "    def f(self):\n        self.y = 2\n        return self.x\n\n"
                     "class B:\n    w: str\n    s: float\n\nv = A(1).z + w + args.s\n")
    assert class_fields(tree) == [("A.x", "x"), ("A.y", "y"), ("B.w", "w"), ("B.s", "s")]
    assert attribute_reads(tree) & {"x", "y", "w", "s"} == {"x"}


def test_every_dataclass_field_has_a_reader():
    """No field is carried for nothing: each annotated class field of
    src/plstm is read as an attribute by src/plstm, the bench harness or
    the acceptance checks."""
    read = set().union(*(attribute_reads(tree) for tree in reader_trees()))
    found = [f"{path.stem}.{qualified}" for path in sorted(SRC.glob("*.py"))
             for qualified, name in class_fields(ast.parse(path.read_text(encoding="utf-8")))
             if name not in read]
    assert sorted(set(found) - set(UNREAD_FIELDS_OK)) == []


def restated_defaults(tree, defaults, owner=""):
    """(owner.name, value) for each function parameter and class field in
    `tree` whose default is a literal equal to defaults[name], except the
    fields of a class named `TrainConfig`, which `defaults` is read from."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = f"{owner}{node.name}"
        if isinstance(node, ast.ClassDef):
            pairs = [(item.target.id, item.value) for item in node.body
                     if isinstance(item, ast.AnnAssign) and node.name != "TrainConfig"]
        else:
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            pairs = [(arg.arg, value) for arg, value in
                     [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                      *zip(a.kwonlyargs, a.kw_defaults)]]
        found += [(f"{name}.{key}", value.value) for key, value in pairs
                  if isinstance(value, ast.Constant) and key in defaults
                  and value.value == defaults[key]]
        found += restated_defaults(node, defaults, f"{name}.")
    return found


def test_default_checker_finds_a_restated_default():
    tree = ast.parse("class TrainConfig:\n    seed: int = 0\n\n"
                     "class Run:\n    seed: int = 0\n    epochs: int = 2\n"
                     "    def __init__(self, rate, seed=0, *, epochs=1, name='x'):\n"
                     "        def inner(seed=1, epochs=1):\n            pass\n\n"
                     "def f(seed=SEED, epochs=1):\n    pass\n")
    assert restated_defaults(tree, {"seed": 0, "epochs": 1}) == [
        ("Run.seed", 0), ("Run.__init__.seed", 0), ("Run.__init__.epochs", 1),
        ("Run.__init__.inner.epochs", 1), ("f.epochs", 1)]


def test_no_default_restates_a_train_config_default():
    """A `TrainConfig` default is stated once: another parameter or field of
    the same name reads it from the constant `TrainConfig` reads, or has no
    default, so a changed default cannot leave a stale copy behind."""
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    found = [(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in restated_defaults(ast.parse(path.read_text(encoding="utf-8")), defaults)]
    assert found == []


# numpy's products that run through BLAS, which reorders sums
BLAS_PRODUCTS = {"np.dot", "np.matmul", "np.inner", "np.tensordot", "np.vdot"}
# the calls that make the ordered product, allowed in its kernel alone
KERNEL = "matmul_stacked"
KERNEL_CALLS = {"np.einsum", "np.add.reduce"}


def product_calls(tree, function=""):
    """(function, product) for each BLAS product in `tree` (the `@`
    operator, a `.dot(` call or one of BLAS_PRODUCTS) and each of
    KERNEL_CALLS outside a function named KERNEL, by innermost function."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((inner, "@"))
        elif isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if (callee in BLAS_PRODUCTS or callee.endswith(".dot")
                    or callee in KERNEL_CALLS and inner != KERNEL):
                found.append((inner, callee))
        found += product_calls(node, inner)
    return found


def test_product_checker_finds_every_product_outside_the_kernel():
    tree = ast.parse("def f(a, b):\n    c = a @ b\n    c @= b\n    return a.dot(np.inner(a, b))\n\n"
                     "def matmul_stacked(a, b):\n    np.add.reduce(np.einsum('i,j->ij', a, b))\n"
                     "    def g():\n        return np.einsum('i,j->ij', a, b)\n"
                     "    return np.tensordot(a, b)\n\n"
                     "x = np.add.reduce(np.vdot(a, np.matmul(a, b)))\n")
    assert product_calls(tree) == [
        ("f", "@"), ("f", "@"), ("f", "a.dot"), ("f", "np.inner"), ("g", "np.einsum"),
        ("matmul_stacked", "np.tensordot"), ("", "np.add.reduce"), ("", "np.vdot"),
        ("", "np.matmul")]


def test_every_product_goes_through_the_kernel():
    """Every matrix product in src/plstm is made by `tensor.matmul_stacked`,
    the one kernel that keeps the summation order: a BLAS product anywhere,
    or a product kernel's einsum or reduction outside it, could change the
    bytes of every result."""
    found = [(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in product_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# calls that start a thread
THREAD_STARTERS = {"Thread", "Timer", "start_new_thread", "start_joinable_thread"}
THREAD_MODULES = {"threading", "_thread", "concurrent"}
# the modules of `multiprocessing` that start no pool, shared memory or
# resource tracker
PIPE_MODULES = {"multiprocessing.connection"}


def thread_starts(tree, function=""):
    """(function, target) for each call in `tree` that starts a thread, by
    innermost function, with the source of its `target=` argument ("" if
    it has none)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func).rsplit(".", 1)[-1] in THREAD_STARTERS):
            found.append((inner, next((ast.unparse(k.value) for k in node.keywords
                                       if k.arg == "target"), "")))
        found += thread_starts(node, inner)
    return found


def imported_modules(tree):
    """Each module an import in `tree` names: `import a.b` names a.b, and
    `from a import b, c` names a.b and a.c, since b may be a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def pool_imports(tree):
    """Each module `tree` imports that can run work on threads, a pool or
    shared memory: threading and concurrent.futures, and multiprocessing
    beyond its pipes."""
    return [name for name in imported_modules(tree)
            if name.split(".")[0] in THREAD_MODULES
            or name.split(".")[0] == "multiprocessing"
            and not any(name.startswith(ok) for ok in PIPE_MODULES)]


def test_thread_checker_finds_every_thread_and_pool():
    tree = ast.parse("import threading, multiprocessing.pool, os\nfrom concurrent import futures\n"
                     "from multiprocessing import shared_memory, Pool\n"
                     "from multiprocessing.connection import Pipe\n"
                     "def f(g):\n    threading.Thread(target=copy_context().run, args=(g,))\n"
                     "    def h():\n        return Thread(target=g)\n"
                     "    return _thread.start_new_thread(g, ())\n")
    assert thread_starts(tree) == [("f", "copy_context().run"), ("h", "g"), ("f", "")]
    assert pool_imports(tree) == ["threading", "multiprocessing.pool", "concurrent.futures",
                                  "multiprocessing.shared_memory", "multiprocessing.Pool"]


def src_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_src_starts_no_thread():
    """The engine runs on the calling thread: numpy calls of 15-50 us trade
    the GIL between two threads more than they compute (ROADMAP, measured
    dead ends). Its one other worker is a process (`worker.Worker`)."""
    assert [(stem, hit) for stem, tree in src_trees().items()
            for hit in thread_starts(tree)] == []


def test_nothing_imports_a_pool_or_shared_memory():
    """No thread or process pool, shared memory, queue or semaphore: the
    pool modules and shared memory start a resource tracker, and the worker
    needs only `os.fork` and a pipe."""
    assert [(stem, name) for stem, tree in src_trees().items()
            for name in pool_imports(tree)] == []


def call_sites(tree, name, function=""):
    """The innermost function of each call in `tree` to `name`: a dotted
    name (`pickle.loads`) is the whole callee, a bare one (`fork`) its last
    part, so it is called bare or as an attribute."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if (callee if "." in name else callee.rsplit(".", 1)[-1]) == name:
                found.append(inner)
        found += call_sites(node, name, inner)
    return found


def test_call_site_checker_finds_every_call():
    tree = ast.parse("def f(a):\n    def g():\n        return lstm.run(a)\n"
                     "    return run(run, g())\n\nrun(1)\nx = run\n\n"
                     "def h(b):\n    return json.loads(pickle.loads(b))\n")
    assert call_sites(tree, "run") == ["g", "f", ""]
    assert call_sites(tree, "pickle.loads") == ["h"]
    assert call_sites(tree, "loads") == ["h", "h"]


def test_one_function_forks():
    """`worker.Worker.__init__` is the one place that starts a process: the
    direction worker, forked inside a `worker.scope()`, which reaps it."""
    assert [(stem, site) for stem, tree in src_trees().items()
            for site in call_sites(tree, "fork")] == [("worker", "__init__")]


# the calls that fork, open or use a pipe, stop a process, or pickle
PROCESS_CALLS = ("fork", "pipe", "readv", "writev", "kill", "waitpid", "_exit", "pickle.dumps",
                 "pickle.loads")


def test_only_the_worker_module_touches_processes_or_pickles():
    """How work reaches another process is one module's business: only
    `worker.py` forks, opens or uses a pipe, kills or reaps a process, or
    imports or calls `pickle`. So `lstm.py` cannot grow an
    in-turn fork of its own unnoticed."""
    trees = src_trees()
    assert sorted({(stem, name) for stem, tree in trees.items() for name in PROCESS_CALLS
                   if call_sites(tree, name)}) == sorted(
        ("worker", name) for name in PROCESS_CALLS)
    assert [stem for stem, tree in trees.items()
            if "pickle" in {name.split(".")[0] for name in imported_modules(tree)}] == ["worker"]


def test_the_worker_module_imports_no_plstm_module():
    """`worker.py` knows nothing of LSTMs: it imports the standard library
    and numpy alone, and no module of the package."""
    tree = src_trees()["worker"]
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
    assert {name.split(".")[0] for name in imported_modules(tree)} <= {
        "__future__", "contextlib", "itertools", "os", "pickle", "signal", "struct", "sys",
        "numpy"}


@pytest.mark.parametrize("unit, callers", [
    ("_direction", ["_pass_in_worker", "_pass_in_worker", "directional_pass"]),
    ("_directional_bptt", ["_bptt_in_worker", "bptt"]),
])
def test_each_direction_runs_one_way(unit, callers):
    """`directional_pass` and `bptt` each run the forward direction once,
    and the executor's handler runs the backward one (a forward-only pass
    and a per-position one, for `_pass_in_worker`): there is no second path
    that runs both directions in turn."""
    assert sorted(site for tree in src_trees().values()
                  for site in call_sites(tree, unit)) == callers


def name_reads(tree, name, function=""):
    """The innermost function of each read in `tree` of `name`, as a bare
    name or as an attribute."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else function)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.append(inner)
        found += name_reads(node, name, inner)
    return found


def test_read_checker_finds_every_read():
    tree = ast.parse("from t import N\nM = N // 2\n\ndef f(a):\n    N = 1\n"
                     "    def g():\n        return t.N + a\n    return N\n")
    assert name_reads(tree, "N") == ["", "g", "f"]


def test_the_block_budget_does_not_set_the_stack_rule():
    """`one_stack`, which also picks the branch groups, reads STACKED_ELEMS
    and no block budget, and STACKED_ELEMS is not made from one. The block
    budget `_BLOCK_ELEMS` is read by the product kernel and by Adam's chunk
    only. So a block size can be tuned without moving a group or a path."""
    trees = src_trees()
    reads = {name: sorted({(stem, site) for stem, tree in trees.items()
                           for site in name_reads(tree, name)})
             for name in ("_BLOCK_ELEMS", "STACKED_ELEMS")}
    assert reads["_BLOCK_ELEMS"] == [("tensor", "matmul_stacked"), ("train", "adam_step")]
    assert reads["STACKED_ELEMS"] == [("tensor", "one_stack")]


def test_the_worker_rule_has_one_reader():
    """`worker.worker_for` alone reads WORKER_TERMS: one rule decides
    whether a pass runs its backward direction in the worker or in
    process."""
    assert sorted({(stem, site) for stem, tree in src_trees().items()
                   for site in name_reads(tree, "WORKER_TERMS")}) == [("worker", "worker_for")]


# workload -> (batch rows, hidden, branches a group, {kind of pass: whether
# its backward direction runs in the worker}): the benchmark's step shapes
# (bench/workloads.py and data/train_smoke.cfg), how the shape rule groups
# them, and how the worker rule runs a training pass (its per-position
# table) and an eval or metrics pass (a token table and an index)
BENCH_STEPS = {
    "train_smoke": (8, 16, 4, {"train": False, "eval": False}),
    "train_long": (16, 32, 4, {"train": True, "eval": True}),
    "eval_long": (512, 32, 1, {"eval": True}),
}


@pytest.mark.parametrize("workload", sorted(BENCH_STEPS))
def test_bench_shapes_keep_their_groups_and_worker_rule(workload, tmp_path, monkeypatch):
    """The train workloads step the four branches as one group, `eval_long`
    each branch alone. `train_smoke`'s passes run their backward direction
    in process; `train_long`'s training and metrics passes, and each
    `eval_long` group's, run it in the worker. One unit of the workload,
    at seed 0, run as the benchmark runs it, checks every pass, and that
    its projection terms sit well away from WORKER_TERMS: a change to the
    stack rule or the worker rule that moved one would change what the
    benchmark measures."""
    batch, hidden, size, uses_worker = BENCH_STEPS[workload]
    groups = init_model(10, 4, hidden, seed=0).groups(batch)
    assert [len(group.names) for group in groups] == [size] * (len(BRANCH_NAMES) // size)

    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import workloads

    inputs = workloads.prepare(workload, 0, tmp_path)
    real_pass, real_rule, kinds, decisions = model.directional_pass, worker.worker_for, [], []

    def directional_pass(layer, sequence, mask, tokens):
        kinds.append("train" if tokens[1] is None else "eval")
        return real_pass(layer, sequence, mask, tokens)

    def worker_for(terms):
        executor = real_rule(terms)
        decisions.append((isinstance(executor, worker.Worker), terms / worker.WORKER_TERMS))
        return executor

    monkeypatch.setattr(model, "directional_pass", directional_pass)
    monkeypatch.setattr(worker, "worker_for", worker_for)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(inputs.argv) == 0
    assert sorted({(kind, used) for kind, (used, _) in zip(kinds, decisions)}) == sorted(
        uses_worker.items())
    # a factor of 2 or more from the rule: over the 16 input seeds of the
    # benchmark's pool the nearest pass sat 2.7x below it (train_smoke)
    # and 13.8x above it (train_long's metrics pass)
    assert all(ratio >= 2 if used else ratio <= 0.5 for used, ratio in decisions)
