"""The benchmark in bench/ hooks plstm functions by name and silently skips
a name it cannot find, so a rename would zero a per-layer span or break the
eval fingerprint only at bench time. These checks catch that in the unit
tests. They only read bench/."""

import ast
import inspect
import os
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import plstm.cli  # noqa: E402,F401  loads every module the tracer rebinds
from plstm.model import init_model  # noqa: E402
from plstm.train import (EncodedDataset, TrainConfig, build_model,  # noqa: E402
                         encode_dataset, train)
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


def test_step_counters_read_directional_pass_arguments():
    """`--trace 1` step figures come from `directional_pass`'s positional
    sequence and mask; a reordered signature would corrupt them silently.
    Eval-mode `forward_batch` runs 1 pass on this small batch: the four
    branches step together, and one pass runs both directions."""
    L = 5
    model = init_model(9, 4, 3, seed=0, seq_len=L)
    mask = np.arange(L) < np.array([[5], [2], [3]])  # (batch, L), ragged
    ids = np.where(mask, np.arange(3)[:, None] + 2, 0)
    t = tracer.Tracer()
    with t.active():
        plstm.model.forward_batch(model, ids, mask)
    assert t.stats["lstm.directional_pass"][0] == 1
    assert t.counts["lstm.steps"] == L
    assert t.counts["lstm.row_steps"] == mask.size
    assert t.counts["lstm.useful_row_steps"] == mask.sum()


def test_adam_counter_counts_every_parameter_once_a_batch(data_dir):
    """`train.adam_step.elems` counts the entries `adam_step` is given: one
    batch on the `train_smoke` config makes one call over the whole
    parameter arena, so the per-unit counts (20 calls, 516,000 elements)
    stay comparable with the per-block update it replaced."""
    assert found_by_patched({"adam_step"}) == {"adam_step"}
    config = plstm.cli.load_config(data_dir / "train_smoke.cfg")
    config.epochs, config.verbose = 1, 0
    examples, vocab = plstm.cli._labeled(data_dir / "synthetic_train.tsv")
    data = encode_dataset(examples[: config.batch_size], vocab, config.seq_len)
    model = build_model(config, vocab.size, config.seed)
    t = tracer.Tracer()
    with t.active():
        train(model, data, config)
    assert t.stats["train.adam_step"][0] == 1
    assert t.counts["train.adam_step.elems"] == model.param_count()


def test_counter_hooked_functions_run_in_the_calling_process(monkeypatch, tmp_path):
    """The tracer counts in the process it runs in: a call in the direction
    worker, a forked copy, never reaches the benchmark's counts. On a
    training epoch whose every pass takes the worker, every function with a
    counter runs in the calling process, and of them only `matmul` runs in
    the worker too, for the backward direction's input-gradient rows: so
    `tensor.matmul.*` count the calling process's products alone. The
    span of `activate`, which has no counter, runs in both."""
    counted = {name for name, (_, before, after) in tracer.TRACED.items() if before or after}
    log = tmp_path / "calls"

    def factory(fn):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:  # appends from either process
                fh.write(f"{os.getpid()} {fn.__name__}\n")
            return fn(*args, **kwargs)
        return wrapper

    gen = np.random.default_rng(1)
    mask = np.arange(6) < gen.integers(1, 7, 16)[:, None]
    data = EncodedDataset(np.where(mask, gen.integers(1, 40, mask.shape), 0), mask,
                          np.arange(16) % 2)
    config = TrainConfig(epochs=1, batch_size=16, seed=2, verbose=0, hidden=8, embed_dim=4,
                         seq_len=6)
    with plstm.worker.scope(), tracer.patched({name: factory
                                                       for name in counted | {"activate"}}):
        train(build_model(config, 40, config.seed), data, config)
    calls = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, name = line.split()
        calls.setdefault("here" if int(pid) == os.getpid() else "worker", set()).add(name)
    assert calls["here"] == {"directional_pass", "matmul", "adam_step", "activate"}
    assert calls["worker"] == {"matmul", "activate"}
