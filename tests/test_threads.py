"""The two-thread pass: where a step's recurrent product runs the one-term
loop, `directional_pass` runs the backward direction, its input projection
and then its steps, on a second thread. Most checks here run batches on
that path: 130 rows at H=32 make a 130 x 128 product per branch, over
STACKED_ELEMS, so the branches step one at a time and each group's two
directions run on two threads. One check runs epochs at the bench's train
shapes, which stay on the calling thread."""

import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from plstm import lstm
from plstm.model import BRANCH_NAMES, forward_batch, init_model
from plstm.tensor import one_stack
from plstm.train import EncodedDataset, TrainConfig, build_model, train, write_epoch_csv

BATCH, L, HIDDEN, EMBED, VOCAB = 130, 6, 32, 4, 40
SRC = Path(__file__).resolve().parents[1] / "src"


def ragged(seed):
    """(ids, mask), each (BATCH, L): lengths 0..L with holes punched in."""
    gen = np.random.default_rng(seed)
    mask = (np.arange(L) < gen.integers(0, L + 1, BATCH)[:, None]) & (gen.random((BATCH, L)) > 0.2)
    return np.where(mask, gen.integers(1, VOCAB, (BATCH, L)), 0), mask


def test_batches_here_take_the_two_thread_path():
    model = init_model(VOCAB, EMBED, HIDDEN, seed=0)
    assert [len(g.branches) for g in model.groups(BATCH)] == [1] * len(BRANCH_NAMES)
    assert not one_stack(1, BATCH, 4 * HIDDEN)


def threaded_and_inline(monkeypatch, run):
    """(number of two-thread runs, run() threaded, run() with the second
    direction run inline after the first). The threaded run switches
    threads as often as the interpreter allows, so the two directions'
    bytecode interleaves finely."""
    real, calls, interval = lstm._in_parallel, [], sys.getswitchinterval()

    def counting(first, second):
        calls.append(threading.get_ident())
        return real(first, second)

    monkeypatch.setattr(lstm, "_in_parallel", counting)
    sys.setswitchinterval(1e-6)
    try:
        threaded = run()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(lstm, "_in_parallel", lambda first, second: (first(), second()))
    return len(calls), threaded, run()


@pytest.mark.parametrize("gate_mode", ["standard", "literal_eq9"])
def test_eval_scores_match_one_thread_bitwise(monkeypatch, gate_mode):
    model = init_model(VOCAB, EMBED, HIDDEN, seed=1, gate_mode=gate_mode)
    ids, mask = ragged(2)
    runs, threaded, inline = threaded_and_inline(
        monkeypatch, lambda: forward_batch(model, ids, mask)[0])
    assert runs == len(BRANCH_NAMES)  # one per branch group
    for name in BRANCH_NAMES:
        assert threaded[name].tobytes() == inline[name].tobytes(), name


@pytest.mark.parametrize("gate_mode", ["standard", "literal_eq9"])
def test_one_epoch_matches_one_thread_bitwise(monkeypatch, tmp_path, gate_mode):
    ids, mask = ragged(3)
    data = EncodedDataset(ids, mask, np.arange(BATCH) % 2)
    config = TrainConfig(epochs=1, batch_size=BATCH, seed=4, verbose=0, hidden=HIDDEN,
                         embed_dim=EMBED, seq_len=L, gate_mode=gate_mode)

    def run():
        model, logs = train(build_model(config, VOCAB, config.seed), data, config)
        write_epoch_csv(logs, tmp_path / "epochs.csv")
        return (tmp_path / "epochs.csv").read_bytes(), model.arena.tobytes()

    runs, threaded, inline = threaded_and_inline(monkeypatch, run)
    assert runs == 2 * len(BRANCH_NAMES)  # the training batch and the epoch's metrics
    assert threaded == inline


def diverging_run(tmp_path):
    """argv of a `plstm train` that diverges on the two-thread path, and its
    --out directory."""
    gen = np.random.default_rng(5)
    words = [f"w{k}" for k in range(VOCAB)]
    (tmp_path / "docs.tsv").write_text("".join(
        f"{d}\t{' '.join(gen.choice(words, gen.integers(1, L + 3)))}\t{d % 2}\n"
        for d in range(BATCH)), encoding="utf-8")
    (tmp_path / "diverge.cfg").write_text(
        f"embedding_dim={EMBED}\nhidden={HIDDEN}\nseq_len={L}\nbatch_size={BATCH}\nepochs=2\n"
        "learning_rate=1e300\nclip_norm=none\nverbose=0\n", encoding="utf-8")
    out = tmp_path / "run"
    return ["train", "--data", str(tmp_path / "docs.tsv"), "--config",
            str(tmp_path / "diverge.cfg"), "--out", str(out)], out


@pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "error"])
def test_diverging_run_exits_3_with_one_line(tmp_path, flags):
    """The worker keeps `train`'s errstate(all="ignore"): numpy's warnings
    on overflow neither print nor, as errors, end the run in a traceback."""
    argv, out = diverging_run(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, *flags, "-m", "plstm.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 3, child.stderr
    assert child.stderr.startswith("config error: training diverged: ")
    assert child.stderr.count("\n") == 1 and "Warning" not in child.stderr
    assert not out.exists()


def direction_of(model, b):
    """"fwd" or "bwd" if b is a view of that direction's stacked W, else None."""
    layer = model.group.layer
    for name, params in (("fwd", layer.forward_params), ("bwd", layer.backward_params)):
        if np.shares_memory(b, params.W):
            return name
    return None


def test_each_direction_projects_on_the_thread_that_steps_it(monkeypatch):
    """A direction's input projection, the one product whose b is its W
    transposed, is made on the thread that steps it: the forward one on
    the calling thread, the backward one on the second thread."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=8)
    ids, mask = ragged(9)
    caller, real, threads = threading.get_ident(), lstm.matmul_stacked, []

    def product(a, b):
        direction = direction_of(model, b)
        if direction is not None:
            threads.append((direction, threading.get_ident() == caller))
        return real(a, b)

    monkeypatch.setattr(lstm, "matmul_stacked", product)
    forward_batch(model, ids, mask)
    n = len(BRANCH_NAMES)  # one group, so one pass, per branch
    assert sorted(threads) == [("bwd", False)] * n + [("fwd", True)] * n


@pytest.mark.parametrize("batch", [BATCH, 8], ids=["two_threads", "in_turn"])
def test_an_eval_pass_drops_its_gathered_rows_once_both_directions_have_projected(
        monkeypatch, batch):
    """An eval pass gathers the token rows its unmasked positions use. Both
    directions project from them, and the one that projects second drops
    them before it steps, on either path: by the time the second
    direction starts stepping, nothing holds them."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=12)
    ids, mask = (a[:batch] for a in ragged(13))
    real_rows, real_steps, interval = lstm._token_rows, lstm._steps, sys.getswitchinterval()
    lock, tables, entries, dropped = threading.Lock(), [], [], []

    def token_rows(table, branches):
        tables.append(weakref.ref(table))
        return real_rows(table, branches)

    def steps(*args):
        with lock:
            entries.append(threading.get_ident())
            if len(entries) % 2 == 0:  # a pass's second direction: both have projected
                dropped.append(tables[-1]() is None)
        return real_steps(*args)

    monkeypatch.setattr(lstm, "_token_rows", token_rows)
    monkeypatch.setattr(lstm, "_steps", steps)
    sys.setswitchinterval(1e-6)
    try:
        forward_batch(model, ids, mask)
    finally:
        sys.setswitchinterval(interval)
    passes = len(model.groups(batch))
    assert (len(tables), len(set(entries))) == (passes, 2 if batch == BATCH else 1)
    assert dropped == [True] * passes


@pytest.mark.parametrize("failing", ["worker", "caller", "worker's projection"])
def test_an_exception_on_either_thread_is_raised_after_the_join(monkeypatch, failing):
    """A failure in either thread's steps, or in the worker's projection, is
    raised in the caller once the worker has ended. A failed projection
    does not cut the caller's direction short: it runs to its last step."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=6)
    ids, mask = ragged(7)
    caller, real_step, real_product = threading.get_ident(), lstm._stacked_step, lstm.matmul_stacked
    baseline, caller_steps = threading.active_count(), []

    def step(*args):
        on_caller = threading.get_ident() == caller
        if failing != "worker's projection" and on_caller == (failing == "caller"):
            raise FloatingPointError(f"a step on the {failing} thread")
        if on_caller:
            caller_steps.append(args)
        return real_step(*args)

    def product(a, b):
        if failing == "worker's projection" and direction_of(model, b) == "bwd":
            raise FloatingPointError(f"the {failing}")
        return real_product(a, b)

    monkeypatch.setattr(lstm, "_stacked_step", step)
    monkeypatch.setattr(lstm, "matmul_stacked", product)
    with pytest.raises(FloatingPointError, match=failing):
        forward_batch(model, ids, mask)
    assert threading.active_count() == baseline  # no thread outlives the pass
    if failing == "worker's projection":  # the first group's forward direction ran every step
        assert len(caller_steps) == np.count_nonzero(mask.any(axis=0))


@pytest.mark.parametrize("batch_size, hidden, embed, seq_len, docs",
                         [(8, 16, 32, 8, 32), (16, 32, 128, 64, 16)],
                         ids=["train_smoke", "train_long"])
def test_training_at_the_bench_shapes_starts_no_thread(monkeypatch, batch_size, hidden, embed,
                                                       seq_len, docs):
    """An epoch at the bench's train shapes, its metrics pass over the whole
    training set included, steps every pass on the calling thread: each
    step's recurrent product is `one_stack`, where two threads trade the
    GIL more than they compute."""
    gen = np.random.default_rng(10)
    mask = np.arange(seq_len) < gen.integers(1, seq_len + 1, docs)[:, None]
    data = EncodedDataset(np.where(mask, gen.integers(1, VOCAB, (docs, seq_len)), 0), mask,
                          np.arange(docs) % 2)
    config = TrainConfig(epochs=1, batch_size=batch_size, seed=11, verbose=0, hidden=hidden,
                         embed_dim=embed, seq_len=seq_len)
    threaded, passes, real_parallel, real_steps = [], [], lstm._in_parallel, lstm._steps

    def in_parallel(first, second):
        threaded.append(first)
        return real_parallel(first, second)

    def steps(*args):
        passes.append(threading.get_ident())
        return real_steps(*args)

    monkeypatch.setattr(lstm, "_in_parallel", in_parallel)
    monkeypatch.setattr(lstm, "_steps", steps)
    train(build_model(config, VOCAB, config.seed), data, config)
    assert threaded == []
    # two directions per pass: one pass per training batch, one for the metrics
    assert passes == [threading.get_ident()] * 2 * (docs // batch_size + 1)
