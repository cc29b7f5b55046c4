"""The two-thread pass: where a step's recurrent product runs the one-term
loop, `directional_pass` steps the backward direction on a second thread.
Every check here runs batches on that path: 130 rows at H=32 make a
130 x 128 product per branch, over STACKED_ELEMS, so the branches step one
at a time and each group's two directions run on two threads."""

import os
import subprocess
import sys
import threading
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


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_exception_on_either_thread_is_raised_after_the_join(monkeypatch, failing):
    model = init_model(VOCAB, EMBED, HIDDEN, seed=6)
    ids, mask = ragged(7)
    caller, real = threading.get_ident(), lstm._stacked_step
    baseline = threading.active_count()

    def step(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise FloatingPointError(f"a step on the {failing} thread")
        return real(*args)

    monkeypatch.setattr(lstm, "_stacked_step", step)
    with pytest.raises(FloatingPointError, match=failing):
        forward_batch(model, ids, mask)
    assert threading.active_count() == baseline  # no thread outlives the pass
