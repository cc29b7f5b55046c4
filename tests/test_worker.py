"""The direction worker: inside a `worker.scope()`, every pass runs its
backward direction, forward and BPTT, in a forked process. Most checks here
compare that with the same requests run in process outside any scope, each
when it is received: a pass's after the forward direction, a backward's
input-gradient rows when the caller asks for them. 130 rows at H=32 make a
130 x 128 product per branch, over STACKED_ELEMS, so the branches step one
at a time: a training batch leaves four passes pending in the worker. 8
rows step the four branches as one group."""

import errno
import hashlib
import os
import signal
import subprocess
import sys
import warnings
import weakref
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from plstm import lstm, worker
from plstm.cli import main
from plstm.model import BRANCH_NAMES, branch_backward, forward_batch, init_model
from plstm.tensor import RngStream
from plstm.train import (EncodedDataset, TrainConfig, _batch_grads, _one_hot, build_model, train,
                         write_epoch_csv)
from test_golden import EVAL_GOLDEN, GOLDEN, ragged_corpus
from test_lstm import TILE_ROW_COUNTS, pass_bytes, tiled_case

BATCH, L, HIDDEN, EMBED, VOCAB = 130, 6, 32, 4, 40
SRC = Path(__file__).resolve().parents[1] / "src"


def ragged(seed, batch=BATCH):
    """(ids, mask), each (batch, L): lengths 0..L with holes punched in."""
    gen = np.random.default_rng(seed)
    mask = (np.arange(L) < gen.integers(0, L + 1, batch)[:, None]) & (gen.random((batch, L)) > 0.2)
    return np.where(mask, gen.integers(1, VOCAB, (batch, L)), 0), mask


@contextmanager
def deadline(seconds=60):
    """Raise TimeoutError in the block if it runs longer than `seconds`, so
    a hang fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def worker_passes(monkeypatch):
    """A list that gains one entry per pass that sends its backward
    direction to the worker from here on."""
    real, sent = worker.worker_for, []

    def counting():
        executor = real()
        if isinstance(executor, worker.Worker):
            sent.append(executor)
        return executor

    monkeypatch.setattr(worker, "worker_for", counting)
    return sent


def in_worker_and_in_turn(monkeypatch, run):
    """(passes the worker ran, run() in a scope where every pass takes the
    worker, run() outside any scope, where every pass runs in process)."""
    sent = worker_passes(monkeypatch)
    with deadline(), worker.scope():
        by_worker = run()
    return len(sent), by_worker, run()


@pytest.mark.parametrize("batch", [BATCH, 8], ids=["groups_of_one", "one_group"])
@pytest.mark.parametrize("gate_mode", ["standard", "literal_eq9"])
def test_eval_scores_match_in_turn_bitwise(monkeypatch, gate_mode, batch):
    model = init_model(VOCAB, EMBED, HIDDEN, seed=1, gate_mode=gate_mode)
    ids, mask = ragged(2, batch)
    passes, by_worker, in_turn = in_worker_and_in_turn(
        monkeypatch, lambda: forward_batch(model, ids, mask)[0])
    assert passes == len(model.groups(batch))
    for name in BRANCH_NAMES:
        assert by_worker[name].tobytes() == in_turn[name].tobytes(), name


@pytest.mark.parametrize("batch", [BATCH, 8], ids=["groups_of_one", "one_group"])
@pytest.mark.parametrize("gate_mode", ["standard", "literal_eq9"])
def test_one_epoch_matches_in_turn_bitwise(monkeypatch, tmp_path, gate_mode, batch):
    """Dropout on (the defaults) and masks with gaps. In groups of one the
    worker holds four passes' records until their BPTT; one group of four
    sends each branch's input-gradient rows in turn."""
    ids, mask = ragged(3, batch)
    data = EncodedDataset(ids, mask, np.arange(batch) % 2)
    config = TrainConfig(epochs=1, batch_size=batch, seed=4, verbose=0, hidden=HIDDEN,
                         embed_dim=EMBED, seq_len=L, gate_mode=gate_mode)

    def run():
        model, logs = train(build_model(config, VOCAB, config.seed), data, config)
        write_epoch_csv(logs, tmp_path / "epochs.csv")
        return (tmp_path / "epochs.csv").read_bytes(), model.arena.tobytes()

    passes, by_worker, in_turn = in_worker_and_in_turn(monkeypatch, run)
    assert passes == 2 * len(build_model(config, VOCAB, 0).groups(batch))  # batch and metrics
    assert by_worker == in_turn


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "in_process"])
def test_a_training_pass_keeps_its_backward_records_in_the_worker(in_worker):
    """The cache of a training pass names the executor that ran its
    backward direction and a key, and holds none of that direction's
    records: in a scope its one worker keeps every pass's, and outside one
    each pass has an in-process executor of its own, which keeps that
    pass's alone."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=5)
    ids, mask = ragged(6)
    rngs = {name: RngStream(5, k) for k, name in enumerate(BRANCH_NAMES)}
    with deadline(), worker.scope() if in_worker else nullcontext():
        _, caches = forward_batch(model, ids, mask, (0.6, 0.4, rngs))
        bwds = [cache["enc"]["bwd"] for _, cache in caches]
    assert [sorted(bwd) for bwd in bwds] == [["executor", "key"]] * len(BRANCH_NAMES)
    executors = [bwd["executor"] for bwd in bwds]
    if in_worker:
        assert all(executor is executors[0] for executor in executors)
        assert isinstance(executors[0], worker.Worker)
        assert [bwd["key"] for bwd in bwds] == list(range(len(BRANCH_NAMES)))
    else:
        assert all(isinstance(executor, worker.InProcess) for executor in executors)
        assert len({id(executor) for executor in executors}) == len(BRANCH_NAMES)
        assert [list(executor.pending) for executor in executors] == [
            [bwd["key"]] for bwd in bwds]


def diverging_run(tmp_path):
    """argv of a `plstm train` that diverges, and its --out directory."""
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
    """`plstm train`, every pass on the worker: the worker keeps `train`'s
    errstate(all="ignore"), so numpy's warnings on overflow neither print
    from either process nor, as errors, end the run in a traceback."""
    argv, out = diverging_run(tmp_path)
    code = f"import sys; from plstm import cli; sys.exit(cli.main({argv!r}))"
    child = subprocess.run([sys.executable, *flags, "-c", code],
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
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


def test_the_backward_direction_projects_in_the_worker(monkeypatch):
    """Of the two input projections, the products whose b is a direction's
    W transposed, the calling process makes the forward one's only."""
    worker_passes(monkeypatch)
    model = init_model(VOCAB, EMBED, HIDDEN, seed=8)
    ids, mask = ragged(9)
    caller, real, here = os.getpid(), lstm.matmul_stacked, []

    def product(a, b, out=None):
        if os.getpid() == caller and direction_of(model, b) is not None:
            here.append(direction_of(model, b))
        return real(a, b, out)

    monkeypatch.setattr(lstm, "matmul_stacked", product)
    with deadline(), worker.scope():
        forward_batch(model, ids, mask)
    assert here == ["fwd"] * len(BRANCH_NAMES)  # one group, so one pass, per branch


@pytest.mark.parametrize("form", ["per_position", "given"])
@pytest.mark.parametrize("n", TILE_ROW_COUNTS)
def test_tiled_passes_match_an_untiled_projection_in_turn_bitwise(monkeypatch, n, form):
    """A pass of n projection rows on the worker, both directions projected
    _TILE_ROWS at a time, gives the bytes of the same pass run in process with
    each projection made in one product: its final states and, per
    position, its BPTT's gradients and input-gradient rows."""
    case = tiled_case(n, form)
    sent = worker_passes(monkeypatch)
    with deadline(), worker.scope():
        by_worker = pass_bytes(*case)
    assert len(sent) == 1
    monkeypatch.setattr(lstm, "_TILE_ROWS", 1 << 30)  # one tile: one product
    assert by_worker == pass_bytes(*case)


def eval_batch(seed, vocab=4000, batch=300):
    """(model, ids, mask) of an eval batch whose passes each use more than
    two tiles of distinct ids, in groups of one."""
    model = init_model(vocab, EMBED, HIDDEN, seed=seed)
    gen = np.random.default_rng(seed)
    mask = gen.random((batch, L)) > 0.1
    ids = np.where(mask, gen.integers(1, vocab, (batch, L)), 0)
    assert len(np.unique(ids[mask])) > 2 * lstm._TILE_ROWS
    return model, ids, mask


def gathered(array):
    """The array a view's memory belongs to."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "in_turn"])
def test_the_caller_never_projects_or_steps_with_a_whole_table_alive(monkeypatch, in_worker):
    """An eval pass asks its row source for one tile of gathered rows at a
    time. Each projection product in this process reads one tile of at most
    _TILE_ROWS rows while no other tile is alive, and no tile is alive while
    a direction steps. With the worker, pickling the request gathers the
    whole table once, only to send it, and it is gone before this process
    projects or steps; the worker has dropped the table it received before
    it steps. In process nothing is gathered or pickled."""
    model, ids, mask = eval_batch(12)
    caller, rows = os.getpid(), lstm._TokenRows
    real_init, real_call, real_reduce = rows.__init__, rows.__call__, rows.__reduce__
    real_steps, real_product = lstm._steps, lstm.matmul_stacked
    tiles, sent, received, products = [], [], [], []

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def init(self, table, branches, used=None):
        if os.getpid() != caller:  # unpickled in the worker
            received.append(weakref.ref(table))
        real_init(self, table, branches, used)

    def call(self, lo, hi):
        tile = real_call(self, lo, hi)
        tiles.append(weakref.ref(gathered(tile)))
        return tile

    def reduce(self):
        reduced = real_reduce(self)
        sent.append(weakref.ref(reduced[1][0]))  # the table the pickle holds
        return reduced

    def product(a, b, out=None):
        if os.getpid() == caller and direction_of(model, b) is not None:
            products.append(a.shape[1])
            assert a.shape[1] <= lstm._TILE_ROWS and alive(tiles) == 1
            assert alive(sent) == 0
        return real_product(a, b, out)

    def steps(*args):
        if os.getpid() == caller:
            assert alive(tiles) == 0 and alive(sent) == 0
        elif alive(received):
            raise AssertionError("the worker steps while it holds the table it received")
        return real_steps(*args)

    for name, fake in (("__init__", init), ("__call__", call), ("__reduce__", reduce)):
        monkeypatch.setattr(rows, name, fake)
    monkeypatch.setattr(lstm, "_steps", steps)
    monkeypatch.setattr(lstm, "matmul_stacked", product)
    with deadline(), worker.scope() if in_worker else nullcontext():
        forward_batch(model, ids, mask)
    passes = len(model.groups(len(ids)))
    assert len(sent) == (passes if in_worker else 0)
    assert sum(products) == (1 if in_worker else 2) * passes * len(np.unique(ids[mask]))


@pytest.mark.parametrize("batch", [BATCH, 8], ids=["groups_of_one", "one_group"])
def test_an_eval_pass_sends_its_gathered_rows_once(monkeypatch, batch):
    """The request of an eval pass pickles its row source as its (n, embed)
    gathered rows, one array, not a per-branch broadcast view, which a
    pickle would write once per branch: the bytes it writes to the worker
    are those rows, the pass's other arrays and a few KB of pickle."""
    embed = 64  # n x embed x 8 bytes, far over the slack
    model = init_model(VOCAB, embed, HIDDEN, seed=18)
    ids, mask = ragged(19, batch)
    n = len(np.unique(ids[mask]))
    caller, real_write, real_frame = os.getpid(), worker._write_all, worker._frame
    real_reduce = lstm._TokenRows.__reduce__
    requests, tables, writes = [], [], []

    def frame(message):
        if os.getpid() == caller and message[1][0] is lstm._pass_in_worker:
            requests.append(message[1])
        return real_frame(message)

    def reduce(self):
        reduced = real_reduce(self)
        tables.append(reduced[1][0])
        return reduced

    def write_all(fd, parts):
        if os.getpid() == caller:
            writes.append(sum(memoryview(part).nbytes for part in parts))
        return real_write(fd, parts)

    monkeypatch.setattr(worker, "_frame", frame)
    monkeypatch.setattr(worker, "_write_all", write_all)
    monkeypatch.setattr(lstm._TokenRows, "__reduce__", reduce)
    worker_passes(monkeypatch)
    with deadline(), worker.scope():
        forward_batch(model, ids, mask)
    assert len(requests) == len(tables) == len(writes) == len(model.groups(batch))
    for request, table, written in zip(requests, tables, writes):
        assert table.shape == (n, embed) and table.flags.c_contiguous
        params = request[2]
        others = sum(a.nbytes for a in (params.W, params.U, params.b, *request[6:]))
        assert n * embed * 8 <= written - others <= n * embed * 8 + 4096


@pytest.mark.parametrize("failing", ["worker", "caller", "worker's projection"])
def test_an_exception_on_either_side_is_raised_once_the_other_has_finished(monkeypatch,
                                                                           children, failing):
    """A failure in either process's steps, or in the worker's projection,
    is raised in the caller with its type. A failure in the worker does not
    cut the caller's direction short: it runs to its last step first. A
    failure in the caller stops the worker, which is reaped at once."""
    worker_passes(monkeypatch)
    model = init_model(VOCAB, EMBED, HIDDEN, seed=6)
    ids, mask = ragged(7)
    caller, real_step, real_product = os.getpid(), lstm._stacked_step, lstm.matmul_stacked
    caller_steps = []

    def step(*args):
        here = os.getpid() == caller
        if failing != "worker's projection" and here == (failing == "caller"):
            raise FloatingPointError(f"a step in the {failing}")
        if here:
            caller_steps.append(args)
        return real_step(*args)

    def product(a, b, out=None):
        if failing == "worker's projection" and os.getpid() != caller and b.shape[1] == EMBED:
            raise FloatingPointError(f"the {failing}")
        return real_product(a, b, out)

    monkeypatch.setattr(lstm, "_stacked_step", step)
    monkeypatch.setattr(lstm, "matmul_stacked", product)
    with deadline(), worker.scope():
        with pytest.raises(FloatingPointError, match=failing):
            forward_batch(model, ids, mask)
        # the worker reported its failure and lives on; a failing caller stopped it
        assert len(children()) == (failing != "caller")
    if failing != "caller":  # the first group's forward direction ran every step
        assert len(caller_steps) == np.count_nonzero(mask.any(axis=0))


@pytest.mark.parametrize("when", ["idle", "mid_pass"])
def test_a_killed_worker_raises_and_does_not_hang(monkeypatch, children, when):
    """A worker killed between passes, or while the caller steps its own
    direction, ends the pass in one `WorkerError`; the scope reaps it, and
    a later pass starts a new worker."""
    worker_passes(monkeypatch)
    model = init_model(VOCAB, EMBED, HIDDEN, seed=10)
    ids, mask = ragged(11, 8)
    caller, real_step = os.getpid(), lstm._stacked_step

    def kill_the_worker():
        os.kill(children()[0], signal.SIGKILL)

    def step(*args):
        if os.getpid() == caller and when == "mid_pass" and not killed:
            killed.append(kill_the_worker())
        return real_step(*args)

    killed = [None]  # nothing to kill before the first pass has started the worker
    monkeypatch.setattr(lstm, "_stacked_step", step)
    with deadline(), worker.scope():
        scores = forward_batch(model, ids, mask)[0]
        first = children()
        killed.clear()
        if when == "idle":
            kill_the_worker()
        with pytest.raises(worker.WorkerError):
            forward_batch(model, ids, mask)
        assert children() == []
        again = forward_batch(model, ids, mask)[0]
        assert len(children()) == 1 and children() != first
    for name in BRANCH_NAMES:
        assert again[name].tobytes() == scores[name].tobytes()


@pytest.mark.parametrize("failing", ["fork", "pipe"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_worker_that_cannot_start_leaves_the_command_in_turn_with_the_golden_bytes(
        monkeypatch, tmp_path, data_dir, capsys, children, command, failing):
    """Every pass would take the worker, but it cannot start: `os.fork`
    fails, as it does when no process can be started, or its second
    `os.pipe`, as when no file can be opened. The command tries once, closes
    the pipe it opened, says so in one stderr line, runs every pass in process,
    exits 0, writes the golden bytes and leaves no child."""
    real_pipe, tries, opened = os.pipe, [], []

    def fork():
        tries.append("fork")
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def pipe():
        if opened:
            tries.append("pipe")
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        opened.extend(real_pipe())
        return tuple(opened)

    cfg, out = data_dir / "train_smoke.cfg", tmp_path / "run"
    if command == "eval":  # a ragged checkpoint, trained before the start fails
        data = tmp_path / "ragged.tsv"
        data.write_text(ragged_corpus(), encoding="utf-8")
        assert main(["train", "--data", str(data), "--config", str(cfg), "--epochs", "2",
                     "--out", str(out)]) == 0
        argv = ["eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data), "--out",
                str(out / "report.csv")]
        want = {"report.csv": EVAL_GOLDEN["standard"]["report.csv"]}
    else:
        argv = ["train", "--data", str(data_dir / "synthetic_train.tsv"), "--config", str(cfg),
                "--epochs", "4", "--out", str(out)]
        want = GOLDEN["standard"]
    capsys.readouterr()
    monkeypatch.setattr(os, failing, {"fork": fork, "pipe": pipe}[failing])
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: cannot start the direction worker: ") and err.count("\n") == 1
    assert tries == [failing]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want} == want
    assert children() == []
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_the_worker_runs_under_the_callers_errstate(monkeypatch):
    """Each request carries the caller's `np.geterr()`. Only the backward
    direction overflows here. The worker, started under
    errstate(all="ignore") with warnings as errors, neither warns nor
    raises; asked again under all="raise", it raises FloatingPointError in
    the caller."""
    worker_passes(monkeypatch)
    model = init_model(VOCAB, EMBED, HIDDEN, seed=14)
    model.embedding[...] *= 400.0  # |x| up to 20: a term x * 1e308 overflows
    model.group.layer.backward_params.W[...] = 1e308
    ids, mask = ragged(15, 8)
    with deadline(), worker.scope():
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            forward_batch(model, ids, mask)
            with np.errstate(all="raise"):
                with pytest.raises(FloatingPointError):
                    forward_batch(model, ids, mask)


def test_a_scope_starts_its_worker_at_its_first_pass_and_reaps_it(children):
    """A scope starts nothing until its first pass, which forks the worker;
    later passes and a nested scope reuse it; the scope reaps it when it
    closes, also on an exception."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=16)
    ids, mask = ragged(17, 8)
    with deadline(), pytest.raises(KeyError, match="leaving"), worker.scope():
        assert children() == []
        forward_batch(model, ids, mask)
        started = children()
        assert len(started) == 1
        with worker.scope():
            forward_batch(model, ids, mask)
        assert children() == started
        raise KeyError("leaving the scope")
    assert children() == []
    forward_batch(model, ids, mask)  # outside a scope: in process
    assert children() == []


def training_batch(seed, batch=8, length=L, embed=EMBED, hidden=HIDDEN, vocab=VOCAB):
    """A function that runs one training batch, `train._batch_grads` at the
    default dropout rates, on a ragged batch with gaps and returns its
    losses and gradient arena as bytes; its model; and its number of
    unmasked positions."""
    gen = np.random.default_rng(seed)
    mask = (np.arange(length) < gen.integers(1, length + 1, batch)[:, None]) & (
        gen.random((batch, length)) > 0.2)
    ids = np.where(mask, gen.integers(1, vocab, (batch, length)), 0)
    model = init_model(vocab, embed, hidden, seed=seed, seq_len=length)
    config = TrainConfig()

    def run():
        rngs = {name: RngStream(seed, k) for k, name in enumerate(BRANCH_NAMES)}
        losses, grad = _batch_grads(model, ids, mask, _one_hot(np.arange(batch) % 2),
                                    (config.dropout_embed, config.dropout_recurrent, rngs), 5.0)
        return repr(losses), grad.arena.tobytes()

    return run, model, int(mask.sum())


def test_a_training_backward_waits_for_the_worker_once(monkeypatch):
    """One training batch of one branch group in a scope: the pass sends
    its backward direction and receives its final state; the backward
    then sends its BPTT and all four branches' input-gradient rows before
    it runs the forward direction's BPTT, and receives the five replies,
    the sums first and then each branch's rows when the caller asks for
    them. The bytes are those of the batch run in process."""
    run, model, _ = training_batch(20)
    assert len(model.groups(8)) == 1
    calls, real_send, real_receive = [], worker.Worker.send, worker.Worker.receive

    def send(self, request):
        calls.append(("send", request[0].__name__))
        return real_send(self, request)

    def receive(self):
        calls.append(("receive",))
        return real_receive(self)

    monkeypatch.setattr(worker.Worker, "send", send)
    monkeypatch.setattr(worker.Worker, "receive", receive)
    with deadline(), worker.scope():
        by_worker = run()
    assert calls == [("send", "_pass_in_worker"), ("receive",),
                     ("send", "_bptt_in_worker"),
                     *[("send", "_input_grad_in_worker")] * len(BRANCH_NAMES),
                     *[("receive",)] * (1 + len(BRANCH_NAMES))]
    assert by_worker == run()


def test_replies_over_the_pipe_buffer_do_not_deadlock(children):
    """A training batch at the bench's `train_long` shape (B=16, L=64,
    E=128, H=32): its parameter sums and each branch's input-gradient rows
    are each larger than a pipe's 64 KiB buffer, so the worker blocks on
    each reply until it is read, while its later requests wait in the
    pipe. The batch finishes, with the bytes of the batch run in
    process."""
    run, model, n = training_batch(21, batch=16, length=64, embed=128, hidden=32, vocab=50)
    G, E, H = len(BRANCH_NAMES), model.embed_dim, model.hidden
    assert min(G * 4 * H * (E + H + 1) * 8, n * E * 8) > 1 << 16
    with deadline(), worker.scope():
        by_worker = run()
        assert len(children()) == 1
    assert by_worker == run()


@pytest.mark.parametrize("read", [1, 0], ids=["one_branch_read", "none_read"])
def test_a_dropped_backward_leaves_no_stale_reply(children, read):
    """A caller that drops a training backward's iterator after one of its
    four branches, or before any, leaves replies outstanding in the
    worker. The next conversation drains them: an eval pass after one
    dropped backward, and the backward of a pass made before, right after
    another, read their own replies. Their bytes are those of the same
    calls in process, nothing hangs, and no worker outlives the scope."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=22)
    ids, mask = ragged(23, 8)
    d_scores = [np.full((8, 2), 0.1)] * len(BRANCH_NAMES)

    def backward(pass_, read):
        grad = model.zeros_like()
        d_embedded = branch_backward(model.group, pass_, d_scores, grad.group)
        rows = [next(d_embedded).tobytes() for _ in range(read)]
        return rows, grad.arena.tobytes()

    def run():
        rngs = {name: RngStream(22, k) for k, name in enumerate(BRANCH_NAMES)}
        passes = [forward_batch(model, ids, mask, (0.6, 0.4, rngs))[1][0][1] for _ in range(3)]
        backward(passes[0], read)
        scores = forward_batch(model, ids, mask)[0]
        backward(passes[1], read)
        return [scores[name].tobytes() for name in BRANCH_NAMES], backward(passes[2], 4)

    with deadline(), worker.scope():
        by_worker = run()
    assert children() == []
    assert by_worker == run()


def test_a_failing_branch_raises_at_its_rows_and_stops_the_worker(monkeypatch, children):
    """A handler that raises while the worker makes branch 2's
    input-gradient rows: branches 0 and 1 arrive, the exception is raised,
    with its type, when the caller asks for branch 2, and the worker,
    which has branch 3's reply outstanding, is stopped and reaped."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=24)
    ids, mask = ragged(25, 8)
    rngs = {name: RngStream(24, k) for k, name in enumerate(BRANCH_NAMES)}
    caller, real_input_grad = os.getpid(), lstm._input_grad

    def input_grad(params, dpre, k):
        if os.getpid() != caller and k == 2:
            raise FloatingPointError("branch 2 in the worker")
        return real_input_grad(params, dpre, k)

    monkeypatch.setattr(lstm, "_input_grad", input_grad)
    with deadline(), worker.scope():
        (group, cache), = forward_batch(model, ids, mask, (0.6, 0.4, rngs))[1]
        d_embedded = branch_backward(group, cache, [np.full((8, 2), 0.1)] * len(BRANCH_NAMES),
                                     model.zeros_like().group)
        next(d_embedded)
        next(d_embedded)
        assert len(children()) == 1
        with pytest.raises(FloatingPointError, match="branch 2 in the worker"):
            next(d_embedded)
        assert children() == []
        assert cache["enc"]["bwd"]["executor"].pid is None


def test_a_killed_worker_with_replies_outstanding_raises_and_does_not_hang(children):
    """A worker killed while a dropped backward's replies are outstanding:
    the next pass, which would drain them, ends in one `WorkerError`, and
    the pass after it starts a new worker and gives the bytes of the
    first."""
    model = init_model(VOCAB, EMBED, HIDDEN, seed=26)
    ids, mask = ragged(27, 8)
    rngs = {name: RngStream(26, k) for k, name in enumerate(BRANCH_NAMES)}
    with deadline(), worker.scope():
        scores = forward_batch(model, ids, mask)[0]
        (group, cache), = forward_batch(model, ids, mask, (0.6, 0.4, rngs))[1]
        branch_backward(group, cache, [np.full((8, 2), 0.1)] * len(BRANCH_NAMES),
                        model.zeros_like().group)
        first = children()
        os.kill(first[0], signal.SIGKILL)
        with pytest.raises(worker.WorkerError):
            forward_batch(model, ids, mask)
        assert children() == []
        again = forward_batch(model, ids, mask)[0]
        assert len(children()) == 1 and children() != first
    for name in BRANCH_NAMES:
        assert again[name].tobytes() == scores[name].tobytes()


def errstate_now(pending):
    """A handler: the errstate it runs under."""
    return np.geterr()


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "in_process"])
def test_a_request_runs_under_the_errstate_it_was_sent_with(in_worker):
    """Two requests sent under different errstates and received under a
    third run each under its own, in the worker and in process alike, as a
    backward's rows requests, received later, must."""
    with deadline(), worker.scope() if in_worker else nullcontext():
        executor = worker.worker_for()
        assert isinstance(executor, worker.Worker) == in_worker
        for mode in ("raise", "warn"):
            with np.errstate(all=mode):
                executor.send([errstate_now])
        with np.errstate(all="ignore"):
            assert [executor.receive() for _ in range(2)] == [
                dict.fromkeys(("divide", "over", "under", "invalid"), mode)
                for mode in ("raise", "warn")]
