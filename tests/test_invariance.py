"""Metamorphic relations: a change to how the engine runs that must not
change a byte of what it computes, checked on `hypothesis`-drawn tiny
corpora and configs.

R4, the executor. Inside a `worker.scope()` every pass sends its backward
direction to the direction worker, a forked process; outside one the same
requests run in this process, each when it is received. A 2-epoch train,
its checkpoint, its epochs.csv and the eval scores of the trained model on
other documents are bitwise the same either way, in both gate modes, on
masks with gaps, and on batches on both sides of `tensor.one_stack`: all
four branches stepping as one group, or each alone.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstm import worker
from plstm.checkpoint import save_checkpoint
from plstm.model import BRANCH_NAMES, GATE_MODES, forward_batch
from plstm.train import EncodedDataset, TrainConfig, build_model, train, write_epoch_csv

HIDDEN, VOCAB = 32, 30
# the largest batch whose four branches step as one group at HIDDEN, and
# the batch sizes drawn on each side of it
ONE_GROUP = 32
SIDES = {"one_group": (1, ONE_GROUP), "groups_of_one": (ONE_GROUP + 1, ONE_GROUP + 8)}


def ragged(gen, docs, length):
    """(ids, mask), each (docs, length): lengths 1..length, with holes."""
    mask = (np.arange(length) < gen.integers(1, length + 1, docs)[:, None]) & (
        gen.random((docs, length)) > 0.25)
    return np.where(mask, gen.integers(1, VOCAB, (docs, length)), 0), mask


def run(config, data, eval_ids, eval_mask):
    """The bytes of a train on `data` (checkpoint, epochs.csv) and of the
    trained model's eval scores on the eval batch."""
    model, logs = train(build_model(config, VOCAB, config.seed), data, config)
    scores, _ = forward_batch(model, eval_ids, eval_mask)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, Path(tmp) / "model.ckpt")
        write_epoch_csv(logs, Path(tmp) / "epochs.csv")
        files = [(Path(tmp) / name).read_bytes() for name in ("model.ckpt", "epochs.csv")]
    return files, [scores[name].tobytes() for name in BRANCH_NAMES]


@pytest.mark.parametrize("side", sorted(SIDES))
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_r4_the_executor_changes_no_byte(side, data):
    batch = data.draw(st.integers(*SIDES[side]), label="batch_size")
    docs = data.draw(st.integers(batch, batch + 6), label="documents")
    config = TrainConfig(epochs=2, batch_size=batch, verbose=0, hidden=HIDDEN,
                         embed_dim=data.draw(st.integers(1, 5), label="embed_dim"),
                         seq_len=data.draw(st.integers(1, 6), label="seq_len"),
                         seed=data.draw(st.integers(0, 2 ** 16), label="seed"),
                         gate_mode=data.draw(st.sampled_from(GATE_MODES), label="gate_mode"))
    groups = build_model(config, VOCAB, 0).groups(batch)
    assert len(groups) == (1 if side == "one_group" else len(BRANCH_NAMES))
    gen = np.random.default_rng(config.seed)
    ids, mask = ragged(gen, docs, config.seq_len)
    corpus = EncodedDataset(ids, mask, np.arange(docs) % 2)
    eval_ids, eval_mask = ragged(gen, batch, config.seq_len)
    real, executors = worker.worker_for, []

    def counting():
        executors.append(real())
        return executors[-1]

    with mock.patch.object(worker, "worker_for", counting), worker.scope():
        by_worker = run(config, corpus, eval_ids, eval_mask)
    assert executors and all(isinstance(executor, worker.Worker) for executor in executors)
    assert by_worker == run(config, corpus, eval_ids, eval_mask)
