"""Training loop: categorical cross-entropy, seeded shuffling, per-branch
gradient clipping, one Adam update of the whole model per batch, and
per-epoch logging in the style of the per-100-epoch accuracy tables."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .corpus import encode, tokenize
from .model import (AGGREGATIONS, BRANCH_NAMES, GATE_MODES, ParallelModel, branch_backward,
                    forward_batch, init_model)
from .tensor import RngStream, ShapeError, categorical_cross_entropy


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    verbose: int = 1
    hidden: int = 64
    embed_dim: int = 400
    seq_len: int = 65
    learning_rate: float = 0.01
    dropout_embed: float = 0.6
    dropout_recurrent: float = 0.4
    gate_mode: str = "standard"  # or "literal_eq9"
    clip_norm: float = 5.0  # None disables clipping
    aggregation: str = "primary_branch"

    def validate(self):
        for key, value in (("epochs", self.epochs), ("batch_size", self.batch_size),
                           ("hidden", self.hidden), ("embedding_dim", self.embed_dim),
                           ("seq_len", self.seq_len)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("dropout_embed", "dropout_recurrent"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not 0.0 < self.learning_rate < np.inf:  # also false for nan
            raise ValueError("learning_rate must be finite and > 0")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < np.inf:
            raise ValueError("clip_norm must be none or finite and > 0")
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate_mode must be one of {', '.join(GATE_MODES)}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {', '.join(AGGREGATIONS)}")


def build_model(config: TrainConfig, vocab_size: int, seed: int) -> ParallelModel:
    """A fresh model with `config`'s dimensions, gate mode, aggregation and
    dropout rates, initialised from `seed`."""
    return init_model(
        vocab_size, config.embed_dim, config.hidden, seed=seed, seq_len=config.seq_len,
        aggregation=config.aggregation, gate_mode=config.gate_mode,
        dropout_embed=config.dropout_embed, dropout_recurrent=config.dropout_recurrent,
    )


@dataclass
class EpochLog:
    epoch: int
    loss: dict  # branch -> mean training loss over batches
    accuracy: dict  # branch -> eval-mode accuracy percent on the train set
    seconds: float


@dataclass
class EncodedDataset:
    ids: np.ndarray  # (n, L) int64
    mask: np.ndarray  # (n, L) bool
    labels: np.ndarray  # (n,) int64 in {0, 1}

    def __len__(self):
        return self.ids.shape[0]


def encode_dataset(examples, vocab, L: int) -> EncodedDataset:
    """Tokenize and encode labeled examples into batched arrays."""
    n = len(examples)
    ids = np.zeros((n, L), dtype=np.int64)
    mask = np.zeros((n, L), dtype=bool)
    labels = np.zeros(n, dtype=np.int64)
    for i, ex in enumerate(examples):
        seq = encode(tokenize(ex.doc.text), vocab, L)
        ids[i] = seq.ids
        mask[i] = seq.mask
        labels[i] = ex.label
    return EncodedDataset(ids, mask, labels)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Per-block first/second moments with bias correction (ADAM_BETA1,
    ADAM_BETA2, ADAM_EPS); one step counter, as every block updates each step."""

    def __init__(self, learning_rate: float = 0.01):
        self.lr = learning_rate
        self.t = 0
        self.m = {}
        self.v = {}


def adam_step(state: AdamState, params: dict, grads: dict):
    """One Adam update, in place. params and grads map block name -> array."""
    state.t += 1
    t = state.t
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {theta.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def _one_hot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((labels.shape[0], 2))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _clip(arrays, max_norm):
    """Scale `arrays` in place so their joint L2 norm is at most max_norm;
    the squared sums add up in the order given."""
    if max_norm is None:
        return
    total = 0.0
    for g in arrays:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in arrays:
            g *= scale


def epoch_metrics(model: ParallelModel, dataset: EncodedDataset) -> dict:
    """Eval-mode accuracy percent per branch (argmax labels)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    preds = predict_labels(model, dataset)
    return {name: 100.0 * float(np.mean(preds[name] == dataset.labels))
            for name in BRANCH_NAMES}


def predict_labels(model: ParallelModel, dataset: EncodedDataset) -> dict:
    """Eval-mode per-branch argmax labels for every example."""
    scores, _ = forward_batch(model, dataset.ids, dataset.mask)
    return {name: np.argmax(scores[name], axis=1) for name in BRANCH_NAMES}


def _batch_grads(model, ids, mask, targets, rngs, clip_norm, loss_sums) -> dict:
    """One batch's clipped gradient of every block: a training-mode
    `forward_batch`, each branch's loss (added into loss_sums), each branch
    group's backward, then each branch's clip and embedding scatter in
    BRANCH_NAMES order. The caches and gradients of the batch are freed
    when this returns."""
    scores, caches = forward_batch(model, ids, mask, rngs)
    d_scores = {}
    for name in BRANCH_NAMES:
        loss, d_scores[name] = categorical_cross_entropy(scores[name], targets)
        loss_sums[name] += loss
    used = mask.T  # unmasked positions, time-major like d_embedded
    used_ids = ids.T[used]
    d_embedding = np.zeros_like(model.embedding)
    grads = {"embedding": d_embedding}
    while caches:
        group, cache = caches.pop(0)
        group_grads, d_embeddeds = branch_backward(
            group, cache, [d_scores[b.name] for b in group.branches])
        del cache  # its step records are spent; free its token table
        # the dense gradients first: zip then runs their iterator to its end
        for d_embedded, branch_grads in zip(d_embeddeds, group_grads):
            _clip([*branch_grads.values(), d_embedded], clip_norm)
            grads.update(branch_grads)
            # scatter-add the unmasked positions' grads back to embedding
            # rows, t-major then batch row, so repeated ids add in step
            # order; padded positions (gradient +0) are left out
            np.add.at(d_embedding, used_ids, d_embedded[used])
    d_embedding[0, :] = 0.0  # pad row frozen: its Adam update is exactly 0
    return grads


def train(model: ParallelModel, dataset: EncodedDataset, config: TrainConfig):
    """Train in place; returns (model, [EpochLog]).

    Each epoch: one seeded shuffle (a pure function of seed and epoch),
    mini-batches, and per batch (`_batch_grads`) one training-mode
    `forward_batch` (each branch's dropout stream keyed by seed, branch,
    epoch and batch), each branch's loss, one `branch_backward` per branch
    group of `ParallelModel.groups` -- the four branches' BPTT at once when
    they step together -- then each branch's clip and embedding scatter in
    BRANCH_NAMES order, and one Adam update of every block. No backward
    reads another branch's parameters or the embedding, so that equals
    updating each branch after its own backward. The embedding's gradient
    sums the branches' in that order; its pad row never moves. Verbose
    level 1 prints a summary line every 100 epochs.
    """
    config.validate()
    if len(dataset) == 0:
        raise ValueError("empty training set")
    if len(set(dataset.labels.tolist())) < 2:
        print("warning: training labels contain a single class", file=sys.stderr)

    opt = AdamState(config.learning_rate)
    params = dict(model.blocks())

    n = len(dataset)
    logs = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = RngStream(config.seed, 3, epoch).permutation(n)
        loss_sums = {name: 0.0 for name in BRANCH_NAMES}
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            ids = dataset.ids[batch]
            mask = dataset.mask[batch]
            targets = _one_hot(dataset.labels[batch])
            rngs = {name: RngStream(config.seed, 7, b_idx, epoch, n_batches)
                    for b_idx, name in enumerate(BRANCH_NAMES)}
            adam_step(opt, params, _batch_grads(model, ids, mask, targets, rngs,
                                                config.clip_norm, loss_sums))
            n_batches += 1

        acc = epoch_metrics(model, dataset)
        loss_means = {name: loss_sums[name] / n_batches for name in BRANCH_NAMES}
        logs.append(EpochLog(epoch, loss_means, acc, time.perf_counter() - t0))
        if config.verbose >= 1 and (epoch % 100 == 0 or epoch == config.epochs):
            for name in BRANCH_NAMES:
                print(f"epoch {epoch}, {name}, loss {loss_means[name]:.4f}, "
                      f"acc {acc[name]:.2f}%")
    return model, logs


def write_epoch_csv(logs, path):
    """Per-epoch CSV: epoch,branch,loss,accuracy. Deterministic bytes for a
    fixed seed (wall time stays in memory only)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,branch,loss,accuracy\n")
        for log in logs:
            for name in BRANCH_NAMES:
                fh.write(f"{log.epoch},{name},{log.loss[name]!r},{log.accuracy[name]!r}\n")
