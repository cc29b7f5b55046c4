"""Training loop: Adam over all four branches with categorical
cross-entropy, seeded shuffling, per-branch gradient clipping, and
per-epoch logging in the style of the per-100-epoch accuracy tables."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .corpus import encode, tokenize
from .model import AGGREGATIONS, BRANCH_NAMES, GATE_MODES, ParallelModel, branch_backward, forward_batch
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


class AdamState:
    """Per-block first/second moments with bias correction.

    beta1=0.9, beta2=0.999, eps=1e-8; the step counter is shared because all
    blocks in one optimizer update on every step.
    """

    def __init__(self, learning_rate: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def _one_hot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((labels.shape[0], 2))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _clip(grads: dict, max_norm):
    if max_norm is None:
        return grads
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads


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


def train(model: ParallelModel, dataset: EncodedDataset, config: TrainConfig,
          log_stream=None):
    """Train in place; returns (model, [EpochLog]).

    Each epoch: one seeded shuffle (a pure function of seed and epoch),
    mini-batches, and per batch one training-mode `forward_batch` (each
    branch's dropout stream keyed by seed, branch, epoch and batch), then
    an independent loss/backward/clip/Adam update for every branch in
    BRANCH_NAMES order. The shared embedding is updated once per batch from
    the branch gradients summed in that order; its pad row never moves.
    Verbose level 1 prints a summary line every 100 epochs.
    """
    config.validate()
    if len(dataset) == 0:
        raise ValueError("empty training set")
    if len(set(dataset.labels.tolist())) < 2:
        print("warning: training labels contain a single class", file=sys.stderr)

    branch_opts = {name: AdamState(config.learning_rate) for name in BRANCH_NAMES}
    embed_opt = AdamState(config.learning_rate)
    branch_params = {
        name: dict(model.branches[name].blocks()) for name in BRANCH_NAMES
    }

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
            targets = _one_hot(dataset.labels[batch])
            rngs = {name: RngStream(config.seed, 7, b_idx, epoch, n_batches)
                    for b_idx, name in enumerate(BRANCH_NAMES)}
            scores, caches = forward_batch(model, ids, dataset.mask[batch], rngs)
            d_embedding = np.zeros_like(model.embedding)
            for name in BRANCH_NAMES:
                loss, d_scores = categorical_cross_entropy(scores[name], targets)
                loss_sums[name] += loss
                grads, d_embedded = branch_backward(model.branches[name], caches.pop(name),
                                                    d_scores)
                grads["__embedded__"] = d_embedded
                _clip(grads, config.clip_norm)
                d_embedded = grads.pop("__embedded__")
                adam_step(branch_opts[name], branch_params[name], grads)
                # scatter-add sequence-position grads back to embedding rows
                for t in range(ids.shape[1]):
                    np.add.at(d_embedding, ids[:, t], d_embedded[t])
            d_embedding[0, :] = 0.0  # pad row frozen
            adam_step(embed_opt, {"embedding": model.embedding}, {"embedding": d_embedding})
            model.embedding[0, :] = 0.0
            n_batches += 1

        acc = epoch_metrics(model, dataset)
        loss_means = {name: loss_sums[name] / n_batches for name in BRANCH_NAMES}
        logs.append(EpochLog(epoch, loss_means, acc, time.perf_counter() - t0))
        if config.verbose >= 1 and (epoch % 100 == 0 or epoch == config.epochs):
            stream = log_stream if log_stream is not None else sys.stdout
            for name in BRANCH_NAMES:
                print(f"epoch {epoch}, {name}, loss {loss_means[name]:.4f}, "
                      f"acc {acc[name]:.2f}%", file=stream)
    return model, logs


def write_epoch_csv(logs, path):
    """Per-epoch CSV: epoch,branch,loss,accuracy. Deterministic bytes for a
    fixed seed (wall time stays in memory only)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,branch,loss,accuracy\n")
        for log in logs:
            for name in BRANCH_NAMES:
                fh.write(f"{log.epoch},{name},{log.loss[name]!r},{log.accuracy[name]!r}\n")
