"""Training loop: categorical cross-entropy, seeded shuffling, per-branch
gradient clipping, one Adam update of the whole model per batch, and
per-epoch logging in the style of the per-100-epoch accuracy tables.

The gradients of a batch land in a gradient arena, a zeroed model of the
parameter arena's layout (`ParallelModel.zeros_like`), so one chunked,
in-place Adam update over the two flat buffers updates every parameter."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import encode, tokenize
from .lstm import GATES
from .model import (AGGREGATIONS, BRANCH_NAMES, DEFAULT_DROPOUT_EMBED, DEFAULT_DROPOUT_RECURRENT,
                    DEFAULT_SEQ_LEN, GATE_MODES, ParallelModel, branch_backward, forward_batch,
                    init_model)
from .tensor import _BLOCK_ELEMS, RngStream, ShapeError, categorical_cross_entropy


class ConfigError(ValueError):
    """A bad config value, or a run that the config makes diverge."""


class ScoresNotFinite(ValueError):
    """A branch's eval-mode scores are not all finite: the model overflows
    on the inputs it scores."""


@dataclass
class TrainConfig:
    """The one statement of the config keys, their value types and their
    defaults. A field's config key is its name, or its metadata's "key";
    a `float | None` field also accepts `none`."""

    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    verbose: int = 1
    hidden: int = 64
    embed_dim: int = field(default=400, metadata={"key": "embedding_dim"})
    seq_len: int = DEFAULT_SEQ_LEN
    learning_rate: float = 0.01
    dropout_embed: float = DEFAULT_DROPOUT_EMBED
    dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT
    gate_mode: str = GATE_MODES[0]
    clip_norm: float | None = 5.0  # None disables clipping
    aggregation: str = AGGREGATIONS[0]

    def validate(self):
        for key, value in (("epochs", self.epochs), ("batch_size", self.batch_size),
                           ("hidden", self.hidden), ("embedding_dim", self.embed_dim),
                           ("seq_len", self.seq_len)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("dropout_embed", "dropout_recurrent"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not 0.0 < self.learning_rate < np.inf:  # also false for nan
            raise ConfigError("learning_rate must be finite and > 0")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < np.inf:
            raise ConfigError("clip_norm must be none or finite and > 0")
        if self.gate_mode not in GATE_MODES:
            raise ConfigError(f"gate_mode must be one of {', '.join(GATE_MODES)}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {', '.join(AGGREGATIONS)}")


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
    """Per-entry first/second moments with bias correction (ADAM_BETA1,
    ADAM_BETA2, ADAM_EPS); one step counter, as every entry updates each
    step. In training the one entry is the whole parameter arena; the
    chunked update's scratch buffers are made per call, not kept here."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = {}
        self.v = {}


def adam_step(state: AdamState, params: dict, grads: dict):
    """One Adam update, in place. params and grads map entry name -> array;
    each param must be C-contiguous, as every model array is.

    Each entry is updated flat, _BLOCK_ELEMS elements at a time, so the
    chunk and its temporaries stay in cache; the temporaries live in one
    pair of chunk-sized scratch buffers made per entry, 2 x 256 KB at most,
    not in entry-sized arrays. Per element the operations are those of
        m = B1*m + (1-B1)*g;  v = B2*v + ((1-B2)*g)*g
        theta -= (lr * (m / (1-B1**t))) / (sqrt(v / (1-B2**t)) + eps)
    in that order, so a chunk of an entry, an entry or a whole arena gives
    every element the same bytes.
    """
    state.t += 1
    c1, c2 = 1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {theta.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros(theta.shape)
            state.v[name] = np.zeros(theta.shape)
        if not theta.flags.c_contiguous:  # its flat form would be a copy
            raise ValueError(f"param {name} is not C-contiguous")
        theta, g = theta.reshape(-1), g.reshape(-1)
        m, v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        scratch = np.empty((2, min(theta.size, _BLOCK_ELEMS)))
        for lo in range(0, theta.size, _BLOCK_ELEMS):
            chunk = slice(lo, lo + _BLOCK_ELEMS)
            m_c, v_c, g_c = m[chunk], v[chunk], g[chunk]
            a, b = scratch[:, : g_c.size]
            m_c *= ADAM_BETA1
            m_c += np.multiply(1.0 - ADAM_BETA1, g_c, out=a)
            v_c *= ADAM_BETA2
            v_c += np.multiply(np.multiply(1.0 - ADAM_BETA2, g_c, out=a), g_c, out=a)
            np.divide(m_c, c1, out=a)  # m_hat
            np.sqrt(np.divide(v_c, c2, out=b), out=b)  # sqrt(v_hat)
            b += ADAM_EPS
            np.multiply(state.lr, a, out=a)
            a /= b
            theta[chunk] -= a
    return params, state


def _one_hot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((labels.shape[0], 2))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _clip(arrays, max_norm):
    """Scale `arrays` in place so their joint L2 norm is at most max_norm.
    Each array is (blocks, n), one block a row: a row's squared sum is the
    block's own `np.sum(g * g)`, bitwise, and the rows' sums add up in the
    order given."""
    if max_norm is None:
        return
    total = 0.0
    for g in arrays:
        for row_sum in np.sum(g * g, axis=1):
            total += float(row_sum)
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in arrays:
            g *= scale


def epoch_metrics(model: ParallelModel, dataset: EncodedDataset) -> dict:
    """Eval-mode accuracy percent per branch (argmax labels). A model just
    trained that scores non-finite values has diverged: `ConfigError`."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    try:
        preds = predict_labels(model, dataset)
    except ScoresNotFinite as exc:
        raise ConfigError(f"training diverged: {exc}") from None
    return {name: 100.0 * float(np.mean(preds[name] == dataset.labels))
            for name in BRANCH_NAMES}


@np.errstate(all="ignore")  # the finiteness check decides, not numpy's warnings
def predict_labels(model: ParallelModel, dataset: EncodedDataset) -> dict:
    """Eval-mode per-branch argmax labels for every example: the one path
    behind eval and the per-epoch metrics. A branch with a non-finite
    score, in BRANCH_NAMES order, raises `ScoresNotFinite` naming it."""
    scores, _ = forward_batch(model, dataset.ids, dataset.mask)
    for name in BRANCH_NAMES:
        if not np.isfinite(scores[name]).all():
            raise ScoresNotFinite(f"the {name} branch's scores are not finite")
    return {name: np.argmax(scores[name], axis=1) for name in BRANCH_NAMES}


def _clip_rows(grad, d_embedded):
    """A branch's gradient as `_clip` takes it, in the order the squared
    sums of its blocks add up: its head weights and bias, then per
    direction the W, U and b stacks, a row per gate, then its dense
    embedded-input gradient. All are views, so the clip scales them."""
    stacks = [arr.reshape(len(GATES), -1) for params in (grad.layer.forward_params,
                                                         grad.layer.backward_params)
              for arr in (params.W, params.U, params.b)]
    return [grad.head_W.reshape(1, -1), grad.head_b.reshape(1, -1), *stacks,
            d_embedded.reshape(1, -1)]


def _batch_grads(model, ids, mask, targets, rngs, clip_norm):
    """One batch's (losses by branch, clipped gradient of every parameter
    as a gradient arena): a training-mode `forward_batch`, each branch's
    loss, then a zeroed gradient arena, made once the forward pass's memory
    peak is over, each branch group's backward into its views, and each
    branch's clip and embedding scatter in BRANCH_NAMES order. The caches
    of the batch are freed when this returns."""
    scores, caches = forward_batch(model, ids, mask, rngs)
    losses, d_scores = {}, {}
    for name in BRANCH_NAMES:
        losses[name], d_scores[name] = categorical_cross_entropy(scores[name], targets)
    used = mask.T  # unmasked positions, time-major like d_embedded
    used_ids = ids.T[used]
    grad = model.zeros_like()
    grad_groups = grad.groups(len(ids))
    while caches:
        (group, cache), grad_group = caches.pop(0), grad_groups.pop(0)
        _, d_embeddeds = branch_backward(group, cache, [d_scores[b.name] for b in group.branches],
                                         grad_group)
        del cache  # its step records are spent; free its token table
        # the dense gradients first: zip then runs their iterator to its end
        for d_embedded, branch_grad in zip(d_embeddeds, grad_group.branches):
            _clip(_clip_rows(branch_grad, d_embedded), clip_norm)
            # scatter-add the unmasked positions' grads back to embedding
            # rows, t-major then batch row, so repeated ids add in step
            # order; padded positions (gradient +0) are left out
            np.add.at(grad.embedding, used_ids, d_embedded[used])
    grad.embedding[0, :] = 0.0  # pad row frozen: its Adam update is exactly 0
    return losses, grad


@np.errstate(all="ignore")  # the finiteness checks decide, not numpy's warnings
def train(model: ParallelModel, dataset: EncodedDataset, config: TrainConfig):
    """Train in place; returns (model, [EpochLog]).

    Each epoch: one seeded shuffle (a pure function of seed and epoch),
    mini-batches, and per batch (`_batch_grads`) one training-mode
    `forward_batch` (each branch's dropout stream keyed by seed, branch,
    epoch and batch), each branch's loss, one `branch_backward` per branch
    group of `ParallelModel.groups` -- the four branches' BPTT at once when
    they step together -- then each branch's clip and embedding scatter in
    BRANCH_NAMES order, all into a new zeroed gradient arena, and one
    `adam_step` over the whole parameter arena. No backward reads
    another branch's parameters or the embedding, so that equals updating
    each branch after its own backward. The embedding's gradient sums the
    branches' in that order; its pad row never moves. Verbose level 1
    prints a summary line every 100 epochs.

    Training runs with numpy's floating-point warnings off. Instead a
    branch's non-finite batch loss, a non-finite parameter after an epoch,
    or a branch's non-finite score in the epoch's metrics pass raises
    `ConfigError` ("training diverged: ..."), so a diverging run ends
    before anything is written.
    """
    config.validate()
    if len(dataset) == 0:
        raise ValueError("empty training set")
    if len(set(dataset.labels.tolist())) < 2:
        print("warning: training labels contain a single class", file=sys.stderr)

    opt = AdamState(config.learning_rate)

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
            losses, grad = _batch_grads(model, ids, mask, targets, rngs, config.clip_norm)
            for name, loss in losses.items():
                if not np.isfinite(loss):
                    raise ConfigError(f"training diverged: {name} loss is {loss} at epoch "
                                      f"{epoch}, batch {n_batches + 1}")
                loss_sums[name] += loss
            adam_step(opt, {"arena": model.arena}, {"arena": grad.arena})
            del grad  # freed before the next forward pass, whose memory peak it would raise
            n_batches += 1
        if not np.isfinite(model.arena).all():
            raise ConfigError(f"training diverged: a parameter is not finite after epoch {epoch}")

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
