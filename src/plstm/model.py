"""The four-branch parallel bidirectional LSTM classifier.

One shared trainable embedding table feeds four independent branches, each
a bidirectional LSTM followed by a two-way affine head with its own output
activation (softmax, sigmoid, relu, tanh). Branches never share weights
beyond the embedding. Every parameter lives in one flat float64 buffer,
`ParallelModel.arena`, and the arrays the maths uses are views of it (see
`model_over`). Every parameter array is a branch stack: each direction's
LSTM weights of all four branches are one (4, 4H, ·) stack and the heads
one (4, 2, H) and one (4, 2) stack, so the four branches can step
together. One form states branches, `BranchGroup`: `ParallelModel.group`
holds all four, and a single branch is a group of one over views of the
stacks (`BranchGroup.branch`), as a single branch's LSTM parameters are a
stack of one. A gradient arena (`ParallelModel.zeros_like`, the one
gradient constructor) has the same layout: `branch_backward` writes a
group's gradients into the arena's group of the same branches, and one
elementwise pass can update the whole model.

In training, each branch's embedding dropout gives it its own inputs. A
group holds the inputs once, as its unmasked embedding rows, and each
branch's dropout mask as bits, and the LSTM pass and the backward pass
make each branch's dropped-out rows, and the mask values, when they read
them (`_DroppedRows`), bitwise what a dense table and mask would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lstm import BidirectionalLayer, LSTMCellParams, bptt, directional_pass
from .tensor import (RngStream, activate, activate_grad, dropout_mask, matmul_stacked,
                     one_stack)

BRANCH_NAMES = ("softmax", "sigmoid", "relu", "tanh")
# the first gate mode and aggregation are the defaults; literal_eq9 gives
# each branch's i/f/o gates that branch's own activation
GATE_MODES = ("standard", "literal_eq9")
AGGREGATIONS = ("primary_branch", "majority_vote")
N_CLASSES = 2

DEFAULT_SEQ_LEN = 65
INIT_SCALE = 0.05


@dataclass
class BranchGroup:
    """Branches that step together: `layer` holds their LSTM parameters and
    head_W, head_b their heads, as stacks with a leading branch axis in
    `names` order. A single branch is a group of one (`branch`).
    `blocks()` names each branch's parameters as 2-D per-gate and head
    blocks, in branch order. A group holds no dropout rate: a training
    pass is given its rates (`branch_forward`)."""

    names: tuple  # branch names, in stack order
    layer: BidirectionalLayer
    head_W: np.ndarray  # (branches, 2, hidden)
    head_b: np.ndarray  # (branches, 2)

    def branch(self, k: int):
        """Branch k of the group, as a group of one (views)."""
        one = slice(k, k + 1)
        return BranchGroup(self.names[one], self.layer.branch(k), self.head_W[one],
                           self.head_b[one])

    def blocks(self):
        out = []
        for k, name in enumerate(self.names):
            layer = self.layer.branch(k)
            out += layer.forward_params.blocks(f"{name}.fwd")
            out += layer.backward_params.blocks(f"{name}.bwd")
            out += [(f"{name}.head_W", self.head_W[k]), (f"{name}.head_b", self.head_b[k])]
        return out


@dataclass
class ParallelModel:
    arena: np.ndarray  # every parameter, flat; the arrays below are views of it
    embedding: np.ndarray  # (vocab, embed); row 0 (pad) stays zero
    group: BranchGroup  # the four branches over the parameter stacks
    seq_len: int
    gate_mode: str  # one of GATE_MODES
    aggregation: str  # one of AGGREGATIONS

    @property
    def vocab_size(self):
        return self.embedding.shape[0]

    @property
    def embed_dim(self):
        return self.embedding.shape[1]

    @property
    def hidden(self):
        return self.group.layer.hidden

    @property
    def branches(self):
        """name -> that branch of `group`, a group of one, in BRANCH_NAMES order."""
        return {name: self.group.branch(k) for k, name in enumerate(self.group.names)}

    def blocks(self):
        return [("embedding", self.embedding), *self.group.blocks()]

    def param_count(self):
        return self.arena.size

    def zeros_like(self):
        """A model of the same layout and gate activations over a zeroed
        arena: the gradient arena, each gradient the view its parameter is."""
        return model_over(np.zeros_like(self.arena), self.vocab_size, self.embed_dim,
                          self.hidden, self.gate_mode, self.seq_len, self.aggregation)

    def groups(self, batch: int):
        """The branch groups that step together on a batch: `group`, all
        four as one stack, while a step's recurrent product, 4 x batch x 4H,
        is `one_stack`, else each branch alone, a group of one over its
        stack-of-one views. A shape rule, not a setting: both give the same
        bytes, and larger stacks run per branch anyway."""
        if one_stack(len(BRANCH_NAMES), batch, 4 * self.hidden):
            return [self.group]
        return [self.group.branch(k) for k in range(len(BRANCH_NAMES))]


def _layout(vocab_size: int, embed_dim: int, hidden: int) -> list:
    """The arena's array shapes, in arena order (see `model_over`)."""
    rows, n = 4 * hidden, len(BRANCH_NAMES)
    return [(vocab_size, embed_dim),
            *[(n, rows, embed_dim), (n, rows, hidden), (n, rows)] * 2,
            (n, N_CLASSES, hidden), (n, N_CLASSES)]


def expected_param_count(vocab_size: int, embed_dim: int, hidden: int) -> int:
    """The arena's length: the element count of every shape `_layout` lists."""
    return sum(math.prod(shape) for shape in _layout(vocab_size, embed_dim, hidden))


def model_over(arena, vocab_size: int, embed_dim: int, hidden: int, gate_mode: str,
               seq_len: int, aggregation: str) -> ParallelModel:
    """The arena layout: a model whose parameters are views of `arena`, a
    flat float64 buffer of expected_param_count() elements, tiled once in
    this order: the (vocab, embed) embedding; per direction, forward then
    backward, the (4, 4H, embed) W, (4, 4H, H) U and (4, 4H) b stacks of
    all four branches; then the (4, 2, H) head weight and (4, 2) head bias
    stacks. Under `gate_mode` literal_eq9 each branch's i/f/o gates take
    that branch's own activation, else sigmoid."""
    if gate_mode not in GATE_MODES:
        raise ValueError(f"unknown gate_mode {gate_mode!r}")
    shapes = _layout(vocab_size, embed_dim, hidden)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if arena.shape != (ends[-1],):
        raise ValueError(f"arena shape {arena.shape} != ({ends[-1]},)")
    embedding, *views, head_W, head_b = (arena[end - math.prod(shape) : end].reshape(shape)
                                         for shape, end in zip(shapes, ends))
    gate_acts = tuple(name if gate_mode == "literal_eq9" else "sigmoid" for name in BRANCH_NAMES)
    layer = BidirectionalLayer(LSTMCellParams(*views[:3], gate_acts),
                               LSTMCellParams(*views[3:], gate_acts))
    group = BranchGroup(BRANCH_NAMES, layer, head_W, head_b)
    return ParallelModel(arena, embedding, group, seq_len, gate_mode, aggregation)


def init_model(vocab_size: int, embed_dim: int, hidden: int, seed: int,
               seq_len: int = DEFAULT_SEQ_LEN, aggregation: str = AGGREGATIONS[0],
               gate_mode: str = GATE_MODES[0]) -> ParallelModel:
    """Deterministic init: uniform(-0.05, 0.05) weights from per-branch
    substreams, zero biases except forget bias +1, zero pad embedding row."""
    if min(vocab_size, embed_dim, hidden, seq_len) < 1:
        raise ValueError("all model dimensions must be >= 1")
    model = model_over(np.zeros(expected_param_count(vocab_size, embed_dim, hidden)),
                       vocab_size, embed_dim, hidden, gate_mode, seq_len, aggregation)
    model.embedding[...] = RngStream(seed, 0).uniform(-INIT_SCALE, INIT_SCALE,
                                                      (vocab_size, embed_dim))
    model.embedding[0, :] = 0.0
    for idx, branch in enumerate(model.branches.values()):
        rng = RngStream(seed, 1 + idx)  # draw order: forward, backward, head
        branch.layer.forward_params.randomize(rng, INIT_SCALE, 1.0)
        branch.layer.backward_params.randomize(rng, INIT_SCALE, 1.0)
        branch.head_W[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, (N_CLASSES, hidden))
    return model


def _checked_ids(model: ParallelModel, ids) -> np.ndarray:
    """(batch, L) token ids, every one of them, padded or not, in range."""
    ids = np.atleast_2d(np.asarray(ids))
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise ValueError(f"token id out of range [0, {model.vocab_size})")
    return ids


def embed_ids(model: ParallelModel, ids: np.ndarray) -> np.ndarray:
    """Lookup (batch, L) token ids -> time-major (L, batch, embed)."""
    return model.embedding[_checked_ids(model, ids)].transpose(1, 0, 2)


class _DroppedRows:
    """A training pass's per-position token table: each branch's unmasked
    inputs after its own embedding dropout, made when asked for, as
    `lstm.directional_pass` reads a table that is a function of a row
    range. It holds the group's unmasked embedding rows (n, embed) once,
    each branch's keep bits (branches, n, embed) and the group's 1 - rate,
    and rebuilds a dropout mask value as `dropout_mask` makes it, keep /
    (1 - rate), so every row it makes is bitwise rows * mask."""

    def __init__(self, rows, keep, rate):
        self.rows, self.keep = rows, keep
        self.scale = 1.0 - rate

    def __call__(self, lo, hi):
        tile = np.divide(self.keep[:, lo:hi], self.scale)  # the product is written over it
        return np.multiply(self.rows[lo:hi], tile, out=tile)

    def mask(self, k: int):
        """Branch k's dropout mask values at the unmasked positions, (n, embed)."""
        return self.keep[k] / self.scale


def branch_forward(group: BranchGroup, mask, tokens, dropout=None):
    """Branch pipeline: embed dropout -> bidirectional encode -> pooled
    dropout -> affine head -> each branch's own activation.

    The group's encoders run as one stack; a single branch is a group of
    one. `mask` is (L, batch) boolean and `tokens` the encoder's (table,
    index) token table (see `lstm.directional_pass`). Training mode is
    exactly "dropout was given": `dropout` is (embed_rate, recurrent_rate,
    rngs), `rngs` one RngStream per branch, in `group.names` order, and
    each branch's dropout masks are drawn from its own at those rates, the
    embedding mask first, at the (L, batch, embed) shape. Returns
    (scores, cache), scores a list of (batch, 2) arrays in branch order.
    A per-position table (index None) holds the unmasked positions'
    inputs, t-major, before dropout; a cache is kept for
    `branch_backward`. Training holds that table as the unmasked rows and
    each branch's embedding dropout mask as bits (`_DroppedRows`), and the
    encoder and the backward pass make the inputs and the mask values from
    them when they read them, bitwise as a dense table would hold them.
    A pass given an index, which fits eval mode only, is forward-only: the
    encoder keeps no BPTT step records and the returned cache is None.
    No (L, batch, embed) array is built: the encoder reads a zero-memory
    stand-in of that shape.
    """
    mask = np.asarray(mask, dtype=bool)
    batch = mask.shape[1]
    embedded = np.broadcast_to(0.0, (*mask.shape, group.layer.forward_params.embed))
    n_branches = len(group.names)
    dropped_rows, m_pool = None, np.ones((n_branches, 1, 1))
    if dropout is not None:
        embed_rate, recurrent_rate, rngs = dropout
        rows = tokens[0]
        keep = np.empty((n_branches, *rows.shape), dtype=bool)
        m_pool = np.empty((n_branches, batch, group.layer.hidden))
        for k, rng in enumerate(rngs):
            keep[k] = dropout_mask(embedded.shape, embed_rate, rng)[mask] != 0
            m_pool[k] = dropout_mask((batch, group.layer.hidden), recurrent_rate, rng)
        dropped_rows = _DroppedRows(rows, keep, embed_rate)
        tokens = dropped_rows, None
    (final_f, final_b), enc_cache = directional_pass(group.layer, embedded, mask, tokens)
    dropped = (final_f.h + final_b.h) * m_pool  # pooled: forward plus backward final h
    logits = matmul_stacked(dropped, group.head_W.transpose(0, 2, 1)) + group.head_b[:, None]
    scores = [activate(name, logits[k]) for k, name in enumerate(group.names)]
    cache = None if enc_cache is None else {
        "dropped_rows": dropped_rows,
        "m_pool": m_pool,
        "enc": enc_cache,
        "dropped": dropped,
        "scores": scores,
    }
    return scores, cache


def _embedded_grads(mask, dropped_rows, dx_rows, branches: int):
    """Each branch's dense (L, batch, embed) gradient w.r.t. the shared
    embedded input, made when it is asked for: its input-gradient rows
    through its embedding dropout mask, at the unmasked positions. Neither
    a branch's rows nor its gradient is held here once it is yielded, so
    the next branch's are made beside what the caller still holds only."""
    for k in range(branches):
        rows = next(dx_rows)
        if dropped_rows is not None:
            rows *= dropped_rows.mask(k)
        d_embedded = np.zeros((*mask.shape, rows.shape[1]))
        d_embedded[mask] = rows
        del rows
        yield d_embedded
        del d_embedded


def branch_backward(group: BranchGroup, cache, d_scores, out: BranchGroup):
    """Reverse the branch pipeline of `branch_forward(group, ...)` into
    `out`; returns d_embedded.

    `d_scores` lists each branch's score gradient, in `group.names` order.
    `out` is the gradient arena's group of the group's branches
    (`ParallelModel.zeros_like`, then its `groups` or `branches`): the BPTT
    adds into its encoder stacks and the head products overwrite its head
    stacks, so `out.blocks()` names every parameter gradient. d_embedded
    is an iterator that makes each branch's dense (L, batch, embed)
    gradient when it is asked for, so only one is held at a time if the
    caller drops each before it asks for the next. The BPTT
    of all of the group's branches runs in this call.
    """
    d_logits = np.stack([activate_grad(name, scores, d) for name, scores, d
                         in zip(group.names, cache["scores"], d_scores)])
    out.head_W[...] = matmul_stacked(d_logits.transpose(0, 2, 1), cache["dropped"])
    out.head_b[...] = d_logits.sum(axis=1)
    d_pooled = matmul_stacked(d_logits, group.head_W) * cache["m_pool"]
    dx_rows = bptt(cache["enc"], d_pooled, out.layer)
    return _embedded_grads(cache["enc"]["mask"], cache["dropped_rows"], dx_rows,
                           len(group.names))


def forward_batch(model: ParallelModel, ids, mask, dropout=None):
    """Shared embedding lookup, then the four branches in `model.groups`:
    the one forward pass behind training, eval and the per-epoch metrics.

    mask is (batch, L) boolean. `dropout`, (embed_rate, recurrent_rate,
    rngs) with rngs mapping branch name -> RngStream, selects training
    mode. Returns ({branch: scores (batch, 2)}, caches):
    in training, caches lists (group, cache) pairs in branch order, which
    `branch_backward` takes; in eval it is None. Training inputs differ at
    every position after dropout, so each branch projects every unmasked
    position, from a per-position table of their embedding rows. In eval
    every unmasked position's input is its token's embedding row, so the
    encoder reads the embedding with the ids as its index: each group's
    pass gathers the distinct unmasked ids' rows and projects each of them
    once per branch and direction, and, given an index, keeps no BPTT step
    records.
    Neither mode builds the (L, batch, embed) array (see `branch_forward`).
    Every id, padded or not, must be in range in both modes.
    """
    mask_tm = np.atleast_2d(np.asarray(mask, dtype=bool)).T  # (L, batch)
    ids_tm = _checked_ids(model, ids).T
    # in training, each group gathers its own table of unmasked rows, which
    # its `_DroppedRows` holds until the group's backward pass is done
    tokens = (model.embedding, ids_tm) if dropout is None else None
    scores, caches = {}, []
    for group in model.groups(mask_tm.shape[1]):
        group_dropout = None if dropout is None else (
            *dropout[:2], [dropout[2][name] for name in group.names])
        group_scores, cache = branch_forward(group, mask_tm,
                                             tokens or (model.embedding[ids_tm[mask_tm]], None),
                                             group_dropout)
        scores.update(zip(group.names, group_scores))
        caches.append((group, cache))
    return scores, (None if dropout is None else caches)


def aggregate(per_branch_labels: dict, aggregation: str) -> int:
    """Final label: the softmax branch's call, or a majority vote with ties
    resolved toward class 0."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if aggregation == "majority_vote":
        votes = sum(per_branch_labels[n] for n in BRANCH_NAMES)
        return 1 if votes > len(BRANCH_NAMES) / 2 else 0
    return per_branch_labels["softmax"]


def summary(model: ParallelModel) -> str:
    """Keras-style parameter summary with a grand total; pure."""
    lines = []
    width = 58
    lines.append("pLSTM parallel model")
    lines.append("=" * width)
    lines.append(f"{'layer':<34}{'shape':<16}{'params':>8}")
    lines.append("-" * width)
    emb = model.embedding
    lines.append(f"{'embedding (shared)':<34}{str(emb.shape):<16}{emb.size:>8}")
    for name, branch in model.branches.items():
        n_layer = sum(a.size for k, a in branch.blocks() if ".head_" not in k)
        n_head = branch.head_W.size + branch.head_b.size
        lines.append(f"{f'branch {name}: bidirectional lstm':<34}"
                     f"{f'(2x4x{model.hidden})':<16}{n_layer:>8}")
        lines.append(f"{f'branch {name}: dense head':<34}"
                     f"{str(branch.head_W.shape[1:]):<16}{n_head:>8}")
    lines.append("-" * width)
    lines.append(f"{'total parameters':<50}{model.param_count():>8}")
    lines.append("=" * width)
    return "\n".join(lines) + "\n"
