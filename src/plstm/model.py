"""The four-branch parallel bidirectional LSTM classifier.

One shared trainable embedding table feeds four independent branches, each
a bidirectional LSTM followed by a two-way affine head with its own output
activation (softmax, sigmoid, relu, tanh). Branches never share weights
beyond the embedding. Every parameter lives in one flat float64 buffer,
`ParallelModel.arena`, and the arrays the maths uses are views of it (see
`model_over`). Every parameter array is a branch stack: each direction's
LSTM weights of all four branches are one (4, 4H, ·) stack and the heads
one (4, 2, H) and one (4, 2) stack, held by `ParallelModel.group`, and each
branch's parameters are stack-of-one views into them, so the four branches
can step together. A gradient arena has the same layout, so one
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
DEFAULT_DROPOUT_EMBED = 0.6
DEFAULT_DROPOUT_RECURRENT = 0.4
INIT_SCALE = 0.05


@dataclass
class Branch:
    """One branch's parameters, each a stack of one: views of a group's
    stacks. `blocks()` names them as 2-D per-gate and head blocks."""

    name: str
    layer: BidirectionalLayer
    head_W: np.ndarray  # (1, 2, hidden)
    head_b: np.ndarray  # (1, 2)
    dropout_embed: float = DEFAULT_DROPOUT_EMBED
    dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT

    @property
    def hidden(self):
        return self.layer.hidden

    def blocks(self):
        out = self.layer.forward_params.blocks(f"{self.name}.fwd")
        out += self.layer.backward_params.blocks(f"{self.name}.bwd")
        out.append((f"{self.name}.head_W", self.head_W[0]))
        out.append((f"{self.name}.head_b", self.head_b[0]))
        return out


@dataclass
class BranchGroup:
    """Branches that step together: `layer` holds their LSTM parameters and
    head_W, head_b their heads, as stacks with a leading branch axis in
    `branches` order."""

    branches: tuple  # of Branch
    layer: BidirectionalLayer
    head_W: np.ndarray  # (branches, 2, hidden)
    head_b: np.ndarray  # (branches, 2)

    def zeros_like(self):
        """A group of the same shapes over new zeroed arrays: a gradient."""
        layer = self.layer.zeros_like()
        head_W, head_b = np.zeros_like(self.head_W), np.zeros_like(self.head_b)
        return BranchGroup(tuple(Branch(b.name, layer.branch(k), head_W[k : k + 1],
                                        head_b[k : k + 1])
                                 for k, b in enumerate(self.branches)), layer, head_W, head_b)


@dataclass
class ParallelModel:
    arena: np.ndarray  # every parameter, flat; the arrays below are views of it
    embedding: np.ndarray  # (vocab, embed); row 0 (pad) stays zero
    group: BranchGroup  # the four branches over the parameter stacks
    seq_len: int
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
        """name -> Branch, the group's branches in BRANCH_NAMES order."""
        return {b.name: b for b in self.group.branches}

    def blocks(self):
        out = [("embedding", self.embedding)]
        for branch in self.group.branches:
            out += branch.blocks()
        return out

    def param_count(self):
        return self.arena.size

    def zeros_like(self):
        """A model of the same layout and gate activations over a zeroed
        arena: the gradient arena, each gradient the view its parameter is."""
        return model_over(np.zeros_like(self.arena), self.vocab_size, self.embed_dim,
                          self.hidden, self.group.layer.forward_params.gate_activation,
                          self.seq_len, self.aggregation)

    def groups(self, batch: int):
        """The branch groups that step together on a batch: `group`, all
        four as one stack, while a step's recurrent product, 4 x batch x 4H,
        is `one_stack`, else each branch alone, a group of one over its
        stack-of-one views. A shape rule, not a setting: both give the same
        bytes, and larger stacks run per branch anyway."""
        if one_stack(len(BRANCH_NAMES), batch, 4 * self.hidden):
            return [self.group]
        return [BranchGroup((b,), b.layer, b.head_W, b.head_b) for b in self.group.branches]


def _layout(vocab_size: int, embed_dim: int, hidden: int) -> list:
    """The arena's array shapes, in arena order (see `model_over`)."""
    rows, n = 4 * hidden, len(BRANCH_NAMES)
    return [(vocab_size, embed_dim),
            *[(n, rows, embed_dim), (n, rows, hidden), (n, rows)] * 2,
            (n, N_CLASSES, hidden), (n, N_CLASSES)]


def expected_param_count(vocab_size: int, embed_dim: int, hidden: int) -> int:
    """The arena's length: the element count of every shape `_layout` lists."""
    return sum(math.prod(shape) for shape in _layout(vocab_size, embed_dim, hidden))


def model_over(arena, vocab_size: int, embed_dim: int, hidden: int, gate_acts: tuple,
               seq_len: int, aggregation: str,
               dropout_embed: float = DEFAULT_DROPOUT_EMBED,
               dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT) -> ParallelModel:
    """The arena layout: a model whose parameters are views of `arena`, a
    flat float64 buffer of expected_param_count() elements, tiled once in
    this order: the (vocab, embed) embedding; per direction, forward then
    backward, the (4, 4H, embed) W, (4, 4H, H) U and (4, 4H) b stacks of
    all four branches; then the (4, 2, H) head weight and (4, 2) head bias
    stacks. `gate_acts` names each branch's gate activation."""
    shapes = _layout(vocab_size, embed_dim, hidden)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if arena.shape != (ends[-1],):
        raise ValueError(f"arena shape {arena.shape} != ({ends[-1]},)")
    embedding, *views, head_W, head_b = (arena[end - math.prod(shape) : end].reshape(shape)
                                         for shape, end in zip(shapes, ends))
    layer = BidirectionalLayer(LSTMCellParams(*views[:3], gate_acts),
                               LSTMCellParams(*views[3:], gate_acts))
    branches = tuple(Branch(name, layer.branch(k), head_W[k : k + 1], head_b[k : k + 1],
                            dropout_embed, dropout_recurrent)
                     for k, name in enumerate(BRANCH_NAMES))
    return ParallelModel(arena, embedding, BranchGroup(branches, layer, head_W, head_b), seq_len,
                         aggregation)


def init_model(
    vocab_size: int,
    embed_dim: int,
    hidden: int,
    seed: int,
    seq_len: int = DEFAULT_SEQ_LEN,
    aggregation: str = AGGREGATIONS[0],
    gate_mode: str = GATE_MODES[0],
    dropout_embed: float = DEFAULT_DROPOUT_EMBED,
    dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT,
) -> ParallelModel:
    """Deterministic init: uniform(-0.05, 0.05) weights from per-branch
    substreams, zero biases except forget bias +1, zero pad embedding row."""
    if min(vocab_size, embed_dim, hidden, seq_len) < 1:
        raise ValueError("all model dimensions must be >= 1")
    if gate_mode not in GATE_MODES:
        raise ValueError(f"unknown gate_mode {gate_mode!r}")
    gate_acts = tuple(name if gate_mode == "literal_eq9" else "sigmoid" for name in BRANCH_NAMES)
    model = model_over(np.zeros(expected_param_count(vocab_size, embed_dim, hidden)),
                       vocab_size, embed_dim, hidden, gate_acts, seq_len, aggregation,
                       dropout_embed, dropout_recurrent)
    model.embedding[...] = RngStream(seed, 0).uniform(-INIT_SCALE, INIT_SCALE,
                                                      (vocab_size, embed_dim))
    model.embedding[0, :] = 0.0
    for idx, branch in enumerate(model.group.branches):
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
    each branch's keep bits (branches, n, embed) and each branch's 1 -
    rate, and rebuilds a dropout mask value as `dropout_mask` makes it,
    keep / (1 - rate), so every row it makes is bitwise rows * mask."""

    def __init__(self, rows, keep, rates):
        self.rows, self.keep = rows, keep
        self.scale = np.array([1.0 - rate for rate in rates])[:, None, None]

    def __call__(self, lo, hi):
        return self.rows[lo:hi] * (self.keep[:, lo:hi] / self.scale)

    def mask(self, k: int):
        """Branch k's dropout mask values at the unmasked positions, (n, embed)."""
        return self.keep[k] / self.scale[k]


def branch_forward(branch, embedded: np.ndarray, mask, rng=None, tokens=None):
    """Branch pipeline: embed dropout -> bidirectional encode -> pooled
    dropout -> affine head -> the branch's own activation.

    `branch` is a Branch, or a BranchGroup whose encoders run as one stack;
    for a group, `rng` and the returned scores are lists in branch order.
    Training mode is exactly "an rng was given": dropout masks are drawn
    from it, the embedding mask first. Returns (scores (batch, 2), cache).
    The encoder reads one per-position token table for both directions:
    the unmasked positions' inputs, in training each branch's through its
    own dropout. Training holds that table as the unmasked rows and each
    branch's embedding dropout mask as bits (`_DroppedRows`), and the
    encoder and the backward pass make the inputs and the mask values from
    them when they read them, bitwise as the dense table would hold them.
    `tokens` is the encoder's (table, index) token table (see
    `lstm.directional_pass`), by default the per-position table
    `embedded[mask]`. It describes `embedded`, which may then be a
    stand-in of that shape, read for its shape only. Training takes a
    per-position table (index None), the inputs before dropout. A pass
    given an index, which fits eval mode only, is forward-only: the
    encoder keeps no BPTT step records and the returned cache is None.
    """
    group = (branch if isinstance(branch, BranchGroup)
             else BranchGroup((branch,), branch.layer, branch.head_W, branch.head_b))
    rngs = rng if group is branch or rng is None else [rng]
    embedded = np.asarray(embedded, dtype=np.float64)
    batch = embedded.shape[1]
    mask = np.asarray(mask, dtype=bool)
    if tokens is None:
        tokens = embedded[mask], None
    n_branches = len(group.branches)
    dropped_rows, m_pool = None, np.ones((n_branches, 1, 1))
    if rngs is not None:
        rows = tokens[0]
        keep = np.empty((n_branches, *rows.shape), dtype=bool)
        m_pool = np.empty((n_branches, batch, group.layer.hidden))
        for k, (member, member_rng) in enumerate(zip(group.branches, rngs)):
            keep[k] = dropout_mask(embedded.shape, member.dropout_embed, member_rng)[mask] != 0
            m_pool[k] = dropout_mask((batch, member.hidden), member.dropout_recurrent,
                                     member_rng)
        dropped_rows = _DroppedRows(rows, keep, [b.dropout_embed for b in group.branches])
        tokens = dropped_rows, None
    (final_f, final_b), enc_cache = directional_pass(group.layer, embedded, mask, tokens)
    dropped = (final_f.h + final_b.h) * m_pool  # pooled: forward plus backward final h
    logits = matmul_stacked(dropped, group.head_W.transpose(0, 2, 1)) + group.head_b[:, None]
    scores = [activate(member.name, logits[k]) for k, member in enumerate(group.branches)]
    cache = None if enc_cache is None else {
        "dropped_rows": dropped_rows,
        "m_pool": m_pool,
        "enc": enc_cache,
        "dropped": dropped,
        "scores": scores,
    }
    return (scores if group is branch else scores[0]), cache


def _embedded_grads(mask, dropped_rows, dx_rows):
    """Each branch's dense (L, batch, embed) gradient w.r.t. the shared
    embedded input, made when it is asked for: its input-gradient rows
    through its embedding dropout mask, at the unmasked positions."""
    for k, rows in enumerate(dx_rows):
        d_embedded = np.zeros((*mask.shape, rows.shape[1]))
        d_embedded[mask] = rows if dropped_rows is None else rows * dropped_rows.mask(k)
        yield d_embedded


def branch_backward(branch, cache, d_scores, out=None):
    """Reverse the branch pipeline; returns (param grads, d_embedded).

    The parameter gradients land in `out`, a BranchGroup of the group's
    shapes (a gradient arena's `groups`, say) whose encoder stacks the BPTT
    adds into and whose head stacks it overwrites; by default new zeroed
    arrays.
    The grads are `dict(blocks())` of `out`'s branches: views keyed by
    block name, in `blocks()` order. For a BranchGroup,
    `d_scores` is a list in branch order, the grads are one dict per branch,
    and d_embedded is an iterator that makes each branch's dense gradient
    when it is asked for, so only one is held at a time. The BPTT of all of
    the group's branches runs in this call.
    """
    group = (branch if isinstance(branch, BranchGroup)
             else BranchGroup((branch,), branch.layer, branch.head_W, branch.head_b))
    if group is not branch:
        d_scores = [d_scores]
    out = group.zeros_like() if out is None else out
    d_logits = np.stack([activate_grad(member.name, scores, d) for member, scores, d
                         in zip(group.branches, cache["scores"], d_scores)])
    out.head_W[...] = matmul_stacked(d_logits.transpose(0, 2, 1), cache["dropped"])
    out.head_b[...] = d_logits.sum(axis=1)
    d_pooled = matmul_stacked(d_logits, group.head_W) * cache["m_pool"]
    dx_rows = bptt(cache["enc"], d_pooled, out.layer)
    grads = [dict(grad.blocks()) for grad in out.branches]
    d_embedded = _embedded_grads(cache["enc"]["mask"], cache["dropped_rows"], dx_rows)
    if group is branch:
        return grads, d_embedded
    return grads[0], next(d_embedded)


def forward_batch(model: ParallelModel, ids, mask, rngs=None):
    """Shared embedding lookup, then the four branches in `model.groups`:
    the one forward pass behind training, eval and the per-epoch metrics.

    mask is (batch, L) boolean. rngs maps branch name -> RngStream and
    selects training mode. Returns ({branch: scores (batch, 2)}, caches):
    in training, caches lists (group, cache) pairs in branch order, which
    `branch_backward` takes; in eval it is None. Training inputs differ at
    every position after dropout, so each branch projects every unmasked
    position, from a per-position table of their embedding rows. In eval
    every unmasked position's input is its token's embedding row, so the
    encoder reads the embedding with the ids as its index: each group's
    pass gathers the distinct unmasked ids' rows and projects each of them
    once per branch and direction, and, given an index, keeps no BPTT step
    records.
    Neither mode builds the (L, batch, embed) array: the passes and the
    dropout draws read only its shape, from a zero-memory stand-in. Every
    id, padded or not, must be in range in both modes.
    """
    mask_tm = np.atleast_2d(np.asarray(mask, dtype=bool)).T  # (L, batch)
    ids_tm = _checked_ids(model, ids).T
    # in training, each group gathers its own table, freed once dropout is applied
    tokens = (model.embedding, ids_tm) if rngs is None else None
    embedded = np.broadcast_to(0.0, (*mask_tm.shape, model.embed_dim))
    scores, caches = {}, []
    for group in model.groups(mask_tm.shape[1]):
        group_rngs = None if rngs is None else [rngs[b.name] for b in group.branches]
        group_scores, cache = branch_forward(group, embedded, mask_tm, group_rngs,
                                             tokens or (model.embedding[ids_tm[mask_tm]], None))
        scores.update(zip((b.name for b in group.branches), group_scores))
        caches.append((group, cache))
    return scores, (None if rngs is None else caches)


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
    for branch in model.group.branches:
        n_layer = sum(a.size for k, a in branch.blocks() if ".head_" not in k)
        n_head = branch.head_W.size + branch.head_b.size
        lines.append(f"{f'branch {branch.name}: bidirectional lstm':<34}"
                     f"{f'(2x4x{branch.hidden})':<16}{n_layer:>8}")
        lines.append(f"{f'branch {branch.name}: dense head':<34}"
                     f"{str(branch.head_W.shape[1:]):<16}{n_head:>8}")
    lines.append("-" * width)
    lines.append(f"{'total parameters':<50}{model.param_count():>8}")
    lines.append("=" * width)
    return "\n".join(lines) + "\n"
