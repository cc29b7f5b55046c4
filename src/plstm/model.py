"""The four-branch parallel bidirectional LSTM classifier.

One shared trainable embedding table feeds four independent branches, each
a bidirectional LSTM followed by a two-way affine head with its own output
activation (softmax, sigmoid, relu, tanh). Branches never share weights
beyond the embedding. Every parameter lives in one flat float64 buffer,
`ParallelModel.arena`, and the arrays the maths uses are views of it (see
`model_over`): each direction's LSTM weights of all four branches are one
(4, 4H, ·) stack, `ParallelModel.encoder`, and each branch's parameters are
views into it, so the four encoders can step together. A gradient arena
has the same layout, so one elementwise pass can update the whole model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lstm import BidirectionalLayer, LSTMCellParams, bptt, bidirectional_encode
from .tensor import STACKED_ELEMS, RngStream, activate, activate_grad, dropout_mask, matmul

BRANCH_NAMES = ("softmax", "sigmoid", "relu", "tanh")
# literal_eq9 gives each branch's i/f/o gates that branch's own activation
GATE_MODES = ("standard", "literal_eq9")
AGGREGATIONS = ("primary_branch", "majority_vote")
N_CLASSES = 2

DEFAULT_DROPOUT_EMBED = 0.6
DEFAULT_DROPOUT_RECURRENT = 0.4
INIT_SCALE = 0.05


@dataclass
class Branch:
    name: str
    layer: BidirectionalLayer
    head_W: np.ndarray  # (2, hidden)
    head_b: np.ndarray  # (2,)
    dropout_embed: float = DEFAULT_DROPOUT_EMBED
    dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT

    @property
    def hidden(self):
        return self.layer.hidden

    def blocks(self):
        out = self.layer.forward_params.blocks(f"{self.name}.fwd")
        out += self.layer.backward_params.blocks(f"{self.name}.bwd")
        out.append((f"{self.name}.head_W", self.head_W))
        out.append((f"{self.name}.head_b", self.head_b))
        return out


@dataclass
class BranchGroup:
    """Branches whose encoders step together: `layer` holds their LSTM
    parameters as stacks with a leading branch axis, in `branches` order."""

    branches: tuple  # of Branch
    layer: BidirectionalLayer

    @classmethod
    def of(cls, branch: Branch):
        """A group of one, its stacks views of the branch's own parameters."""
        layer = branch.layer
        return cls((branch,), BidirectionalLayer(layer.forward_params.as_stack(),
                                                 layer.backward_params.as_stack()))

    def zeros_like(self):
        """A group of the same shapes over new zeroed arrays: a gradient."""
        layer = self.layer.zeros_like()
        return BranchGroup(tuple(Branch(b.name, layer.branch(k), np.zeros_like(b.head_W),
                                        np.zeros_like(b.head_b))
                                 for k, b in enumerate(self.branches)), layer)


@dataclass
class ParallelModel:
    arena: np.ndarray  # every parameter, flat; the arrays below are views of it
    embedding: np.ndarray  # (vocab, embed); row 0 (pad) stays zero
    branches: dict  # name -> Branch, iteration in BRANCH_NAMES order
    encoder: BidirectionalLayer  # (4, 4H, ·) stacks; each branch's layer is views of them
    seq_len: int
    aggregation: str = "primary_branch"  # or "majority_vote"

    @property
    def vocab_size(self):
        return self.embedding.shape[0]

    @property
    def embed_dim(self):
        return self.embedding.shape[1]

    @property
    def hidden(self):
        return self.branches["softmax"].hidden

    def blocks(self):
        out = [("embedding", self.embedding)]
        for name in BRANCH_NAMES:
            out += self.branches[name].blocks()
        return out

    def param_count(self):
        return self.arena.size

    def zeros_like(self):
        """A model of the same layout and gate activations over a zeroed
        arena: the gradient arena, each gradient the view its parameter is."""
        return model_over(np.zeros_like(self.arena), self.vocab_size, self.embed_dim,
                          self.hidden, self.encoder.forward_params.gate_activation,
                          self.seq_len, self.aggregation)

    def groups(self, batch: int):
        """The branch groups that step together on a batch: all four as one
        stack while a step's recurrent product, 4 x batch x 4H, fits
        `matmul_stacked`'s one stack, else each branch alone, on views of
        the same stacks. A shape rule, not a setting: both give the same
        bytes, and larger stacks run per branch anyway."""
        branches = tuple(self.branches[name] for name in BRANCH_NAMES)
        if len(branches) * batch * 4 * self.hidden <= STACKED_ELEMS:
            return [BranchGroup(branches, self.encoder)]
        return [BranchGroup.of(branch) for branch in branches]


def _layout(vocab_size: int, embed_dim: int, hidden: int) -> list:
    """The arena's array shapes, in arena order (see `model_over`)."""
    rows, n = 4 * hidden, len(BRANCH_NAMES)
    return [(vocab_size, embed_dim),
            *[(n, rows, embed_dim), (n, rows, hidden), (n, rows)] * 2,
            *[(N_CLASSES, hidden), (N_CLASSES,)] * n]


def expected_param_count(vocab_size: int, embed_dim: int, hidden: int) -> int:
    """The arena's length: the element count of every shape `_layout` lists."""
    return sum(math.prod(shape) for shape in _layout(vocab_size, embed_dim, hidden))


def model_over(arena, vocab_size: int, embed_dim: int, hidden: int, gate_acts: tuple,
               seq_len: int, aggregation: str = "primary_branch",
               dropout_embed: float = DEFAULT_DROPOUT_EMBED,
               dropout_recurrent: float = DEFAULT_DROPOUT_RECURRENT) -> ParallelModel:
    """The arena layout: a model whose parameters are views of `arena`, a
    flat float64 buffer of expected_param_count() elements, tiled once in
    this order: the (vocab, embed) embedding; per direction, forward then
    backward, the (4, 4H, embed) W, (4, 4H, H) U and (4, 4H) b stacks of
    all four branches; then, branch by branch, the (2, H) head weights and
    (2,) head bias. `gate_acts` names each branch's gate activation."""
    shapes = _layout(vocab_size, embed_dim, hidden)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if arena.shape != (ends[-1],):
        raise ValueError(f"arena shape {arena.shape} != ({ends[-1]},)")
    embedding, *views = (arena[end - math.prod(shape) : end].reshape(shape)
                         for shape, end in zip(shapes, ends))
    encoder = BidirectionalLayer(LSTMCellParams(*views[:3], gate_acts),
                                 LSTMCellParams(*views[3:6], gate_acts))
    branches = {name: Branch(name, encoder.branch(k), views[6 + 2 * k], views[7 + 2 * k],
                             dropout_embed, dropout_recurrent)
                for k, name in enumerate(BRANCH_NAMES)}
    return ParallelModel(arena, embedding, branches, encoder, seq_len, aggregation)


def init_model(
    vocab_size: int,
    embed_dim: int,
    hidden: int,
    seed: int,
    seq_len: int = 65,
    aggregation: str = "primary_branch",
    gate_mode: str = "standard",
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


def branch_forward(branch, embedded: np.ndarray, mask, rng=None, tokens=None):
    """Branch pipeline: embed dropout -> bidirectional encode -> pooled
    dropout -> affine head -> the branch's own activation.

    `branch` is a Branch, or a BranchGroup whose encoders run as one stack;
    for a group, `rng` and the returned scores are lists in branch order.
    Training mode is exactly "an rng was given": dropout masks are drawn
    from it, the embedding mask first. Returns (scores (batch, 2), cache).
    The encoder reads one per-position token table for both directions:
    the unmasked positions' inputs, (branches, n, embed) in training, where
    each branch's dropout makes its own. The cache holds that table and the
    unmasked rows of the embedding dropout masks, not the dense inputs, so
    the backward pass replays the masks exactly. `tokens` is the encoder's
    (table, index) token table (see `lstm.directional_pass`), by default
    the per-position table `embedded[mask]`. It describes `embedded`, which
    may then be a stand-in of that shape, read for its shape only. Training
    takes a per-position table (index None), the inputs before dropout. A
    pass given an index, which fits eval mode only, is forward-only: the
    encoder keeps no BPTT step records and the returned cache is None.
    """
    group = branch if isinstance(branch, BranchGroup) else BranchGroup.of(branch)
    rngs = rng if group is branch or rng is None else [rng]
    embedded = np.asarray(embedded, dtype=np.float64)
    batch = embedded.shape[1]
    mask = np.asarray(mask, dtype=bool)
    if tokens is None:
        tokens = embedded[mask], None
    n_branches = len(group.branches)
    m_embed, m_pool = None, np.ones((n_branches, 1, 1))
    if rngs is not None:
        rows = tokens[0]
        table = np.empty((n_branches, *rows.shape))
        m_embed = np.empty_like(table)
        m_pool = np.empty((n_branches, batch, group.layer.hidden))
        for k, (member, member_rng) in enumerate(zip(group.branches, rngs)):
            m_embed[k] = dropout_mask(embedded.shape, member.dropout_embed, member_rng)[mask]
            m_pool[k] = dropout_mask((batch, member.hidden), member.dropout_recurrent,
                                     member_rng)
            np.multiply(rows, m_embed[k], out=table[k])
        del rows
        tokens = table, None
    pooled, enc_cache = bidirectional_encode(group.layer, embedded, mask, tokens)
    dropped = pooled * m_pool
    scores = [activate(member.name, matmul(dropped[k], member.head_W.T) + member.head_b)
              for k, member in enumerate(group.branches)]
    cache = None if enc_cache is None else {
        "m_embed": m_embed,
        "m_pool": m_pool,
        "enc": enc_cache,
        "dropped": dropped,
        "scores": scores,
    }
    return (scores if group is branch else scores[0]), cache


def _embedded_grads(mask, m_embed, dx_rows):
    """Each branch's dense (L, batch, embed) gradient w.r.t. the shared
    embedded input, made when it is asked for: its input-gradient rows
    through its embedding dropout mask, at the unmasked positions."""
    for k, rows in enumerate(dx_rows):
        d_embedded = np.zeros((*mask.shape, rows.shape[1]))
        d_embedded[mask] = rows if m_embed is None else rows * m_embed[k]
        yield d_embedded


def branch_backward(branch, cache, d_scores, out=None):
    """Reverse the branch pipeline; returns (param grads, d_embedded).

    The parameter gradients land in `out`, a BranchGroup of the group's
    shapes (a gradient arena's `groups`, say) whose encoder stacks the BPTT
    adds into and whose heads it overwrites; by default new zeroed arrays.
    The grads are `dict(blocks())` of `out`'s branches: views keyed by
    block name, in `blocks()` order. For a BranchGroup,
    `d_scores` is a list in branch order, the grads are one dict per branch,
    and d_embedded is an iterator that makes each branch's dense gradient
    when it is asked for, so only one is held at a time. The BPTT of all of
    the group's branches runs in this call.
    """
    group = branch if isinstance(branch, BranchGroup) else BranchGroup.of(branch)
    if group is not branch:
        d_scores = [d_scores]
    out = group.zeros_like() if out is None else out
    dropped = cache["dropped"]
    d_pooled = np.empty_like(dropped)
    for k, (member, grad) in enumerate(zip(group.branches, out.branches)):
        d_logits = activate_grad(member.name, cache["scores"][k], d_scores[k])
        grad.head_W[...] = matmul(d_logits.T, dropped[k])
        grad.head_b[...] = d_logits.sum(axis=0)
        d_pooled[k] = matmul(d_logits, member.head_W) * cache["m_pool"][k]
    dx_rows = bptt(cache["enc"], d_pooled, out.layer)
    grads = [dict(grad.blocks()) for grad in out.branches]
    d_embedded = _embedded_grads(cache["enc"]["mask"], cache["m_embed"], dx_rows)
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
    every unmasked position's input is its token's embedding row, so one
    token table -- the distinct unmasked ids' rows -- serves all four
    branches, and each directional pass projects each distinct id once per
    branch; given that table's index, the passes keep no BPTT step records.
    Neither mode builds the (L, batch, embed) array: the passes and the
    dropout draws read only its shape, from a zero-memory stand-in. Every
    id, padded or not, must be in range in both modes.
    """
    mask_tm = np.atleast_2d(np.asarray(mask, dtype=bool)).T  # (L, batch)
    used_ids = _checked_ids(model, ids).T[mask_tm]
    tokens = None  # in training, each group gathers its own, freed once dropout is applied
    if rngs is None:
        uniq, inverse = np.unique(used_ids, return_inverse=True)
        index = np.zeros(mask_tm.shape, dtype=np.intp)
        index[mask_tm] = inverse
        tokens = model.embedding[uniq], index
    embedded = np.broadcast_to(0.0, (*mask_tm.shape, model.embed_dim))
    scores, caches = {}, []
    for group in model.groups(mask_tm.shape[1]):
        group_rngs = None if rngs is None else [rngs[b.name] for b in group.branches]
        group_scores, cache = branch_forward(group, embedded, mask_tm, group_rngs,
                                             tokens or (model.embedding[used_ids], None))
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
    for name in BRANCH_NAMES:
        branch = model.branches[name]
        n_layer = sum(a.size for k, a in branch.blocks() if ".head_" not in k)
        n_head = branch.head_W.size + branch.head_b.size
        lines.append(f"{f'branch {name}: bidirectional lstm':<34}"
                     f"{f'(2x4x{branch.hidden})':<16}{n_layer:>8}")
        lines.append(f"{f'branch {name}: dense head':<34}"
                     f"{str(branch.head_W.shape):<16}{n_head:>8}")
    lines.append("-" * width)
    lines.append(f"{'total parameters':<50}{model.param_count():>8}")
    lines.append("=" * width)
    return "\n".join(lines) + "\n"
