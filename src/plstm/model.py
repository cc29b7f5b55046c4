"""The four-branch parallel bidirectional LSTM classifier.

One shared trainable embedding table feeds four independent branches, each
a bidirectional LSTM followed by a two-way affine head with its own output
activation (softmax, sigmoid, relu, tanh). Branches never share weights
beyond the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lstm import BidirectionalLayer, LSTMCellParams, bptt, bidirectional_encode
from .tensor import RngStream, activate, activate_grad, dropout_mask, matmul

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
class ParallelModel:
    embedding: np.ndarray  # (vocab, embed); row 0 (pad) stays zero
    branches: dict  # name -> Branch, iteration in BRANCH_NAMES order
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
        return sum(arr.size for _, arr in self.blocks())


def expected_param_count(vocab_size: int, embed_dim: int, hidden: int) -> int:
    per_direction = 4 * (hidden * embed_dim + hidden * hidden + hidden)
    per_branch = 2 * per_direction + 2 * hidden + 2
    return vocab_size * embed_dim + 4 * per_branch


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
    embedding = RngStream(seed, 0).uniform(-INIT_SCALE, INIT_SCALE, (vocab_size, embed_dim))
    embedding[0, :] = 0.0
    branches = {}
    for idx, name in enumerate(BRANCH_NAMES):
        rng = RngStream(seed, 1 + idx)
        gate_act = name if gate_mode == "literal_eq9" else "sigmoid"
        layer = BidirectionalLayer(
            LSTMCellParams.random(hidden, embed_dim, rng, INIT_SCALE, 1.0, gate_act),
            LSTMCellParams.random(hidden, embed_dim, rng, INIT_SCALE, 1.0, gate_act),
        )
        branches[name] = Branch(
            name=name,
            layer=layer,
            head_W=rng.uniform(-INIT_SCALE, INIT_SCALE, (N_CLASSES, hidden)),
            head_b=np.zeros(N_CLASSES),
            dropout_embed=dropout_embed,
            dropout_recurrent=dropout_recurrent,
        )
    return ParallelModel(embedding, branches, seq_len, aggregation)


def _checked_ids(model: ParallelModel, ids) -> np.ndarray:
    """(batch, L) token ids, every one of them, padded or not, in range."""
    ids = np.atleast_2d(np.asarray(ids))
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise ValueError(f"token id out of range [0, {model.vocab_size})")
    return ids


def embed_ids(model: ParallelModel, ids: np.ndarray) -> np.ndarray:
    """Lookup (batch, L) token ids -> time-major (L, batch, embed)."""
    return model.embedding[_checked_ids(model, ids)].transpose(1, 0, 2)


def branch_forward(branch: Branch, embedded: np.ndarray, mask, rng=None, tokens=None,
                   records=True):
    """Branch pipeline: embed dropout -> bidirectional encode -> pooled
    dropout -> affine head -> the branch's own activation.

    Training mode is exactly "an rng was given": dropout masks are drawn
    from it. Returns (scores (batch, 2), cache). The dropout masks land in
    the cache so the backward pass replays them exactly. `tokens` is the
    encoder's (table, index) token table (see `lstm.directional_pass`); it
    describes `embedded`, so it fits eval mode only, where no dropout
    changes the input. Without `records` the encoder keeps no BPTT step
    records and the returned cache is None.
    """
    embedded = np.asarray(embedded, dtype=np.float64)
    batch = embedded.shape[1]
    if rng is None:
        m_embed = m_pool = 1.0
        x = embedded  # equals embedded * 1.0 bit for bit, without the copy
    else:
        m_embed = dropout_mask(embedded.shape, branch.dropout_embed, rng)
        m_pool = dropout_mask((batch, branch.hidden), branch.dropout_recurrent, rng)
        x = embedded * m_embed
    pooled, enc_cache = bidirectional_encode(branch.layer, x, mask, tokens, records)
    dropped = pooled * m_pool
    logits = matmul(dropped, branch.head_W.T) + branch.head_b
    scores = activate(branch.name, logits)
    if not records:
        return scores, None
    cache = {
        "m_embed": m_embed,
        "m_pool": m_pool,
        "enc": enc_cache,
        "dropped": dropped,
        "scores": scores,
    }
    return scores, cache


def branch_backward(branch: Branch, cache, d_scores: np.ndarray):
    """Reverse the branch pipeline; returns (param grads, d_embedded)."""
    d_logits = activate_grad(branch.name, cache["scores"], d_scores)
    grads = {
        f"{branch.name}.head_W": matmul(d_logits.T, cache["dropped"]),
        f"{branch.name}.head_b": d_logits.sum(axis=0),
    }
    d_dropped = matmul(d_logits, branch.head_W)
    d_pooled = d_dropped * cache["m_pool"]
    enc_grads, dx = bptt(branch.layer, cache["enc"], d_pooled)
    for key, val in enc_grads.items():
        grads[f"{branch.name}.{key}"] = val
    d_embedded = dx * cache["m_embed"]
    return grads, d_embedded


def forward_batch(model: ParallelModel, ids, mask, rngs=None):
    """Shared embedding lookup, then all four branches independently: the
    one forward pass behind training, eval and the per-epoch metrics.

    mask is (batch, L) boolean. rngs maps branch name -> RngStream and
    selects training mode. Returns ({branch: scores (batch, 2)}, caches):
    caches maps branch -> backward cache when training and is None in eval.
    Training inputs differ at every position after dropout, so each pass
    projects every unmasked position of the (L, batch, embed) input. In
    eval every unmasked position's input is its token's embedding row, so
    one token table -- the distinct unmasked ids' rows -- serves all four
    branches, and each directional pass projects each distinct id once.
    Eval builds no (L, batch, embed) array: the passes read only its shape,
    from a zero-memory stand-in. It keeps no BPTT step records either. Every
    id, padded or not, must be in range in both modes.
    """
    mask_tm = np.atleast_2d(np.asarray(mask, dtype=bool)).T  # (L, batch)
    scores = {}
    if rngs is None:
        ids = _checked_ids(model, ids)
        uniq, inverse = np.unique(ids.T[mask_tm], return_inverse=True)
        index = np.zeros(mask_tm.shape, dtype=np.intp)
        index[mask_tm] = inverse
        tokens = model.embedding[uniq], index
        shape_only = np.broadcast_to(0.0, (*ids.T.shape, model.embed_dim))
        for name in BRANCH_NAMES:
            scores[name] = branch_forward(model.branches[name], shape_only, mask_tm,
                                          tokens=tokens, records=False)[0]
        return scores, None
    embedded = embed_ids(model, ids)
    caches = {}
    for name in BRANCH_NAMES:
        scores[name], caches[name] = branch_forward(model.branches[name], embedded, mask_tm,
                                                    rngs[name])
    return scores, caches


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
