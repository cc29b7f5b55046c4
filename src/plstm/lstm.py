"""Bidirectional LSTM layer: per-timestep cell, directional sequence passes
over packed steps, additive bidirectional pooling, and exact
backpropagation through time.

All sequence tensors are time-major: (L, batch, dim). Masks are (L, batch)
booleans. Each step, forward and backward, runs the gate maths on the rows
its mask marks and on no others: a padded row keeps its state (and its
carried gradient) as it is, gets a zero input gradient and adds nothing to
the parameter gradients. A step whose rows are all padding is skipped.
Every row's matmul output depends only on that row, so the packed rows
compute bitwise what a full-batch step would. For the same reason the
input projection x·W.T is made once per directional pass, over a token
table with one row per distinct input vector, and each step gathers its
rows from it: by default every unmasked position is its own token, and in
eval the model passes one row per distinct token id. A training forward
pass keeps one record per step that ran, holding that step's rows and the
state and gates BPTT reads for them; nothing is kept for padded rows, and
an eval pass keeps no records at all. BPTT likewise takes the input-side
products out of the recurrence: it keeps every step's gate gradients and
makes dx from them in one product per gate after the time loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import RngStream, ShapeError, activate, activate_grad, matmul

GATES = ("i", "f", "o", "n")  # input, forget, output, candidate


@dataclass
class LSTMCellParams:
    """One direction's weights with the four gates stacked: rows
    k*H:(k+1)*H of W, U and b belong to gate GATES[k] (see `gate_rows`).
    `blocks()` and the gradients of `bptt` are per-gate row views, so writes
    to them land in the stacked arrays."""

    W: np.ndarray  # (4*hidden, embed)
    U: np.ndarray  # (4*hidden, hidden)
    b: np.ndarray  # (4*hidden,)
    gate_activation: str = "sigmoid"

    @property
    def hidden(self):
        return self.U.shape[1]

    @property
    def embed(self):
        return self.W.shape[1]

    @property
    def gate_rows(self):
        """Gate name -> row slice of the stacked arrays, in GATES order."""
        h = self.hidden
        return {g: slice(k * h, (k + 1) * h) for k, g in enumerate(GATES)}

    @classmethod
    def zeros(cls, hidden: int, embed: int, gate_activation: str = "sigmoid"):
        return cls(
            W=np.zeros((4 * hidden, embed)),
            U=np.zeros((4 * hidden, hidden)),
            b=np.zeros(4 * hidden),
            gate_activation=gate_activation,
        )

    @classmethod
    def random(
        cls,
        hidden: int,
        embed: int,
        rng: RngStream,
        scale: float = 0.05,
        forget_bias: float = 1.0,
        gate_activation: str = "sigmoid",
    ):
        p = cls.zeros(hidden, embed, gate_activation)
        for rows in p.gate_rows.values():  # draw order: W then U, gate by gate
            p.W[rows] = rng.uniform(-scale, scale, (hidden, embed))
            p.U[rows] = rng.uniform(-scale, scale, (hidden, hidden))
        p.b[p.gate_rows["f"]] = forget_bias
        return p

    def blocks(self, prefix: str):
        """Per-gate views in the fixed serialization order."""
        out = []
        for g, rows in self.gate_rows.items():
            out.append((f"{prefix}.W_{g}", self.W[rows]))
            out.append((f"{prefix}.U_{g}", self.U[rows]))
            out.append((f"{prefix}.b_{g}", self.b[rows]))
        return out


@dataclass
class LSTMState:
    h: np.ndarray  # (batch, hidden)
    c: np.ndarray  # (batch, hidden)

    @classmethod
    def zero(cls, batch: int, hidden: int):
        return cls(np.zeros((batch, hidden)), np.zeros((batch, hidden)))


@dataclass
class BidirectionalLayer:
    forward_params: LSTMCellParams
    backward_params: LSTMCellParams

    @property
    def hidden(self):
        return self.forward_params.hidden


def _step(params: LSTMCellParams, xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """The gate maths of cell_step and directional_pass, given the input
    rows already projected, xw = matmul(x, params.W.T) (batch, 4*hidden).
    The pre-activation adds xw, then h_prev·U.T, then b. A softmax gate
    activation normalises within each gate. Returns (gates (batch, 4,
    hidden) in GATES order, tanh(c), c, h)."""
    pre = xw + matmul(h_prev, params.U.T) + params.b
    pre = pre.reshape(len(pre), 4, params.hidden)
    gates = np.concatenate(
        (activate(params.gate_activation, pre[:, :3]), activate("tanh", pre[:, 3:])), axis=1
    )
    i, f, o, n = gates.transpose(1, 0, 2)
    c = f * c_prev + i * n
    tanh_c = np.tanh(c)
    return gates, tanh_c, c, o * tanh_c


def cell_step(params: LSTMCellParams, x: np.ndarray, prev: LSTMState) -> LSTMState:
    """One recurrence step: gated memory update and emitted hidden signal.

    c = f * c_prev + i * candidate, h = o * tanh(c). Gate activation is
    params.gate_activation; the candidate activation is always tanh.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.embed:
        raise ShapeError(f"input width {x.shape[1]} != embed {params.embed}")
    if prev.h.shape != (x.shape[0], params.hidden):
        raise ShapeError(f"state shape {prev.h.shape} mismatches batch/hidden")
    _, _, c, h = _step(params, matmul(x, params.W.T), prev.h, prev.c)
    return LSTMState(h, c)


def directional_pass(params: LSTMCellParams, sequence: np.ndarray, mask, direction: str,
                     tokens=None, records=True):
    """Run the recurrence over a sequence in one direction from zero state.

    Returns (final_state, cache). The input projection is made once, as
    proj = matmul(table, params.W.T), and step t reads row index[t, b] of
    it for position (t, b). `tokens` is that (table (n, embed), index (L,
    batch) ints) pair; its unmasked positions must name rows equal to the
    sequence's vectors there. By default every unmasked position is its own
    row: table = sequence[mask]. Each step runs `_step` on the rows its mask
    marks only; padded rows are left out and keep their state, and a step
    with no such rows is skipped. The cache holds `params`, the input `x`
    and `steps`: one record (t, rows, h_prev, c_prev, gates, tanh_c) per
    step that ran, in run order, with the state and gates of `rows` only --
    what BPTT reads. With `records` false no record is kept and the cache
    is None; a pass given `tokens` then reads only the sequence's shape.
    """
    xs = np.asarray(sequence, dtype=np.float64)
    if xs.ndim == 2:  # (L, embed) single sequence
        xs = xs[:, None, :]
    L, batch, _ = xs.shape
    if L == 0:
        raise ShapeError("empty sequence")
    if mask is None:
        mask = np.ones((L, batch), dtype=bool)
    mask = np.asarray(mask, dtype=bool).reshape(L, batch)
    if direction not in ("forward", "backward"):
        raise ValueError(f"bad direction {direction!r}")
    order = range(L) if direction == "forward" else range(L - 1, -1, -1)
    if tokens is None:
        index = np.zeros((L, batch), dtype=np.intp)
        index[mask] = np.arange(np.count_nonzero(mask))
        tokens = xs[mask], index
    table, index = tokens
    proj = matmul(table, params.W.T)

    state = LSTMState.zero(batch, params.hidden)
    h, c = state.h, state.c  # updated in place, row by packed row
    steps = []
    for t in order:
        rows = np.flatnonzero(mask[t])
        if not len(rows):
            continue
        h_prev, c_prev = h[rows], c[rows]
        gates, tanh_c, c[rows], h[rows] = _step(params, proj[index[t, rows]], h_prev, c_prev)
        if records:
            steps.append((t, rows, h_prev, c_prev, gates, tanh_c))
    return state, ({"params": params, "x": xs, "steps": steps} if records else None)


def _directional_bptt(cache, d_final_h: np.ndarray):
    """BPTT over the step records of `directional_pass`, last step first:
    each record's rows take their gradient through the step, while a row
    it leaves out carries dh/dc through unchanged and keeps a zero dx.
    dW, dU and the recurrent dh products run per step. Each step's
    pre-activation gradient rows go into one preallocated (rows, 4*hidden)
    buffer, and dx is made after the loop from the four per-gate products
    with W over all of them, added in GATES order from zeros and scattered
    back to their (t, row) positions: bitwise the per-step dx."""
    params, xs, steps = cache["params"], cache["x"], cache["steps"]
    gate_rows = params.gate_rows
    dW = np.zeros_like(params.W)
    dU = np.zeros_like(params.U)
    db = np.zeros_like(params.b)
    dh = np.array(d_final_h, dtype=np.float64)  # a copy: rows are updated in place
    dc = np.zeros_like(dh)
    # every step's dpre rows and their (t, row) positions, in run order
    n_rows = sum(len(rec[1]) for rec in steps)
    dpre_all = np.empty((n_rows, 4 * params.hidden))
    pos_t, pos_row = np.empty(n_rows, dtype=np.intp), np.empty(n_rows, dtype=np.intp)
    end = n_rows
    for t, rows, h_prev, c_prev, gates, tanh_c in reversed(steps):
        i, f, o, n = gates.transpose(1, 0, 2)
        dh_t = dh[rows]

        do = dh_t * tanh_c
        dc_t = dc[rows] + dh_t * o * (1.0 - tanh_c ** 2)
        df = dc_t * c_prev
        di = dc_t * n
        dn = dc_t * i

        start = end - len(rows)
        dpre = dpre_all[start:end]
        pos_t[start:end], pos_row[start:end] = t, rows
        end = start
        np.concatenate((
            activate_grad(params.gate_activation, gates[:, :3], np.stack((di, df, do), axis=1)),
            activate_grad("tanh", gates[:, 3:], dn[:, None]),
        ), axis=1, out=dpre.reshape(len(rows), 4, -1))
        dW += matmul(dpre.T, xs[t, rows])
        dU += matmul(dpre.T, h_prev)
        db += dpre.sum(axis=0)
        # gate by gate in GATES order: one 4H-deep product adds the same
        # terms in another order, which changes the rounding
        dh_rec = np.zeros_like(dh_t)
        for r in gate_rows.values():
            dh_rec += matmul(dpre[:, r], params.U[r])
        dh[rows] = dh_rec
        dc[rows] = dc_t * f
    # each row of a product depends on that row only, so the per-gate dx
    # products over all steps' rows at once give every step's rows bitwise
    dx_rows = np.zeros((n_rows, xs.shape[2]))
    for r in gate_rows.values():
        dx_rows += matmul(dpre_all[:, r], params.W[r])
    dx = np.zeros_like(xs)
    dx[pos_t, pos_row] = dx_rows
    grads = {f"{k}_{g}": arr[gate_rows[g]] for k, arr in (("W", dW), ("U", dU), ("b", db))
             for g in GATES}
    return grads, dx


def bidirectional_encode(layer: BidirectionalLayer, sequence, mask=None, tokens=None,
                         records=True):
    """Pooled representation: final forward h plus final backward h.
    `tokens` and `records` go to both directional passes; the cache is None
    without records."""
    final_f, cache_f = directional_pass(layer.forward_params, sequence, mask, "forward",
                                        tokens, records)
    final_b, cache_b = directional_pass(layer.backward_params, sequence, mask, "backward",
                                        tokens, records)
    pooled = final_f.h + final_b.h
    return pooled, ({"fwd": cache_f, "bwd": cache_b} if records else None)


def bptt(layer: BidirectionalLayer, cache, upstream: np.ndarray):
    """Gradients for both directions' parameters and the input vectors.

    `upstream` is the gradient w.r.t. the pooled representation; because
    pooling is an elementwise sum it feeds both final states directly.
    Returns (grads, dx) with grads keyed "fwd.W_i", "bwd.b_o", etc.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    grads_f, dx_f = _directional_bptt(cache["fwd"], upstream)
    grads_b, dx_b = _directional_bptt(cache["bwd"], upstream)
    grads = {f"fwd.{k}": v for k, v in grads_f.items()}
    grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
    return grads, dx_f + dx_b
