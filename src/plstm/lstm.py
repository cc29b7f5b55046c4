"""Bidirectional LSTM layer: per-timestep cell, one pass that runs both
directions over packed steps, and exact backpropagation through time.

All sequence tensors are time-major: (L, batch, dim). Masks are (L, batch)
booleans. Parameters always have a leading branch axis, (branches, 4H, .),
and a single branch is a stack of one. A stack of branches that share the
input positions and the mask runs each direction together, with state
(branches, batch, hidden), one row gather and one step record per step, and
stacked products (`matmul_stacked`) that give each branch bitwise its own
products; states, step records and gradients keep the branch axis.

Each step, forward and backward, runs the gate maths on the rows its mask
marks and on no others: a padded row keeps its state (and its carried
gradient) as it is, gets a zero input gradient and adds nothing to the
parameter gradients. A step whose rows are all padding is skipped. Every
row's matmul output depends only on that row, so the packed rows compute
bitwise what a full-batch step would. For the same reason the input
projection x·W.T is made once per direction, over a token table with one
row per distinct input vector, and each step gathers its rows from it: in a
per-position table every unmasked position is its own token, listed
t-major, so a step reads one contiguous run of rows; given a table and an
index, the pass projects each row the unmasked positions use once. A
per-position pass keeps one record per step that ran, holding that step's
rows and the state and gates BPTT reads for them, none for padded rows; a
pass given an index is forward-only and keeps none. The two directions
share nothing until their final states are pooled, so each direction
projects, then steps, as one unit of work. Where a step's recurrent product
runs `matmul_stacked`'s one-term loop (numpy calls long enough to release
the GIL for most of their time) the backward direction's unit runs on a
second thread while the calling thread runs the forward one's; elsewhere
they run in turn. Each direction's arithmetic, and so every byte, is the
same either way.
BPTT likewise takes the input-side products out of the recurrence: it keeps
every step's gate gradients and makes dx from them, one branch at a time,
in one product per gate after the time loop. Its parameter gradients are
the arrays of a zeroed layer it adds into, and each branch's `blocks()`
names them.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .tensor import (RngStream, ShapeError, activate, activate_grad, matmul, matmul_stacked,
                     one_stack)

GATES = ("i", "f", "o", "n")  # input, forget, output, candidate


@dataclass
class LSTMCellParams:
    """One direction's weights of a stack of branches, with a leading
    branch axis and each branch's four gates stacked: rows k*H:(k+1)*H of a
    branch's W, U and b belong to gate GATES[k] (see `gate_rows`).
    `blocks()` names one branch's per-gate row views, so writes to them
    land in the stacked arrays; it and the model's `blocks()` are the only
    code that names a parameter block."""

    W: np.ndarray  # (branches, 4*hidden, embed)
    U: np.ndarray  # (branches, 4*hidden, hidden)
    b: np.ndarray  # (branches, 4*hidden)
    gate_activation: tuple  # one per branch

    @property
    def hidden(self):
        return self.U.shape[-1]

    @property
    def embed(self):
        return self.W.shape[-1]

    @property
    def gate_rows(self):
        """Gate name -> row slice of the stacked arrays, in GATES order."""
        h = self.hidden
        return {g: slice(k * h, (k + 1) * h) for k, g in enumerate(GATES)}

    @classmethod
    def zeros(cls, hidden: int, embed: int, gate_activation: tuple = ("sigmoid",)):
        """Zero weights of a stack of one branch per gate activation."""
        if not isinstance(gate_activation, tuple):
            raise TypeError(f"gate_activation must be a tuple, got {gate_activation!r}")
        n = len(gate_activation)
        return cls(np.zeros((n, 4 * hidden, embed)), np.zeros((n, 4 * hidden, hidden)),
                   np.zeros((n, 4 * hidden)), gate_activation)

    def branch(self, k: int):
        """Branch k of a stack, as a stack of one (views)."""
        one = slice(k, k + 1)
        return LSTMCellParams(self.W[one], self.U[one], self.b[one], self.gate_activation[one])

    def randomize(self, rng: RngStream, scale: float = 0.05, forget_bias: float = 1.0):
        """Fill a stack of one branch in place: uniform(-scale, scale)
        weights, zero biases but the forget gate's forget_bias. Returns self."""
        (W,), (U,), (b,) = self.W, self.U, self.b  # exactly one branch
        for rows in self.gate_rows.values():  # draw order: W then U, gate by gate
            W[rows] = rng.uniform(-scale, scale, (self.hidden, self.embed))
            U[rows] = rng.uniform(-scale, scale, (self.hidden, self.hidden))
        b[...] = 0.0
        b[self.gate_rows["f"]] = forget_bias
        return self

    def blocks(self, prefix: str):
        """A stack of one branch's per-gate 2-D views, in the fixed
        serialization order."""
        (W,), (U,), (b,) = self.W, self.U, self.b  # exactly one branch
        out = []
        for g, rows in self.gate_rows.items():
            out.append((f"{prefix}.W_{g}", W[rows]))
            out.append((f"{prefix}.U_{g}", U[rows]))
            out.append((f"{prefix}.b_{g}", b[rows]))
        return out


@dataclass
class LSTMState:
    h: np.ndarray  # (batch, hidden), or (branches, batch, hidden)
    c: np.ndarray  # (batch, hidden), or (branches, batch, hidden)


@dataclass
class BidirectionalLayer:
    forward_params: LSTMCellParams
    backward_params: LSTMCellParams

    @property
    def hidden(self):
        return self.forward_params.hidden

    def branch(self, k: int):
        """Branch k of a stacked layer, as a stack of one (views)."""
        return BidirectionalLayer(self.forward_params.branch(k), self.backward_params.branch(k))

    def zeros_like(self):
        """A layer of the same shapes and gate activations over new zeroed arrays."""
        return BidirectionalLayer(*(LSTMCellParams.zeros(p.hidden, p.embed, p.gate_activation)
                                    for p in (self.forward_params, self.backward_params)))


def _over_gates(fn, acts, gates, d_ifo=(), d_n=()):
    """Write fn(kind, gate values, *upstream) over the (branches, rows, 4,
    hidden) gates: over each branch's i/f/o with kind its activation, in
    one call while they all agree, and over the candidate with tanh."""
    if len(set(acts)) == 1:
        gates[:, :, :3] = fn(acts[0], gates[:, :, :3], *d_ifo)
    else:
        for k, act in enumerate(acts):
            gates[k, :, :3] = fn(act, gates[k, :, :3], *(d[k] for d in d_ifo))
    gates[:, :, 3:] = fn("tanh", gates[:, :, 3:], *d_n)
    return gates


def _stacked_step(UT, b, acts, proj, x_rows, h_prev, c_prev):
    """The gate maths of a stack of branches, given the input projection
    proj (branches, n, 4*hidden), the index or slice x_rows of the step's
    rows in it, and UT = U transposed, (branches, hidden, 4*hidden). The
    pre-activation adds h_prev·U.T and the projected rows, then b, in
    place; the rows are gathered after the product is made, so they and
    the product's working arrays are never held at once. A softmax gate
    activation normalises within each gate. Returns (gates (branches, rows,
    4, hidden) in GATES order, tanh(c), c, h)."""
    pre = matmul_stacked(h_prev, UT)
    pre += proj[:, x_rows]  # IEEE + is commutative: bitwise xw + h·U.T
    pre += b[:, None]
    gates = _over_gates(activate, acts, pre.reshape(*pre.shape[:2], 4, -1))
    i, f, o, n = np.moveaxis(gates, 2, 0)
    c = f * c_prev + i * n
    tanh_c = np.tanh(c)
    return gates, tanh_c, c, o * tanh_c


def cell_step(params: LSTMCellParams, x: np.ndarray, prev: LSTMState) -> LSTMState:
    """One recurrence step of a stack of one branch, on (batch, .) inputs
    and state: gated memory update and emitted hidden signal.

    c = f * c_prev + i * candidate, h = o * tanh(c). Gate activation is
    params.gate_activation; the candidate activation is always tanh.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.embed:
        raise ShapeError(f"input width {x.shape[1]} != embed {params.embed}")
    if prev.h.shape != (x.shape[0], params.hidden):
        raise ShapeError(f"state shape {prev.h.shape} mismatches batch/hidden")
    _, _, c, h = _stacked_step(params.U.transpose(0, 2, 1), params.b, params.gate_activation,
                               matmul_stacked(x[None], params.W.transpose(0, 2, 1)),
                               slice(None), prev.h[None], prev.c[None])
    return LSTMState(h[0], c[0])


def _sequence_mask(sequence, mask):
    """(L, batch, mask (L, batch) bool) of a (L, batch, embed) sequence."""
    L, batch = np.shape(sequence)[:2]
    if L == 0:
        raise ShapeError("empty sequence")
    return L, batch, np.asarray(mask, dtype=bool).reshape(L, batch)


def _row_starts(mask):
    """starts[t]: the first row of step t in a per-position table, which
    lists the unmasked positions t-major; step t's rows end at starts[t+1]."""
    return np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1))))


def _in_parallel(first, second):
    """(first(), second()), second run on a new thread while first runs on
    this one. The thread runs in a copy of this thread's context, so it
    keeps numpy's context-local `errstate`. An exception of second's is
    raised here, and the thread has ended when this returns."""
    outcome = {}

    def work():
        try:
            outcome["result"] = second()
        except BaseException as exc:  # raised in the caller
            outcome["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return result, outcome["result"]


def _steps(params: LSTMCellParams, order, mask, proj, starts, index):
    """One direction's recurrence over the steps of `order`, from zero
    state, reading step t's projected input rows from proj: rows
    starts[t]:starts[t+1] of a per-position table (index None), or rows
    index[t, rows]. Returns (final state, step records, or None given an
    index)."""
    G, batch, hidden = len(params.W), mask.shape[1], params.hidden
    # U.T as a view of a (hidden, branches, 4*hidden) array, the layout
    # matmul_stacked reads without a copy
    UT = np.ascontiguousarray(params.U.transpose(2, 0, 1)).transpose(1, 0, 2)
    h, c = np.zeros((G, batch, hidden)), np.zeros((G, batch, hidden))  # updated in place
    steps = [] if index is None else None
    for t in order:
        rows = np.flatnonzero(mask[t])
        if not len(rows):
            continue
        x_rows = slice(starts[t], starts[t + 1]) if index is None else index[t, rows]
        h_prev, c_prev = h[:, rows], c[:, rows]
        gates, tanh_c, c[:, rows], h[:, rows] = _stacked_step(
            UT, params.b, params.gate_activation, proj, x_rows, h_prev, c_prev)
        if steps is not None:
            steps.append((t, rows, h_prev, c_prev, gates, tanh_c))
    return LSTMState(h, c), steps


def directional_pass(layer: BidirectionalLayer, sequence: np.ndarray, mask, tokens):
    """Run both directions of a stack of branches over a sequence, each
    from zero state: the forward recurrence over t = 0..L-1 and the
    backward one over L-1..0.

    Returns ((forward final state, backward final state), cache), each
    state (branches, batch, hidden). `sequence` is read for its (L, batch)
    shape only, so it may be a stand-in that holds no inputs; `mask` is (L,
    batch). `tokens` is the (table, index) pair, read by both directions:
    table is (n, embed), shared by the branches, or (branches, n, embed).
    With index None the table is per-position: it lists the unmasked
    positions t-major. Otherwise index is (L, batch) ints and position
    (t, b) reads table row index[t, b]; the pass gathers the rows the
    unmasked positions use, each once. Each direction's input projection
    is made once, as proj = matmul_stacked(table, W.T), one product per
    branch, and step t reads its rows from it. Each step runs the gate
    maths on the rows its mask marks only; padded rows are left out and
    keep their state, and a step with no such rows is skipped. Each
    direction is one unit of work: it projects, then steps, and its
    projection is dropped when it ends. While a step's recurrent product,
    branches x batch x 4*hidden, is `one_stack`, the two units run in
    turn; otherwise the backward one runs on a second thread while this
    one runs the forward one (see the module docstring).
    A per-position pass returns a cache {"fwd", "bwd", "mask"}: per
    direction, `params`, the table as `x`, (branches, n, embed), and
    `steps`: one record (t, rows, h_prev, c_prev, gates, tanh_c) per step
    that ran, in run order, with the branch axis and the state and gates of
    `rows` only -- what BPTT reads. A pass given an index is forward-only:
    it keeps no records and returns a None cache.
    """
    L, batch, mask = _sequence_mask(sequence, mask)
    table, index = tokens
    G = len(layer.forward_params.W)
    if index is None:
        starts = _row_starts(mask)
    else:
        used, inverse = np.unique(index[mask], return_inverse=True)
        table, starts = np.take(table, used, axis=-2), None
        index = np.zeros(mask.shape, dtype=np.intp)
        index[mask] = inverse
    table = np.broadcast_to(table, (G, *table.shape[-2:]))  # a shared table: a view per branch

    def run(params, order):  # one direction: project, then step; its projection dies with it
        proj = matmul_stacked(table, params.W.transpose(0, 2, 1))
        return _steps(params, order, mask, proj, starts, index)

    runs = (functools.partial(run, layer.forward_params, range(L)),
            functools.partial(run, layer.backward_params, range(L - 1, -1, -1)))
    if one_stack(G, batch, 4 * layer.hidden):  # in turn
        (final_f, steps_f), (final_b, steps_b) = (unit() for unit in runs)
    else:
        (final_f, steps_f), (final_b, steps_b) = _in_parallel(*runs)
    if index is not None:
        return (final_f, final_b), None
    return (final_f, final_b), {
        "fwd": {"params": layer.forward_params, "x": table, "steps": steps_f},
        "bwd": {"params": layer.backward_params, "x": table, "steps": steps_b},
        "mask": mask}


def _directional_bptt(cache, d_final_h: np.ndarray, starts, out: LSTMCellParams):
    """BPTT over the step records of a per-position `directional_pass`,
    last step first, popping each record as it is used: each record's rows
    take their gradient through the step, while a row it leaves out carries
    dh/dc through unchanged. dW, dU and the recurrent dh products run per
    step, stacked over the branches, and dW, dU and db add into `out`'s
    arrays, of the cache's parameter shapes. Each step's pre-activation
    gradients (branches, rows, 4*hidden) are written over that step's gates,
    which nothing reads after. Returns (first table row starts[t],
    pre-activation gradients) per step, from which `_input_grad` makes dx."""
    params, table, steps = cache["params"], cache["x"], cache["steps"]
    G, hidden = len(params.W), params.hidden
    gate_rows = params.gate_rows
    dW, dU, db = out.W, out.U, out.b
    dh = np.array(d_final_h, dtype=np.float64)  # a copy: rows are updated in place
    dc = np.zeros_like(dh)
    # each gate's rows of U in the layout matmul_stacked reads without a copy
    U_gates = [np.ascontiguousarray(params.U[:, r].transpose(1, 0, 2)).transpose(1, 0, 2)
               for r in gate_rows.values()]
    dpre_steps = []
    while steps:
        t, rows, h_prev, c_prev, gates, tanh_c = steps.pop()
        i, f, o, n = np.moveaxis(gates, 2, 0)
        dh_t = dh[:, rows]

        do = dh_t * tanh_c
        dc_t = dc[:, rows] + dh_t * o * (1.0 - tanh_c ** 2)
        df = dc_t * c_prev
        di = dc_t * n
        dn = dc_t * i
        dc[:, rows] = dc_t * f

        # the pre-activation gradients, written over the gates
        dpre = _over_gates(activate_grad, params.gate_activation, gates,
                           (np.stack((di, df, do), axis=2),), (dn[:, :, None],))
        dpre = dpre.reshape(G, len(rows), 4 * hidden)
        dpre_steps.append((starts[t], dpre))
        dpre_t = dpre.transpose(0, 2, 1)
        dW += matmul_stacked(dpre_t, table[:, starts[t] : starts[t + 1]])
        dU += matmul_stacked(dpre_t, h_prev)
        db += dpre.sum(axis=1)
        # gate by gate in GATES order: one 4H-deep product adds the same
        # terms in another order, which changes the rounding
        dh_rec = np.zeros_like(dh_t)
        for r, U_gate in zip(gate_rows.values(), U_gates):
            dh_rec += matmul_stacked(dpre[:, :, r], U_gate)
        dh[:, rows] = dh_rec
    return dpre_steps


def _input_grad(params: LSTMCellParams, dpre_steps, n: int, k: int):
    """Branch k's input-gradient rows (n, embed), in table order: its
    pre-activation gradient rows of every step, gathered into table order,
    then the four per-gate products of them with W, added in GATES order
    from zeros. Each row of a product depends on that row only, so this
    gives every step's rows bitwise what a per-step product would."""
    W = params.W[k]
    dpre = np.empty((n, 4 * params.hidden))
    for start, step_dpre in dpre_steps:
        dpre[start : start + step_dpre.shape[1]] = step_dpre[k]
    dx = np.zeros((n, W.shape[1]))
    for r in params.gate_rows.values():
        dx += matmul(dpre[:, r], W[r])
    return dx


def bptt(cache, upstream: np.ndarray, out: BidirectionalLayer):
    """Gradients for both directions' parameters and the input vectors,
    from the cache of a per-position `directional_pass`. A cache can be
    used once: BPTT pops its step records.

    `upstream` (branches, batch, hidden) is the gradient w.r.t. the pooled
    representation; because pooling is an elementwise sum it feeds both
    final states directly. The parameter gradients add into `out`, a layer
    of the encoded layer's stacked shapes; its branches' `blocks()` name
    them.
    Returns an iterator over the branches that makes each one's (n, embed)
    input-gradient rows, in per-position table order, when it is asked for.
    """
    starts = _row_starts(cache["mask"])
    dpre_f = _directional_bptt(cache["fwd"], upstream, starts, out.forward_params)
    dpre_b = _directional_bptt(cache["bwd"], upstream, starts, out.backward_params)
    params_f, params_b, n = cache["fwd"]["params"], cache["bwd"]["params"], starts[-1]
    return (_input_grad(params_f, dpre_f, n, k) + _input_grad(params_b, dpre_b, n, k)
            for k in range(len(params_f.W)))
