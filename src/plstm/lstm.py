"""Bidirectional LSTM layer: per-timestep cell, one pass that runs both
directions over packed steps, and exact backpropagation through time.

All sequence tensors are time-major: (L, batch, dim). Masks are (L, batch)
booleans. Parameters always have a leading branch axis, (branches, 4H, .),
and a single branch is a stack of one. A stack of branches that share the
input positions and the mask runs each direction together, with state
(branches, batch, hidden), one row gather per step, and stacked products
(`matmul_stacked`) that give each branch bitwise its own products; states,
step records and gradients keep the branch axis.

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
index, the pass projects each row the unmasked positions use once, and
drops the gathered rows once both directions have projected. A
per-position table may also be a function that makes a range of its rows
when asked for (training's dropped-out inputs), so it need not be held.
A per-position pass keeps the state and gates BPTT reads of every step's
unpadded rows, none for padded rows, in one array per kind (RECORDS) in
table order: step t's records sit at its table rows, and a list of the
steps that ran gives the run order. A pass given an index is forward-only
and keeps none. The two directions share nothing until their final states
are pooled, so each direction projects, then steps, as one unit of work.
Where a step's recurrent product runs `matmul_stacked`'s one-term loop
(numpy calls long enough to release the GIL for most of their time) the
backward direction's unit runs on a second thread while the calling thread
runs the forward one's; elsewhere they run in turn. Each direction's
arithmetic, and so every byte, is the same either way.
BPTT likewise takes the input-side products out of the recurrence: it
writes every step's gate gradients over that step's gate records, so they
end up in table order, and makes dx from views of them, one branch at a
time, in one product per gate after the time loop. Its parameter gradients
are the arrays of a zeroed layer it adds into, and each branch's `blocks()`
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


def _stacked_step(UT, b, acts, proj, x_rows, h_prev, c_prev, records=None):
    """The gate maths of a stack of branches, given the input projection
    proj (branches, n, 4*hidden), the index or slice x_rows of the step's
    rows in it, and UT = U transposed, (branches, hidden, 4*hidden). The
    pre-activation adds h_prev·U.T and the projected rows, then b, in
    place; the rows are gathered after the product is made, so they and
    the product's working arrays are never held at once. A softmax gate
    activation normalises within each gate. Given `records`, a (branches,
    rows, 4, hidden) gates and a (branches, rows, hidden) tanh(c) array,
    the gates and tanh(c) are written there. Returns (gates (branches,
    rows, 4, hidden) in GATES order, tanh(c), c, h)."""
    gates_out, tanh_out = records or (None, None)
    pre = matmul_stacked(h_prev, UT)
    out = pre if gates_out is None else gates_out.reshape(pre.shape)  # a view: last axes merge
    pre = np.add(pre, proj[:, x_rows], out=out)  # IEEE + is commutative: bitwise xw + h·U.T
    pre += b[:, None]
    gates = _over_gates(activate, acts, pre.reshape(*pre.shape[:2], 4, -1))
    i, f, o, n = np.moveaxis(gates, 2, 0)
    c = f * c_prev + i * n
    tanh_c = np.tanh(c, out=tanh_out)
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


# a per-position pass's step records, each (branches, n, ...) in table order
RECORDS = ("h_prev", "c_prev", "gates", "tanh_c")


def _record_views(records, t):
    """The record arrays' views at step t's table rows, starts[t]:starts[t+1],
    in RECORDS order."""
    at = slice(records["starts"][t], records["starts"][t + 1])
    return tuple(records[kind][:, at] for kind in RECORDS)


def _step_records(records, last_first=False):
    """A per-position pass's step records, one per step that ran, in run
    order, or last step first: (t, rows, h_prev, c_prev, gates, tanh_c),
    the arrays views of the direction's record arrays."""
    steps = records["steps"]
    for t, rows in reversed(steps) if last_first else steps:
        yield (t, rows, *_record_views(records, t))


def _steps(params: LSTMCellParams, order, mask, proj, starts, index):
    """One direction's recurrence over the steps of `order`, from zero
    state, reading step t's projected input rows from proj: rows
    starts[t]:starts[t+1] of a per-position table (index None), or rows
    index[t, rows]. Returns (final state, records, or None given an
    index): a per-position pass writes each step's records at its table
    rows of one (branches, n, ...) array per kind in RECORDS, and lists
    the (t, rows) of the steps that ran, in run order, as "steps"."""
    G, batch, hidden = len(params.W), mask.shape[1], params.hidden
    # U.T as a view of a (hidden, branches, 4*hidden) array, the layout
    # matmul_stacked reads without a copy
    UT = np.ascontiguousarray(params.U.transpose(2, 0, 1)).transpose(1, 0, 2)
    h, c = np.zeros((G, batch, hidden)), np.zeros((G, batch, hidden))  # updated in place
    records = None
    if index is None:
        n = starts[-1]
        records = {"steps": [], "starts": starts, "gates": np.empty((G, n, 4, hidden)),
                   **{kind: np.empty((G, n, hidden)) for kind in ("h_prev", "c_prev", "tanh_c")}}
    for t in order:
        rows = np.flatnonzero(mask[t])
        if not len(rows):
            continue
        if records is None:
            x_rows, h_prev, c_prev, out = index[t, rows], h[:, rows], c[:, rows], None
        else:
            records["steps"].append((t, rows))
            x_rows = slice(starts[t], starts[t + 1])
            h_prev, c_prev, *out = _record_views(records, t)
            np.take(h, rows, axis=1, out=h_prev)
            np.take(c, rows, axis=1, out=c_prev)
        _, _, c[:, rows], h[:, rows] = _stacked_step(
            UT, params.b, params.gate_activation, proj, x_rows, h_prev, c_prev, out)
    return LSTMState(h, c), records


def _token_rows(table, branches: int):
    """A token table as a function of a row range: (lo, hi) -> the rows
    lo:hi of every branch, (branches, hi - lo, embed). An array table,
    (n, embed) shared by the branches or (branches, n, embed), gives views
    of its rows; a callable table is that function already."""
    if callable(table):
        return table
    table = np.broadcast_to(table, (branches, *table.shape[-2:]))  # shared: a view per branch
    return lambda lo, hi: table[:, lo:hi]


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
    positions t-major, and may also be a function (lo, hi) -> (branches,
    hi - lo, embed) that makes rows lo:hi when asked for. Otherwise index
    is (L, batch) ints and position (t, b) reads table row index[t, b];
    the pass gathers the rows the unmasked positions use, each once, and
    drops them once both directions have projected. Each direction's
    input projection is made once, as proj = matmul_stacked(table, W.T),
    one product per branch, and step t reads its rows from it. Each step
    runs the gate maths on the rows its mask marks only; padded rows are
    left out and keep their state, and a step with no such rows is
    skipped. Each direction is one unit of work: it projects, then steps,
    and its projection is dropped when it ends. While a step's recurrent
    product, branches x batch x 4*hidden, is `one_stack`, the two units run
    in turn; otherwise the backward one runs on a second thread while this
    one runs the forward one (see the module docstring).
    A per-position pass returns a cache {"fwd", "bwd", "mask"}: per
    direction, `params`, the table as `x`, a function of a row range, and
    the step records BPTT reads: "steps", the (t, rows) of each step that
    ran, in run order, and per kind in RECORDS one (branches, n, ...)
    array in table order, step t's records, for its rows only, at table
    rows starts[t]:starts[t+1] ("starts"). A pass given an index is
    forward-only: it keeps no records and returns a None cache.
    """
    L, batch, mask = _sequence_mask(sequence, mask)
    table, index = tokens
    G = len(layer.forward_params.W)
    if index is None:
        starts = _row_starts(mask)
        n = starts[-1]
    else:
        used, inverse = np.unique(index[mask], return_inverse=True)
        table, starts, n = np.take(table, used, axis=-2), None, len(used)
        index = np.zeros(mask.shape, dtype=np.intp)
        index[mask] = inverse
    held = [_token_rows(table, G)]  # emptied once both directions have projected
    x = held[0] if index is None else None  # BPTT reads a per-position pass's rows
    del table
    # list.append and len are atomic under the GIL. Whichever unit counts
    # two has seen both projections made; if both do, the second clear is
    # a no-op.
    projected = []

    def run(params, order):  # one direction: project, then step; its projection dies with it
        proj = matmul_stacked(held[0](0, n), params.W.transpose(0, 2, 1))
        projected.append(order)
        if len(projected) == 2:
            held.clear()
        return _steps(params, order, mask, proj, starts, index)

    runs = (functools.partial(run, layer.forward_params, range(L)),
            functools.partial(run, layer.backward_params, range(L - 1, -1, -1)))
    if one_stack(G, batch, 4 * layer.hidden):  # in turn
        (final_f, records_f), (final_b, records_b) = (unit() for unit in runs)
    else:
        (final_f, records_f), (final_b, records_b) = _in_parallel(*runs)
    if index is not None:
        return (final_f, final_b), None
    return (final_f, final_b), {
        "fwd": {"params": layer.forward_params, "x": x, **records_f},
        "bwd": {"params": layer.backward_params, "x": x, **records_b},
        "mask": mask}


def _directional_bptt(cache, d_final_h: np.ndarray, out: LSTMCellParams):
    """BPTT over the step records of a per-position `directional_pass`,
    last step first: each record's rows take their gradient through the
    step, while a row it leaves out carries dh/dc through unchanged. dW,
    dU and the recurrent dh products run per step, stacked over the
    branches, and dW, dU and db add into `out`'s arrays, of the cache's
    parameter shapes; dW reads the step's rows of the token table, made
    when asked for. Each step's pre-activation gradients are written over
    its gates, so the cache's "gates" array ends up holding every row's,
    in table order, from which `_input_grad` makes dx."""
    params, x = cache["params"], cache["x"]
    G, hidden = len(params.W), params.hidden
    dW, dU, db = out.W, out.U, out.b
    dh = np.array(d_final_h, dtype=np.float64)  # a copy: rows are updated in place
    dc = np.zeros_like(dh)
    # U's gate rows as one gate-major (4 * branches, hidden, hidden) stack,
    # gate GATES[j] of branch k at j * branches + k, in the layout
    # matmul_stacked reads without a copy
    U_gates = np.ascontiguousarray(params.U.reshape(G, 4, hidden, hidden).transpose(2, 1, 0, 3))
    U_gates = U_gates.reshape(hidden, 4 * G, hidden).transpose(1, 0, 2)
    last = len(cache["steps"]) - 1
    for j, (t, rows, h_prev, c_prev, gates, tanh_c) in enumerate(_step_records(cache, True)):
        i, f, o, n = np.moveaxis(gates, 2, 0)
        dh_t = dh[:, rows]

        do = dh_t * tanh_c
        dc_t = dc[:, rows] + dh_t * o * (1.0 - tanh_c ** 2)
        df = dc_t * c_prev
        di = dc_t * n
        dn = dc_t * i
        dc[:, rows] = dc_t * f

        # the pre-activation gradients, written over the gates
        _over_gates(activate_grad, params.gate_activation, gates,
                    (np.stack((di, df, do), axis=2),), (dn[:, :, None],))
        dpre = gates.reshape(G, len(rows), 4 * hidden)  # a view: last axes merge
        dpre_t = dpre.transpose(0, 2, 1)
        dW += matmul_stacked(dpre_t, x(cache["starts"][t], cache["starts"][t + 1]))
        dU += matmul_stacked(dpre_t, h_prev)
        db += dpre.sum(axis=1)
        if j == last:  # the first step run: nothing reads the dh it would make
            break
        # one product per gate and branch, in one stack, added gate by gate
        # in GATES order: one 4H-deep product adds the same terms in another
        # order, which changes the rounding. No product sums to -0 (each
        # starts at +0), so P[0] + P[1] is bitwise 0 + P[0] + P[1].
        per_gate = matmul_stacked(gates.transpose(2, 0, 1, 3).reshape(4 * G, len(rows), hidden),
                                  U_gates).reshape(4, G, len(rows), hidden)
        dh[:, rows] = per_gate[0] + per_gate[1] + per_gate[2] + per_gate[3]


def _input_grad(params: LSTMCellParams, dpre, k: int):
    """Branch k's input-gradient rows (n, embed), in table order, from the
    (branches, n, 4, hidden) pre-activation gradients BPTT left in a
    direction's gates: the four per-gate products of branch k's rows with
    W, added in GATES order from zeros. Each row of a product depends on
    that row only, so this gives every step's rows bitwise what a per-step
    product would."""
    W, dpre = params.W[k], dpre[k].reshape(dpre.shape[1], 4 * params.hidden)  # a view
    dx = np.zeros((len(dpre), W.shape[1]))
    for r in params.gate_rows.values():
        dx += matmul(dpre[:, r], W[r])
    return dx


def bptt(cache, upstream: np.ndarray, out: BidirectionalLayer):
    """Gradients for both directions' parameters and the input vectors,
    from the cache of a per-position `directional_pass`. A cache can be
    used once: BPTT writes the gradients over its gate records.

    `upstream` (branches, batch, hidden) is the gradient w.r.t. the pooled
    representation; because pooling is an elementwise sum it feeds both
    final states directly. The parameter gradients add into `out`, a layer
    of the encoded layer's stacked shapes; its branches' `blocks()` name
    them.
    Returns an iterator over the branches that makes each one's (n, embed)
    input-gradient rows, in per-position table order, when it is asked for.
    """
    fwd, bwd = cache["fwd"], cache["bwd"]
    _directional_bptt(fwd, upstream, out.forward_params)
    _directional_bptt(bwd, upstream, out.backward_params)
    (params_f, dpre_f), (params_b, dpre_b) = ((d["params"], d["gates"]) for d in (fwd, bwd))
    return (_input_grad(params_f, dpre_f, k) + _input_grad(params_b, dpre_b, k)
            for k in range(len(params_f.W)))
