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
index, the pass projects each row the unmasked positions use once. A
per-position table may also be a function that makes a range of its rows
when asked for (training's dropped-out inputs), so it need not be held.
Either way a direction asks the pass's row source for _TILE_ROWS rows at
a time and projects each tile into one projection array, so no pass makes
or holds its whole table of inputs to project it: a tile's product is
bitwise that of the same rows in one product over the table.
A per-position pass keeps the state and gates BPTT reads of every step's
unpadded rows, none for padded rows, in one array per kind (RECORDS) in
table order: step t's records sit at its table rows, and a list of the
steps that ran, each with its slice of table rows, gives the run order.
The gates array is the projection itself: each projected row is read once,
by the step that writes that row's gates over it, from the same operands
in the same order. A pass given an index is forward-only and keeps none.
The two directions share nothing until their final states are pooled, and
in BPTT nothing until their input-gradient rows are added, so each
direction projects, then steps, as one unit of work, and its BPTT is
another.

BPTT likewise takes the input-side products out of the recurrence: it
writes every step's gate gradients over that step's gate records, so they
end up in table order, and makes dx from views of them, one branch at a
time, in one product per gate after the time loop. Its parameter gradients
are the arrays of a zeroed layer it adds into, and each branch's `blocks()`
names them.

Each pass runs its backward direction through an executor that
`worker.worker_for` picks by the size of the pass's input projection: the
direction worker, a forked process, for a large pass inside a
`worker.scope()`, or this process. Either way it runs the same three
requests: `_pass_in_worker` projects and steps the direction while this
process runs the forward one, and for a per-position pass keeps its step
records on the executor, under the pass's key; `_bptt_in_worker` runs that
direction's BPTT and `_input_grad_in_worker` makes its input-gradient rows,
so those records never come back. Each direction runs the same numpy
operations in the same order wherever it runs, so every byte is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import worker
from .tensor import (_TILE_ROWS, RngStream, ShapeError, activate, activate_grad, matmul,
                     matmul_stacked)

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
    the gates and tanh(c) are written there; the gates may be the step's
    projected rows themselves, as an elementwise add reads each element
    before it writes it. Returns (gates (branches, rows, 4, hidden) in
    GATES order, tanh(c), c, h)."""
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


# a per-position pass's step records, each (branches, n, ...) in table order
RECORDS = ("h_prev", "c_prev", "gates", "tanh_c")


def _steps(params: LSTMCellParams, order, mask, proj, starts, index):
    """One direction's recurrence over the steps of `order`, from zero
    state, reading step t's projected input rows from proj: rows
    starts[t]:starts[t+1] of a per-position table (index None), or rows
    index[starts[t]:starts[t+1]], index listing each unmasked position's
    table row, t-major. Returns (final state, records, or None given an
    index): a per-position pass writes each step's records at its table
    rows of one (branches, n, ...) array per kind in RECORDS, its gates
    over its own rows of proj, which "gates" views, and lists the (t, rows,
    table rows slice) of the steps that ran, in run order, as "steps"."""
    G, batch, hidden = len(params.W), mask.shape[1], params.hidden
    # U.T as a view of a (hidden, branches, 4*hidden) array, the layout
    # matmul_stacked reads without a copy
    UT = np.ascontiguousarray(params.U.transpose(2, 0, 1)).transpose(1, 0, 2)
    h, c = np.zeros((G, batch, hidden)), np.zeros((G, batch, hidden))  # updated in place
    records = None
    if index is None:  # each projected row is read once, by the step that writes its gates
        n = starts[-1]
        records = {"steps": [], "gates": proj.reshape(G, n, 4, hidden),
                   **{kind: np.empty((G, n, hidden)) for kind in ("h_prev", "c_prev", "tanh_c")}}
    for t in order:
        rows = np.flatnonzero(mask[t])
        if not len(rows):
            continue
        at = x_rows = slice(starts[t], starts[t + 1])
        if records is None:
            x_rows, h_prev, c_prev, out = index[at], h[:, rows], c[:, rows], None
        else:
            records["steps"].append((t, rows, at))
            h_prev, c_prev, *out = (records[kind][:, at] for kind in RECORDS)
            np.take(h, rows, axis=1, out=h_prev)
            np.take(c, rows, axis=1, out=c_prev)
        _, _, c[:, rows], h[:, rows] = _stacked_step(
            UT, params.b, params.gate_activation, proj, x_rows, h_prev, c_prev, out)
    return LSTMState(h, c), records


class _TokenRows:
    """A pass's row source over an array token table, (n, embed) shared by
    the branches or (branches, n, embed): (lo, hi) -> the token rows lo:hi
    of every branch, (branches, hi - lo, embed), views of the table's rows
    lo:hi or, given `used`, its rows used[lo:hi], gathered when they are
    asked for. (A callable table, training's dropped-out inputs, is a row
    source already.) It pickles as the table, or as the rows it uses,
    gathered then, never as a per-branch broadcast view."""

    def __init__(self, table, branches: int, used=None):
        self.table, self.branches, self.used = table, branches, used

    def __call__(self, lo, hi):
        table, used = self.table, self.used
        picked = table[..., lo:hi, :] if used is None else np.take(table, used[lo:hi], axis=-2)
        return np.broadcast_to(picked, (self.branches, hi - lo, table.shape[-1]))  # shared: a view

    def __reduce__(self):
        table = self.table if self.used is None else np.take(self.table, self.used, axis=-2)
        return _TokenRows, (table, self.branches)


def _projection(params: LSTMCellParams, rows, n: int):
    """The input projection of the token rows 0:n, (branches, n, 4*hidden):
    one product per branch with W.T, made _TILE_ROWS rows at a time from
    the row source `rows` and written into one array, so only one tile of
    rows is made at a time. Each row's product depends on that row only, so
    the tiles give bitwise one product over the table. At most one tile of
    rows, an empty table included, is one product, whose output is the
    projection."""
    WT = params.W.transpose(0, 2, 1)
    if n <= _TILE_ROWS:
        return matmul_stacked(rows(0, n), WT)
    proj = np.empty((len(params.W), n, 4 * params.hidden))
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        matmul_stacked(rows(lo, hi), WT, out=proj[:, lo:hi])
    return proj


def _direction(params: LSTMCellParams, order, rows, n: int, mask, starts, index):
    """One direction's unit of work: its input projection of the token rows
    0:n, made tile by tile from the row source `rows` (`_projection`), then
    its steps (`_steps`). A forward-only pass drops the projection when it
    ends; a per-position one keeps it as its gate records. The source
    is dropped before the steps, so a table only it holds, such as one the
    worker received, is not held while the direction steps."""
    proj = _projection(params, rows, n)
    del rows
    return _steps(params, order, mask, proj, starts, index)


def _pass_in_worker(pending, key, params, order, box, n, mask, starts, index):
    """The executor's part of a pass: `_direction` over its backward
    direction, from the row source popped from `box`, a list of one, so
    that a forward-only pass in the worker drops the table it received once
    it has projected. A per-position pass's records, its parameters and its
    row source are kept in `pending` under key for its BPTT. Returns the
    final state."""
    if key is None:
        return _direction(params, order, box.pop(), n, mask, starts, index)[0]
    x = box.pop()
    final, records = _direction(params, order, x, n, mask, starts, index)
    pending[key] = {"params": params, "x": x, **records}
    return final


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
    is (L, batch) ints and position (t, b) reads table row index[t, b]:
    the pass lists the distinct rows the unmasked positions use, each once,
    and gathers them from the table when a direction asks for them. Each
    direction's input projection is made once, one product per branch of
    the rows with W.T, _TILE_ROWS rows at a time from the pass's row
    source (`_projection`), so no gathered table is held beside it, and
    step t reads its rows from it. Each step runs the gate maths on the
    rows its mask marks only; padded rows are left out and keep their
    state, and a step with no such rows is skipped. Each direction is one
    unit of work (`_direction`): it projects, then steps, and a
    forward-only pass's projection is dropped when it ends. This process
    runs the forward unit and the executor `worker.worker_for` picks for
    the pass's projection terms, branches x n x 4*hidden x embed, runs the
    backward one (see the module docstring). A pass given an index that
    the direction worker runs gathers its rows once, as one (n, embed)
    array, only to send them, and drops them before its own direction
    projects.
    A per-position pass returns a cache {"fwd", "bwd", "mask"}. "fwd" holds
    the forward direction's `params`, the table as `x`, a function of a
    row range, and the step records BPTT reads: "steps", the (t, rows,
    table rows) of each step that ran, in run order, the table rows a
    slice, and per kind in RECORDS one (branches, n, ...) array in table
    order, step t's records, for its rows only, at its table rows; "gates"
    is a view of the direction's projection. "bwd" is
    {"executor", "key"}: the executor keeps the backward direction's
    records, of the same form, under that key. A pass given an index is
    forward-only: it keeps no records and returns a None cache.
    """
    L, _, mask = _sequence_mask(sequence, mask)
    table, index = tokens
    fwd, bwd = layer.forward_params, layer.backward_params
    G = len(fwd.W)
    starts, used = _row_starts(mask), None
    if index is None:
        n = starts[-1]
    else:  # each unmasked position's row of the distinct rows used, t-major
        used, index = np.unique(index[mask], return_inverse=True)
        n = len(used)
    rows = table if callable(table) else _TokenRows(table, G, used)
    forward, backward = range(L), range(L - 1, -1, -1)
    executor = worker.worker_for(G * n * 4 * layer.hidden * fwd.embed)
    key = None if index is not None else next(executor.keys)
    (final_f, records_f), final_b = executor.alongside(
        [_pass_in_worker, key, bwd, backward, [rows], n, mask, starts, index],
        lambda: _direction(fwd, forward, rows, n, mask, starts, index))
    if index is not None:
        return (final_f, final_b), None
    return (final_f, final_b), {"fwd": {"params": fwd, "x": rows, **records_f},
                                "bwd": {"executor": executor, "key": key}, "mask": mask}


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
    for j, (_, rows, at) in enumerate(reversed(cache["steps"])):
        h_prev, c_prev, gates, tanh_c = (cache[kind][:, at] for kind in RECORDS)
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
        dW += matmul_stacked(dpre_t, x(at.start, at.stop))
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


def _bptt_in_worker(pending, key, upstream):
    """The executor's BPTT of pending pass key's backward direction, into a
    zeroed layer of its parameters' shapes. Returns that layer's (dW, dU,
    db); the pass keeps its parameters and its pre-activation gradients
    for `_input_grad_in_worker`."""
    records = pending[key]
    params = records["params"]
    out = LSTMCellParams(*(np.zeros_like(a) for a in (params.W, params.U, params.b)),
                         params.gate_activation)
    _directional_bptt(records, upstream, out)
    pending[key] = params, records["gates"]
    return out.W, out.U, out.b


def _input_grad_in_worker(pending, key, k: int):
    """Branch k's backward-direction input-gradient rows of pending pass
    key, after its BPTT; the pass is dropped with its last branch."""
    params, dpre = pending[key]
    if k == len(params.W) - 1:
        del pending[key]
    return _input_grad(params, dpre, k)


def bptt(cache, upstream: np.ndarray, out: BidirectionalLayer):
    """Gradients for both directions' parameters and the input vectors,
    from the cache of a per-position `directional_pass`. A cache can be
    used once: BPTT writes the gradients over its gate records.

    `upstream` (branches, batch, hidden) is the gradient w.r.t. the pooled
    representation; because pooling is an elementwise sum it feeds both
    final states directly. The parameter gradients add into `out`, a
    zeroed layer of the encoded layer's stacked shapes, as training's
    gradient arena is; its branches' `blocks()` name them. The pass's
    executor runs the backward direction's BPTT into zeroed arrays while
    this process runs the forward one's into `out`, and its sums then add
    into `out`: bitwise the sums BPTT into `out` itself would leave, since
    no sum is -0.
    Returns an iterator over the branches that makes each one's (n, embed)
    input-gradient rows, in per-position table order, when it is asked for:
    the forward direction's rows plus the backward one's, which the
    executor makes for one branch at a time while this process makes the
    forward ones.
    """
    fwd, executor, key = cache["fwd"], cache["bwd"]["executor"], cache["bwd"]["key"]
    params_f, dpre_f = fwd["params"], fwd["gates"]
    _, sums = executor.alongside([_bptt_in_worker, key, upstream],
                                 lambda: _directional_bptt(fwd, upstream, out.forward_params))
    params_b = out.backward_params
    for total, terms in zip((params_b.W, params_b.U, params_b.b), sums):
        total += terms
    del sums

    def rows(k):
        rows_f, rows_b = executor.alongside([_input_grad_in_worker, key, k],
                                            lambda: _input_grad(params_f, dpre_f, k))
        rows_f += rows_b
        return rows_f

    return (rows(k) for k in range(len(params_f.W)))
