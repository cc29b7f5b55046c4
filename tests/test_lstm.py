import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plstm import lstm
from plstm.lstm import (
    GATES,
    BidirectionalLayer,
    LSTMCellParams,
    LSTMState,
    _stacked_step,
    bptt,
    cell_step,
    directional_pass,
)
from plstm.tensor import STACKED_ELEMS, RngStream, activate_grad, matmul, matmul_stacked


def zero_params(hidden, embed, gate_activation=("sigmoid",)):
    """Zero weights of a stack of one branch per gate activation."""
    n = len(gate_activation)
    return LSTMCellParams(np.zeros((n, 4 * hidden, embed)), np.zeros((n, 4 * hidden, hidden)),
                          np.zeros((n, 4 * hidden)), gate_activation)


def zero_layer(forward_params, backward_params):
    """A layer of the given directions' shapes and gate activations over
    zeroed arrays: the gradient layer BPTT adds into."""
    return BidirectionalLayer(*(zero_params(p.hidden, p.embed, p.gate_activation)
                                for p in (forward_params, backward_params)))


def random_params(hidden, embed, seed, scale=0.5, gate_activation="sigmoid"):
    """A stack of one branch with uniform(-scale, scale) weights and biases."""
    rng = RngStream(seed)
    p = zero_params(hidden, embed, (gate_activation,))
    (W,), (U,), (b,) = p.W, p.U, p.b
    for rows in p.gate_rows.values():
        W[rows] = rng.uniform(-scale, scale, (hidden, embed))
        U[rows] = rng.uniform(-scale, scale, (hidden, hidden))
        b[rows] = rng.uniform(-scale, scale, hidden)
    return p


def zero_state(batch, hidden):
    return LSTMState(np.zeros((batch, hidden)), np.zeros((batch, hidden)))


def layer_grads(layer):
    """A layer's gradient arrays by block name: "fwd.W_i", "bwd.b_o", etc."""
    return dict(layer.forward_params.blocks("fwd") + layer.backward_params.blocks("bwd"))


# One branch's parameters, a stack of one, through the stacked calls: the
# mask every position by default, the per-position token table of a dense
# (L, batch, embed) sequence, a zeroed gradient layer, and the branch axis
# stripped from what comes back.

def _full(xs, mask):
    return np.ones(np.shape(xs)[:2], dtype=bool) if mask is None else mask


def direction_cache(cache, direction):
    """A per-position pass's part of one direction, "fwd" or "bwd": its
    params, row source and step records. The forward one is in the cache;
    the backward one is pending on the pass's executor, an `InProcess` here,
    under the cache's key until its BPTT."""
    if direction == "fwd":
        return cache["fwd"]
    return cache["bwd"]["executor"].pending[cache["bwd"]["key"]]


def one_direction(params, xs, mask, direction, tokens):
    """One direction's (final state, cache part) of `directional_pass` over
    a layer with `params` in both directions."""
    k = ("forward", "backward").index(direction)
    finals, cache = directional_pass(BidirectionalLayer(params, params), xs, mask, tokens)
    return finals[k], None if cache is None else direction_cache(cache, ("fwd", "bwd")[k])


def pass_one(params, xs, mask, direction, tokens=None):
    """One direction of `directional_pass` of a stack of one: (final state
    with 2-D states, cache), or a None cache when `tokens` has an index."""
    mask = _full(xs, mask)
    final, cache = one_direction(params, xs, mask, direction,
                                 (xs[mask], None) if tokens is None else tokens)
    return LSTMState(final.h[0], final.c[0]), cache


def records_one(cache):
    """A stack of one's step records in run order, with 2-D arrays: (t,
    rows, h_prev, c_prev, gates, tanh_c), each array its record array's
    view at the step's table rows."""
    return [(t, rows, *(cache[kind][0, at] for kind in lstm.RECORDS))
            for t, rows, at in cache["steps"]]


def encode(layer, xs, mask, tokens):
    """`directional_pass` pooled as the model pools it: (forward final h
    plus backward final h, cache)."""
    (final_f, final_b), cache = directional_pass(layer, xs, mask, tokens)
    return final_f.h + final_b.h, cache


def encode_one(layer, xs, mask=None):
    """`encode` of a layer of one branch: (pooled (batch, hidden), cache)."""
    mask = _full(xs, mask)
    pooled, cache = encode(layer, xs, mask, (xs[mask], None))
    return pooled[0], cache


def bptt_one(cache, upstream):
    """`bptt` of `encode_one`'s cache: (grads by block name, read from the
    zeroed `out` it added into, dense (L, batch, embed) dx)."""
    mask = cache["mask"]
    out = zero_layer(*(direction_cache(cache, d)["params"] for d in ("fwd", "bwd")))
    dx_rows = bptt(cache, upstream[None], out)
    dx = np.zeros((*mask.shape, out.forward_params.embed))
    dx[mask] = next(dx_rows)
    return layer_grads(out), dx


def _softmax(zs):
    top = max(zs)
    e = [math.exp(z - top) for z in zs]
    return [v / math.fsum(e) for v in e]


SCALAR_ACTIVATIONS = {
    "sigmoid": lambda zs: [1.0 / (1.0 + math.exp(-z)) for z in zs],
    "relu": lambda zs: [max(z, 0.0) for z in zs],
    "tanh": lambda zs: [math.tanh(z) for z in zs],
    "softmax": _softmax,  # normalised within one gate's units
}


def cell_step_oracle(p, x, h_prev, c_prev):
    """Scalar-loop evaluation of the gate equations of a stack of one, one
    unit at a time, with its gate activation on the i/f/o gates and tanh on
    the candidate."""
    (gate_act,) = p.gate_activation

    def gate(name, act):
        rows = p.gate_rows[name]
        W, U, b = p.W[0, rows], p.U[0, rows], p.b[0, rows]
        pre = []
        for j in range(p.hidden):
            acc = 0.0
            for k in range(p.embed):
                acc += W[j, k] * x[k]
            for k in range(p.hidden):
                acc += U[j, k] * h_prev[k]
            acc += b[j]
            pre.append(acc)
        return SCALAR_ACTIVATIONS[act](pre)

    i = gate("i", gate_act)
    f = gate("f", gate_act)
    o = gate("o", gate_act)
    n = gate("n", "tanh")
    c = np.array([f[j] * c_prev[j] + i[j] * n[j] for j in range(p.hidden)])
    h = np.array([o[j] * math.tanh(c[j]) for j in range(p.hidden)])
    return h, c


def blend_pass(params, xs, mask, direction):
    """The recurrence computed on every row at every step, each step
    projecting its own inputs, with the padded rows' old state blended back
    in: what `directional_pass` must equal.
    Returns (h, c, cache) with the cache `blend_bptt` reads: full (L, B, .)
    arrays in original sequence order."""
    L, batch, _ = xs.shape
    order = range(L) if direction == "forward" else range(L - 1, -1, -1)
    h_prev, c_prev, tanh_c = (np.zeros((L, batch, params.hidden)) for _ in range(3))
    gates = np.zeros((L, batch, 4, params.hidden))
    h = c = np.zeros((batch, params.hidden))
    for t in order:
        m = mask[t].astype(np.float64)[:, None]
        h_prev[t], c_prev[t] = h, c
        step = _stacked_step(params.U.transpose(0, 2, 1), params.b, params.gate_activation,
                             matmul(xs[t], params.W[0].T)[None], slice(None), h[None],
                             c[None])
        gates[t], tanh_c[t], c_new, h_new = (a[0] for a in step)
        h, c = m * h_new + (1.0 - m) * h, m * c_new + (1.0 - m) * c
    cache = {"order": order, "mask": mask, "x": xs, "h_prev": h_prev, "c_prev": c_prev,
             "gates": gates, "tanh_c": tanh_c}
    return h, c, cache


def blend_bptt(params, cache, d_final_h):
    """BPTT of `blend_pass`: full-batch steps whose dh/dc split into the
    masked part, which goes through the step, and the carried part."""
    rows = params.gate_rows
    (W,), (U,), (act,) = params.W, params.U, params.gate_activation
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros(4 * params.hidden)
    dx = np.zeros_like(cache["x"])
    dh = np.asarray(d_final_h, dtype=np.float64)
    dc = np.zeros_like(dh)
    for t in reversed(cache["order"]):
        m = cache["mask"][t].astype(np.float64)[:, None]
        g, tanh_c = cache["gates"][t], cache["tanh_c"][t]
        i, f, o, n = g.transpose(1, 0, 2)
        dh_new, dh_carry = m * dh, (1.0 - m) * dh
        dc_new, dc_carry = m * dc, (1.0 - m) * dc
        do = dh_new * tanh_c
        dc_new = dc_new + dh_new * o * (1.0 - tanh_c ** 2)
        df, di, dn = dc_new * cache["c_prev"][t], dc_new * n, dc_new * i
        dpre = np.concatenate((
            activate_grad(act, g[:, :3], np.stack((di, df, do), axis=1)),
            activate_grad("tanh", g[:, 3:], dn[:, None]),
        ), axis=1).reshape(len(dh), -1)
        dW += matmul(dpre.T, cache["x"][t])
        dU += matmul(dpre.T, cache["h_prev"][t])
        db += dpre.sum(axis=0)
        dh_rec = np.zeros_like(dh)
        for r in rows.values():
            dx[t] += matmul(dpre[:, r], W[r])
            dh_rec += matmul(dpre[:, r], U[r])
        dh = dh_carry + dh_rec
        dc = dc_carry + dc_new * f
    grads = {f"{k}_{g}": arr[rows[g]] for g in GATES
             for k, arr in (("W", dW), ("U", dU), ("b", db))}  # in blocks() order
    return grads, dx


def blend_encode_bptt(layer, xs, mask, upstream):
    """`bptt` of a bidirectional layer, both directions run by the oracle."""
    grads, dxs = {}, []
    for prefix, params, direction in (("fwd", layer.forward_params, "forward"),
                                      ("bwd", layer.backward_params, "backward")):
        cache = blend_pass(params, xs, mask, direction)[2]
        g, dx = blend_bptt(params, cache, upstream)
        grads.update({f"{prefix}.{k}": v for k, v in g.items()})
        dxs.append(dx)
    return grads, dxs[0] + dxs[1]


@st.composite
def masked_cases(draw):
    """(mask (L, B), embed, hidden, gate activation, seed). Masks are
    tail-padded (lengths 0..L, so never-active rows and all-pad steps
    occur) or have random holes."""
    L, batch = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(0, L), min_size=batch, max_size=batch))
        mask = np.arange(L)[:, None] < np.array(lengths)[None, :]
    else:
        cells = draw(st.lists(st.booleans(), min_size=L * batch, max_size=L * batch))
        mask = np.array(cells).reshape(L, batch)
    return (mask, draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.sampled_from(sorted(SCALAR_ACTIVATIONS))), draw(st.integers(0, 2**32 - 1)))


def _with_zeros(gen, shape):
    x = gen.standard_normal(shape)
    x[gen.random(shape) < 0.15] = 0.0
    x[gen.random(shape) < 0.15] = -0.0
    return x


class TestPackedStepsMatchBlendOracle:
    @given(masked_cases())
    @example((np.ones((1, 1), dtype=bool), 1, 1, "relu", 0))  # L = B = 1
    @example((np.zeros((3, 2), dtype=bool), 2, 3, "sigmoid", 1))  # nothing active
    @example((np.array([[1, 0], [1, 0], [0, 0]], dtype=bool), 2, 2, "softmax", 2))
    @settings(max_examples=300, deadline=None)
    def test_states_gradients_and_dx(self, case):
        mask, embed, hidden, act, seed = case
        L, batch = mask.shape
        gen = np.random.default_rng(seed)
        layer = BidirectionalLayer(random_params(hidden, embed, seed % 2**31, 1.0, act),
                                   random_params(hidden, embed, seed % 2**31 + 1, 1.0, act))
        xs = _with_zeros(gen, (L, batch, embed))
        upstream = _with_zeros(gen, (batch, hidden))
        upstream_bytes = upstream.tobytes()

        # States by value only: the oracle's blend adds a 0 * state term to
        # every row, which turns a -0.0 (a relu gate at exactly 0) into
        # +0.0; the next step's matmul sums from +0.0 and so clears the
        # sign, which is why gradients and dx still match bit for bit.
        # Each step record must hold the oracle's state and gates of its rows.
        for params, direction in ((layer.forward_params, "forward"),
                                  (layer.backward_params, "backward")):
            final, cache = pass_one(params, xs, mask, direction)
            want_h, want_c, want = blend_pass(params, xs, mask, direction)
            assert np.array_equal(final.h, want_h)
            assert np.array_equal(final.c, want_c)
            for t, rows, h_prev, c_prev, gates, tanh_c in records_one(cache):
                assert np.array_equal(h_prev, want["h_prev"][t, rows])
                assert np.array_equal(c_prev, want["c_prev"][t, rows])
                assert np.array_equal(gates, want["gates"][t, rows])
                assert np.array_equal(tanh_c, want["tanh_c"][t, rows])

        _, cache = encode_one(layer, xs, mask)
        grads, dx = bptt_one(cache, upstream)
        want_grads, want_dx = blend_encode_bptt(layer, xs, mask, upstream)
        assert list(grads) == list(want_grads)
        for name in grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert dx.tobytes() == want_dx.tobytes()
        assert upstream.tobytes() == upstream_bytes


class TestTokenTable:
    """`directional_pass` given a token table whose index repeats rows: each
    step gathers its projected rows from one product over the table, and
    must compute what projecting every position itself computes. A pass
    given a table is forward-only: it keeps no step records."""

    @given(masked_cases(), st.integers(1, 3))
    @example((np.array([[1, 1], [0, 0], [1, 0]], dtype=bool), 2, 3, "relu", 3), 2)  # all-pad step
    @example((np.array([[1, 0], [0, 0], [1, 0]], dtype=bool), 3, 2, "tanh", 4), 1)  # all-pad row
    @settings(max_examples=200, deadline=None)
    def test_states_and_records_match_per_position_pass_and_oracle(self, case, n_tokens):
        mask, embed, hidden, act, seed = case
        L, batch = mask.shape
        gen = np.random.default_rng(seed)
        params = random_params(hidden, embed, seed % 2**31, 1.0, act)
        table = _with_zeros(gen, (n_tokens, embed))
        index = gen.integers(0, n_tokens, (L, batch))
        xs = table[index]
        index[~mask] = n_tokens  # out of range: a padded position is never read
        for direction in ("forward", "backward"):
            final, cache = pass_one(params, xs, mask, direction, (table, index))
            ref_final, ref = pass_one(params, xs, mask, direction)
            assert cache is None
            assert final.h.tobytes() == ref_final.h.tobytes()
            assert final.c.tobytes() == ref_final.c.tobytes()
            # the oracle by value, as in TestPackedStepsMatchBlendOracle;
            # the per-position pass's records hold the oracle's states
            want_h, want_c, want = blend_pass(params, xs, mask, direction)
            assert np.array_equal(final.h, want_h)
            assert np.array_equal(final.c, want_c)
            for t, rows, h_prev, c_prev, gates, tanh_c in records_one(ref):
                assert np.array_equal(h_prev, want["h_prev"][t, rows])
                assert np.array_equal(c_prev, want["c_prev"][t, rows])
                assert np.array_equal(gates, want["gates"][t, rows])
                assert np.array_equal(tanh_c, want["tanh_c"][t, rows])

    @pytest.mark.parametrize("given_table", [False, True], ids=["per_position", "given"])
    def test_fully_masked_batch_projects_an_empty_table(self, monkeypatch, given_table):
        hidden, embed = 3, 2
        p = random_params(hidden, embed, 30)
        xs = RngStream(31).uniform(-1, 1, (4, 2, embed))
        mask = np.zeros((4, 2), dtype=bool)
        tokens = (np.zeros((0, embed)), np.zeros((4, 2), dtype=int)) if given_table else None
        products = []

        def recording(a, b, out=None):
            out = matmul_stacked(a, b, out)
            if a.shape[2] == embed:  # an input projection, not a recurrent product
                products.append(out.shape)
            return out

        monkeypatch.setattr(lstm, "matmul_stacked", recording)
        final, cache = pass_one(p, xs, mask, "forward", tokens)
        assert products == [(1, 0, 4 * hidden)] * 2  # one per direction
        if given_table:
            assert cache is None
        else:
            assert records_one(cache) == []
        assert np.array_equal(final.h, np.zeros((2, hidden)))
        assert np.array_equal(final.c, np.zeros((2, hidden)))


# projections of no rows, one row, and either side of one and two tiles
TILE_ROW_COUNTS = (0, 1, lstm._TILE_ROWS - 1, lstm._TILE_ROWS, lstm._TILE_ROWS + 1,
                   2 * lstm._TILE_ROWS + 1)


def tiled_case(n, form, seed=0):
    """(layer, sequence stand-in, mask, tokens, upstream) of a pass of a
    stack of two branches whose input projection has n rows: the first n
    of 3 x 400 positions, t-major, are unmasked. Per-position, the table
    holds each branch's inputs at them, (2, n, embed); given, a shared
    table of n + 2 rows and an index that uses each of rows 0..n-1 once,
    in a shuffled order, and rows past the table where it is masked. At
    H = 8 a whole tile, 2 x 512 x 32, is over STACKED_ELEMS and runs the
    kernel's loop, while the last, short tile of 513 or 1025 rows runs its
    blocked path."""
    L, batch, hidden, embed = 3, 400, 8, 3
    gen = np.random.default_rng(seed)
    mask = (np.arange(L * batch) < n).reshape(L, batch)
    layer = BidirectionalLayer(
        *(stack_params([random_params(hidden, embed, seed + k, 1.0, act)
                        for k, act in enumerate(("sigmoid", "relu"), start)])
          for start in (0, 2)))
    if form == "per_position":
        tokens = (_with_zeros(gen, (2, n, embed)), None)
    else:
        index = np.full((L, batch), n + 2)
        index[mask] = gen.permutation(n)
        tokens = (_with_zeros(gen, (n + 2, embed)), index)
    upstream = _with_zeros(gen, (2, batch, hidden))
    return layer, np.broadcast_to(0.0, (L, batch, embed)), mask, tokens, upstream


def pass_bytes(layer, sequence, mask, tokens, upstream):
    """The bytes of everything a pass gives: both final states and, for a
    per-position pass, its BPTT's parameter gradients and each branch's
    input-gradient rows."""
    (final_f, final_b), cache = directional_pass(layer, sequence, mask, tokens)
    out = [final_f.h, final_f.c, final_b.h, final_b.c]
    if cache is not None:
        grads = zero_layer(layer.forward_params, layer.backward_params)
        out += list(bptt(cache, upstream, grads))
        out += [grads.forward_params.W, grads.forward_params.U, grads.forward_params.b,
                grads.backward_params.W, grads.backward_params.U, grads.backward_params.b]
    return [a.tobytes() for a in out]


class TestTiledProjection:
    """A direction projects its token rows _TILE_ROWS at a time from the
    pass's row source. Each row's product depends on that row only, so the
    tiles give bitwise one product over the whole table, and the pass gives
    bitwise what it gives with the projection made in one product."""

    @pytest.mark.parametrize("form", ["per_position", "given"])
    @pytest.mark.parametrize("n", TILE_ROW_COUNTS)
    def test_tiles_equal_one_product_over_the_table(self, n, form):
        layer, _, mask, (table, index), _ = tiled_case(n, form)
        params = layer.forward_params
        used = None if index is None else np.unique(index[mask])
        rows = lstm._TokenRows(table, len(params.W), used)
        whole = np.broadcast_to(table if used is None else table[used], (2, n, params.embed))
        want = matmul_stacked(whole, params.W.transpose(0, 2, 1))
        assert lstm._projection(params, rows, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("form", ["per_position", "given"])
    @pytest.mark.parametrize("n", TILE_ROW_COUNTS)
    def test_pass_outputs_equal_an_untiled_projection(self, monkeypatch, n, form):
        case = tiled_case(n, form)
        tiled = pass_bytes(*case)
        monkeypatch.setattr(lstm, "_TILE_ROWS", 1 << 30)  # one tile: one product
        assert pass_bytes(*case) == tiled


def stack_params(params):
    """One stack of branches from stacks of one, in order."""
    return LSTMCellParams(np.concatenate([p.W for p in params]),
                          np.concatenate([p.U for p in params]),
                          np.concatenate([p.b for p in params]),
                          sum((p.gate_activation for p in params), ()))


STANDARD_ACTS = ("sigmoid",) * 4
LITERAL_ACTS = ("softmax", "sigmoid", "relu", "tanh")


class TestStackedBranches:
    """Four branches run as one stack -- one directional pass per direction
    and one BPTT -- give each branch the bytes of its own one-branch run:
    final states, every gradient and dx. Each branch has its own inputs, as
    after dropout, read from one per-position table for both directions."""

    def check(self, mask, embed, hidden, acts, seed):
        L, batch = mask.shape
        gen = np.random.default_rng(seed)
        fwd = [random_params(hidden, embed, seed % 2**31 + k, 1.0, a) for k, a in enumerate(acts)]
        bwd = [random_params(hidden, embed, seed % 2**31 + 9 + k, 1.0, a)
               for k, a in enumerate(acts)]
        xs = [_with_zeros(gen, (L, batch, embed)) for _ in acts]
        upstream = _with_zeros(gen, (len(acts), batch, hidden))
        table = np.stack([x[mask] for x in xs])
        stack = BidirectionalLayer(stack_params(fwd), stack_params(bwd))

        for params, singles, direction in ((stack.forward_params, fwd, "forward"),
                                           (stack.backward_params, bwd, "backward")):
            final, cache = one_direction(params, xs[0], mask, direction, (table, None))
            assert len(cache["steps"]) == int(mask.any(axis=1).sum())  # one a step
            for k, p in enumerate(singles):
                want, _ = pass_one(p, xs[k], mask, direction)
                assert final.h[k].tobytes() == want.h.tobytes()
                assert final.c[k].tobytes() == want.c.tobytes()

        pooled, cache = encode(stack, xs[0], mask, (table, None))
        out = zero_layer(stack.forward_params, stack.backward_params)
        dx_rows = bptt(cache, upstream, out)
        for k in range(len(acts)):
            one = BidirectionalLayer(fwd[k], bwd[k])
            want_pooled, one_cache = encode_one(one, xs[k], mask)
            assert pooled[k].tobytes() == want_pooled.tobytes()
            want_grads, want_dx = bptt_one(one_cache, upstream[k])
            grads = layer_grads(out.branch(k))
            assert list(grads) == list(want_grads)
            for name, grad in grads.items():
                assert grad.tobytes() == want_grads[name].tobytes(), (k, name)
            assert next(dx_rows).tobytes() == want_dx[mask].tobytes()
        assert next(dx_rows, None) is None

    @given(masked_cases(), st.sampled_from([STANDARD_ACTS, LITERAL_ACTS]))
    @example((np.array([[1, 1], [0, 0], [1, 0]], dtype=bool), 2, 3, "relu", 3),
             LITERAL_ACTS)  # an all-pad step
    @settings(max_examples=100, deadline=None)
    def test_small_stacks_match_one_branch_runs(self, case, acts):
        mask, embed, hidden, _, seed = case
        self.check(mask, embed, hidden, acts, seed)

    @pytest.mark.parametrize("acts", [STANDARD_ACTS, LITERAL_ACTS], ids=["standard", "literal"])
    def test_stacks_over_the_one_product_size_match_one_branch_runs(self, acts):
        # 4 x 80 rows x 4*16 > STACKED_ELEMS: the stacked products run per branch
        L, batch, hidden = 5, 80, 16
        assert len(acts) * batch * 4 * hidden > STACKED_ELEMS
        lengths = np.random.default_rng(5).integers(0, L, batch)  # step L-1 is all padding
        mask = np.arange(L)[:, None] < lengths[None, :]
        self.check(mask, 3, hidden, acts, 6)

    def test_shared_table_with_index_matches_one_branch_runs(self):
        mask = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=bool)
        gen = np.random.default_rng(8)
        params = [random_params(3, 2, 40 + k, 1.0, a) for k, a in enumerate(LITERAL_ACTS)]
        table = _with_zeros(gen, (5, 2))
        index = gen.integers(0, 5, mask.shape)
        for direction in ("forward", "backward"):
            final, cache = one_direction(stack_params(params), table[index], mask, direction,
                                         (table, index))
            assert cache is None
            for k, p in enumerate(params):
                want, _ = pass_one(p, table[index], mask, direction, (table, index))
                assert final.h[k].tobytes() == want.h.tobytes()
                assert final.c[k].tobytes() == want.c.tobytes()


class TestCellStep:
    def test_zero_fixed_point(self):
        p = zero_params(3, 2)
        out = cell_step(p, np.zeros((1, 2)), zero_state(1, 3))
        assert np.array_equal(out.h, np.zeros((1, 3)))
        assert np.array_equal(out.c, np.zeros((1, 3)))

    def test_hand_case_unit_cell_memory(self):
        # zero weights and biases: every sigmoid gate is 0.5, candidate 0
        p = zero_params(1, 1)
        prev = LSTMState(np.array([[0.3]]), np.array([[1.0]]))
        out = cell_step(p, np.zeros((1, 1)), prev)
        assert abs(out.c[0, 0] - 0.5) < 1e-15
        assert abs(out.h[0, 0] - 0.5 * math.tanh(0.5)) < 1e-15
        assert abs(out.h[0, 0] - 0.231059) < 1e-6

    @pytest.mark.parametrize("seed,gate_activation", [
        pytest.param(seed, act, id=str(seed) if act == "sigmoid" else f"{act}-{seed}")
        for act in SCALAR_ACTIVATIONS for seed in range(5)
    ])
    def test_matches_scalar_oracle(self, seed, gate_activation):
        p = random_params(3, 2, seed, gate_activation=gate_activation)
        rng = RngStream(100 + seed)
        x = rng.uniform(-1, 1, (1, 2))
        prev = LSTMState(rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (1, 3)))
        out = cell_step(p, x, prev)
        h, c = cell_step_oracle(p, x[0], prev.h[0], prev.c[0])
        assert np.max(np.abs(out.h[0] - h)) <= 1e-12
        assert np.max(np.abs(out.c[0] - c)) <= 1e-12

    def test_state_bounds_from_zero(self):
        # |c| grows at most one per step, |h| stays below 1 with sigmoid gates
        p = random_params(4, 3, 7, scale=2.0)
        rng = RngStream(8)
        state = zero_state(1, 4)
        for t in range(10):
            state = cell_step(p, rng.uniform(-3, 3, (1, 3)), state)
            assert np.all(np.abs(state.c) <= t + 1)
            assert np.all(np.abs(state.h) < 1.0)

    def test_dimension_mismatch(self):
        p = zero_params(3, 2)
        with pytest.raises(Exception):
            cell_step(p, np.zeros((1, 5)), zero_state(1, 3))


class TestDirectionalPass:
    def test_single_step_direction_irrelevant(self):
        p = random_params(3, 2, 1)
        x = RngStream(2).uniform(-1, 1, (1, 1, 2))
        expected = cell_step(p, x[0], zero_state(1, 3))
        for direction in ("forward", "backward"):
            final, _ = pass_one(p, x, None, direction)
            assert np.array_equal(final.h, expected.h)
            assert np.array_equal(final.c, expected.c)

    def test_fully_masked_sequence_keeps_zero_state(self):
        p = random_params(3, 2, 3)
        x = RngStream(4).uniform(-1, 1, (4, 1, 2))
        mask = np.zeros((4, 1), dtype=bool)
        final, cache = pass_one(p, x, mask, "forward")
        assert np.array_equal(final.h, np.zeros((1, 3)))
        assert np.array_equal(final.c, np.zeros((1, 3)))
        assert records_one(cache) == []

    def test_palindrome_symmetry(self):
        p = random_params(3, 2, 5)
        rng = RngStream(6)
        half = rng.uniform(-1, 1, (2, 1, 2))
        seq = np.concatenate([half, half[::-1]], axis=0)
        final_f, cache_f = pass_one(p, seq, None, "forward")
        final_b, cache_b = pass_one(p, seq, None, "backward")
        assert np.allclose(final_f.h, final_b.h, atol=1e-14)
        assert np.allclose(final_f.c, final_b.c, atol=1e-14)
        # step k of either run sees the same input and state
        for rec_f, rec_b in zip(records_one(cache_f), records_one(cache_b), strict=True):
            assert rec_f[0] == 3 - rec_b[0]
            for got, want in zip(rec_f[2:], rec_b[2:]):
                assert np.allclose(got, want, atol=1e-14)

    def test_padded_step_keeps_state_when_skipped_maths_overflows(self):
        # Row 1 is active at step 0 only. Its c reaches ~1e308 there, so a
        # step computed on it would give c = inf, and a blend with mask 0
        # would give 0 * inf = nan; a padded row must keep h = 1.0.
        p = zero_params(1, 1, ("relu",))
        p.b[:] = (1e308, 2.0, 1.0, 10.0)  # b_i, b_f, b_o, b_n
        mask = np.array([[1, 1], [1, 0], [1, 0]], dtype=bool)
        with np.errstate(over="ignore"):
            final, cache = pass_one(p, np.zeros((3, 2, 1)), mask, "forward")
        assert [rows.tolist() for _, rows, *_ in records_one(cache)] == [[0, 1], [0], [0]]
        assert final.h[1, 0] == 1.0
        assert np.isfinite(final.c[1, 0])

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_one_record_per_step_that_runs_holding_its_rows_only(self, monkeypatch, direction):
        # ragged: tail padding, a hole (step 2, row 0) and an all-pad step 4
        mask = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
        hidden, embed = 3, 2
        p = random_params(hidden, embed, 25)
        xs = RngStream(26).uniform(-1, 1, (5, 3, embed))
        projections, real = [], lstm._projection

        def recording(*args):
            projections.append(real(*args))
            return projections[-1]

        monkeypatch.setattr(lstm, "_projection", recording)
        _, cache = pass_one(p, xs, mask, direction)
        assert sorted(cache) == sorted(["params", "x", "steps", *lstm.RECORDS])
        run_order = [0, 1, 2, 3] if direction == "forward" else [3, 2, 1, 0]
        assert [t for t, *_ in cache["steps"]] == run_order
        n = int(mask.sum())
        assert [cache[kind].shape for kind in lstm.RECORDS] == [
            (1, n, hidden), (1, n, hidden), (1, n, 4, hidden), (1, n, hidden)]
        # the gate records are the direction's projection, not an array of their own
        proj = projections[("forward", "backward").index(direction)]
        assert cache["gates"].base is proj and cache["gates"].nbytes == proj.nbytes
        covered = []
        for (t, rows, *arrays), (_, _, at) in zip(records_one(cache), cache["steps"]):
            assert np.array_equal(rows, np.flatnonzero(mask[t]))
            m = len(rows)
            assert [a.shape for a in arrays] == [(m, hidden), (m, hidden), (m, 4, hidden),
                                                 (m, hidden)]
            # views of the record arrays at the step's table rows
            lo = int(mask[:t].sum())
            assert (at.start, at.stop) == (lo, lo + m)
            for kind, a in zip(lstm.RECORDS, arrays):
                assert np.shares_memory(a, cache[kind])
                assert a.__array_interface__["data"][0] == cache[kind][0, lo].ctypes.data
            covered += range(lo, lo + m)
        assert sorted(covered) == list(range(n))  # every table row, once
        # besides the rows index arrays, 7 floats per unmasked row-step:
        # h_prev, c_prev, four gates and tanh(c)
        assert sum(cache[kind].nbytes for kind in lstm.RECORDS) == 7 * hidden * 8 * n

    def test_empty_sequence_rejected(self):
        p = random_params(2, 2, 0)
        with pytest.raises(Exception):
            pass_one(p, np.zeros((0, 1, 2)), None, "forward")


class TestBidirectional:
    def test_zero_layer_pools_to_zero(self):
        layer = BidirectionalLayer(zero_params(3, 2), zero_params(3, 2))
        pooled, _ = encode_one(layer, RngStream(7).uniform(-1, 1, (4, 1, 2)))
        assert np.array_equal(pooled, np.zeros((1, 3)))

    def test_single_token_is_sum_of_directions(self):
        layer = BidirectionalLayer(random_params(3, 2, 8), random_params(3, 2, 9))
        x = RngStream(10).uniform(-1, 1, (1, 1, 2))
        pooled, _ = encode_one(layer, x)
        h_f = cell_step(layer.forward_params, x[0], zero_state(1, 3)).h
        h_b = cell_step(layer.backward_params, x[0], zero_state(1, 3)).h
        assert np.array_equal(pooled, h_f + h_b)

    def test_matches_independent_recomputation(self):
        layer = BidirectionalLayer(random_params(3, 2, 11), random_params(3, 2, 12))
        x = RngStream(13).uniform(-1, 1, (4, 1, 2))
        pooled, _ = encode_one(layer, x)
        final_f, _ = pass_one(layer.forward_params, x, None, "forward")
        final_b, _ = pass_one(layer.backward_params, x, None, "backward")
        assert np.array_equal(pooled, final_f.h + final_b.h)

    def test_direction_containment(self):
        # zero backward weights: pooled reduces to the forward-only final h
        fwd = random_params(3, 2, 14)
        layer = BidirectionalLayer(fwd, zero_params(3, 2))
        x = RngStream(15).uniform(-1, 1, (3, 1, 2))
        pooled, _ = encode_one(layer, x)
        final_f, _ = pass_one(fwd, x, None, "forward")
        assert np.array_equal(pooled, final_f.h)

    def test_pad_append_invariance_bitwise(self):
        layer = BidirectionalLayer(random_params(3, 2, 16), random_params(3, 2, 17))
        x = RngStream(18).uniform(-1, 1, (3, 1, 2))
        mask = np.ones((3, 1), dtype=bool)
        pooled, _ = encode_one(layer, x, mask)
        x_pad = np.concatenate([x, np.zeros((2, 1, 2))], axis=0)
        mask_pad = np.concatenate([mask, np.zeros((2, 1), dtype=bool)], axis=0)
        pooled_pad, _ = encode_one(layer, x_pad, mask_pad)
        assert np.array_equal(pooled, pooled_pad)


class TestBptt:
    def make(self, seed, L=3, hidden=2, embed=2):
        layer = BidirectionalLayer(
            random_params(hidden, embed, seed), random_params(hidden, embed, seed + 50)
        )
        x = RngStream(seed + 100).uniform(-1, 1, (L, 1, embed))
        return layer, x

    def test_zero_upstream_zero_gradients(self):
        layer, x = self.make(20)
        _, cache = encode_one(layer, x)
        grads, dx = bptt_one(cache, np.zeros((1, 2)))
        assert np.array_equal(dx, np.zeros_like(x))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_parameter_gradients_match_finite_differences(self):
        layer, x = self.make(21)
        upstream = RngStream(22).uniform(-1, 1, (1, 2))

        def loss():
            pooled, _ = encode_one(layer, x)
            return float(np.sum(pooled * upstream))

        _, cache = encode_one(layer, x)
        grads, dx = bptt_one(cache, upstream)
        h = 1e-5
        blocks = layer.forward_params.blocks("fwd") + layer.backward_params.blocks("bwd")
        for name, arr in blocks:
            flat = arr.reshape(-1)
            a_flat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                num = (up - down) / (2 * h)
                rel = abs(a_flat[i] - num) / max(abs(a_flat[i]), abs(num), 1e-8)
                assert rel <= 1e-5, f"{name}[{i}]: {rel}"
        # input gradients too
        for t in range(x.shape[0]):
            for j in range(x.shape[2]):
                orig = x[t, 0, j]
                x[t, 0, j] = orig + h
                up = loss()
                x[t, 0, j] = orig - h
                down = loss()
                x[t, 0, j] = orig
                num = (up - down) / (2 * h)
                rel = abs(dx[t, 0, j] - num) / max(abs(dx[t, 0, j]), abs(num), 1e-8)
                assert rel <= 1e-5

    def test_masked_timestep_gets_zero_input_gradient(self):
        layer, x = self.make(23)
        mask = np.array([[True], [False], [True]])
        _, cache = encode_one(layer, x, mask)
        _, dx = bptt_one(cache, np.ones((1, 2)))
        assert np.array_equal(dx[1], np.zeros((1, 2)))
        assert not np.array_equal(dx[0], np.zeros((1, 2)))

    def test_input_gradient_reads_the_gate_records_in_place(self, monkeypatch):
        """BPTT writes each step's pre-activation gradients over its gate
        records, and dx is made from views of that array: the per-gate
        products' left operands share its memory, with no gather or copy."""
        layer, x = self.make(25, L=4)
        _, cache = encode_one(layer, x, np.array([[True], [False], [True], [True]]))
        gates = [direction_cache(cache, d)["gates"] for d in ("fwd", "bwd")]
        lefts, real = [], lstm.matmul

        def recording(a, b):
            lefts.append(a)
            return real(a, b)

        monkeypatch.setattr(lstm, "matmul", recording)
        bptt_one(cache, np.ones((1, 2)))
        assert len(lefts) == 2 * len(GATES)  # per direction, one product per gate
        for a, records in zip(lefts, [gates[0]] * len(GATES) + [gates[1]] * len(GATES)):
            assert np.shares_memory(a, records)

    def test_pad_append_leaves_gradients_bitwise(self):
        layer, x = self.make(24)
        mask = np.ones((3, 1), dtype=bool)
        _, cache = encode_one(layer, x, mask)
        grads, _ = bptt_one(cache, np.ones((1, 2)))
        x_pad = np.concatenate([x, np.zeros((2, 1, 2))], axis=0)
        mask_pad = np.concatenate([mask, np.zeros((2, 1), dtype=bool)], axis=0)
        _, cache_pad = encode_one(layer, x_pad, mask_pad)
        grads_pad, _ = bptt_one(cache_pad, np.ones((1, 2)))
        for name in grads:
            assert np.array_equal(grads[name], grads_pad[name])
