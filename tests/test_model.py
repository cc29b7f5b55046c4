import itertools
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import plstm.lstm
from plstm.checkpoint import _HEADER, load_checkpoint, save_checkpoint
from plstm.lstm import BidirectionalLayer
from plstm.model import (
    BRANCH_NAMES,
    GATE_MODES,
    BranchGroup,
    ParallelModel,
    aggregate,
    branch_backward,
    branch_forward,
    embed_ids,
    expected_param_count,
    forward_batch,
    _DroppedRows,
    init_model,
    summary,
)
from plstm.tensor import (STACKED_ELEMS, RngStream, categorical_cross_entropy, dropout_mask,
                          grad_check, matmul_stacked)
from plstm.train import TrainConfig, build_model

from test_lstm import direction_cache, zero_params


def encoded(ids, L):
    """(ids, mask) of one sequence: `ids` padded with 0 to length L."""
    arr = np.zeros(L, dtype=np.int64)
    mask = np.zeros(L, dtype=bool)
    arr[: len(ids)] = ids
    mask[: len(ids)] = True
    return arr, mask


def zero_branch(name, hidden=3, embed=2):
    layer = BidirectionalLayer(zero_params(hidden, embed), zero_params(hidden, embed))
    return BranchGroup((name,), layer, np.zeros((1, 2, hidden)), np.zeros((1, 2)))


class TestInit:
    def test_deterministic(self):
        a = init_model(10, 4, 3, seed=42)
        b = init_model(10, 4, 3, seed=42)
        for (na, pa), (nb, pb) in zip(a.blocks(), b.blocks()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_seed_changes_weights(self):
        a = init_model(10, 4, 3, seed=42)
        b = init_model(10, 4, 3, seed=43)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_range_contract(self):
        m = init_model(10, 4, 3, seed=0)
        for name, arr in m.blocks():
            if name.endswith(".b_f"):
                assert np.all(arr == 1.0)
            elif name.endswith(".head_b") or (".b_" in name):
                assert np.all(arr == 0.0)
            else:
                assert np.all((arr >= -0.05) & (arr <= 0.05))
        assert np.array_equal(m.embedding[0], np.zeros(4))

    def test_parameter_count_formula(self):
        m = init_model(10, 4, 3, seed=1)
        assert m.param_count() == expected_param_count(10, 4, 3)
        # recomputed by hand: 10*4 + 4*(2*4*(3*4+3*3+3) + 2*3+2) = 840
        assert expected_param_count(10, 4, 3) == 840

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            init_model(0, 4, 3, seed=0)

    def test_literal_gate_mode(self):
        m = init_model(6, 4, 3, seed=0, gate_mode="literal_eq9")
        assert m.branches["relu"].layer.forward_params.gate_activation == ("relu",)
        std = init_model(6, 4, 3, seed=0)
        assert std.branches["relu"].layer.forward_params.gate_activation == ("sigmoid",)


class TestArena:
    """Every parameter array is a view of the one flat `model.arena`, and
    the views tile it exactly once."""

    @staticmethod
    def arena_order_views(m):
        """The arrays `model_over` lays out, in arena order."""
        out = [m.embedding]
        for params in (m.group.layer.forward_params, m.group.layer.backward_params):
            out += [params.W, params.U, params.b]
        return out + [m.group.head_W, m.group.head_b]

    def test_every_parameter_view_shares_the_arena(self):
        m = init_model(10, 4, 3, seed=0, gate_mode="literal_eq9")
        views = [arr for _, arr in m.blocks()] + self.arena_order_views(m)
        for branch in m.branches.values():
            for params in (branch.layer.forward_params, branch.layer.backward_params):
                views += [params.W, params.U, params.b]
        for arr in views:
            assert np.shares_memory(arr, m.arena)

    @pytest.mark.parametrize("views", ["blocks", "arena_order"])
    def test_views_tile_the_arena_exactly_once(self, views):
        m = init_model(10, 4, 3, seed=0)
        arrays = ([arr for _, arr in m.blocks()] if views == "blocks"
                  else self.arena_order_views(m))
        assert sum(arr.size for arr in arrays) == m.param_count() == m.arena.size
        m.arena[...] = 0.0
        for arr in arrays:
            arr += 1.0  # an overlap counts twice, a gap stays 0
        assert np.array_equal(m.arena, np.ones(m.arena.size))

    def test_arena_order(self):
        m = init_model(10, 4, 3, seed=0)
        offsets = [arr.ctypes.data - m.arena.ctypes.data for arr in self.arena_order_views(m)]
        assert offsets[0] == 0
        assert offsets == sorted(offsets)

    def test_gradient_arena_has_the_same_layout(self):
        m = init_model(10, 4, 3, seed=0, gate_mode="literal_eq9")
        grad = m.zeros_like()
        assert not np.shares_memory(grad.arena, m.arena)
        assert np.array_equal(grad.arena, np.zeros(m.arena.size))
        assert grad.group.layer.forward_params.gate_activation == BRANCH_NAMES
        for (name, arr), (grad_name, grad_arr) in zip(m.blocks(), grad.blocks()):
            assert grad_name == name and grad_arr.shape == arr.shape
            offset = arr.ctypes.data - m.arena.ctypes.data
            assert grad_arr.ctypes.data - grad.arena.ctypes.data == offset

    @staticmethod
    def check_round_trip(tmp_path, monkeypatch=None):
        m = init_model(30, 8, 5, seed=11, seq_len=7)
        save_checkpoint(m, tmp_path / "a.ckpt")
        if monkeypatch is not None:
            def no_draws(*args, **kwargs):
                raise AssertionError("a checkpoint load drew random numbers")

            monkeypatch.setattr("plstm.model.RngStream", no_draws)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded.arena.tobytes() == m.arena.tobytes()
        save_checkpoint(loaded, tmp_path / "b.ckpt")
        blob = (tmp_path / "b.ckpt").read_bytes()
        assert blob == (tmp_path / "a.ckpt").read_bytes()
        # the payload, after the header, is the arena as it lies in memory
        assert blob[-m.arena.nbytes :] == m.arena.astype("<f8").tobytes()
        assert len(blob) - m.arena.nbytes == _HEADER.size

    def test_checkpoint_round_trip_keeps_arena_and_file_bytes(self, tmp_path):
        self.check_round_trip(tmp_path)

    def test_checkpoint_load_draws_no_random_init(self, tmp_path, monkeypatch):
        """A load reads every parameter from the file, so it builds its
        model over a copy of the payload and draws nothing."""
        self.check_round_trip(tmp_path, monkeypatch)

    @staticmethod
    def field_values(obj, path="model"):
        """(path, value) of every dataclass field under `obj`, recursively,
        each array as its dtype, shape and bytes."""
        if is_dataclass(obj):
            return [pair for f in fields(obj)
                    for pair in TestArena.field_values(getattr(obj, f.name), f"{path}.{f.name}")]
        if isinstance(obj, np.ndarray):
            return [(path, (obj.dtype.str, obj.shape, obj.tobytes()))]
        return [(path, obj)]

    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_a_loaded_model_is_the_saved_one_in_every_field(self, tmp_path, gate_mode):
        """A model that training built at rates other than the defaults
        loads back equal to the saved one in every dataclass field, arrays
        bitwise: the checkpoint holds all that a model is."""
        config = TrainConfig(embed_dim=8, hidden=5, seq_len=7, dropout_embed=0.5,
                             dropout_recurrent=0.3, gate_mode=gate_mode,
                             aggregation="majority_vote")
        m = build_model(config, 30, seed=11)
        save_checkpoint(m, tmp_path / "m.ckpt")
        assert self.field_values(load_checkpoint(tmp_path / "m.ckpt")) == self.field_values(m)


def per_position(embedded, mask):
    """The per-position token table of a dense (L, batch, embed) input."""
    return embedded[mask], None


class TestBranchForward:
    ALL_USED = np.ones((3, 1), dtype=bool)  # every position of tokens()'s (L, batch)

    def tokens(self, L=3, batch=1, embed=2, seed=0):
        return per_position(RngStream(seed).uniform(-1, 1, (L, batch, embed)), self.ALL_USED)

    def test_zero_softmax_branch(self):
        (scores,), _ = branch_forward(zero_branch("softmax"), self.ALL_USED, self.tokens())
        assert np.allclose(scores, [[0.5, 0.5]])

    def test_zero_tanh_branch(self):
        (scores,), _ = branch_forward(zero_branch("tanh"), self.ALL_USED, self.tokens())
        assert np.array_equal(scores, [[0.0, 0.0]])

    def test_softmax_scores_sum_to_one(self):
        m = init_model(10, 4, 3, seed=5)
        mask = np.ones((5, 1), bool)
        for trial in range(20):
            ids = RngStream(trial).gen.integers(1, 10, size=(1, 5))
            (scores,), _ = branch_forward(m.branches["softmax"], mask,
                                          per_position(embed_ids(m, ids), mask))
            assert abs(scores.sum() - 1.0) < 1e-12

    def test_token_table_pass_returns_no_cache(self):
        m = init_model(10, 4, 3, seed=5)
        ids = np.array([[2, 3, 2], [4, 2, 0]])
        mask_tm = (ids != 0).T
        branch = m.branches["relu"]
        (scores,), cache = branch_forward(branch, mask_tm, (m.embedding, ids.T))
        (want,), want_cache = branch_forward(branch, mask_tm,
                                             per_position(embed_ids(m, ids), mask_tm))
        assert cache is None
        assert want_cache is not None
        assert scores.tobytes() == want.tobytes()


class TestBranchBackward:
    @pytest.mark.parametrize("name", BRANCH_NAMES)
    def test_literal_gate_mode_matches_finite_differences(self, name):
        # each branch's i/f/o gates use its own activation, softmax per gate
        model = init_model(6, 2, 3, seed=1, gate_mode="literal_eq9")
        branch = model.branches[name]
        rng = RngStream(2)
        for _, arr in branch.blocks():
            arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
        mask = np.array([[True, True], [True, True], [True, False]])
        tokens = per_position(rng.uniform(-1, 1, (3, 2, 2)), mask)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])

        def loss(_params):
            (scores,), _ = branch_forward(branch, mask, tokens)
            return categorical_cross_entropy(scores, targets)[0]

        (scores,), cache = branch_forward(branch, mask, tokens)
        _, d_scores = categorical_cross_entropy(scores, targets)
        grad = model.zeros_like().branches[name]
        branch_backward(branch, cache, [d_scores], grad)
        worst, passed = grad_check(loss, dict(branch.blocks()), dict(grad.blocks()))["all"]
        assert passed, worst

    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_a_branch_writes_only_its_own_blocks_of_the_arena(self, gate_mode):
        """Branch k's backward into its group of one of a zeroed gradient
        arena writes that branch's blocks only: every other element of the
        arena, the embedding included, stays +0."""
        m = init_model(10, 4, 3, seed=8, gate_mode=gate_mode)
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        mask_tm = (ids > 0).T
        for k, name in enumerate(BRANCH_NAMES):
            (scores,), cache = branch_forward(m.branches[name], mask_tm,
                                              (m.embedding[ids.T[mask_tm]], None),
                                              (0.6, 0.4, [RngStream(9, k)]))
            grad, own = m.zeros_like(), m.zeros_like()
            for _, arr in own.branches[name].blocks():
                arr[...] = 1.0
            d_embedded = branch_backward(m.branches[name], cache, [np.cos(scores)],
                                         grad.branches[name])
            assert next(d_embedded).any()
            assert grad.arena[own.arena == 1.0].any()
            assert not grad.arena[own.arena == 0.0].view(np.uint64).any(), name  # +0 bits


def forward_one(model, seq):
    ids, mask = seq
    scores, _ = forward_batch(model, ids[None, :], mask[None, :])
    return {name: row[0] for name, row in scores.items()}


def branch_dropout(seed, embed_rate=TrainConfig.dropout_embed,
                   recurrent_rate=TrainConfig.dropout_recurrent):
    """A training pass's `dropout` argument: the rates, training's defaults
    unless given, and one RngStream per branch from `seed`."""
    return embed_rate, recurrent_rate, {name: RngStream(seed, b_idx)
                                        for b_idx, name in enumerate(BRANCH_NAMES)}


class TestModelForward:
    def test_zero_model_tie_breaks_to_class_zero(self):
        m = init_model(10, 4, 3, seed=0)
        for _, arr in m.blocks():
            arr[...] = 0.0
        scores = forward_one(m, encoded([2, 3], 5))
        assert np.allclose(scores["softmax"], [0.5, 0.5])
        for name in BRANCH_NAMES:
            assert np.argmax(scores[name]) == 0

    def test_eval_mode_deterministic(self):
        m = init_model(10, 4, 3, seed=3)
        seq = encoded([2, 5, 7], 6)
        a = forward_one(m, seq)
        b = forward_one(m, seq)
        for name in BRANCH_NAMES:
            assert np.array_equal(a[name], b[name])

    def test_id_out_of_range(self):
        m = init_model(10, 4, 3, seed=3)
        with pytest.raises(ValueError):
            forward_one(m, encoded([11], 3))

    def test_pad_invariance_bitwise(self):
        m = init_model(10, 4, 3, seed=4)
        a = forward_one(m, encoded([2, 3, 4], 4))
        b = forward_one(m, encoded([2, 3, 4], 9))
        for name in BRANCH_NAMES:
            assert np.array_equal(a[name], b[name])

    def test_branch_independence(self):
        m = init_model(10, 4, 3, seed=6)
        seq = encoded([2, 3], 4)
        before = forward_one(m, seq)
        m.branches["relu"].head_W += 0.5
        fwd = m.branches["relu"].layer.forward_params
        fwd.W[fwd.gate_rows["i"]] += 0.1
        after = forward_one(m, seq)
        for name in BRANCH_NAMES:
            if name == "relu":
                assert not np.array_equal(before[name], after[name])
            else:
                assert np.array_equal(before[name], after[name])


class TestForwardBatchTraining:
    IDS = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
    MASK = IDS > 0

    def test_caches_feed_branch_backward(self):
        m = init_model(10, 4, 3, seed=8)
        scores, caches = forward_batch(m, self.IDS, self.MASK, branch_dropout(9))
        assert [name for group, _ in caches for name in group.names] == list(BRANCH_NAMES)
        grad = m.zeros_like()
        for (group, cache), grad_group in zip(caches, grad.groups(len(self.IDS)), strict=True):
            assert grad_group.names == group.names
            d_embedded = branch_backward(
                group, cache, [np.ones_like(scores[name]) for name in group.names], grad_group)
            assert [d.shape for d in d_embedded] == [(4, 2, 4)] * len(group.names)
        assert grad.group.head_b.any() and not grad.embedding.any()  # the scatter is the caller's

    def test_the_backward_holds_one_branch_at_a_time(self, monkeypatch):
        """A caller that drops each branch's dense gradient before it asks
        for the next holds one branch at a time: while branch k's
        input-gradient rows are made, in either direction, no array of
        branch k-1's, neither its rows nor its dense gradient, is alive."""
        m = init_model(10, 4, 3, seed=8)
        scores, caches = forward_batch(m, self.IDS, self.MASK, branch_dropout(9))
        ((group, cache),) = caches  # the four branches as one stack
        refs, held, real = [], [], plstm.lstm._input_grad  # refs: (branch, weakref)

        def spying(params, dpre, k):
            held.append(sorted({b for b, ref in refs if b < k and ref() is not None}))
            rows = real(params, dpre, k)
            refs.append((k, weakref.ref(rows)))
            return rows

        monkeypatch.setattr(plstm.lstm, "_input_grad", spying)
        k = 0
        for d_embedded in branch_backward(group, cache, [np.ones_like(scores[name])
                                                         for name in group.names],
                                          m.zeros_like().group):
            refs.append((k, weakref.ref(d_embedded)))
            del d_embedded
            k += 1
        assert k == len(BRANCH_NAMES)
        assert held == [[]] * (2 * len(BRANCH_NAMES))  # both directions' calls, every branch

    def test_zero_rates_match_eval_bitwise(self):
        m = init_model(10, 4, 3, seed=8)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_dropout(9, 0.0, 0.0))
        evaluated, caches = forward_batch(m, self.IDS, self.MASK)
        assert caches is None
        for name in BRANCH_NAMES:
            assert np.array_equal(trained[name], evaluated[name])

    def test_scores_match_a_dense_embedded_input_bitwise(self):
        """Training gathers the unmasked rows straight from the embedding
        and draws each dropout mask at the (L, batch, embed) shape, so it
        gives what a dense embedded input gives."""
        m = init_model(10, 4, 3, seed=8)
        scores, _ = forward_batch(m, self.IDS, self.MASK, branch_dropout(9))
        embed_rate, recurrent_rate, rngs = branch_dropout(9)
        (group,) = m.groups(len(self.IDS))
        want, _ = branch_forward(group, self.MASK.T,
                                 per_position(embed_ids(m, self.IDS), self.MASK.T),
                                 (embed_rate, recurrent_rate, [rngs[name] for name in group.names]))
        for name, row in zip(BRANCH_NAMES, want):
            assert scores[name].tobytes() == row.tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.6])
    def test_dropped_rows_rebuild_the_masked_table_bitwise(self, rate):
        """The training table and the mask values are made from the rows,
        the keep bits and 1 - rate when read; each equals what the dense
        dropout mask gives, rows * mask, at every row range."""
        gen = np.random.default_rng(4)
        mask = gen.random((5, 3)) < 0.7  # (L, batch)
        rows = gen.standard_normal((int(mask.sum()), 6))
        rows[::4] = -0.0
        masks = [dropout_mask((5, 3, 6), rate, RngStream(10, k))[mask] for k in range(4)]
        dropped = _DroppedRows(rows, np.stack(masks) != 0, rate)
        n = len(rows)
        for lo, hi in ((0, n), (2, 5), (n - 1, n), (3, 3)):
            table = dropped(lo, hi)
            assert table.shape == (4, hi - lo, 6)
            for k, m in enumerate(masks):
                assert table[k].tobytes() == (rows * m)[lo:hi].tobytes()
        for k, m in enumerate(masks):
            assert dropped.mask(k).tobytes() == m.tobytes()

    def test_caches_hold_each_input_row_once_and_the_masks_as_bits(self):
        """No training cache holds a float64 (branches, n, embed) token table
        or dropout mask: the unmasked embedding rows are held once, as (n,
        embed), and each branch's embedding dropout mask as bits."""
        m = init_model(10, 5, 3, seed=8)
        _, caches = forward_batch(m, self.IDS, self.MASK, branch_dropout(9))
        n, G = int(self.MASK.sum()), len(BRANCH_NAMES)
        arrays, seen = [], set()

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif isinstance(obj, dict):
                for value in obj.values():
                    walk(value)
            elif isinstance(obj, (list, tuple)):
                for value in obj:
                    walk(value)
            elif hasattr(obj, "__dict__"):
                walk(vars(obj))

        walk(caches)
        assert [(a.shape, a.dtype) for a in arrays if a.shape[-2:] == (n, 5)] == [
            ((n, 5), np.float64), ((G, n, 5), np.bool_)]
        (cache,) = [cache for _, cache in caches]
        assert cache["dropped_rows"].keep.dtype == np.bool_
        assert (direction_cache(cache["enc"], "fwd")["x"] is direction_cache(cache["enc"], "bwd")["x"]
                is cache["dropped_rows"])

    @pytest.mark.parametrize("bad_id", [-1, 10])
    def test_out_of_range_padded_id_raises(self, bad_id):
        m = init_model(10, 4, 3, seed=8)
        ids = self.IDS.copy()
        ids[1, -1] = bad_id  # a padded position
        with pytest.raises(ValueError, match="out of range"):
            forward_batch(m, ids, self.MASK, branch_dropout(9))

    def test_nonzero_rates_change_scores(self):
        m = init_model(10, 4, 3, seed=8)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_dropout(9, 0.5, 0.5))
        evaluated, _ = forward_batch(m, self.IDS, self.MASK)
        for name in BRANCH_NAMES:
            assert not np.array_equal(trained[name], evaluated[name])


class TestBranchGroups:
    """The four branches step as one stack while a step's recurrent product,
    4 x batch x 4H, fits STACKED_ELEMS, and one at a time above it; either
    grouping gives every score and gradient the same bytes."""

    def test_shape_rule(self):
        m = init_model(10, 4, 8, seed=0)  # 4H = 32
        largest = STACKED_ELEMS // (4 * 4 * m.hidden)
        (group,) = m.groups(largest)
        assert list(group.names) == list(BRANCH_NAMES)
        assert group is m.group
        singles = m.groups(largest + 1)
        assert [name for g in singles for name in g.names] == list(BRANCH_NAMES)
        for k, g in enumerate(singles):  # views of the same stacks
            assert np.shares_memory(g.layer.forward_params.W, m.group.layer.forward_params.W[k])

    def test_branches_are_the_groups_branches(self):
        """`branches[name]` is stack k of the group, a group of one: its
        arrays share memory with the stacks' slice k, a write through it
        lands in the arena, and its blocks are group k's."""
        m = init_model(10, 4, 3, seed=0)
        assert list(m.branches) == list(BRANCH_NAMES)

        def arrays(group):
            params = (group.layer.forward_params, group.layer.backward_params)
            return [group.head_W, group.head_b, *(getattr(p, a) for p in params for a in "WUb")]

        stacks, group_blocks = arrays(m.group), m.group.blocks()
        per_branch = len(group_blocks) // len(BRANCH_NAMES)
        for k, name in enumerate(BRANCH_NAMES):
            branch = m.branches[name]
            assert branch.names == (name,)
            for view, stack in zip(arrays(branch), stacks):
                assert view.shape == stack[k : k + 1].shape
                assert np.shares_memory(view, stack[k])
            m.arena[...] = 0.0
            for view in arrays(branch):
                view += 1.0
            assert all(np.all(stack[k] == 1.0) for stack in stacks)  # at stack k, and only there
            assert m.arena.sum() == sum(stack[k].size for stack in stacks)
            blocks = group_blocks[k * per_branch : (k + 1) * per_branch]
            assert [key for key, _ in branch.blocks()] == [key for key, _ in blocks]
            for (_, mine), (_, theirs) in zip(branch.blocks(), blocks):
                assert mine.ctypes.data == theirs.ctypes.data and mine.shape == theirs.shape
        with pytest.raises(AttributeError):  # read-only: stated once, by the group
            m.branches = {}

    def test_branch_parameters_are_views_of_the_stacks(self):
        m = init_model(10, 4, 3, seed=0, gate_mode="literal_eq9")
        assert m.group.layer.forward_params.W.shape == (4, 12, 4)
        assert m.group.layer.backward_params.gate_activation == BRANCH_NAMES
        assert (m.group.head_W.shape, m.group.head_b.shape) == ((4, 2, 3), (4, 2))
        layer = m.group.layer
        stacks = [getattr(p, a) for p in (layer.forward_params, layer.backward_params)
                  for a in "WUb"]
        for k, name in enumerate(BRANCH_NAMES):
            *lstm_blocks, (_, head_W), (_, head_b) = m.branches[name].blocks()
            for _, arr in lstm_blocks:
                assert any(np.shares_memory(arr, stack[k]) for stack in stacks)
            # each head block is its branch's slice of the head stacks, and no other's
            for block, stack in ((head_W, m.group.head_W), (head_b, m.group.head_b)):
                assert block.shape == stack.shape[1:]
                assert [np.shares_memory(block, stack[j]) for j in range(4)] == [
                    j == k for j in range(4)]

    @staticmethod
    def run(model, ids, mask, groups, monkeypatch):
        """Training scores, every gradient and d_embedded, and eval scores,
        with `groups(model)` as the branch grouping, the gradient arena's
        groups included."""
        monkeypatch.setattr(ParallelModel, "groups", lambda self, batch: groups(self))
        scores, caches = forward_batch(model, ids, mask, branch_dropout(9))
        grad, out = model.zeros_like(), {}
        for (group, cache), grad_group in zip(caches, grad.groups(len(ids)), strict=True):
            d_embedded = branch_backward(
                group, cache, [np.cos(scores[name]) for name in group.names], grad_group)
            for k, name in enumerate(group.names):
                out[name] = (scores[name], dict(grad_group.branch(k).blocks()), next(d_embedded))
        return out, forward_batch(model, ids, mask)[0]

    @pytest.mark.parametrize("gate_mode", ["standard", "literal_eq9"])
    @pytest.mark.parametrize("batch", [3, 70])  # 70: over STACKED_ELEMS, so per branch
    def test_stacked_and_one_at_a_time_give_the_same_bytes(self, gate_mode, batch,
                                                           monkeypatch):
        m = init_model(30, 4, 16, seed=3, gate_mode=gate_mode)
        gen = np.random.default_rng(batch)
        mask = np.arange(6) < gen.integers(1, 6, batch)[:, None]  # the last step is all pad
        ids = np.where(mask, gen.integers(1, 30, (batch, 6)), 0)
        assert len(m.groups(batch)) == (1 if batch == 3 else 4)
        stacked = self.run(m, ids, mask, lambda model: [model.group], monkeypatch)
        single = self.run(m, ids, mask, lambda model: list(model.branches.values()),
                          monkeypatch)
        for name in BRANCH_NAMES:
            (s_scores, s_grads, s_demb), (o_scores, o_grads, o_demb) = (
                stacked[0][name], single[0][name])
            assert s_scores.tobytes() == o_scores.tobytes()
            assert list(s_grads) == list(o_grads)
            for key in s_grads:
                assert s_grads[key].tobytes() == o_grads[key].tobytes(), key
            assert s_demb.tobytes() == o_demb.tobytes()
            assert stacked[1][name].tobytes() == single[1][name].tobytes()


class TestEvalTokenTable:
    IDS = np.array([[2, 3, 2, 7], [3, 5, 2, 2], [9, 9, 0, 0]])  # id 7 sits under the mask
    MASK = np.array([[1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 0]], dtype=bool)

    def test_each_pass_projects_each_distinct_unmasked_id_once(self, monkeypatch):
        m = init_model(10, 4, 3, seed=8)  # embed 4 != hidden 3 tells W from U
        w_rows = []

        def recording(a, b, out=None):
            if a.shape[2] == m.embed_dim:
                w_rows.extend([a.shape[1]] * len(a))  # each branch's projected rows
            return matmul_stacked(a, b, out)

        monkeypatch.setattr(plstm.lstm, "matmul_stacked", recording)
        forward_batch(m, self.IDS, self.MASK)
        assert w_rows == [len(np.unique(self.IDS[self.MASK]))] * 8  # 4 branches x 2 directions

    def test_repeated_ids_match_per_position_training_bitwise(self):
        m = init_model(10, 4, 3, seed=8)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_dropout(9, 0.0, 0.0))
        evaluated, _ = forward_batch(m, self.IDS, self.MASK)
        for name in BRANCH_NAMES:
            assert trained[name].tobytes() == evaluated[name].tobytes()


class TestLeanEval:
    """Eval-mode `forward_batch` builds neither the (L, batch, embed) input
    array nor any BPTT step record, yet still checks every id."""

    L, BATCH, VOCAB = 32, 256, 500

    def batch(self, seed):
        gen = np.random.default_rng(seed)
        lengths = gen.integers(1, self.L + 1, self.BATCH)
        mask = np.arange(self.L) < lengths[:, None]
        return np.where(mask, gen.integers(1, self.VOCAB, (self.BATCH, self.L)), 0), mask

    def test_peak_memory_stays_below_the_input_array(self):
        m = init_model(self.VOCAB, 64, 8, seed=2)
        ids, mask = self.batch(3)
        forward_batch(m, ids, mask)  # warm up numpy's first-call allocations
        tracemalloc.start()
        try:
            forward_batch(m, ids, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.L * self.BATCH * m.embed_dim * 8

    @pytest.mark.parametrize("bad_id", [-1, VOCAB])
    def test_out_of_range_id_under_the_mask_raises(self, bad_id):
        m = init_model(self.VOCAB, 8, 4, seed=2)
        ids, mask = self.batch(4)
        row = int(np.flatnonzero(~mask.all(axis=1))[0])
        ids[row, -1] = bad_id  # a padded position
        with pytest.raises(ValueError, match="out of range"):
            forward_batch(m, ids, mask)


class TestAggregation:
    def test_primary_branch_follows_softmax(self):
        labels = {"softmax": 1, "sigmoid": 0, "relu": 0, "tanh": 0}
        assert aggregate(labels, "primary_branch") == 1

    def test_majority_vote_exhaustive(self):
        for combo in itertools.product([0, 1], repeat=4):
            labels = dict(zip(BRANCH_NAMES, combo))
            expected = 1 if sum(combo) > 2 else 0  # ties go to class 0
            assert aggregate(labels, "majority_vote") == expected

    def test_tie_case_from_contract(self):
        labels = dict(zip(BRANCH_NAMES, (1, 1, 0, 0)))
        assert aggregate(labels, "majority_vote") == 0


class TestSummary:
    def test_total_matches_formula(self):
        m = init_model(10, 4, 3, seed=0)
        text = summary(m)
        assert str(expected_param_count(10, 4, 3)) in text

    def test_identical_models_identical_summaries(self):
        assert summary(init_model(10, 4, 3, seed=1)) == summary(init_model(10, 4, 3, seed=2))

    def test_summary_is_pure(self):
        m = init_model(10, 4, 3, seed=0)
        before = [arr.copy() for _, arr in m.blocks()]
        summary(m)
        for (_, arr), prev in zip(m.blocks(), before):
            assert np.array_equal(arr, prev)
