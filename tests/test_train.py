import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plstm.train
from plstm.cli import main
from plstm.corpus import Document, LabeledExample, build_vocabulary
from plstm.lstm import GATES
from plstm.model import BRANCH_NAMES, branch_backward, forward_batch, init_model
from plstm.tensor import _BLOCK_ELEMS, _TILE_ROWS, RngStream, categorical_cross_entropy, grad_check
from plstm.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    _clip,
    _clip_rows,
    EncodedDataset,
    TrainConfig,
    adam_step,
    encode_dataset,
    epoch_metrics,
    train,
)
from plstm.worker import scope as worker_scope


def tiny_corpus(n=12):
    sarc = ["oh sure great totally", "wow genius plan sure", "oh totally great wow"]
    plain = ["the train left early", "she read the book", "the garden grew well"]
    examples = []
    for i in range(n):
        text = (sarc if i % 2 else plain)[i % 3]
        examples.append(LabeledExample(Document(i, text), i % 2))
    return examples


def tiny_setup(seed=0, L=6, hidden=4, embed=8):
    examples = tiny_corpus()
    vocab = build_vocabulary([ex.doc for ex in examples])
    data = encode_dataset(examples, vocab, L)
    model = init_model(vocab.size, embed, hidden, seed=seed, seq_len=L)
    return model, data


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0, -2.0, 3.0])
        before = theta.copy()
        adam_step(AdamState(0.01), {"w": theta}, {"w": np.zeros(3)})
        assert np.array_equal(theta, before)

    def test_scalar_hand_check(self):
        theta = np.array([1.0])
        adam_step(AdamState(0.01), {"w": theta}, {"w": np.array([4.0])})
        # m_hat=4, v_hat=16, update = 0.01*4/(4+1e-8)
        assert abs(theta[0] - (1.0 - 0.01 * 4.0 / (4.0 + 1e-8))) < 1e-12
        assert abs(theta[0] - 0.99) < 1e-6

    @pytest.mark.parametrize("g", [1e-3, 1.0, 1e3])
    def test_first_step_magnitude_is_learning_rate(self, g):
        theta = np.array([0.0])
        adam_step(AdamState(0.01), {"w": theta}, {"w": np.array([g])})
        assert abs(abs(theta[0]) - 0.01) < 0.01 * 1e-4

    def test_second_moment_stays_nonnegative(self):
        state = AdamState(0.01)
        theta = np.array([0.5, -0.5])
        rng = RngStream(1)
        for _ in range(200):
            adam_step(state, {"w": theta}, {"w": rng.uniform(-10, 10, 2)})
        assert np.all(state.v["w"] >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            adam_step(AdamState(0.01), {"w": np.zeros(3)}, {"w": np.zeros(4)})


def per_block_adam(theta, g, m, v, t, lr):
    """The per-block Adam update the chunked arena update replaced."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def block_values(gen, size):
    """Values of mixed magnitude, some exactly zero."""
    out = gen.normal(size=size) * 10.0 ** gen.integers(-6, 4, size)
    out[gen.random(size) < 0.1] = 0.0
    return out


class TestChunkedAdam:
    """`adam_step` updates an entry flat, _BLOCK_ELEMS elements at a time;
    over an arena of blocks it gives each block's per-block update."""

    @given(st.lists(st.sampled_from([1, 2, 5, 17, _BLOCK_ELEMS - 1, _BLOCK_ELEMS]),
                    max_size=4),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.01, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_arena_update_equals_per_block_bitwise(self, sizes, seed, lr):
        sizes = [*sizes, 1, _BLOCK_ELEMS + 1, 1]  # 1-element blocks; crosses a chunk boundary
        gen = np.random.default_rng(seed)
        blocks = [block_values(gen, n) for n in sizes]
        arena = np.concatenate(blocks)
        ms, vs = [np.zeros(n) for n in sizes], [np.zeros(n) for n in sizes]
        state = AdamState(lr)
        ends = np.cumsum(sizes)
        for t in (1, 2, 3):
            grads = [block_values(gen, n) for n in sizes]
            adam_step(state, {"arena": arena}, {"arena": np.concatenate(grads)})
            for theta, g, m, v in zip(blocks, grads, ms, vs):
                per_block_adam(theta, g, m, v, t, lr)
            for name, got, want in (("theta", arena, blocks), ("m", state.m["arena"], ms),
                                    ("v", state.v["arena"], vs)):
                for end, block in zip(ends, want):
                    assert got[end - block.size : end].tobytes() == block.tobytes(), (name, t)

    def test_step_allocates_only_two_chunk_buffers(self):
        theta, g = np.zeros(10 ** 6), np.full(10 ** 6, 0.5)
        state = AdamState(0.01)
        adam_step(state, {"w": theta}, {"w": g})  # allocates the moments
        tracemalloc.start()
        try:
            adam_step(state, {"w": theta}, {"w": g})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _BLOCK_ELEMS * 8 + 16384  # and the views' headers; a third buffer fails

    def test_non_contiguous_param_is_rejected(self):
        theta = np.zeros((4, 6))[:, :3]
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(AdamState(0.01), {"w": theta}, {"w": np.ones(theta.shape)})


class TestBatchMemory:
    """What a training batch holds at its memory peak, bounded from the
    layout of what it must hold."""

    @staticmethod
    def train_long_batch():
        """A training batch at the bench's `train_long` shape (B=16, L=64,
        E=128, H=32, dropout 0.6/0.4): (model, ids, mask, a function that
        makes the batch's `dropout` argument, n unmasked positions)."""
        batch, L, E, H, vocab = 16, 64, 128, 32, 50
        gen = np.random.default_rng(12)
        mask = np.arange(L) < gen.integers(1, L + 1, batch)[:, None]
        ids = np.where(mask, gen.integers(1, vocab, (batch, L)), 0)
        model = init_model(vocab, E, H, seed=13, seq_len=L)
        config = TrainConfig()
        assert (config.dropout_embed, config.dropout_recurrent) == (0.6, 0.4)

        def dropout():
            rngs = {name: RngStream(14, k) for k, name in enumerate(BRANCH_NAMES)}
            return config.dropout_embed, config.dropout_recurrent, rngs

        return model, ids, mask, dropout, int(mask.sum())

    @staticmethod
    def traced_peak(run):
        """The traced memory peak of run(), after one untraced run that
        warms up numpy's first-call allocations."""
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_holds_the_records_and_one_projection_over_the_inputs(self):
        """One training batch at the `train_long` shape peaks in the
        second direction's BPTT. It then holds both directions' step
        records (7 floats a unit per unmasked position, branch and
        direction), the unmasked embedding rows once, the embedding dropout
        masks as bits, the gradient arena and that direction's zeroed
        gradients, and a step's working arrays. The bound gives the arena,
        the zeroed gradients and a step's product outputs one projection's
        worth of floats (4 a unit), and slack for the rest: one block of
        product terms, `_BLOCK_ELEMS` float64s, and 768 KB for the states
        and the step index arrays. A float64 table and a float64 mask of
        every branch's inputs, 4·n·E·8 bytes each, do not fit."""
        model, ids, mask, dropout, n = self.train_long_batch()
        targets = plstm.train._one_hot(np.arange(len(ids)) % 2)
        peak = self.traced_peak(
            lambda: plstm.train._batch_grads(model, ids, mask, targets, dropout(), 5.0))
        G, E, H = len(BRANCH_NAMES), model.embed_dim, model.hidden
        records = 2 * G * n * 7 * H * 8
        projection = G * n * 4 * H * 8
        rows, bits = n * E * 8, G * n * E
        slack = _BLOCK_ELEMS * 8 + (768 << 10)
        assert peak <= records + projection + rows + bits + slack

    def test_a_training_forward_pass_holds_the_records_and_the_inputs_only(self):
        """One training `forward_batch` at the `train_long` shape, in this
        process, peaks while its second direction projects or steps. Each
        direction's gate records are its input projection, written over by
        the steps, so it holds at most both directions' step records, the
        unmasked embedding rows once and the dropout masks as bits, plus
        `test_batch_holds_the_records_and_one_projection_over_the_inputs`'s
        slack: no projection beside the records."""
        model, ids, mask, dropout, n = self.train_long_batch()
        peak = self.traced_peak(lambda: forward_batch(model, ids, mask, dropout()))
        G, E, H = len(BRANCH_NAMES), model.embed_dim, model.hidden
        records = 2 * G * n * 7 * H * 8
        rows, bits = n * E * 8, G * n * E
        slack = _BLOCK_ELEMS * 8 + (768 << 10)
        assert peak <= records + rows + bits + slack

    @pytest.mark.parametrize("worker", [False, True], ids=["in_turn", "worker"])
    def test_an_eval_batch_holds_one_projection_and_two_tiles(self, worker):
        """One eval `forward_batch` at the bench's `eval_long` shape (512
        rows, L=64, E=128, H=32, so groups of one) peaks while a direction
        projects or steps. It then holds that direction's input projection
        and two tiles of _TILE_ROWS rows: the gathered rows being projected
        and the product's running term, or a step's pre-activation and its
        term or its projected rows (E = 4H here, so each is a tile of E
        floats a row). The slack covers both directions' states and a
        step's gathered state rows, 6 · batch · H floats, the pass's index
        arrays, 2 ints a position, and 512 KB for the rest of a step's
        working arrays. A gathered table beside the projection does not
        fit. With the worker this process gathers the table only to send
        it, before it projects; the worker's memory is not counted here."""
        batch, L, E, H, vocab = 512, 64, 128, 32, 3000
        gen = np.random.default_rng(21)
        mask = np.arange(L) < gen.integers(5, L + 1, batch)[:, None]
        ids = np.where(mask, gen.integers(1, vocab, (batch, L)), 0)
        model = init_model(vocab, E, H, seed=22, seq_len=L)
        assert [len(group.names) for group in model.groups(batch)] == [1] * len(BRANCH_NAMES)
        with worker_scope() if worker else contextlib.nullcontext():
            forward_batch(model, ids, mask)  # warm up numpy, and start the worker
            tracemalloc.start()
            try:
                forward_batch(model, ids, mask)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        n, positions = len(np.unique(ids[mask])), int(mask.sum())
        projection, tile = n * 4 * H * 8, _TILE_ROWS * E * 8
        slack = 6 * batch * H * 8 + 2 * positions * 8 + (512 << 10)
        assert 2 * tile + slack < n * E * 8  # less than a gathered table
        assert peak <= projection + 2 * tile + slack

class TestBatchGradients:
    def test_each_branch_s_input_gradient_is_dropped_before_the_next_is_made(
            self, monkeypatch):
        """`_batch_grads` clips and scatters each branch's dense input
        gradient and drops it before it asks for the next branch's: while
        any branch's input-gradient rows are made, in either direction, no
        earlier branch's dense gradient is alive."""
        model = init_model(10, 4, 3, seed=8)
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        rngs = {name: RngStream(9, k) for k, name in enumerate(BRANCH_NAMES)}
        dense, alive = [], []
        real_clip_rows, real_input_grad = plstm.train._clip_rows, plstm.lstm._input_grad

        def clip_rows(grad, d_embedded):
            dense.append(weakref.ref(d_embedded))
            return real_clip_rows(grad, d_embedded)

        def input_grad(params, dpre, k):
            alive.append(sum(ref() is not None for ref in dense))
            return real_input_grad(params, dpre, k)

        monkeypatch.setattr(plstm.train, "_clip_rows", clip_rows)
        monkeypatch.setattr(plstm.lstm, "_input_grad", input_grad)
        plstm.train._batch_grads(model, ids, ids > 0, plstm.train._one_hot(np.array([0, 1])),
                                 (0.5, 0.5, rngs), 5.0)
        assert len(dense) == len(BRANCH_NAMES)
        assert alive == [0] * (2 * len(BRANCH_NAMES))  # both directions, every branch

    def test_training_gradient_matches_finite_differences(self):
        """The gradient one training batch takes, `_batch_grads` with
        dropout on and clipping off, embedding scatter included, is the
        gradient of the sum of its branches' losses. Each loss evaluation
        rebuilds the branches' rngs, so it draws the same dropout masks.
        The parameters are drawn up to 0.8, as in criterion 1. The step is
        h=1e-4: at h=1e-5 the differences' own rounding reaches 1.7e-4 of a
        gradient element near 8e-7 here."""
        model = init_model(10, 4, 3, seed=5, seq_len=5)
        rng = RngStream(5, 99)
        for _, arr in model.blocks():
            arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
        model.embedding[0, :] = 0.0
        ids = np.array([[2, 3, 4, 9, 7], [5, 6, 2, 0, 0], [8, 1, 0, 0, 0]])
        mask = ids > 0
        targets = plstm.train._one_hot(np.array([1, 0, 1]))

        def dropout():
            return 0.5, 0.4, {name: RngStream(6, k) for k, name in enumerate(BRANCH_NAMES)}

        def total_loss(_params):
            scores, _ = forward_batch(model, ids, mask, dropout())
            return sum(categorical_cross_entropy(scores[name], targets)[0]
                       for name in BRANCH_NAMES)

        _, grad = plstm.train._batch_grads(model, ids, mask, targets, dropout(), None)
        worst, passed = grad_check(total_loss, dict(model.blocks()), dict(grad.blocks()),
                                   h=1e-4, tol=1e-4)["all"]
        assert passed, worst


def old_clip(arrays, max_norm):
    """The per-block clip that `_clip`'s rows replace."""
    total = 0.0
    for g in arrays:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        for g in arrays:
            g *= max_norm / norm
    return norm


class TestClip:
    @pytest.mark.parametrize("hidden, embed", [(3, 5), (40, 256)])  # 40 x 256 > 8192 a row
    def test_row_sums_equal_per_block_sums_bitwise(self, hidden, embed):
        gen = np.random.default_rng(hidden)
        stack = block_values(gen, 4 * hidden * embed).reshape(4 * hidden, embed)
        row_sums = np.sum((stack * stack).reshape(4, -1), axis=1)
        for k in range(4):
            block = stack[k * hidden : (k + 1) * hidden]
            assert row_sums[k].tobytes() == np.sum(block * block).tobytes()

    @pytest.mark.parametrize("scale", [0.5, 2.0])  # clip fires, clip does not
    def test_clip_equals_the_per_block_clip_bitwise(self, scale):
        gen = np.random.default_rng(5)
        stacks = [block_values(gen, 4 * 40 * 256).reshape(160, 256),
                  block_values(gen, 12), block_values(gen, 3 * 1000).reshape(1, 3, 1000)]
        blocks = [s.copy() for s in (*np.split(stacks[0], 4), stacks[1], stacks[2])]
        norm = old_clip(blocks, np.inf)
        old_clip(blocks, norm * scale)
        _clip([stacks[0].reshape(4, -1), stacks[1].reshape(1, -1), stacks[2].reshape(1, -1)],
              norm * scale)
        assert np.concatenate([s.ravel() for s in stacks]).tobytes() == (
            np.concatenate([b.ravel() for b in blocks]).tobytes())

    def test_clip_rows_follow_the_gradient_block_order(self):
        """`_clip_rows` lists a branch's gradient blocks, named as in its
        gradient group's `blocks()`, in this order: head, then per direction
        W, U and b by gate, then the dense embedded-input gradient, each a
        view."""
        model, data = tiny_setup(seed=3)
        rngs = {name: RngStream(3, k) for k, name in enumerate(BRANCH_NAMES)}
        scores, caches = forward_batch(model, data.ids[:4], data.mask[:4], (0.6, 0.4, rngs))
        grad = model.zeros_like()
        (group, cache), = caches
        (grad_group,) = grad.groups(4)
        d_embeddeds = branch_backward(
            group, cache, [np.cos(scores[name]) for name in group.names], grad_group)
        for k, d_embedded in enumerate(d_embeddeds):
            branch_grads = dict(grad_group.branch(k).blocks())
            rows = [row for arr in _clip_rows(grad_group.branch(k), d_embedded) for row in arr]
            names = [f"{grad_group.names[k]}.{key}" for key in (
                "head_W", "head_b",
                *(f"{d}.{k}_{g}" for d in ("fwd", "bwd") for k in "WUb" for g in GATES))]
            assert sorted(names) == sorted(branch_grads)
            blocks = [*(branch_grads[name] for name in names), d_embedded]
            assert len(rows) == len(blocks)
            for row, block in zip(rows, blocks):
                assert np.shares_memory(row, block) or np.shares_memory(row, d_embedded)
                assert row.tobytes() == block.tobytes()


class TestTrainLoop:
    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()

    def test_one_epoch_one_log(self):
        model, data = tiny_setup()
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0, verbose=0, hidden=4,
                          embed_dim=8, seq_len=6)
        _, logs = train(model, data, cfg)
        assert len(logs) == 1
        assert set(logs[0].loss) == set(BRANCH_NAMES)
        for acc in logs[0].accuracy.values():
            assert 0.0 <= acc <= 100.0

    def test_determinism_bitwise(self):
        results = []
        for _ in range(2):
            model, data = tiny_setup(seed=5)
            cfg = TrainConfig(epochs=3, batch_size=4, seed=5, verbose=0, hidden=4,
                              embed_dim=8, seq_len=6)
            model, logs = train(model, data, cfg)
            results.append((logs, [arr.copy() for _, arr in model.blocks()]))
        (logs_a, params_a), (logs_b, params_b) = results
        for la, lb in zip(logs_a, logs_b):
            assert la.loss == lb.loss
            assert la.accuracy == lb.accuracy
        for pa, pb in zip(params_a, params_b):
            assert np.array_equal(pa, pb)

    def test_loss_decreases_on_overfit_corpus(self):
        model, data = tiny_setup(seed=1)
        cfg = TrainConfig(epochs=30, batch_size=4, seed=1, verbose=0, hidden=4,
                          embed_dim=8, seq_len=6)
        _, logs = train(model, data, cfg)
        assert logs[-1].loss["softmax"] < logs[0].loss["softmax"]

    def test_pad_row_never_moves(self):
        model, data = tiny_setup(seed=2)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=2, verbose=0, hidden=4,
                          embed_dim=8, seq_len=6)
        train(model, data, cfg)
        assert np.array_equal(model.embedding[0], np.zeros(8))

    def test_empty_dataset_rejected(self):
        model, _ = tiny_setup()
        empty = EncodedDataset(np.zeros((0, 6), dtype=np.int64),
                               np.zeros((0, 6), dtype=bool), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train(model, empty, TrainConfig(epochs=1, verbose=0))

    def test_golden_smoke_run_clips_some_branch_batches(self, data_dir, tmp_path,
                                                        monkeypatch):
        """The 4-epoch `train_smoke` run whose bytes tests/test_golden.py
        pins clips some branch-batches and not others, so the goldens cover
        the single Adam update both after a clip and without one."""
        clip = plstm.train._clip
        fired = []

        def counting(arrays, max_norm):
            total = 0.0
            for g in arrays:  # (blocks, n): a row per block, summed as _clip does
                for row_sum in np.sum(g * g, axis=1):
                    total += float(row_sum)
            fired.append(bool(np.sqrt(total) > max_norm))
            clip(arrays, max_norm)

        monkeypatch.setattr(plstm.train, "_clip", counting)
        assert main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(data_dir / "train_smoke.cfg"), "--epochs", "4",
                     "--out", str(tmp_path / "run")]) == 0
        assert len(fired) == 4 * 4 * len(BRANCH_NAMES)  # epochs x batches x branches
        assert 0 < sum(fired) < len(fired)

    def test_shuffle_is_pure_function_of_seed_and_epoch(self):
        a = RngStream(9, 3, 17).permutation(50)
        b = RngStream(9, 3, 17).permutation(50)
        c = RngStream(9, 3, 18).permutation(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEpochMetrics:
    def test_all_correct(self):
        model, data = tiny_setup(seed=4)
        cfg = TrainConfig(epochs=40, batch_size=4, seed=4, verbose=0, hidden=4,
                          embed_dim=8, seq_len=6)
        model, logs = train(model, data, cfg)
        assert epoch_metrics(model, data) == logs[-1].accuracy

    def test_half_correct_arithmetic(self):
        model, data = tiny_setup()
        acc = epoch_metrics(model, data)
        for v in acc.values():
            assert 0.0 <= v <= 100.0

    def test_random_model_near_chance_on_balanced_set(self):
        rng = RngStream(77)
        n, L = 1000, 6
        ids = rng.gen.integers(1, 30, size=(n, L))
        mask = np.ones((n, L), dtype=bool)
        labels = np.arange(n) % 2
        data = EncodedDataset(ids, mask, labels.astype(np.int64))
        model = init_model(30, 8, 4, seed=123, seq_len=L)
        acc = epoch_metrics(model, data)
        assert 40.0 <= acc["softmax"] <= 60.0

    def test_empty_set_rejected(self):
        model, _ = tiny_setup()
        empty = EncodedDataset(np.zeros((0, 6), dtype=np.int64),
                               np.zeros((0, 6), dtype=bool), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            epoch_metrics(model, empty)
