import itertools
import tracemalloc

import numpy as np
import pytest

import plstm.lstm
from plstm.corpus import EncodedSequence
from plstm.lstm import BidirectionalLayer, LSTMCellParams
from plstm.model import (
    BRANCH_NAMES,
    Branch,
    aggregate,
    branch_backward,
    branch_forward,
    embed_ids,
    expected_param_count,
    forward_batch,
    init_model,
    summary,
)
from plstm.tensor import RngStream, categorical_cross_entropy, grad_check, matmul


def encoded(ids, L):
    arr = np.zeros(L, dtype=np.int64)
    mask = np.zeros(L, dtype=bool)
    arr[: len(ids)] = ids
    mask[: len(ids)] = True
    return EncodedSequence(arr, mask, len(ids))


def zero_branch(name, hidden=3, embed=2):
    layer = BidirectionalLayer(LSTMCellParams.zeros(hidden, embed), LSTMCellParams.zeros(hidden, embed))
    return Branch(name, layer, np.zeros((2, hidden)), np.zeros(2), 0.0, 0.0)


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
        assert m.branches["relu"].layer.forward_params.gate_activation == "relu"
        std = init_model(6, 4, 3, seed=0)
        assert std.branches["relu"].layer.forward_params.gate_activation == "sigmoid"


class TestBranchForward:
    def embedded(self, L=3, batch=1, embed=2, seed=0):
        return RngStream(seed).uniform(-1, 1, (L, batch, embed))

    def test_zero_softmax_branch(self):
        scores, _ = branch_forward(zero_branch("softmax"), self.embedded(), None)
        assert np.allclose(scores, [[0.5, 0.5]])

    def test_zero_tanh_branch(self):
        scores, _ = branch_forward(zero_branch("tanh"), self.embedded(), None)
        assert np.array_equal(scores, [[0.0, 0.0]])

    def test_softmax_scores_sum_to_one(self):
        m = init_model(10, 4, 3, seed=5)
        for trial in range(20):
            ids = RngStream(trial).gen.integers(1, 10, size=(1, 5))
            scores, _ = branch_forward(
                m.branches["softmax"], embed_ids(m, ids), None
            )
            assert abs(scores.sum() - 1.0) < 1e-12


class TestBranchBackward:
    @pytest.mark.parametrize("name", BRANCH_NAMES)
    def test_literal_gate_mode_matches_finite_differences(self, name):
        # each branch's i/f/o gates use its own activation, softmax per gate
        branch = init_model(6, 2, 3, seed=1, gate_mode="literal_eq9").branches[name]
        rng = RngStream(2)
        for _, arr in branch.blocks():
            arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
        embedded = rng.uniform(-1, 1, (3, 2, 2))
        mask = np.array([[True, True], [True, True], [True, False]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])

        def loss(_params):
            scores, _ = branch_forward(branch, embedded, mask)
            return categorical_cross_entropy(scores, targets)[0]

        scores, cache = branch_forward(branch, embedded, mask)
        _, d_scores = categorical_cross_entropy(scores, targets)
        grads, _ = branch_backward(branch, cache, d_scores)
        worst, passed = grad_check(loss, dict(branch.blocks()), grads)["all"]
        assert passed, worst


def forward_one(model, seq):
    scores, _ = forward_batch(model, seq.ids[None, :], seq.mask[None, :])
    return {name: row[0] for name, row in scores.items()}


def branch_rngs(seed):
    return {name: RngStream(seed, b_idx) for b_idx, name in enumerate(BRANCH_NAMES)}


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
        scores, caches = forward_batch(m, self.IDS, self.MASK, branch_rngs(9))
        assert list(caches) == list(BRANCH_NAMES)
        for name in BRANCH_NAMES:
            grads, d_embedded = branch_backward(m.branches[name], caches[name],
                                                np.ones_like(scores[name]))
            assert set(grads) == {key for key, _ in m.branches[name].blocks()}
            assert d_embedded.shape == (4, 2, 4)

    def test_zero_rates_match_eval_bitwise(self):
        m = init_model(10, 4, 3, seed=8, dropout_embed=0.0, dropout_recurrent=0.0)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_rngs(9))
        evaluated, caches = forward_batch(m, self.IDS, self.MASK)
        assert caches is None
        for name in BRANCH_NAMES:
            assert np.array_equal(trained[name], evaluated[name])

    def test_nonzero_rates_change_scores(self):
        m = init_model(10, 4, 3, seed=8, dropout_embed=0.5, dropout_recurrent=0.5)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_rngs(9))
        evaluated, _ = forward_batch(m, self.IDS, self.MASK)
        for name in BRANCH_NAMES:
            assert not np.array_equal(trained[name], evaluated[name])


class TestEvalTokenTable:
    IDS = np.array([[2, 3, 2, 7], [3, 5, 2, 2], [9, 9, 0, 0]])  # id 7 sits under the mask
    MASK = np.array([[1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 0]], dtype=bool)

    def test_each_pass_projects_each_distinct_unmasked_id_once(self, monkeypatch):
        m = init_model(10, 4, 3, seed=8)  # embed 4 != hidden 3 tells W from U
        w_rows = []

        def recording(a, b):
            if b.shape[0] == m.embed_dim:
                w_rows.append(len(a))
            return matmul(a, b)

        monkeypatch.setattr(plstm.lstm, "matmul", recording)
        forward_batch(m, self.IDS, self.MASK)
        assert w_rows == [len(np.unique(self.IDS[self.MASK]))] * 8  # 4 branches x 2 directions

    def test_repeated_ids_match_per_position_training_bitwise(self):
        m = init_model(10, 4, 3, seed=8, dropout_embed=0.0, dropout_recurrent=0.0)
        trained, _ = forward_batch(m, self.IDS, self.MASK, branch_rngs(9))
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
