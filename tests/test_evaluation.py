from fractions import Fraction

import numpy as np
import pytest

from plstm.corpus import CorpusError, Document, LabeledExample, build_vocabulary
from plstm.evaluation import (
    BenchmarkResult,
    ConfusionCounts,
    benchmark,
    classification_report,
    confusion,
    f1_from,
    render4,
)
from plstm.train import TrainConfig


class TestConfusion:
    def test_basic_counts(self):
        c = confusion([1, 1, 0], [1, 1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_false_positive(self):
        c = confusion([1], [0])
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 1, 0, 0)

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, 10000)
        truths = rng.integers(0, 2, 10000)
        c = confusion(preds.tolist(), truths.tolist())
        assert c.tp == int(np.sum((preds == 1) & (truths == 1)))
        assert c.fp == int(np.sum((preds == 1) & (truths == 0)))
        assert c.fn == int(np.sum((preds == 0) & (truths == 1)))
        assert c.tn == int(np.sum((preds == 0) & (truths == 0)))
        assert c.total == 10000

    def test_numpy_ints_count_as_their_lists(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, 200)
        truths = rng.integers(0, 2, 200)
        assert confusion(preds, truths) == confusion(preds.tolist(), truths.tolist())
        assert confusion(preds.astype(np.int8), truths) == confusion(preds.tolist(),
                                                                     truths.tolist())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            confusion([], [])


class TestClassificationReport:
    def test_symmetric_case_exact(self):
        r = classification_report(ConfusionCounts(tp=9, fp=1, fn=1, tn=9))
        assert r.precision == Fraction(9, 10)
        assert r.recall == Fraction(9, 10)
        assert r.f1 == Fraction(9, 10)
        assert r.accuracy == Fraction(9, 10)

    def test_f1_rendering_from_published_precision_recall(self):
        f1 = f1_from(0.99, 0.98)
        assert render4(f1) == "0.9850"  # 2*0.9702/1.97 = 0.98497...

    def test_degenerate_precision(self):
        r = classification_report(ConfusionCounts(tp=0, fp=0, fn=5, tn=5))
        assert r.precision == 0
        assert r.recall == 0
        assert r.f1 == 0
        assert r.accuracy == Fraction(1, 2)

    def test_harmonic_mean_bound_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + fp + fn + tn == 0:
                continue
            r = classification_report(ConfusionCounts(tp, fp, fn, tn))
            assert min(r.precision, r.recall) <= r.f1 <= max(r.precision, r.recall)
            assert 0 <= r.accuracy <= 1

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            classification_report(ConfusionCounts(0, 0, 0, 0))


def synthetic_examples(n, seed, sarcastic_words, plain_words):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        words = sarcastic_words if i % 2 else plain_words
        text = " ".join(rng.permutation(words)[:4])
        out.append(LabeledExample(Document(i, text), i % 2))
    return out


BENCH_CFG = TrainConfig(epochs=2, batch_size=6, seed=0, verbose=0, hidden=4,
                        embed_dim=8, seq_len=5)


def run_benchmark(examples):
    return benchmark(examples, build_vocabulary([ex.doc for ex in examples]), BENCH_CFG)


class TestBenchmark:
    def test_minimal_fold_sizes(self):
        examples = synthetic_examples(5, 0, ["oh", "sure", "wow", "great"],
                                      ["the", "dog", "ran", "home"])
        assert run_benchmark(examples).vocab_len > 0

    def test_reports_all_branches(self):
        examples = synthetic_examples(20, 1, ["oh", "sure", "wow", "great"],
                                      ["the", "dog", "ran", "home"])
        r = run_benchmark(examples)
        assert set(r.mean_train_acc) == {"softmax", "sigmoid", "relu", "tanh"}
        for v in list(r.mean_train_acc.values()) + list(r.entire_corpus_acc.values()):
            assert 0.0 <= v <= 100.0

    def test_deterministic(self):
        examples = synthetic_examples(20, 2, ["oh", "sure", "wow", "great"],
                                      ["the", "dog", "ran", "home"])
        assert run_benchmark(examples) == run_benchmark(examples)

    def test_too_small_dataset_skipped(self):
        """Fewer examples than folds raises; `plstm benchmark` skips the
        dataset on that error."""
        examples = synthetic_examples(3, 3, ["a", "b", "c", "d"], ["e", "f", "g", "h"])
        with pytest.raises(CorpusError, match="only 3 examples for 5 folds"):
            run_benchmark(examples)
