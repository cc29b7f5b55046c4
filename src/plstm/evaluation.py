"""Confusion-matrix metrics and the cross-training benchmark protocol.

Metrics are computed in exact rational arithmetic and rendered half-up to
four decimals. The benchmark runs 5 random 3:2 train/test shuffles per
dataset, trains a fresh model per fold, and then scores the final fold's
model on the ENTIRE corpus — training examples included — so the resulting
figure is reported as "entire-corpus accuracy", never as held-out accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .corpus import build_vocabulary, make_folds
from .model import BRANCH_NAMES, init_model
from .train import EncodedDataset, TrainConfig, encode_dataset, epoch_metrics, train


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class ClassificationReport:
    precision: Fraction
    recall: Fraction
    f1: Fraction
    accuracy: Fraction


@dataclass
class BenchmarkResult:
    dataset: str
    vocab_len: int
    mean_train_acc: dict  # branch -> percent over folds
    entire_corpus_acc: dict  # branch -> percent, train data included
    skipped: str = ""  # non-empty reason when the dataset could not run


def confusion(predictions, truths) -> ConfusionCounts:
    """Counts with sarcastic (label 1) as the positive class."""
    predictions = list(predictions)
    truths = list(truths)
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths differ in length")
    if not predictions:
        raise ValueError("empty input")
    tp = fp = fn = tn = 0
    for p, t in zip(predictions, truths):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


def classification_report(counts: ConfusionCounts) -> ClassificationReport:
    """Precision/recall/F1/accuracy as exact fractions; 0 where undefined."""
    if counts.total == 0:
        raise ValueError("no examples")
    p = Fraction(counts.tp, counts.tp + counts.fp) if counts.tp + counts.fp else Fraction(0)
    r = Fraction(counts.tp, counts.tp + counts.fn) if counts.tp + counts.fn else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    acc = Fraction(counts.tp + counts.tn, counts.total)
    return ClassificationReport(p, r, f1, acc)


def render4(value) -> str:
    """Half-up rendering to 4 decimal places, e.g. 0.9850."""
    num = Decimal(value.numerator) / Decimal(value.denominator) if isinstance(
        value, Fraction) else Decimal(repr(float(value)))
    return str(num.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def f1_from(precision, recall) -> Fraction:
    p = Fraction(precision).limit_denominator(10**6)
    r = Fraction(recall).limit_denominator(10**6)
    return 2 * p * r / (p + r) if p + r else Fraction(0)


def benchmark(datasets, config: TrainConfig, k: int = 5, train_fraction: float = 0.6):
    """Run the cross-training protocol over (name, examples) pairs.

    Per dataset: vocabulary on the whole corpus, k random train/test
    shuffles, a fresh model trained per fold (seed offset by fold index),
    mean final-epoch train accuracy across folds, and the final fold
    model's accuracy over the entire corpus. Unusable datasets come back
    with a recorded skip reason instead of failing the batch.
    """
    results = []
    for name, examples in datasets:
        if examples is None:
            results.append(BenchmarkResult(name, 0, {}, {}, skipped="no labels available"))
            continue
        n = len(examples)
        if n < k:
            results.append(BenchmarkResult(name, 0, {}, {},
                                           skipped=f"only {n} examples for {k} folds"))
            continue
        vocab = build_vocabulary([ex.doc for ex in examples])
        data = encode_dataset(examples, vocab, config.seq_len)
        plan = make_folds(n, k, train_fraction, config.seed)
        fold_accs = []
        final_model = None
        for fold_idx, (train_idx, _test_idx) in enumerate(plan.folds):
            model = init_model(
                vocab.size, config.embed_dim, config.hidden,
                seed=config.seed + fold_idx, seq_len=config.seq_len,
                aggregation=config.aggregation, gate_mode=config.gate_mode,
                dropout_embed=config.dropout_embed,
                dropout_recurrent=config.dropout_recurrent,
            )
            subset = EncodedDataset(data.ids[train_idx], data.mask[train_idx],
                                    data.labels[train_idx])
            quiet = TrainConfig(**{**config.__dict__, "verbose": 0})
            _, logs = train(model, subset, quiet)
            fold_accs.append(logs[-1].accuracy)
            final_model = model
        mean_train = {
            b: float(np.mean([fa[b] for fa in fold_accs])) for b in BRANCH_NAMES
        }
        entire = epoch_metrics(final_model, data)
        results.append(BenchmarkResult(name, vocab.size, mean_train, entire))
    return results
