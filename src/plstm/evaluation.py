"""Confusion-matrix metrics and the cross-training benchmark protocol.

Metrics are computed in exact rational arithmetic and rendered half-up to
four decimals. The benchmark scores one labeled dataset: it runs 5 random
3:2 train/test shuffles, trains a fresh model per fold, and then scores the
final fold's model on the ENTIRE corpus — training examples included — so
the resulting figure is reported as "entire-corpus accuracy", never as
held-out accuracy. A dataset it cannot score raises `CorpusError`; looping
over datasets and skipping those is `plstm benchmark`'s job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .corpus import make_folds
from .model import BRANCH_NAMES
from .train import EncodedDataset, TrainConfig, build_model, encode_dataset, epoch_metrics, train

K_FOLDS = 5
TRAIN_FRACTION = 0.6


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
    vocab_len: int
    mean_train_acc: dict  # branch -> percent over folds
    entire_corpus_acc: dict  # branch -> percent, train data included


def confusion(predictions, truths) -> ConfusionCounts:
    """Counts with sarcastic (label 1) as the positive class."""
    predictions = list(predictions)
    truths = list(truths)
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths differ in length")
    if not predictions:
        raise ValueError("empty input")
    pairs = Counter(zip(predictions, truths))  # (prediction, truth) -> count
    tp, fp, fn = pairs[1, 1], pairs[1, 0], pairs[0, 1]
    return ConfusionCounts(tp, fp, fn, len(predictions) - tp - fp - fn)


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


def benchmark(examples, vocab, config: TrainConfig) -> BenchmarkResult:
    """Run the cross-training protocol on one labeled dataset.

    `vocab` is built on the whole corpus. K_FOLDS random train/test
    shuffles of TRAIN_FRACTION each train a fresh model per fold (seed
    offset by fold index); the result holds the mean final-epoch train
    accuracy across folds and the final fold model's accuracy over the
    entire corpus. A dataset the protocol cannot run on, such as one with
    fewer than K_FOLDS examples, raises CorpusError.
    """
    data = encode_dataset(examples, vocab, config.seq_len)
    plan = make_folds(len(examples), K_FOLDS, TRAIN_FRACTION, config.seed)
    quiet = replace(config, verbose=0)
    fold_accs = []
    for fold_idx, (train_idx, _test_idx) in enumerate(plan.folds):
        model = build_model(config, vocab.size, config.seed + fold_idx)
        subset = EncodedDataset(data.ids[train_idx], data.mask[train_idx],
                                data.labels[train_idx])
        _, logs = train(model, subset, quiet)
        fold_accs.append(logs[-1].accuracy)
    mean_train = {b: float(np.mean([fa[b] for fa in fold_accs])) for b in BRANCH_NAMES}
    return BenchmarkResult(vocab.size, mean_train, epoch_metrics(model, data))
