"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `criterion N ...: PASS` line on success; a failure
raises through pytest as usual. Criterion 5 trains the bundled synthetic
corpus for the full 500 epochs, the longest check: 18.5 s of a 58 s tier-1
run on a 2-vCPU Xeon.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from plstm.checkpoint import load_checkpoint, save_checkpoint
from plstm.cli import main
from plstm.corpus import frequency_table, load_plain_text, make_folds
from plstm.evaluation import classification_report, ConfusionCounts, f1_from, render4
from plstm.lstm import GATES, LSTMState, cell_step
from plstm.model import (
    BRANCH_NAMES,
    branch_backward,
    branch_forward,
    embed_ids,
    forward_batch,
    init_model,
)
from plstm.tensor import (
    RngStream,
    activate,
    categorical_cross_entropy,
    grad_check,
)
from plstm.train import AdamState, adam_step

from test_lstm import cell_step_oracle, random_params


def _verdict(num: int, label: str, ok: bool):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    """One full training run of the bundled smoke config, shared by the
    criteria that inspect its outputs."""
    from conftest import DATA

    out = tmp_path_factory.mktemp("overfit")
    start = time.perf_counter()
    code = main(["train", "--data", str(DATA / "synthetic_train.tsv"),
                 "--config", str(DATA / "train_smoke.cfg"), "--out", str(out)])
    seconds = time.perf_counter() - start
    return code, out, seconds


def test_criterion_1_gradient_correctness():
    seed = 3
    model = init_model(10, 4, 3, seed=seed, seq_len=5)
    rng = RngStream(seed, 99)
    for _, arr in model.blocks():
        arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
    model.embedding[0, :] = 0.0

    ids = np.array([[2, 3, 4, 9, 7], [5, 6, 8, 0, 0]])
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=bool)
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    tmask = mask.T  # time-major

    def tokens():  # the per-position token table of the embedding as it is now
        return embed_ids(model, ids)[tmask], None

    def total_loss(_params):
        total = 0.0
        for name in BRANCH_NAMES:
            (scores,), _ = branch_forward(model.branches[name], tmask, tokens())
            total += categorical_cross_entropy(scores, targets)[0]
        return total

    grad = model.zeros_like()
    for name in BRANCH_NAMES:
        (scores,), cache = branch_forward(model.branches[name], tmask, tokens())
        _, d_scores = categorical_cross_entropy(scores, targets)
        (d_embedded,) = branch_backward(model.branches[name], cache, [d_scores],
                                        grad.branches[name])
        for t in range(ids.shape[1]):
            np.add.at(grad.embedding, ids[:, t], d_embedded[t])
    grad.embedding[0, :] = 0.0
    analytic = dict(grad.blocks())

    params = dict(model.blocks())

    start = time.perf_counter()
    report = grad_check(total_loss, params, analytic, h=1e-5, tol=1e-4)
    seconds = time.perf_counter() - start
    worst, passed = report["all"]
    _verdict(1, f"gradients vs finite differences, worst rel err {worst:.2e}, "
                f"{seconds:.1f}s", passed and seconds < 60.0)


def test_criterion_2_cell_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        hidden = int(rng.integers(1, 6))
        embed = int(rng.integers(1, 6))
        params = random_params(hidden, embed, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=embed)
        h_prev = rng.normal(size=hidden)
        c_prev = rng.normal(size=hidden)
        got = cell_step(params, x, LSTMState(h_prev[None, :], c_prev[None, :]))
        want_h, want_c = cell_step_oracle(params, x, h_prev, c_prev)
        worst = max(worst,
                    float(np.abs(got.h[0] - want_h).max()),
                    float(np.abs(got.c[0] - want_c).max()))
    _verdict(2, f"1000 random cell steps vs scalar oracle, max err {worst:.2e}",
             worst <= 1e-12)


def test_criterion_3_activation_loss_analytics():
    ok = activate("sigmoid", np.array([[0.0]]))[0, 0] == 0.5
    ok = ok and activate("tanh", np.array([[0.0]]))[0, 0] == 0.0
    rng = np.random.default_rng(23)
    rows = activate("softmax", rng.normal(scale=5.0, size=(1000, 7)))
    ok = ok and float(np.abs(rows.sum(axis=1) - 1.0).max()) <= 1e-12
    loss, _ = categorical_cross_entropy(np.array([[0.5, 0.5]]),
                                        np.array([[1.0, 0.0]]))
    ok = ok and abs(loss - math.log(2.0)) <= 1e-12
    _verdict(3, "activation fixed points, softmax row sums, ln 2 loss", ok)


def test_criterion_4_adam_hand_check():
    theta = np.array([1.0])
    state = AdamState(learning_rate=0.01)
    adam_step(state, {"w": theta}, {"w": np.array([4.0])})
    ok = abs(theta[0] - 0.99) <= 1e-6
    for g in (1e-3, 1.0, 1e3):
        p = np.array([0.0])
        st = AdamState(learning_rate=0.01)
        adam_step(st, {"w": p}, {"w": np.array([g])})
        ok = ok and abs(abs(p[0]) - 0.01) <= 1e-5
    _verdict(4, "scalar update 1.0 -> 0.99 and first-step size = lr", ok)


def test_criterion_5_overfit_synthetic_corpus(overfit_run):
    code, out, seconds = overfit_run
    final = {}
    for line in (out / "epochs.csv").read_text().splitlines()[1:]:
        epoch, branch, loss, acc = line.split(",")
        final[branch] = float(acc)
    ok = (code == 0 and (out / "model.ckpt").exists()
          and final["softmax"] >= 95.0 and final["sigmoid"] >= 90.0
          and seconds < 300.0)
    _verdict(5, f"500-epoch overfit: softmax {final['softmax']:.1f}%, "
                f"sigmoid {final['sigmoid']:.1f}%, {seconds:.0f}s", ok)


def test_criterion_6_metrics():
    report = classification_report(ConfusionCounts(tp=9, fp=1, fn=1, tn=9))
    nine_tenths = Fraction(9, 10)
    ok = (report.precision == nine_tenths and report.recall == nine_tenths
          and report.f1 == nine_tenths and report.accuracy == nine_tenths)
    ok = ok and render4(f1_from(Fraction(99, 100), Fraction(98, 100))) == "0.9850"
    _verdict(6, "exact 0.9 report and F1(0.99, 0.98) renders 0.9850", ok)


def test_criterion_7_fold_protocol():
    plan = make_folds(690, k=5, train_fraction=0.6, seed=0)
    ok = len(plan.folds) == 5
    for train_idx, test_idx in plan.folds:
        ok = ok and len(train_idx) == 414 and len(test_idx) == 276
        ok = ok and not (set(train_idx) & set(test_idx))
        ok = ok and set(train_idx) | set(test_idx) == set(range(690))
    _verdict(7, "5 shuffles of 690 into disjoint covering 414/276 splits", ok)


def test_criterion_8_determinism(tmp_path):
    from conftest import DATA

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["train", "--data", str(DATA / "synthetic_train.tsv"),
                     "--config", str(DATA / "train_smoke.cfg"),
                     "--epochs", "4", "--out", str(out)])
        assert code == 0
        outs.append(out)
    ok = ((outs[0] / "epochs.csv").read_bytes() == (outs[1] / "epochs.csv").read_bytes()
          and (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes())
    model = load_checkpoint(outs[0] / "model.ckpt")
    save_checkpoint(model, tmp_path / "again.ckpt")
    ok = ok and (tmp_path / "again.ckpt").read_bytes() == (outs[0] / "model.ckpt").read_bytes()
    _verdict(8, "byte-identical reruns and bitwise checkpoint round-trip", ok)


def test_criterion_9_pad_mask_invariance():
    model = init_model(12, 6, 4, seed=5, seq_len=7)
    rng = np.random.default_rng(31)
    ids = rng.integers(2, 12, size=(3, 7))
    lengths = [7, 4, 1]
    mask = np.array([[t < n for t in range(7)] for n in lengths])
    for row, n in zip(ids, lengths):
        row[n:] = 0
    padded_ids = np.concatenate([ids, np.zeros((3, 3), dtype=ids.dtype)], axis=1)
    padded_mask = np.concatenate([mask, np.zeros((3, 3), dtype=bool)], axis=1)
    base, _ = forward_batch(model, ids, mask)
    wide, _ = forward_batch(model, padded_ids, padded_mask)
    ok = all(np.array_equal(base[name], wide[name]) for name in BRANCH_NAMES)
    _verdict(9, "appending pad tokens leaves eval scores bitwise unchanged", ok)


def test_criterion_10_reference_corpus_statistics():
    from conftest import DATA

    path = DATA / "mustard_text.txt"
    if not path.exists():
        print("criterion 10 (reference corpus statistics): SKIP, dataset absent")
        pytest.skip("reference corpus not bundled")
    docs = load_plain_text(path)
    table = frequency_table(docs, top_k=1)
    word, count, _ = table.entries[0]
    _verdict(10, "690 documents, top word 'oh' x74",
             len(docs) == 690 and word == "oh" and count == 74)
