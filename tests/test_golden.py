"""Golden hashes of short training runs, one per gate mode.

A 4-epoch `plstm train` of `data/train_smoke.cfg` on
`data/synthetic_train.tsv` must write the same `model.ckpt` and
`epochs.csv` bytes as before any change to the numerical kernel. The
hashes were recorded before `tensor.matmul` gained its blocked reduction,
from the rank-1 loop that sums the inner dimension one index at a time; a
change that moves one bit of a weight or a loss fails here. `epochs.csv`
writes each loss with `repr` of a numpy scalar, which under numpy 2 is the
text `np.float64(...)`, not a bare number; the `epochs.csv` hashes were
recorded from that text, so they hold only for numpy 2.

Every line of `synthetic_train.tsv` has six tokens, so that run never
trains on a batch whose rows differ in length. The ragged run trains the
same config on a corpus of 1 to 12 tokens per line at `seq_len=8`, so some
rows pad and some truncate. Its hashes were recorded while every LSTM step
still computed the padded rows and blended them away.
"""

import hashlib

import pytest

from plstm.checkpoint import load_checkpoint
from plstm.cli import main
from plstm.corpus import build_vocabulary, load_labeled_dataset
from plstm.model import BRANCH_NAMES, forward_batch
from plstm.train import encode_dataset

GOLDEN = {
    "standard": {
        "model.ckpt": "895a21b37abeb109fbeff73f70700f1406cd65347059d6e2c8b3af1285a39290",
        "epochs.csv": "558b101407d5907b0a66efdb4080021176d67a0c48574e89129feba23b3d4d20",
    },
    "literal_eq9": {
        "model.ckpt": "169c4f7c398dd56d7f56c962e3f245b98bf643695bd1b94ddf05eb6221e83122",
        "epochs.csv": "129199a317003c22bb317da55149c613004cba40bdd56855d021a1d7677d607d",
    },
}


@pytest.mark.parametrize("gate_mode", sorted(GOLDEN))
def test_four_epoch_smoke_run_matches_golden(data_dir, tmp_path, monkeypatch, gate_mode):
    monkeypatch.delenv("PLSTM_SEED", raising=False)
    cfg = tmp_path / "cfg"
    cfg.write_text((data_dir / "train_smoke.cfg").read_text() + f"gate_mode={gate_mode}\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                 "--config", str(cfg), "--epochs", "4", "--out", str(out)])
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[gate_mode]}
    assert got == GOLDEN[gate_mode]


RAGGED_GOLDEN = {
    "standard": {
        "model.ckpt": "73da1b8b0a9559b67c7fb3fd8bb5f5c559c13b805e2f98eba47cb030699218b8",
        "epochs.csv": "dd06900447f91d9747b3bcdbdfb0721edb49449fec4d4cb3dfb07bce72ddf5bf",
    },
    "literal_eq9": {
        "model.ckpt": "185daff31c729dad152c4fa1e933868fbd14b804f83d71d36fe53dd0478713e1",
        "epochs.csv": "81a6507b00890b81ad2bb9dfa6569f109301d269a953b2ccdd9b92b5269b2347",
    },
}

SARCASTIC = ("sure", "brilliant", "great", "totally", "fantastic", "wow", "oh", "genius")
PLAIN = ("the", "report", "train", "invoice", "garden", "bridge", "meeting", "lovely")


def ragged_corpus() -> str:
    """20 labelled lines of 1 + 7d mod 12 tokens (line d from 0)."""
    lines = []
    for d in range(20):
        words = SARCASTIC if d % 2 else PLAIN
        text = " ".join(words[(3 * d + 5 * k) % len(words)] for k in range(1 + 7 * d % 12))
        lines.append(f"{d + 1}\t{text}\t{d % 2}\n")
    return "".join(lines)


@pytest.mark.parametrize("gate_mode", sorted(RAGGED_GOLDEN))
def test_four_epoch_ragged_run_matches_golden(data_dir, tmp_path, monkeypatch, gate_mode):
    monkeypatch.delenv("PLSTM_SEED", raising=False)
    data = tmp_path / "ragged.tsv"
    data.write_text(ragged_corpus(), encoding="utf-8")
    cfg = tmp_path / "cfg"
    cfg.write_text((data_dir / "train_smoke.cfg").read_text() + f"gate_mode={gate_mode}\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--config", str(cfg), "--epochs", "4",
                 "--out", str(out)])
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in RAGGED_GOLDEN[gate_mode]}
    assert got == RAGGED_GOLDEN[gate_mode]


EVAL_GOLDEN = {
    "standard": {
        "report.csv": "59128b3d73b0e81937daffec8179b26e9f20af2c990a8fe93fff9c7df5970da5",
        "scores": "2c4f179c9466cced74d34804d3a64944beb29e135304006254ca68f6f2ee404e",
    },
    "literal_eq9": {
        "report.csv": "c7540c4073171be826a0dcea71137499e3c31e5890316e3ed1f6cee4891d4be7",
        "scores": "cd9db616993f9687739ada2e2a6d142533d3743dca96aec8594d0e7ddaa22914",
    },
}


@pytest.mark.parametrize("gate_mode", sorted(EVAL_GOLDEN))
def test_ragged_eval_matches_golden(data_dir, tmp_path, monkeypatch, gate_mode):
    """`plstm eval` of a 2-epoch ragged checkpoint on its own corpus: the
    report bytes, and the per-branch eval-mode `forward_batch` scores of the
    whole ragged batch in BRANCH_NAMES order. Recorded while eval still
    built the BPTT step records and the (L, batch, embed) input array."""
    monkeypatch.delenv("PLSTM_SEED", raising=False)
    data = tmp_path / "ragged.tsv"
    data.write_text(ragged_corpus(), encoding="utf-8")
    cfg = tmp_path / "cfg"
    cfg.write_text((data_dir / "train_smoke.cfg").read_text() + f"gate_mode={gate_mode}\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(cfg), "--epochs", "2",
                 "--out", str(out)]) == 0
    report = tmp_path / "report.csv"
    assert main(["eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data),
                 "--out", str(report)]) == 0
    model = load_checkpoint(out / "model.ckpt")
    examples = load_labeled_dataset(data, "tsv")
    encoded = encode_dataset(examples, build_vocabulary([ex.doc for ex in examples]),
                             model.seq_len)
    assert 0 < encoded.mask.sum() < encoded.mask.size  # ragged: some rows pad
    scores, caches = forward_batch(model, encoded.ids, encoded.mask)
    assert caches is None
    digest = hashlib.sha256()
    for name in BRANCH_NAMES:
        digest.update(scores[name].tobytes())
    got = {"report.csv": hashlib.sha256(report.read_bytes()).hexdigest(),
           "scores": digest.hexdigest()}
    assert got == EVAL_GOLDEN[gate_mode]
