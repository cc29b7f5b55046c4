"""Golden hashes of short training runs, one per gate mode.

A 4-epoch `plstm train` of `data/train_smoke.cfg` on
`data/synthetic_train.tsv` must write the same `model.ckpt` and
`epochs.csv` bytes as before any change to the numerical kernel. The
hashes were recorded before `tensor.matmul` gained its blocked reduction,
from the rank-1 loop that sums the inner dimension one index at a time; a
change that moves one bit of a weight or a loss fails here. `epochs.csv`
writes each loss with `repr` of a numpy scalar, which under numpy 2 is the
text `np.float64(...)`, not a bare number; the `epochs.csv` hashes were
recorded from that text, so they hold only for numpy 2. The `model.ckpt`
hashes are of the version 2 checkpoint, whose payload is the parameter
arena: they were re-recorded when the format changed, from files whose
payloads equal the arenas the version 1 reader loaded from the same runs,
so no parameter moved.

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
        "model.ckpt": "3617146549d338cb68e06b4099afffe92cd936630f6e4af327fab542dc857eb1",
        "epochs.csv": "558b101407d5907b0a66efdb4080021176d67a0c48574e89129feba23b3d4d20",
    },
    "literal_eq9": {
        "model.ckpt": "fe651cb9cb52203bde92798d4412724a646c1b2d3a71a572409eff766b8d7e15",
        "epochs.csv": "129199a317003c22bb317da55149c613004cba40bdd56855d021a1d7677d607d",
    },
}


@pytest.mark.parametrize("gate_mode", sorted(GOLDEN))
def test_four_epoch_smoke_run_matches_golden(data_dir, tmp_path, gate_mode):
    cfg = tmp_path / "cfg"
    cfg.write_text(with_lines((data_dir / "train_smoke.cfg").read_text(),
                              f"gate_mode={gate_mode}"))
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                 "--config", str(cfg), "--epochs", "4", "--out", str(out)])
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[gate_mode]}
    assert got == GOLDEN[gate_mode]


RAGGED_GOLDEN = {
    "standard": {
        "model.ckpt": "338df90a29c3d5375c545921cf63893b1bbb1fe7d6fe856fd3954ceca87ef7d2",
        "epochs.csv": "dd06900447f91d9747b3bcdbdfb0721edb49449fec4d4cb3dfb07bce72ddf5bf",
    },
    "literal_eq9": {
        "model.ckpt": "b3535c6e3f935b5ad8e8e44e3a9a6c9a33932916a1a4bdf4af890551270fe5dd",
        "epochs.csv": "81a6507b00890b81ad2bb9dfa6569f109301d269a953b2ccdd9b92b5269b2347",
    },
}

SARCASTIC = ("sure", "brilliant", "great", "totally", "fantastic", "wow", "oh", "genius")
PLAIN = ("the", "report", "train", "invoice", "garden", "bridge", "meeting", "lovely")


def with_lines(config: str, *lines: str) -> str:
    """Config text `config` with each `key=value` line of `lines` in place
    of the line that sets its key, else appended, as a config sets a key
    once."""
    keys = {line.partition("=")[0] for line in lines}
    kept = [line for line in config.splitlines() if line.partition("=")[0] not in keys]
    return "".join(f"{line}\n" for line in [*kept, *lines])


def ragged_corpus() -> str:
    """20 labelled lines of 1 + 7d mod 12 tokens (line d from 0)."""
    lines = []
    for d in range(20):
        words = SARCASTIC if d % 2 else PLAIN
        text = " ".join(words[(3 * d + 5 * k) % len(words)] for k in range(1 + 7 * d % 12))
        lines.append(f"{d + 1}\t{text}\t{d % 2}\n")
    return "".join(lines)


@pytest.mark.parametrize("gate_mode", sorted(RAGGED_GOLDEN))
def test_four_epoch_ragged_run_matches_golden(data_dir, tmp_path, gate_mode):
    data = tmp_path / "ragged.tsv"
    data.write_text(ragged_corpus(), encoding="utf-8")
    cfg = tmp_path / "cfg"
    cfg.write_text(with_lines((data_dir / "train_smoke.cfg").read_text(),
                              f"gate_mode={gate_mode}"))
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
        "report.csv": "334e5913464b3b2959e281d32dceff085f87efc571974706734021556befacb0",
        "scores": "81f1f5352ac640b95c587e7d683c82474f0933642bf4f15c08b7788b34be693f",
    },
}


@pytest.mark.parametrize("gate_mode", sorted(EVAL_GOLDEN))
def test_ragged_eval_matches_golden(data_dir, tmp_path, gate_mode):
    """`plstm eval` of a 2-epoch ragged checkpoint on its own corpus: the
    report bytes, and the per-branch eval-mode `forward_batch` scores of the
    whole ragged batch in BRANCH_NAMES order. Recorded while eval still
    built the BPTT step records and the (L, batch, embed) input array. The
    literal_eq9 hashes were re-recorded when the checkpoint began to carry
    the gate mode, which a load used to set to sigmoid: they are the bytes
    of the trained model as it was in memory."""
    data = tmp_path / "ragged.tsv"
    data.write_text(ragged_corpus(), encoding="utf-8")
    cfg = tmp_path / "cfg"
    cfg.write_text(with_lines((data_dir / "train_smoke.cfg").read_text(),
                              f"gate_mode={gate_mode}"))
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
