"""Golden hashes of a short training run, one per gate mode.

A 4-epoch `plstm train` of `data/train_smoke.cfg` on
`data/synthetic_train.tsv` must write the same `model.ckpt` and
`epochs.csv` bytes as before any change to the numerical kernel. The
hashes were recorded before `tensor.matmul` gained its blocked reduction,
from the rank-1 loop that sums the inner dimension one index at a time; a
change that moves one bit of a weight or a loss fails here. `epochs.csv`
writes each loss with `repr`, so its hash holds for numpy 2.
"""

import hashlib

import pytest

from plstm.cli import main

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
