import numpy as np
import pytest

from plstm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from plstm.cli import ConfigError, load_config, main
from plstm.model import init_model

SMOKE_CFG_TEXT = """\
embedding_dim=8
hidden=4
seq_len=6
epochs=2
batch_size=8
verbose=0
seed=3
"""


@pytest.fixture
def smoke_cfg(tmp_path):
    p = tmp_path / "cfg"
    p.write_text(SMOKE_CFG_TEXT)
    return p


class TestConfig:
    def test_load_round_trip(self, smoke_cfg):
        cfg = load_config(smoke_cfg)
        assert cfg.embed_dim == 8
        assert cfg.hidden == 4
        assert cfg.epochs == 2

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus=1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("epochs=soon\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_none_disables_clipping_only(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("clip_norm=none\n")
        assert load_config(p).clip_norm is None
        p.write_text("epochs=none\n")
        with pytest.raises(ConfigError):
            load_config(p)


class TestStats:
    def test_golden_csv(self, data_dir, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        code = main(["stats", "--data", str(data_dir / "stats_sample.txt"),
                     "--top-k", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text() == (data_dir / "stats_golden.csv").read_text()
        captured = capsys.readouterr().out
        assert "documents: 3" in captured
        assert "tokens: 11" in captured

    def test_missing_file_exit_2_no_partial_output(self, tmp_path):
        out = tmp_path / "freq.csv"
        code = main(["stats", "--data", str(tmp_path / "nope.txt"), "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestTrain:
    def test_smoke_run_writes_outputs(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--out", str(out)])
        assert code == 0
        for name in ("model.ckpt", "epochs.csv", "config_resolved.cfg", "summary.txt"):
            assert (out / name).exists()
        assert (out / "epochs.csv").read_text().startswith("epoch,branch,loss,accuracy\n")

    def test_epochs_zero_exit_3(self, data_dir, tmp_path, smoke_cfg):
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--epochs", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 3

    @pytest.mark.parametrize("line", [
        "epochs=none", "gate_mode=bogus", "hidden=0", "embedding_dim=0", "seq_len=0",
        "dropout_embed=1.0", "dropout_recurrent=-0.1", "aggregation=bogus",
        "clip_norm=-1.0", "clip_norm=0", "learning_rate=nan", "learning_rate=-0.01",
    ])
    def test_bad_config_value_exit_3(self, data_dir, tmp_path, line, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE_CFG_TEXT + line + "\n")
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_negative_seed_exit_3(self, data_dir, tmp_path, smoke_cfg, capsys):
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--seed", "-1", "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_non_integer_env_seed_exit_3(self, data_dir, tmp_path, smoke_cfg, capsys,
                                         monkeypatch):
        monkeypatch.setenv("PLSTM_SEED", "x")
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_data_exit_2(self, tmp_path, smoke_cfg):
        code = main(["train", "--data", str(tmp_path / "nope.tsv"),
                     "--config", str(smoke_cfg), "--out", str(tmp_path / "run")])
        assert code == 2

    def test_byte_identical_reruns(self, data_dir, tmp_path, smoke_cfg):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                         "--config", str(smoke_cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("epochs.csv", "model.ckpt", "config_resolved.cfg", "summary.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestEval:
    def test_self_consistency_with_training_log(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--out", str(out)]) == 0
        report = tmp_path / "report.csv"
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(data_dir / "synthetic_train.tsv"),
                     "--out", str(report)]) == 0
        last = {}
        for line in (out / "epochs.csv").read_text().splitlines()[1:]:
            epoch, branch, loss, acc = line.split(",")
            last[branch] = float(acc)
        for line in report.read_text().splitlines()[1:]:
            branch, p, r, f1, acc = line.split(",")
            assert abs(float(acc) * 100.0 - last[branch]) < 0.005 + 1e-9

    def test_report_path_only_from_out(self, data_dir, tmp_path, monkeypatch):
        # an output-directory variable must not become the report file path
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(64, 4, 3, seed=0, seq_len=8), path)
        monkeypatch.setenv("PLSTM_OUT_DIR", str(tmp_path))
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_truncated_checkpoint_exit_2(self, data_dir, tmp_path):
        model = init_model(6, 4, 3, seed=0, seq_len=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-100])
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2

    def test_wrong_magic_exit_2(self, data_dir, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 64)
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model(7, 5, 3, seed=9, seq_len=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (na, a), (nb, b) in zip(model.blocks(), loaded.blocks()):
            assert na == nb
            assert np.array_equal(a, b)
        assert loaded.seq_len == 4

    def test_wrong_magic_typed_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"XXXXXX" + b"\0" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_header_payload_mismatch(self, tmp_path):
        model = init_model(7, 5, 3, seed=9, seq_len=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestBenchmarkCommand:
    def test_two_bundled_corpora(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "bench"
        code = main(["benchmark", "--config", str(smoke_cfg),
                     "--datasets", str(data_dir / "bench_a.tsv"),
                     str(data_dir / "bench_b.tsv"), "--out", str(out)])
        assert code == 0
        csv_text = (out / "benchmark.csv").read_text()
        assert "bench_a" in csv_text and "bench_b" in csv_text
        assert (out / "benchmark.txt").exists()

    def test_deterministic_outputs(self, data_dir, tmp_path, smoke_cfg):
        texts = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["benchmark", "--config", str(smoke_cfg),
                         "--datasets", str(data_dir / "bench_a.tsv"),
                         "--out", str(out)]) == 0
            texts.append((out / "benchmark.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_same_stem_datasets_keep_their_own_rows(self, data_dir, tmp_path, smoke_cfg):
        paths = []
        for sub, src in (("a", "bench_a.tsv"), ("b", "bench_b.tsv")):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "x.tsv")
            paths[-1].write_bytes((data_dir / src).read_bytes())

        def rows(out, *datasets):
            assert main(["benchmark", "--config", str(smoke_cfg), "--datasets",
                         *map(str, datasets), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "benchmark.csv").read_text().splitlines()[1:]

        alone_a, alone_b = rows("a_out", paths[0]), rows("b_out", paths[1])
        assert alone_a != alone_b
        assert rows("both_out", *paths) == alone_a + alone_b

    def test_missing_dataset_marked_skipped(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "bench"
        code = main(["benchmark", "--config", str(smoke_cfg),
                     "--datasets", str(data_dir / "bench_a.tsv"),
                     str(tmp_path / "nope.tsv"), "--out", str(out)])
        assert code == 0  # one row succeeded
        assert "skipped" in (out / "benchmark.csv").read_text()

    def test_unlabeled_plain_text_skipped(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "bench"
        code = main(["benchmark", "--config", str(smoke_cfg),
                     "--datasets", str(data_dir / "stats_sample.txt"), "--out", str(out)])
        assert code == 2  # nothing ran
        assert "skipped" in (out / "benchmark.csv").read_text()
