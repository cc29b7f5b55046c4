import csv
import errno
import os
import re
import struct
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstm import cli, lstm, worker
from plstm.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from plstm.cli import ConfigError, dump_config, load_config, main
from plstm.corpus import build_vocabulary, load_labeled_dataset
from plstm.model import AGGREGATIONS, BRANCH_NAMES, GATE_MODES, forward_batch, init_model
from plstm.train import TrainConfig, build_model, encode_dataset, train

from test_golden import ragged_corpus, with_lines

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

    def test_every_field_has_exactly_one_key(self):
        named = [name for name, _ in cli._CONFIG_FIELDS.values()]
        assert sorted(named) == sorted(f.name for f in fields(TrainConfig))

    def test_readme_lists_every_key(self, data_dir):
        readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"Config files are `key=value` lines \(([^)]*)\)", readme)[1]
        assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(cli._CONFIG_FIELDS)

    @given(st.builds(
        TrainConfig, epochs=st.integers(1, 10**6), batch_size=st.integers(1, 10**6),
        seed=st.integers(0, 2**64), verbose=st.integers(-2, 2),
        hidden=st.integers(1, 10**6), embed_dim=st.integers(1, 10**6),
        seq_len=st.integers(1, 10**6),
        learning_rate=st.floats(0.0, exclude_min=True, allow_infinity=False),
        dropout_embed=st.floats(0.0, 1.0, exclude_max=True),
        dropout_recurrent=st.floats(0.0, 1.0, exclude_max=True),
        gate_mode=st.sampled_from(GATE_MODES),
        clip_norm=st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False),
        aggregation=st.sampled_from(AGGREGATIONS)))
    @settings(max_examples=200, deadline=None)
    def test_dump_then_load_gives_the_config_back(self, config):
        config.validate()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config_resolved.cfg"
            dump_config(config, path)
            assert load_config(path) == config


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

    def test_tokens_with_commas_and_quotes_stay_one_cell(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text('yeah, a,b right\nhi"there a,b\n')
        out = tmp_path / "freq.csv"
        assert main(["stats", "--data", str(data), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {4}
        assert [row[1] for row in rows[1:]] == ["a,b", "yeah", "right", 'hi"there']

    def test_missing_file_exit_2_no_partial_output(self, tmp_path):
        out = tmp_path / "freq.csv"
        code = main(["stats", "--data", str(tmp_path / "nope.txt"), "--out", str(out)])
        assert code == 2
        assert not out.exists()


    def test_top_k_zero_exit_3_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        code = main(["stats", "--data", str(tmp_path / "nope.txt"), "--top-k", "0",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "config error: --top-k must be >= 1, got 0\n"
        assert not out.exists()


class TestAllocationBound:
    """The model and encoded-data bytes are checked against MAX_ALLOC_BYTES
    once the vocabulary is known, before anything is allocated. A huge
    config is never run: building the model or encoding the data fails the
    test instead."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the bound")

        for name in ("build_model", "encode_dataset", "benchmark"):
            monkeypatch.setattr(f"plstm.cli.{name}", refuse)

    def test_bound_arithmetic(self):
        from plstm.cli import MAX_ALLOC_BYTES, _check_allocation
        from plstm.model import expected_param_count

        params = expected_param_count(100, 8, 4) * 8
        _check_allocation(100, 8, 4, 10, 6)  # params plus 10 x 6 x 9 bytes fit
        with pytest.raises(ConfigError, match="limit"):
            _check_allocation(100, 8, 4, (MAX_ALLOC_BYTES - params) // 54 + 1, 6)
        _check_allocation(100, 8, 4, (MAX_ALLOC_BYTES - params) // 54, 6)
        with pytest.raises(ConfigError, match="limit"):
            _check_allocation(100, 8, 4, (MAX_ALLOC_BYTES - params) // 54, 6, arenas=4)
        _check_allocation(100, 8, 4, (MAX_ALLOC_BYTES - 4 * params) // 54, 6, arenas=4)

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_huge_hidden_exit_3(self, data_dir, tmp_path, command, no_allocation, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(with_lines(SMOKE_CFG_TEXT, "hidden=1000000"))
        data = str(data_dir / "synthetic_train.tsv")
        argv = (["train", "--data", data] if command == "train"
                else ["benchmark", "--datasets", data])
        code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: the model and encoded data need ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_training_counts_four_arenas(self, data_dir, tmp_path, command, monkeypatch,
                                         capsys):
        """A bound that holds the parameters once, but not the four arenas
        training holds (the parameters, their gradients and Adam's m and
        v), stops train and benchmark with exit 3; eval, which holds one
        arena, runs under the same bound."""
        data = data_dir / "synthetic_train.tsv"
        examples = load_labeled_dataset(data, "tsv")
        vocab = build_vocabulary([ex.doc for ex in examples])
        model = init_model(vocab.size, 8, 4, seed=0, seq_len=6)  # SMOKE_CFG_TEXT's shape
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        monkeypatch.setattr("plstm.cli.MAX_ALLOC_BYTES",
                            2 * model.param_count() * 8 + len(examples) * 6 * 9)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        capsys.readouterr()

        for name in ("build_model", "encode_dataset", "benchmark"):
            monkeypatch.setattr(f"plstm.cli.{name}", lambda *a, **k: pytest.fail("allocated"))
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE_CFG_TEXT)
        argv = (["train", "--data", str(data)] if command == "train"
                else ["benchmark", "--datasets", str(data)])
        code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: the model and encoded data need ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_eval_checks_the_checkpoint_seq_len(self, data_dir, tmp_path, monkeypatch,
                                                capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(64, 4, 3, seed=0, seq_len=8), ckpt)
        monkeypatch.setattr("plstm.cli.MAX_ALLOC_BYTES",
                            init_model(64, 4, 3, seed=0).param_count() * 8 + 9 * 7)
        monkeypatch.setattr("plstm.cli.encode_dataset", lambda *a: pytest.fail("encoded"))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error: the model and encoded")


class TestTrain:
    def test_smoke_run_writes_outputs(self, data_dir, tmp_path, smoke_cfg):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--out", str(out)])
        assert code == 0
        for name in ("model.ckpt", "epochs.csv", "config_resolved.cfg", "summary.txt"):
            assert (out / name).exists()
        assert (out / "epochs.csv").read_text().startswith("epoch,branch,loss,accuracy\n")

    def test_plain_text_data_exit_2_naming_the_file(self, data_dir, tmp_path, smoke_cfg,
                                                     capsys):
        data = data_dir / "stats_sample.txt"
        code = main(["train", "--data", str(data), "--config", str(smoke_cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {data}: plain text has no labels\n"
        assert not (tmp_path / "run").exists()

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
        cfg.write_text(with_lines(SMOKE_CFG_TEXT, line))
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_repeated_key_exit_3_naming_both_lines(self, data_dir, tmp_path, capsys):
        """A key set twice is refused, not read last-wins: `hidden=4` on
        line 2, then `hidden=8` on line 8."""
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE_CFG_TEXT + "hidden=8\n")
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"config error: {cfg}:8: key hidden is already set on line 2\n")
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_diverging_run_exit_3_before_writing(self, data_dir, tmp_path, capsys, command):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(with_lines((data_dir / "train_smoke.cfg").read_text(),
                                  "learning_rate=1e300", "clip_norm=none", "epochs=3"))
        data = str(data_dir / "synthetic_train.tsv")
        out = tmp_path / "run"
        argv = (["train", "--data", data] if command == "train"
                else ["benchmark", "--datasets", data])
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: training diverged: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scores_that_overflow_exit_3_before_writing(self, data_dir, tmp_path, capsys):
        """One batch an epoch, so one Adam step at a learning rate of 1e300:
        the loss it reads is finite and every parameter after it is finite,
        about 1e300 in size, so the epoch's metrics pass overflows. Without
        the scores check the run wrote accuracies argmaxed from NaNs."""
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(with_lines(SMOKE_CFG_TEXT, "batch_size=64", "epochs=1",
                                  "learning_rate=1e300"))
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"), "--config",
                     str(cfg), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "config error: training diverged: the softmax branch's scores are not finite\n")
        assert not out.exists()

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

    def test_data_vocabulary_larger_than_checkpoint_exit_2(self, data_dir, tmp_path, smoke_cfg,
                                                           capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--epochs", "1", "--out", str(run)]) == 0
        words = [f"w{k}" for k in range(120)]
        data = tmp_path / "wide.tsv"
        data.write_text("".join(f"{i}\t{' '.join(words[3 * i:3 * i + 3])}\t{i % 2}\n"
                                for i in range(40)))
        report = tmp_path / "report.csv"
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run / "model.ckpt"), "--data", str(data),
                     "--out", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "122" in err
        assert not report.exists()

    def test_truncated_checkpoint_exit_2(self, data_dir, tmp_path):
        model = init_model(6, 4, 3, seed=0, seq_len=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-100])
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2

    @pytest.mark.parametrize("dims", [(0, 4, 3, 5), (4_000_000_000, 4_000_000_000, 3, 5)],
                             ids=["zero_dimension", "huge_dimensions"])
    def test_corrupt_header_exit_2_before_model_is_built(self, data_dir, tmp_path, monkeypatch,
                                                          capsys, dims):
        def no_model(*args, **kwargs):
            raise AssertionError("model_over called for a corrupt header")

        monkeypatch.setattr("plstm.checkpoint.model_over", no_model)
        path = tmp_path / "m.ckpt"
        # a version 2 header: CRC-32, the four dimensions, gate mode and aggregation indices
        path.write_bytes(MAGIC + struct.pack("<I4I2B", 0, *dims, 0, 0) + b"\0" * 64)
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count("bad checkpoint") == 1

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_parameter_exit_2(self, data_dir, tmp_path, capsys, value):
        model = init_model(30, 4, 3, seed=0, seq_len=5)
        model.branches["relu"].layer.backward_params.U[0, 2, 1] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        assert capsys.readouterr().err == "error: bad checkpoint: a parameter is not finite\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scores_exit_2_naming_the_branch(self, data_dir, tmp_path, capsys):
        """A 2-epoch smoke checkpoint with its softmax and relu heads at
        +-1e308: every parameter is finite, so it loads, but the relu
        branch's scores overflow (the softmax one's happen not to on this
        data). No numpy warning, one line naming the branch, no report."""
        run = tmp_path / "run"
        assert main(["train", "--data", str(data_dir / "synthetic_train.tsv"), "--config",
                     str(data_dir / "train_smoke.cfg"), "--epochs", "2", "--out", str(run)]) == 0
        model = load_checkpoint(run / "model.ckpt")
        for name in ("softmax", "relu"):
            model.branches[name].head_W[0] = [[1e308], [-1e308]]
        path, report = tmp_path / "m.ckpt", tmp_path / "report.csv"
        save_checkpoint(model, path)
        capsys.readouterr()
        data = str(data_dir / "synthetic_train.tsv")
        code = main(["eval", "--checkpoint", str(path), "--data", data, "--out", str(report)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: bad checkpoint: on {data}, the relu "
                                           "branch's scores are not finite\n")
        assert not report.exists()

    def test_wrong_magic_exit_2(self, data_dir, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 64)
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("bad checkpoint") == 1


class TestByteOrderMark:
    """A spreadsheet export starts its UTF-8 text with a byte-order mark."""

    @pytest.mark.parametrize("bom_file", ["data", "config"])
    def test_bom_prefixed_file_trains_like_the_plain_one(self, data_dir, tmp_path, bom_file):
        data = (data_dir / "synthetic_train.tsv").read_bytes()
        outputs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            paths = {"data": tmp_path / f"{name}.tsv", "config": tmp_path / f"{name}.cfg"}
            paths["data"].write_bytes((bom if bom_file == "data" else b"") + data)
            paths["config"].write_bytes((bom if bom_file == "config" else b"")
                                        + SMOKE_CFG_TEXT.encode())
            out = tmp_path / name
            assert main(["train", "--data", str(paths["data"]), "--config",
                         str(paths["config"]), "--epochs", "1", "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


class TestOutputErrors:
    @pytest.mark.parametrize("command", ["stats", "train", "eval", "benchmark"])
    def test_out_under_a_regular_file_exit_2(self, data_dir, tmp_path, smoke_cfg, capsys,
                                              command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(64, 4, 3, seed=0, seq_len=8), ckpt)
        labeled = str(data_dir / "synthetic_train.tsv")
        args = {
            "stats": ["--data", str(data_dir / "stats_sample.txt")],
            "train": ["--data", labeled, "--config", str(smoke_cfg)],
            "eval": ["--checkpoint", str(ckpt), "--data", labeled],
            "benchmark": ["--config", str(smoke_cfg), "--datasets", labeled],
        }[command]
        assert main([command, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1



class TestReadErrors:
    @pytest.mark.parametrize("command", ["stats", "train", "eval", "benchmark"])
    def test_non_utf8_data_exit_2(self, tmp_path, smoke_cfg, capsys, command):
        data = tmp_path / ("bad.txt" if command == "stats" else "bad.tsv")
        data.write_bytes(b"1\tgood words here\t1\n2\tbad \xff byte\t0\n")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(64, 4, 3, seed=0, seq_len=8), ckpt)
        args = {
            "stats": ["--data", str(data)],
            "train": ["--data", str(data), "--config", str(smoke_cfg)],
            "eval": ["--checkpoint", str(ckpt), "--data", str(data)],
            "benchmark": ["--config", str(smoke_cfg), "--datasets", str(data)],
        }[command]
        out = tmp_path / "out"
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        message = f"cannot read {data}: not UTF-8 text (invalid start byte)"
        if command == "benchmark":  # a skipped row, like a missing file
            assert err == ""
            assert f"skipped: {message}" in (out / "benchmark.csv").read_text()
        else:
            assert err == f"error: {message}\n"
            assert not out.exists()

    def test_non_utf8_config_exit_3(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(SMOKE_CFG_TEXT.encode() + b"# caf\xe9\n")
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("record", ["5", "null", '"id text label"'])
    def test_non_object_json_record_exit_2(self, tmp_path, smoke_cfg, capsys, record):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": 1, "text": "a b", "label": 1}\n' + record + "\n")
        code = main(["train", "--data", str(data), "--config", str(smoke_cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: line 2: expected a json object\n"


class TestFailureBoundary:
    def test_unexpected_error_propagates(self, data_dir, tmp_path, smoke_cfg, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr("plstm.cli.train", broken)
        with pytest.raises(RuntimeError, match="broken"):
            main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                  "--config", str(smoke_cfg), "--out", str(tmp_path / "run")])

    def test_write_error_without_filename_names_out(self, data_dir, tmp_path, smoke_cfg,
                                                     monkeypatch, capsys):
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("plstm.cli.save_checkpoint", disk_full)
        out = str(tmp_path / "run")
        code = main(["train", "--data", str(data_dir / "synthetic_train.tsv"),
                     "--config", str(smoke_cfg), "--epochs", "1", "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"

    @pytest.mark.parametrize("ending", ["exit_0", "exit_2", "exit_3", "base_exception"])
    def test_no_child_outlives_main(self, data_dir, tmp_path, smoke_cfg, monkeypatch, children,
                                    ending):
        """Every pass takes the direction worker here, so each command
        starts one, and `main` reaps it on every way out: exit 0, a failed
        write's exit 2, a diverging run's exit 3, and a BaseException raised
        in the middle of a pass, which propagates."""
        real_rule, real_steps, running = worker.worker_for, lstm._steps, []

        def worker_for():
            executor = real_rule()
            running.append(len(children()))
            return executor

        def steps(*args):
            if len(running) == 3 and os.getpid() == caller:  # the third pass, in the caller
                raise Interrupted
            return real_steps(*args)

        caller, out = os.getpid(), tmp_path / "run"
        if ending == "exit_2":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "run"
        if ending == "exit_3":
            smoke_cfg.write_text(SMOKE_CFG_TEXT + "learning_rate=1e300\nclip_norm=none\n")
        monkeypatch.setattr(worker, "worker_for", worker_for)
        argv = ["train", "--data", str(data_dir / "synthetic_train.tsv"), "--config",
                str(smoke_cfg), "--out", str(out)]
        if ending == "base_exception":
            monkeypatch.setattr(lstm, "_steps", steps)
            with pytest.raises(Interrupted):
                main(argv)
            assert len(running) == 3
        else:
            assert main(argv) == {"exit_0": 0, "exit_2": 2, "exit_3": 3}[ending]
        assert running and set(running) == {1}  # each pass found its worker running
        assert children() == []


class Interrupted(BaseException):
    """Not an `Exception`: nothing in plstm catches it."""


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

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_round_trip_keeps_gates_aggregation_and_scores(self, data_dir, tmp_path, gate_mode,
                                                           aggregation):
        """A model trained for 2 epochs on the ragged corpus loads back with
        its own gate activations and aggregation, and scores bitwise as it
        did in memory."""
        data = tmp_path / "ragged.tsv"
        data.write_text(ragged_corpus(), encoding="utf-8")
        config = load_config(data_dir / "train_smoke.cfg")
        config.gate_mode, config.aggregation, config.epochs, config.verbose = (
            gate_mode, aggregation, 2, 0)
        examples = load_labeled_dataset(data, "tsv")
        vocab = build_vocabulary([ex.doc for ex in examples])
        encoded = encode_dataset(examples, vocab, config.seq_len)
        model, _ = train(build_model(config, vocab.size, config.seed), encoded, config)
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert (loaded.gate_mode, loaded.aggregation) == (gate_mode, aggregation)
        for params in ("forward_params", "backward_params"):
            assert (getattr(loaded.group.layer, params).gate_activation
                    == getattr(model.group.layer, params).gate_activation)
        scores, _ = forward_batch(model, encoded.ids, encoded.mask)
        loaded_scores, _ = forward_batch(loaded, encoded.ids, encoded.mask)
        for name in BRANCH_NAMES:
            assert loaded_scores[name].tobytes() == scores[name].tobytes()

    @staticmethod
    def tiny_checkpoint(tmp_path):
        """The bytes of a checkpoint of the smallest model, and its path."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(1, 1, 1, seed=0, seq_len=1, gate_mode="literal_eq9"), path)
        return path.read_bytes(), path

    def test_every_single_byte_flip_is_rejected(self, tmp_path):
        """The CRC-32 covers every byte after the magic, the header's and the
        payload's, so a change to any one byte, in any of its bits, is
        caught before the model is built."""
        blob, path = self.tiny_checkpoint(tmp_path)
        for at in range(len(blob)):
            for flip in (1 << (at % 8), 0xFF):
                path.write_bytes(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :])
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)

    @pytest.mark.parametrize("at", [0, 5, 6, 10, 26, 27, 28, -1],
                             ids=["magic", "version", "crc", "vocab_size", "gate_mode",
                                  "aggregation", "payload_first", "payload_last"])
    def test_a_flipped_byte_exits_2_with_one_line(self, data_dir, tmp_path, capsys, at):
        blob, path = self.tiny_checkpoint(tmp_path)
        at %= len(blob)
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0x10]) + blob[at + 1 :])
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint: ") and err.count("\n") == 1

    @pytest.mark.parametrize("change", [-1, 1], ids=["one_byte_short", "one_byte_long"])
    def test_a_payload_one_byte_off_exits_2_with_one_line(self, data_dir, tmp_path, capsys,
                                                         change):
        blob, path = self.tiny_checkpoint(tmp_path)
        path.write_bytes(blob[:change] if change < 0 else blob + b"\0")
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        size = len(blob) - 28
        assert capsys.readouterr().err == (f"error: bad checkpoint: payload is {size + change} "
                                           f"bytes, header says {size}\n")

    def test_version_1_file_exit_2_naming_the_version(self, data_dir, tmp_path, capsys):
        """A version 1 file, four uint32 dimensions and a payload, is
        refused with one line that names its version."""
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"PLSTM\x01" + struct.pack("<4I", 6, 4, 3, 5)
                         + b"\0" * (8 * init_model(6, 4, 3, seed=0).param_count()))
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        assert capsys.readouterr().err == "error: bad checkpoint: version 1, this build reads 2\n"

    @pytest.mark.parametrize("field", [4, 5], ids=["gate_mode", "aggregation"])
    def test_mode_index_out_of_range_exit_2(self, data_dir, tmp_path, capsys, field):
        """A header whose checksum holds but whose gate mode or aggregation
        index names no mode."""
        blob, path = self.tiny_checkpoint(tmp_path)
        values = list(struct.unpack_from("<4I2B", blob, 10))  # after the magic and the CRC
        values[field] = len(GATE_MODES if field == 4 else AGGREGATIONS)
        checked = struct.pack("<4I2B", *values) + blob[28:]
        path.write_bytes(MAGIC + struct.pack("<I", zlib.crc32(checked)) + checked)
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(data_dir / "synthetic_train.tsv")])
        assert code == 2
        assert capsys.readouterr().err == ("error: bad checkpoint: gate mode or aggregation "
                                           "index out of range\n")


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

    def test_tokenless_dataset_skipped_beside_a_scored_one(self, data_dir, tmp_path,
                                                           smoke_cfg):
        punct = tmp_path / "punct.tsv"
        punct.write_text("".join(f"{i}\t... !?\t{i % 2}\n" for i in range(6)))
        bench_a = str(data_dir / "bench_a.tsv")
        assert main(["benchmark", "--config", str(smoke_cfg), "--datasets", bench_a,
                     "--out", str(tmp_path / "alone")]) == 0
        code = main(["benchmark", "--config", str(smoke_cfg), "--datasets", bench_a,
                     str(punct), "--out", str(tmp_path / "both")])
        assert code == 0
        alone = (tmp_path / "alone" / "benchmark.csv").read_text()
        both = (tmp_path / "both" / "benchmark.csv").read_text()
        assert both == alone + f"punct,,,skipped: {punct}: documents contain no tokens,\n"

    def test_skip_reason_with_a_comma_stays_one_cell(self, data_dir, tmp_path, smoke_cfg):
        bad = tmp_path / "bad.tsv"
        bad.write_text("just text\n")
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(smoke_cfg), "--datasets",
                     str(data_dir / "bench_a.tsv"), str(bad), "--out", str(out)]) == 0
        with open(out / "benchmark.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {5}
        assert rows[-1] == ["bad", "", "",
                            f"skipped: {bad}: line 1: expected 3 tab-separated fields, got 1",
                            ""]
