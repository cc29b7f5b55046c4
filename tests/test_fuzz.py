"""Corrupted inputs run through `cli.main` in process. Whatever is done to a
valid config, data file or checkpoint, a command ends in exit 0, 2 or 3
with at most one line on stderr, never in a traceback.

Every model dimension drawn is either tiny (<= 8) or so large that
`cli.MAX_ALLOC_BYTES` rejects it before anything is allocated, so no
example trains a large model. Checkpoint payload bytes are left alone: a
v1 checkpoint has no checksum, so a flipped payload byte loads as another
valid model, unless it makes a parameter non-finite. The one payload change
is a head block rescaled until its largest weight is huge but finite, so
that the scores may overflow while every parameter is finite.

A huge but finite learning rate trains to finite artifacts or ends in
exit 3, without a numpy warning.
"""

import csv
import io
import json
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plstm import cli
from plstm.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from plstm.model import init_model

REPO_DATA = Path(__file__).resolve().parents[1] / "data"

ROWS = [
    (1, "sure brilliant café totally wow", 1),
    (2, "the report naïve garden bridge", 0),
    (3, "great genius — fantastic oh", 1),
    (4, "meeting bridge garden invoice train", 0),
    (5, "brilliant sure great wow totally", 1),
    (6, "the invoice über report meeting", 0),
]
DATA = {
    ".tsv": "".join(f"{i}\t{text}\t{label}\n" for i, text, label in ROWS).encode(),
    ".csv": ("id,text,label\n"
             + "".join(f"{i},{text},{label}\n" for i, text, label in ROWS)).encode(),
    ".jsonl": "".join(json.dumps({"id": i, "text": text, "label": label},
                                 ensure_ascii=False) + "\n"
                      for i, text, label in ROWS).encode(),
}
SEPARATOR = {".tsv": b"\t", ".csv": b",", ".jsonl": b":"}
CONFIG = {"embedding_dim": "4", "hidden": "2", "seq_len": "6", "batch_size": "4",
          "verbose": "0", "seed": "0"}
DIMENSIONS = ("embedding_dim", "hidden", "seq_len", "batch_size")
OTHER_KEYS = ("learning_rate", "dropout_embed", "dropout_recurrent", "gate_mode",
              "clip_norm", "aggregation", "verbose", "seed")


def _checkpoint_bytes():
    """A model whose LSTM biases of 10 saturate every gate, so each pooled
    hidden unit is near 2 and a head weight near the float64 limit can
    overflow a score."""
    model = init_model(64, 4, 2, seed=0, seq_len=6)
    for params in (model.group.layer.forward_params, model.group.layer.backward_params):
        params.b[...] = 10.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()
SEQ_LEN_AT = len(MAGIC) + 12  # the header's fourth field


def _head_blocks():
    """(payload offset, element count) of each head weight block in
    CHECKPOINT, in payload order."""
    at, found = SEQ_LEN_AT + 4, []
    for name, block in init_model(64, 4, 2, seed=0, seq_len=6).blocks():
        if name.endswith(".head_W"):
            found.append((at, block.size))
        at += block.nbytes
    return found


HEAD_BLOCKS = _head_blocks()


def _scale_head(blob, block, top):
    """blob with the head block at (offset, size) rescaled so that its
    largest weight is +-top."""
    at, size = block
    values = np.frombuffer(blob, "<f8", size, at)
    scaled = values / np.abs(values).max() * top
    return blob[:at] + scaled.astype("<f8").tobytes() + blob[at + scaled.nbytes :]

# one config line's worth of text: no line breaks, which would start a new line
one_line = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")), max_size=10)
tiny_or_huge = st.one_of(st.integers(0, 8),
                         st.integers(cli.MAX_ALLOC_BYTES + 1, 1 << 40))


@st.composite
def configs(draw):
    values = dict(CONFIG)
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["unknown_key", "negative", "dimension", "other_value"]))
        if kind == "unknown_key":
            key = draw(one_line.filter(lambda k: "=" not in k
                                       and k.strip() not in cli._CONFIG_FIELDS))
            lines.append(f"{key}={draw(one_line)}")
        elif kind == "negative":
            values[draw(st.sampled_from(sorted(CONFIG)))] = str(draw(st.integers(-10**6, -1)))
        elif kind == "dimension":
            values[draw(st.sampled_from(DIMENSIONS))] = str(draw(tiny_or_huge))
        else:
            values[draw(st.sampled_from(OTHER_KEYS))] = draw(one_line)
    text = "".join(f"{key}={value}\n" for key, value in values.items()) + "\n".join(lines)
    blob = text.encode()
    for _ in range(draw(st.integers(0, 2))):  # NUL bytes
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\0" + blob[at:]
    return blob


@st.composite
def data_files(draw, suffix):
    blob = DATA[suffix]
    kind = draw(st.sampled_from(["clean", "cut_utf8", "truncate", "drop_separator", "bom",
                                 "crlf", "random_bytes", "overwrite"]))
    if kind == "cut_utf8":  # end inside a multibyte UTF-8 sequence
        lead = [i for i, byte in enumerate(blob) if byte >= 0xC0]
        blob = blob[: draw(st.sampled_from(lead)) + 1]
    elif kind == "truncate":
        blob = blob[: draw(st.integers(0, len(blob)))]
    elif kind == "drop_separator":
        at = [i for i in range(len(blob)) if blob[i : i + 1] == SEPARATOR[suffix]]
        i = draw(st.sampled_from(at))
        blob = blob[:i] + b" " + blob[i + 1 :]
    elif kind == "bom":
        blob = b"\xef\xbb\xbf" + blob
    elif kind == "crlf":
        blob = blob.replace(b"\n", b"\r\n")
    elif kind == "random_bytes":
        blob = draw(st.binary(max_size=200))
    elif kind == "overwrite":
        at = draw(st.integers(0, len(blob) - 1))
        patch = draw(st.binary(min_size=1, max_size=4))
        blob = blob[:at] + patch + blob[at + len(patch) :]
    return blob


@st.composite
def checkpoints(draw):
    blob = CHECKPOINT
    kind = draw(st.sampled_from(["clean", "truncate", "flip_header", "seq_len", "scale_head"]))
    if kind == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip_header":  # the magic or one of the three model dimensions
        at = draw(st.integers(0, SEQ_LEN_AT - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    elif kind == "seq_len":  # the one header field the payload size does not check
        value = draw(st.one_of(st.integers(0, 8),
                               st.integers(cli.MAX_ALLOC_BYTES + 1, (1 << 32) - 1)))
        blob = blob[:SEQ_LEN_AT] + struct.pack("<I", value) + blob[SEQ_LEN_AT + 4 :]
    elif kind == "scale_head":  # finite parameters whose scores may overflow
        blob = _scale_head(blob, draw(st.sampled_from(HEAD_BLOCKS)),
                           draw(st.floats(1e300, np.finfo(np.float64).max)))
    return blob


@st.composite
def cases(draw):
    """(command, data suffix, config bytes, data bytes, checkpoint bytes),
    the config and the checkpoint None where the command reads none."""
    command = draw(st.sampled_from(["stats", "train", "eval"]))
    suffix = draw(st.sampled_from(sorted(DATA)))
    return (command, suffix, draw(configs()) if command == "train" else None,
            draw(data_files(suffix)), draw(checkpoints()) if command == "eval" else None)


def run(command, suffix, config, data, checkpoint):
    """(exit code, stderr) of one in-process `cli.main` run over the inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"config": tmp / "run.cfg", "data": tmp / f"data{suffix}",
                 "checkpoint": tmp / "model.ckpt"}
        for key, blob in (("config", config), ("data", data), ("checkpoint", checkpoint)):
            if blob is not None:
                paths[key].write_bytes(blob)
        args = {
            "stats": ["--data", paths["data"]],
            "train": ["--data", paths["data"], "--config", paths["config"], "--epochs", "1"],
            "eval": ["--checkpoint", paths["checkpoint"], "--data", paths["data"]],
        }[command]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([command, *map(str, args), "--out", str(tmp / "out")])
    return code, err.getvalue()


DEEP_JSON = DATA[".jsonl"] + b"[" * 200_000 + b"\n"
LONG_CSV_FIELD = DATA[".csv"] + b"7," + b"x" * (csv.field_size_limit() + 1) + b",0\n"
INFINITE_ID = DATA[".jsonl"] + b'{"id": 1e999, "text": "a b", "label": 1}\n'
CLEAN_CONFIG = "".join(f"{k}={v}\n" for k, v in CONFIG.items()).encode()
OVERFLOWING_HEAD = _scale_head(CHECKPOINT, HEAD_BLOCKS[0], 1e308)  # the softmax head


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(cases())
@example(("train", ".jsonl", CLEAN_CONFIG, DEEP_JSON, None))
@example(("stats", ".jsonl", None, DEEP_JSON, None))
@example(("train", ".csv", CLEAN_CONFIG, LONG_CSV_FIELD, None))
@example(("stats", ".csv", None, LONG_CSV_FIELD, None))
@example(("eval", ".tsv", None, DATA[".tsv"], OVERFLOWING_HEAD))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corrupted_inputs_end_in_a_documented_exit_code(case):
    code, err = run(*case)
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_CONFIG), (code, err)
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err
    if code != cli.EXIT_OK:
        assert err.endswith("\n"), err


NAMED_INPUTS = {  # input -> (suffix, data bytes, the message after the file name)
    "json_past_recursion_limit": (".jsonl", DEEP_JSON, "line 7: bad json: nested too deeply"),
    "csv_field_over_limit": (".csv", LONG_CSV_FIELD,
                             "line 8: bad csv: field larger than field limit "
                             f"({csv.field_size_limit()})"),
    "json_infinite_id": (".jsonl", INFINITE_ID, "line 7: invalid id inf"),
    "csv_header_without_id": (".csv", DATA[".csv"].replace(b"id,", b"id ", 1),
                              "line 1: csv header must contain id,text,label"),
}


@pytest.mark.parametrize("command", ["stats", "train"])
@pytest.mark.parametrize("name", sorted(NAMED_INPUTS))
def test_named_bad_data_exits_2_naming_file_and_line(command, name):
    suffix, data, message = NAMED_INPUTS[name]
    code, err = run(command, suffix, CLEAN_CONFIG if command == "train" else None, data, None)
    assert code == cli.EXIT_DATA
    assert err.startswith("error: ") and err.endswith(f"data{suffix}: {message}\n")
    assert err.count("\n") == 1


# config and data bytes that a diverging run starts from: the tiny fixture
# above, and the smoke config on the bundled corpus
DIVERGING = {
    "tiny": (CLEAN_CONFIG, DATA[".tsv"]),
    "smoke": ((REPO_DATA / "train_smoke.cfg").read_bytes(),
              (REPO_DATA / "synthetic_train.tsv").read_bytes()),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(fixture=st.just("tiny"), learning_rate=st.floats(1e10, 1e308),
       clip_norm=st.none() | st.floats(0.1, 10.0), epochs=st.integers(1, 3))
@example(fixture="smoke", learning_rate=1e300, clip_norm=None, epochs=3)
@settings(max_examples=60, deadline=None)
def test_huge_learning_rate_ends_in_finite_artifacts_or_exit_3(fixture, learning_rate,
                                                                clip_norm, epochs):
    config, data = DIVERGING[fixture]
    config += f"\nlearning_rate={learning_rate!r}\nclip_norm={clip_norm}\n".encode()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_bytes(config)
        (tmp / "data.tsv").write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["train", "--data", str(tmp / "data.tsv"), "--config",
                             str(tmp / "run.cfg"), "--epochs", str(epochs), "--out",
                             str(tmp / "out")])
        err = err.getvalue()
        if code == cli.EXIT_OK:
            assert err == ""
            load_checkpoint(tmp / "out" / "model.ckpt")  # every parameter finite
            epochs_csv = (tmp / "out" / "epochs.csv").read_text(encoding="utf-8")
            assert "nan" not in epochs_csv and "inf" not in epochs_csv
        else:
            assert code == cli.EXIT_CONFIG, err
            assert err.startswith("config error: training diverged: ") and err.count("\n") == 1
            assert not (tmp / "out" / "model.ckpt").exists()
            assert not (tmp / "out" / "epochs.csv").exists()
