"""Corrupted inputs run through `cli.main` in process. Whatever is done to a
valid config, data file or checkpoint, a command ends in exit 0, 2 or 3
with at most one line on stderr, never in a traceback.

Every model dimension drawn is either tiny (<= 8) or so large that
`cli.MAX_ALLOC_BYTES` rejects it before anything is allocated, so no
example trains a large model. A checkpoint's CRC-32 covers its header and
its payload, so a byte flipped anywhere, or a cut, ends in exit 2. A
checkpoint that is valid but odd is made by changing a model and saving it
with `save_checkpoint`, so these tests know nothing of where a parameter
lies in the file: a `seq_len` that is 0 or huge, or one branch's head
rescaled until its largest weight is huge but finite, so that the scores
may overflow while every parameter is finite.

A huge but finite learning rate trains to finite artifacts or ends in
exit 3, without a numpy warning.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plstm import cli, corpus
from plstm.checkpoint import load_checkpoint, save_checkpoint
from plstm.model import BRANCH_NAMES, init_model

from test_golden import with_lines

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


def _model():
    """A model whose LSTM biases of 10 saturate every gate, so each pooled
    hidden unit is near 2 and a head weight near the float64 limit can
    overflow a score."""
    model = init_model(64, 4, 2, seed=0, seq_len=6)
    for params in (model.group.layer.forward_params, model.group.layer.backward_params):
        params.b[...] = 10.0
    return model


def _saved(model):
    """The bytes `save_checkpoint` writes for `model`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()


def _with_seq_len(seq_len):
    """CHECKPOINT's model saved with another `seq_len`."""
    model = _model()
    model.seq_len = seq_len
    return _saved(model)


def _with_scaled_head(k, top):
    """CHECKPOINT's model saved with branch k's head weights rescaled so
    that the largest is +-top."""
    model = _model()
    head = model.group.head_W[k]
    head[...] = head / np.abs(head).max() * top
    return _saved(model)


CHECKPOINT = _saved(_model())

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
    kind = draw(st.sampled_from(["clean", "truncate", "flip", "seq_len", "scale_head"]))
    if kind == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":  # any byte: the magic, the CRC, a header field or the payload
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    elif kind == "seq_len":  # a valid checkpoint whose seq_len no payload size bounds
        blob = _with_seq_len(draw(st.one_of(st.integers(0, 8),
                                            st.integers(cli.MAX_ALLOC_BYTES + 1, (1 << 32) - 1))))
    elif kind == "scale_head":  # finite parameters whose scores may overflow
        blob = _with_scaled_head(draw(st.integers(0, len(BRANCH_NAMES) - 1)),
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
# past CPython's default limit of 4,300 digits for converting a string to an
# int, so json.loads raises a plain ValueError on it, not a JSONDecodeError
LONG_INT = b"9" * 5000
LONG_INT_ERROR = ("Exceeds the limit (4300 digits) for integer string conversion: value has "
                  "5000 digits; use sys.set_int_max_str_digits() to increase the limit")
OVERFLOWING_HEAD = _with_scaled_head(0, 1e308)  # the softmax head


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
    "json_null_text": (".jsonl", DATA[".jsonl"] + b'{"id": 7, "text": null, "label": 1}\n',
                       "line 7: invalid text None"),
    "json_list_text": (".jsonl", DATA[".jsonl"] + b'{"id": 7, "text": ["a", "b"], "label": 1}\n',
                       "line 7: invalid text ['a', 'b']"),
    "json_bool_id": (".jsonl", DATA[".jsonl"] + b'{"id": true, "text": "a b", "label": 1}\n',
                     "line 7: invalid id True"),
    "json_float_id": (".jsonl", DATA[".jsonl"] + b'{"id": 7.5, "text": "a b", "label": 1}\n',
                      "line 7: invalid id 7.5"),
    "csv_extra_field": (".csv", DATA[".csv"] + b"7,oh really,1,0\n",
                        "line 8: expected 3 fields, got 4"),
    "csv_repeated_column": (".csv", b"id,text,label,text\n1,hello there,1,bye\n",
                            "line 1: csv header names column 'text' twice"),
    "tsv_underscore_id": (".tsv", DATA[".tsv"] + b"1_0\ta b\t1\n", "line 7: invalid id '1_0'"),
    "tsv_fullwidth_id": (".tsv", DATA[".tsv"] + "\uff12\ta b\t1\n".encode(),
                         "line 7: invalid id '\uff12'"),
    "json_underscore_id": (".jsonl", DATA[".jsonl"] + b'{"id": "1_0", "text": "a b", "label": 1}\n',
                           "line 7: invalid id '1_0'"),
    "json_long_int_id": (".jsonl",
                         DATA[".jsonl"] + b'{"id": ' + LONG_INT + b', "text": "a b", "label": 1}\n',
                         f"line 7: bad json: {LONG_INT_ERROR}"),
    "json_long_int_label": (".jsonl", DATA[".jsonl"] + b'{"id": 7, "text": "a b", "label": '
                            + LONG_INT + b"}\n", f"line 7: bad json: {LONG_INT_ERROR}"),
}


@pytest.mark.parametrize("command", ["stats", "train"])
@pytest.mark.parametrize("name", sorted(NAMED_INPUTS))
def test_named_bad_data_exits_2_naming_file_and_line(command, name):
    suffix, data, message = NAMED_INPUTS[name]
    code, err = run(command, suffix, CLEAN_CONFIG if command == "train" else None, data, None)
    assert code == cli.EXIT_DATA
    assert err.startswith("error: ") and err.endswith(f"data{suffix}: {message}\n")
    assert err.count("\n") == 1


# command -> (config bytes, data bytes) with a 5,000-digit value where the
# message echoes it: a TSV label, and a config value
LONG_VALUES = {
    "stats": (None, DATA[".tsv"] + b"7\ta b\t" + LONG_INT + b"\n"),
    "train": (CLEAN_CONFIG + b"epochs=" + LONG_INT + b"\n", DATA[".tsv"]),
}


@pytest.mark.parametrize("command", sorted(LONG_VALUES))
def test_an_echoed_long_value_is_cut_to_one_short_line(command):
    config, data = LONG_VALUES[command]
    code, err = run(command, ".tsv", config, data, None)
    assert code in (cli.EXIT_DATA, cli.EXIT_CONFIG)
    assert err.count("\n") == 1 and len(err) <= 200 + 1, err
    assert "999..." in err


# Separators, keys, quotes and brackets of the three formats, odd values and
# bytes that are not UTF-8, in any order
LOADER_PIECES = [b"\t", b",", b"\n", b"\r", b" ", b'"', b"'", b"{", b"}", b"[", b"]", b":",
                 b'"id"', b'"text"', b'"label"', b"id,text,label\n", b"0", b"1", b"-", b"+",
                 b"_", b"7.5", b"1e999", b"NaN", b"true", b"null", b"sarcastic", b"a b",
                 b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x00", "\uff12".encode(), LONG_INT]
# field values of a record, most of them valid JSON
FIELD_VALUES = [b"1", b"0", b"-3", b" 2 ", b"a b", b'"a b"', b'"1_0"', b'"sarcastic"', LONG_INT,
                b"7.5", b"1e999", b"NaN", b"true", b"null", b"[1]", b'{"x": 1}', b"", b"\xff"]


@st.composite
def loader_inputs(draw):
    """(format, file bytes): bytes at random, LOADER_PIECES in any order, or
    records of the format whose fields are drawn from FIELD_VALUES, one to
    four of them."""
    fmt = draw(st.sampled_from(["tsv", "csv", "json_lines"]))
    kind = draw(st.sampled_from(["bytes", "pieces", "records"]))
    if kind == "bytes":
        return fmt, draw(st.binary(max_size=300))
    if kind == "pieces":
        pieces = st.sampled_from(LOADER_PIECES) | st.binary(max_size=3)
        return fmt, b"".join(draw(st.lists(pieces, max_size=40)))
    rows = draw(st.lists(st.lists(st.sampled_from(FIELD_VALUES), min_size=1, max_size=4),
                         max_size=5))
    if fmt == "json_lines":
        keys = (b'"id"', b'"text"', b'"label"', b'"x"')
        lines = [b"{" + b", ".join(k + b": " + v for k, v in zip(keys, row)) + b"}"
                 for row in rows]
    else:
        lines = [(b"\t" if fmt == "tsv" else b",").join(row) for row in rows]
        lines = [b"id,text,label"] * (fmt == "csv") + lines
    return fmt, b"\n".join(lines) + b"\n"


@given(loader_inputs())
@example(("json_lines", LONG_INT + b"\n"))
@settings(max_examples=400, deadline=None)
def test_the_loader_raises_only_corpus_errors(case):
    """`load_labeled_dataset` on any bytes, in any format, returns examples
    or raises a `CorpusError`, which `cli.main` turns into exit 2."""
    fmt, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        path.write_bytes(blob)
        try:
            corpus.load_labeled_dataset(path, fmt)
        except corpus.CorpusError:
            pass


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
    config = with_lines(config.decode(), f"learning_rate={learning_rate!r}",
                        f"clip_norm={clip_norm}").encode()
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
