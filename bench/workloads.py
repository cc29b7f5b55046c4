"""The benchmark's workloads: seeded inputs, the plstm command that one unit
of work runs, and the fingerprint of that unit's outputs.

Inputs depend only on the seed, and only through `seed % POOL`, so every
input set the benchmark can produce has a golden fingerprint in golden.json.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import patched

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("train_smoke", "train_long", "eval_long")
POOL = 16

SMOKE_EPOCHS = 5
LONG_TRAIN_DOCS = 16
EVAL_DOCS = 512
LONG_CONFIG = "embedding_dim=128\nhidden=32\nseq_len=64\nbatch_size=16\nepochs=1\nverbose=0\n"

# Reference computation for speed.Speedometer: the workload's dominant
# matmul shape (M, K, N), repetitions per probe, and the mean probe time
# during the fastest units measured on a 2.1 GHz Xeon vCPU. Times are scaled
# to that speed, so a scaled rate reads as that machine's uncontended rate.
PROBES = {
    "train_smoke": ((8, 32, 16), 20, 1.25e-3),
    "train_long": ((16, 128, 32), 2, 0.69e-3),
    "eval_long": ((512, 128, 32), 1, 3.57e-3),
}

LEXICON_SIZE = 3000
ZIPF_EXPONENT = 1.1
DOC_TOKENS = (5, 80)  # seq_len 64 sits inside, so some documents pad and some truncate
_SYLLABLES = ("ka", "lo", "mi", "nu", "re", "sa", "ti", "vo",
              "ze", "pa", "do", "fu", "gi", "ha", "je", "bo")


def lexicon(size: int = LEXICON_SIZE) -> list:
    """`size` distinct three-syllable words, most frequent first."""
    words = []
    for i in range(size):
        words.append("".join(_SYLLABLES[(i >> shift) % 16] for shift in (0, 4, 8)))
    return words


def generate_corpus(seed: int, n_docs: int, path) -> None:
    """Write `n_docs` labelled TSV documents: lengths uniform over
    DOC_TOKENS, words Zipf-distributed over the lexicon, labels alternating."""
    rng = np.random.default_rng(seed)
    words = lexicon()
    weights = 1.0 / np.arange(1, LEXICON_SIZE + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    lines = []
    for d in range(n_docs):
        length = int(rng.integers(DOC_TOKENS[0], DOC_TOKENS[1] + 1))
        tokens = rng.choice(LEXICON_SIZE, size=length, p=weights)
        lines.append(f"{d + 1}\t{' '.join(words[t] for t in tokens)}\t{d % 2}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


@dataclass
class Inputs:
    workload: str
    command: str  # "train" or "eval"
    argv: list  # arguments of `plstm`
    sequences: int  # sequences one unit trains on (epochs x documents) or scores
    output: Path  # epochs.csv or report.csv
    properties: dict  # measured properties of the dataset


def _properties(examples, vocab, seq_len: int) -> dict:
    from plstm.corpus import tokenize

    lengths = np.array([len(tokenize(ex.doc.text)) for ex in examples])
    used = np.minimum(lengths, seq_len)
    return {
        "docs": len(examples),
        "vocab_size": vocab.size,
        "truncated_frac": float(np.mean(lengths > seq_len)),
        "useful_step_frac": float(used.sum() / (len(examples) * seq_len)),
        "all_pad_step_frac": float(np.mean(np.arange(seq_len) >= used.max())),
    }


def prepare(workload: str, seed: int, tmp: Path) -> Inputs:
    """Write the workload's input files for `seed` under `tmp`. The eval
    checkpoint is built here from the corpus's own vocabulary, so the
    vocabulary eval rebuilds from the same file matches it."""
    from plstm import cli, corpus
    from plstm.checkpoint import save_checkpoint
    from plstm.model import init_model

    pool = seed % POOL
    if workload == "train_smoke":
        data, cfg, epochs = DATA / "synthetic_train.tsv", DATA / "train_smoke.cfg", SMOKE_EPOCHS
    elif workload in ("train_long", "eval_long"):
        data, cfg, epochs = tmp / f"{workload}.tsv", tmp / "long.cfg", 1
        generate_corpus(pool, LONG_TRAIN_DOCS if workload == "train_long" else EVAL_DOCS, data)
        cfg.write_text(LONG_CONFIG, encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config = cli.load_config(cfg)
    examples = corpus.load_labeled_dataset(data, "tsv")
    vocab = corpus.build_vocabulary([ex.doc for ex in examples])
    props = _properties(examples, vocab, config.seq_len)
    if workload == "eval_long":
        ckpt, report = tmp / "model.ckpt", tmp / "report.csv"
        model = init_model(vocab.size, config.embed_dim, config.hidden, seed=pool,
                           seq_len=config.seq_len)
        save_checkpoint(model, ckpt)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(report)]
        return Inputs(workload, "eval", argv, len(examples), report, props)
    argv = ["train", "--data", str(data), "--config", str(cfg), "--seed", str(pool),
            "--epochs", str(epochs), "--out", str(tmp / "out")]
    return Inputs(workload, "train", argv, epochs * len(examples), tmp / "out" / "epochs.csv",
                  props)


def fingerprint(files, arrays) -> str:
    """sha256 over the files' bytes, then each (name, array) as the name and
    the array's little-endian float64 bytes."""
    h = hashlib.sha256()
    for path in files:
        h.update(Path(path).read_bytes())
    for name, arr in arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def golden_fingerprint(workload: str, seed: int) -> str:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload][str(seed % POOL)]


@dataclass
class Unit:
    setup_s: float  # from the command's start to its first unit of work
    work_s: float  # from there to the command's return
    fingerprint: str  # empty when the command failed
    probe_s: float = 0.0  # mean reference-probe time during the work; 0 if none ran


class _SetupDone(Exception):
    """Stops a set-up-only unit at the set-up boundary."""


def run_unit(inputs: Inputs, tracer=None, setup_only: bool = False, speed=None) -> Unit:
    """Run the workload's plstm command once, in process.

    Set-up ends when the command calls `train` (train) or `encode_dataset`
    (eval). The fingerprint covers epochs.csv and the trained parameters in
    `blocks()` order, or report.csv and the per-branch scores. With a
    `speed.Speedometer`, the command runs while it samples, and the times
    exclude the probes.
    """
    from plstm import cli

    now = speed.now if speed is not None else perf_counter
    marks = {}

    def mark():
        return now(), len(speed.samples) if speed is not None else 0

    def boundary(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks["work"] = mark()
            if setup_only:
                raise _SetupDone
            result = marks["result"] = fn(*args, **kwargs)
            return result
        return wrapper

    def capture_scores(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks["scores"] = result[0]
            return result
        return wrapper

    hooks = ({"train": boundary} if inputs.command == "train"
             else {"encode_dataset": boundary, "forward_batch": capture_scores})
    tracing = tracer.active() if tracer is not None else contextlib.nullcontext()
    sampling = speed.sampling() if speed is not None else contextlib.nullcontext()
    with tracing, patched(hooks), contextlib.redirect_stdout(io.StringIO()), sampling:
        start = mark()
        try:
            code = cli.main(inputs.argv)
        except _SetupDone:
            code = None
        end = mark()
    if "work" not in marks:
        raise RuntimeError(f"{inputs.workload}: plstm {inputs.command} exited {code} "
                           "before its first unit of work")
    work = marks["work"]
    setup_s, work_s = work[0] - start[0], end[0] - work[0]
    probes = speed.samples[work[1]:end[1]] if speed is not None else []
    probe_s = sum(probes) / len(probes) if probes else 0.0
    if setup_only or code != 0:
        return Unit(setup_s, work_s, "", probe_s)
    if inputs.command == "train":
        arrays = marks["result"][0].blocks()
    else:
        arrays = sorted(marks["scores"].items())
    return Unit(setup_s, work_s, fingerprint([inputs.output], arrays), probe_s)
