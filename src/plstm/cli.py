"""Batch command-line surface: stats, train, eval, benchmark.

Exit codes: 0 success, 2 data/I-O error, 3 config error. Each read converts
its own failures where it happens: a config file to `ConfigError`, a data
file to `corpus.CorpusError`, a checkpoint to `CheckpointError`; a training
run that diverges raises `ConfigError` too. The commands then run straight
through, and `main` alone maps those three classes, and an `OSError` from
a failed write, to an exit code and one line on stderr. Anything else
propagates as a traceback. A fixed seed makes every command's file outputs
byte-for-byte reproducible. The PLSTM_SEED environment variable fills in
an unset --seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import corpus, worker
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .evaluation import benchmark, classification_report, confusion, render4
from .model import BRANCH_NAMES, expected_param_count, summary
from .train import (ConfigError, ScoresNotFinite, TrainConfig, build_model, encode_dataset,
                    predict_labels, train, write_epoch_csv)

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3

# a `TrainConfig` field annotation -> its value parser; only `float | None` accepts `none`
_PARSERS = {"int": int, "float": float, "str": str,
            "float | None": lambda raw: None if raw.lower() == "none" else float(raw)}
# config key -> (TrainConfig field, value parser), read off TrainConfig
_CONFIG_FIELDS = {f.metadata.get("key", f.name): (f.name, _PARSERS[f.type])
                  for f in fields(TrainConfig)}


# The most bytes a command may ask for up front: its parameter-sized arenas
# (8 bytes a parameter each) plus the encoded data (9 bytes a position: an
# int64 id and a bool mask). Eval holds one arena, the parameters; training
# holds TRAIN_ARENAS. Per-batch working memory comes on top.
MAX_ALLOC_BYTES = 1 << 30
TRAIN_ARENAS = 4  # the parameters, the gradient arena, and Adam's m and v


def _check_allocation(vocab_size: int, embed_dim: int, hidden: int, n_docs: int,
                      seq_len: int, arenas: int = 1):
    """Raise ConfigError, before anything is allocated, if `arenas` copies
    of the parameters and the encoded data would take more than
    MAX_ALLOC_BYTES."""
    need = arenas * expected_param_count(vocab_size, embed_dim, hidden) * 8 + n_docs * seq_len * 9
    if need > MAX_ALLOC_BYTES:
        raise ConfigError(f"the model and encoded data need {need} bytes, more than the "
                          f"limit of {MAX_ALLOC_BYTES}")


def load_config(path) -> TrainConfig:
    """key=value config, one line each, with the keys and value types of
    `_CONFIG_FIELDS`, which are read off `TrainConfig`. Blank lines and `#`
    comments are skipped, and a leading UTF-8 byte-order mark is ignored.
    A key set twice is refused, as a last-wins read would hide the first.
    The values are not validated here; `_config` validates them."""
    values, key_lines = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {corpus.shown(line)}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{line_no}: unknown key {corpus.shown(key)}")
        if key in key_lines:
            raise ConfigError(f"{path}:{line_no}: key {key} is already set on line "
                              f"{key_lines[key]}")
        key_lines[key] = line_no
        name, parse = _CONFIG_FIELDS[key]
        try:
            values[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: "
                              f"{corpus.shown(raw)}") from exc
    return TrainConfig(**values)


def dump_config(config: TrainConfig, path):
    """Every config key and its value, one `key=value` line each, sorted by key."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, (name, _) in sorted(_CONFIG_FIELDS.items()):
            fh.write(f"{key}={getattr(config, name)}\n")


def _config(args) -> TrainConfig:
    """The --config file (or the defaults) with the command's --seed and
    --epochs applied, validated."""
    config = load_config(args.config) if args.config else TrainConfig()
    for key in ("seed", "epochs"):
        if getattr(args, key, None) is not None:
            setattr(config, key, getattr(args, key))
    config.validate()
    return config


def _vocabulary(path, docs):
    """The vocabulary of `docs`, read from `path`; no tokens is a `CorpusError` naming it."""
    try:
        return corpus.build_vocabulary(docs)
    except corpus.CorpusError as exc:
        raise corpus.CorpusError(f"{path}: {exc}") from None


def _labeled(path):
    """The labeled examples in `path` and the vocabulary built from them:
    the one reader of labeled data. Plain text has no labels, so it is
    rejected like any other bad data file, with a `CorpusError` naming it."""
    fmt = corpus.guess_format(path)
    if fmt == "plain_text":
        raise corpus.CorpusError(f"{path}: plain text has no labels")
    examples = corpus.load_labeled_dataset(path, fmt)
    if not examples:
        raise corpus.CorpusError(f"no examples in {path}")
    return examples, _vocabulary(path, [ex.doc for ex in examples])


def cmd_stats(args) -> int:
    if args.top_k < 1:
        raise ConfigError(f"--top-k must be >= 1, got {args.top_k}")
    fmt = corpus.guess_format(args.data)
    docs = (corpus.load_plain_text(args.data) if fmt == "plain_text"
            else [ex.doc for ex in corpus.load_labeled_dataset(args.data, fmt)])
    table = corpus.frequency_table(docs, args.top_k)
    vocab = _vocabulary(args.data, docs)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # a token may hold a comma or a quote
        writer.writerow(["rank", "word", "count", "distribution_pct"])
        for rank, (word, count, pct) in enumerate(table.entries, start=1):
            writer.writerow([rank, word, count, f"{pct:.2f}"])
    print(f"documents: {len(docs)}")
    print(f"tokens: {table.total_tokens}")
    print(f"vocabulary: {len(vocab.word_to_id)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config(args)
    examples, vocab = _labeled(args.data)
    _check_allocation(vocab.size, config.embed_dim, config.hidden, len(examples),
                      config.seq_len, TRAIN_ARENAS)
    data = encode_dataset(examples, vocab, config.seq_len)
    model, logs = train(build_model(config, vocab.size, config.seed), data, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt")
    write_epoch_csv(logs, out / "epochs.csv")
    dump_config(config, out / "config_resolved.cfg")
    (out / "summary.txt").write_text(summary(model), encoding="utf-8")
    return EXIT_OK


def _per_branch_reports(model, data):
    preds = predict_labels(model, data)
    reports = {}
    for name in BRANCH_NAMES:
        counts = confusion(preds[name].tolist(), data.labels.tolist())
        reports[name] = classification_report(counts)
    return reports


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    examples, vocab = _labeled(args.data)
    if vocab.size > model.vocab_size:
        raise corpus.CorpusError(f"{args.data} needs {vocab.size} vocabulary ids but the "
                                 f"checkpoint has {model.vocab_size}")
    _check_allocation(model.vocab_size, model.embed_dim, model.hidden, len(examples),
                      model.seq_len)
    data = encode_dataset(examples, vocab, model.seq_len)
    try:
        reports = _per_branch_reports(model, data)
    except ScoresNotFinite as exc:  # finite parameters that overflow on this data
        raise CheckpointError(f"bad checkpoint: on {args.data}, {exc}") from None
    print(f"{'branch':<10}{'precision':>10}{'recall':>10}{'f1':>10}{'accuracy':>10}")
    rows = ["branch,precision,recall,f1,accuracy\n"]
    for name in BRANCH_NAMES:
        r = reports[name]
        cells = [render4(r.precision), render4(r.recall), render4(r.f1), render4(r.accuracy)]
        print(f"{name:<10}" + "".join(f"{c:>10}" for c in cells))
        rows.append(f"{name},{','.join(cells)}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(rows)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    """Rows per dataset and branch. A dataset whose read, vocabulary or folds
    raise `CorpusError` gets one `skipped: <reason>` row instead; exit 2 if
    every dataset was skipped."""
    config = _config(args)
    csv_rows = [["dataset", "V", "branch", "mean_train_acc", "entire_corpus_acc"]]
    txt_lines = [f"{'dataset':<16}{'V':>8}{'branch':>10}{'train':>10}{'entire':>10}\n"]
    ok = 0
    for path in args.datasets:
        name = Path(path).stem
        try:
            examples, vocab = _labeled(path)
            _check_allocation(vocab.size, config.embed_dim, config.hidden, len(examples),
                              config.seq_len, TRAIN_ARENAS)
            r = benchmark(examples, vocab, config)
        except corpus.CorpusError as exc:
            csv_rows.append([name, "", "", f"skipped: {exc}", ""])
            txt_lines.append(f"{name:<16} skipped: {exc}\n")
            continue
        ok += 1
        for branch in r.mean_train_acc:
            csv_rows.append([name, r.vocab_len, branch, f"{r.mean_train_acc[branch]:.2f}",
                             f"{r.entire_corpus_acc[branch]:.2f}"])
            txt_lines.append(f"{name:<16}{r.vocab_len:>8}{branch:>10}"
                             f"{r.mean_train_acc[branch]:>10.2f}{r.entire_corpus_acc[branch]:>10.2f}\n")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "benchmark.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(csv_rows)  # quotes a cell with a comma
    (out / "benchmark.txt").write_text("".join(txt_lines), encoding="utf-8")
    sys.stdout.write("".join(txt_lines))
    return EXIT_OK if ok else EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plstm",
                                     description="parallel bidirectional LSTM sarcasm classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus frequency statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the four-branch model")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-branch classification report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchmark", help="cross-training benchmark over datasets")
    p.add_argument("--config")
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    """Run one command and map its failure, if any, to an exit code.

    `ConfigError` exits 3 and `corpus.CorpusError` or `CheckpointError`
    exits 2, each with its message as one line on stderr. Reads convert
    their own failures into those classes, so an `OSError` that gets here
    is a failed write: it exits 2 naming the file. Anything else is a bug
    and propagates. The command runs in a `worker.scope()`, in which its
    large passes run their backward direction in the direction worker, and
    which reaps that process before `main` returns or raises.
    """
    args = build_parser().parse_args(argv)
    try:
        if "PLSTM_SEED" in os.environ and hasattr(args, "seed") and args.seed is None:
            raw = os.environ["PLSTM_SEED"]
            try:
                args.seed = int(raw)
            except ValueError:
                raise ConfigError(f"PLSTM_SEED must be an integer, got "
                                  f"{corpus.shown(raw)}") from None
        with worker.scope():  # reaped on every way out of the command
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (corpus.CorpusError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
