"""Corpus ingestion: tokenization, vocabularies, word-frequency tables,
fixed-length sequence encoding, and random train/test fold planning."""

from __future__ import annotations

import csv
import json
import math
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tensor import RngStream

UNK_ID = 1

_EDGE_PUNCT = string.punctuation


class CorpusError(ValueError):
    pass


class ParseError(CorpusError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Document:
    id: int
    text: str
    source: str = "labeled_dialogue"  # or "plain_literature"


@dataclass(frozen=True)
class LabeledExample:
    doc: Document
    label: int  # 0 = non_sarcastic, 1 = sarcastic


@dataclass
class Vocabulary:
    word_to_id: dict
    id_to_word: dict

    def __len__(self):
        return len(self.word_to_id) + 2  # pad + unk

    @property
    def size(self):
        return len(self)

    def lookup(self, token: str) -> int:
        return self.word_to_id.get(token, UNK_ID)


@dataclass
class FrequencyTable:
    entries: list  # (word, count, distribution_pct)
    total_tokens: int


@dataclass
class EncodedSequence:
    ids: np.ndarray  # int64, shape (L,)
    mask: np.ndarray  # bool, shape (L,)
    length: int


@dataclass
class SplitPlan:
    folds: list  # (train_indices, test_indices) as int lists


def tokenize(text: str) -> list:
    """Lowercase, split on whitespace, strip edge punctuation per token.

    Interior apostrophes survive ("don't"); tokens reduced to nothing drop.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_EDGE_PUNCT)
        if tok:
            out.append(tok)
    return out


def _counts_with_order(documents) -> tuple:
    counts = Counter()
    first_seen = {}
    total = 0
    for doc in documents:
        for tok in tokenize(doc.text):
            if tok not in first_seen:
                first_seen[tok] = total
            counts[tok] += 1
            total += 1
    return counts, first_seen, total


def _ranked(counts, first_seen):
    return sorted(counts, key=lambda w: (-counts[w], first_seen[w]))


def build_vocabulary(documents) -> Vocabulary:
    """Ids in descending count order (ties by first occurrence); pad=0, unk=1."""
    counts, first_seen, total = _counts_with_order(documents)
    if total == 0:
        raise CorpusError("documents contain no tokens")
    word_to_id = {w: i + 2 for i, w in enumerate(_ranked(counts, first_seen))}
    return Vocabulary(word_to_id, {i: w for w, i in word_to_id.items()})


def frequency_table(documents, top_k: int) -> FrequencyTable:
    """Top-k words by count, percentages as 100*count/total_tokens."""
    if top_k < 1:
        raise CorpusError("top_k must be >= 1")
    counts, first_seen, total = _counts_with_order(documents)
    entries = [
        (w, counts[w], 100.0 * counts[w] / total if total else 0.0)
        for w in _ranked(counts, first_seen)[:top_k]
    ]
    return FrequencyTable(entries, total)


def encode(tokens, vocab: Vocabulary, L: int) -> EncodedSequence:
    """First min(len, L) tokens to ids (unk for OOV), tail-padded with pad=0."""
    if L < 1:
        raise CorpusError("L must be >= 1")
    ids = np.zeros(L, dtype=np.int64)
    mask = np.zeros(L, dtype=bool)
    n = min(len(tokens), L)
    for i in range(n):
        ids[i] = vocab.lookup(tokens[i])
        mask[i] = True
    return EncodedSequence(ids, mask, n)


def _parse_label(raw, line_no):
    s = str(raw).strip()
    if s in ("0", "non_sarcastic"):
        return 0
    if s in ("1", "sarcastic"):
        return 1
    raise ParseError(f"invalid label {raw!r}", line=line_no)


def _read_lines(path):
    """Yield the lines of a UTF-8 text file as it is read, without the
    byte-order mark a spreadsheet export may start it with. A file that
    cannot be opened or read, or that is not UTF-8, raises CorpusError
    naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def load_labeled_dataset(path, format: str) -> list:
    """Read id/text/label records as TSV, CSV (headered), or JSON lines."""
    examples = []

    def add(rec_id, text, label, line_no):
        text = str(text).strip()
        if not text:
            return
        try:
            rec_id = int(rec_id)
        except (TypeError, ValueError):
            raise ParseError(f"invalid id {rec_id!r}", line=line_no)
        examples.append(
            LabeledExample(Document(rec_id, text, "labeled_dialogue"), _parse_label(label, line_no))
        )

    lines = _read_lines(path)
    if format == "tsv":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", line=line_no)
            add(parts[0], parts[1], parts[2], line_no)
    elif format == "csv":
        reader = csv.DictReader(lines)
        if reader.fieldnames is None or set(reader.fieldnames) < {"id", "text", "label"}:
            raise ParseError("csv header must contain id,text,label", line=1)
        for line_no, row in enumerate(reader, start=2):
            add(row["id"], row["text"], row["label"], line_no)
    elif format == "json_lines":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad json: {exc.msg}", line=line_no)
            if not isinstance(rec, dict):
                raise ParseError("expected a json object", line=line_no)
            for key in ("id", "text", "label"):
                if key not in rec:
                    raise ParseError(f"missing field {key!r}", line=line_no)
            add(rec["id"], rec["text"], rec["label"], line_no)
    else:
        raise CorpusError(f"unknown format {format!r}")
    return examples


def guess_format(path) -> str:
    """The format of a data file from its suffix: "plain_text" for .txt
    (read with `load_plain_text`, no labels), else a `load_labeled_dataset`
    format, TSV unless the suffix says CSV or JSON lines."""
    name = str(path).lower()
    if name.endswith(".txt"):
        return "plain_text"
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".jsonl") or name.endswith(".ndjson"):
        return "json_lines"
    return "tsv"


def load_plain_text(path) -> list:
    """One Document per non-empty line, source plain_literature."""
    docs = []
    for i, line in enumerate(_read_lines(path), start=1):
        text = line.strip()
        if text:
            docs.append(Document(i, text, "plain_literature"))
    return docs


def make_folds(n: int, k: int, train_fraction: float, seed: int) -> SplitPlan:
    """k seeded random shuffles; each takes round(train_fraction*n) indices
    as train and the rest as test. Half-up rounding."""
    if n < 2:
        raise CorpusError(f"need at least 2 examples, got {n}")
    if k < 1:
        raise CorpusError(f"need k >= 1, got {k}")
    if n < k:
        raise CorpusError(f"only {n} examples for {k} folds")
    if not 0.0 < train_fraction < 1.0:
        raise CorpusError(f"train_fraction out of range: {train_fraction}")
    n_train = int(math.floor(train_fraction * n + 0.5))
    rng = RngStream(seed, 11)
    folds = []
    for _ in range(k):
        perm = rng.permutation(n)
        folds.append((perm[:n_train].tolist(), perm[n_train:].tolist()))
    return SplitPlan(folds)
