"""Corpus ingestion: loaders, tokenization, vocabularies, word-frequency
tables, and random train/test fold planning."""

from __future__ import annotations

import csv
import json
import math
import re
import reprlib
import string
from collections import Counter
from dataclasses import dataclass

from .tensor import RngStream

UNK_ID = 1

_EDGE_PUNCT = string.punctuation
_ID = re.compile(r"[+-]?[0-9]+")  # int() also takes "1_0" and non-ASCII digits

# the most characters a message shows of one input value (see `shown`)
_SHOWN_CHARS = 60
_SHOWN = reprlib.Repr()  # cuts long strings and numbers, and deep or long containers


class CorpusError(ValueError):
    pass


class ParseError(CorpusError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}: line {line}: {message}")


def shown(value) -> str:
    """repr(value), cut to at most _SHOWN_CHARS characters, for a message that
    echoes an input value: the message stays one short line however long
    the value is."""
    text = _SHOWN.repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


@dataclass(frozen=True)
class Document:
    id: int
    text: str


@dataclass(frozen=True)
class LabeledExample:
    doc: Document
    label: int  # 0 = non_sarcastic, 1 = sarcastic


@dataclass
class Vocabulary:
    word_to_id: dict

    @property
    def size(self):
        return len(self.word_to_id) + 2  # pad + unk

    def lookup(self, token: str) -> int:
        return self.word_to_id.get(token, UNK_ID)


@dataclass
class FrequencyTable:
    entries: list  # (word, count, distribution_pct)
    total_tokens: int


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


def _counts(documents) -> Counter:
    """Token counts, the tokens in first-occurrence order, so that
    `most_common` breaks ties by first occurrence."""
    return Counter(tok for doc in documents for tok in tokenize(doc.text))


def build_vocabulary(documents) -> Vocabulary:
    """Ids in descending count order (ties by first occurrence); pad=0, unk=1."""
    counts = _counts(documents)
    if not counts:
        raise CorpusError("documents contain no tokens")
    return Vocabulary({w: i for i, (w, _) in enumerate(counts.most_common(), start=2)})


def frequency_table(documents, top_k: int) -> FrequencyTable:
    """Top-k words by count, percentages as 100*count/total_tokens."""
    if top_k < 1:
        raise CorpusError("top_k must be >= 1")
    counts = _counts(documents)
    total = counts.total()
    entries = [(w, n, 100.0 * n / total) for w, n in counts.most_common(top_k)]
    return FrequencyTable(entries, total)


def _parse_label(raw, path, line_no):
    s = str(raw).strip()
    if s in ("0", "non_sarcastic"):
        return 0
    if s in ("1", "sarcastic"):
        return 1
    raise ParseError(path, line_no, f"invalid label {shown(raw)}")


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
    """Read id/text/label records as TSV, CSV (headered), or JSON lines.
    Every record has exactly the fields its format or header names, and a
    CSV header names each column once; a JSON text must be a string and a
    JSON id an integer or a string. An id is ASCII digits with an optional
    sign, and may have whitespace around it."""
    examples = []

    def add(rec_id, text, label, line_no):
        text = text.strip()
        if not text:
            return
        try:
            if not _ID.fullmatch(str(rec_id).strip()):
                raise ValueError
            rec_id = int(rec_id)
        except ValueError:
            raise ParseError(path, line_no, f"invalid id {shown(rec_id)}")
        examples.append(LabeledExample(Document(rec_id, text),
                                       _parse_label(label, path, line_no)))

    lines = _read_lines(path)
    if format == "tsv":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(parts)}")
            add(parts[0], parts[1], parts[2], line_no)
    elif format == "csv":
        reader = csv.reader(lines)
        try:
            header = next(reader, [])
            if not {"id", "text", "label"} <= set(header):
                raise ParseError(path, 1, "csv header must contain id,text,label")
            repeated = [name for name, n in Counter(header).items() if n > 1]
            if repeated:  # a dict of the row would keep the last such column
                raise ParseError(path, 1, f"csv header names column {shown(repeated[0])} twice")
            for row in reader:  # line_num: the record's last line, past blank and quoted lines
                if not row:  # a blank line
                    continue
                if len(row) != len(header):
                    raise ParseError(path, reader.line_num,
                                     f"expected {len(header)} fields, got {len(row)}")
                rec = dict(zip(header, row))
                add(rec["id"], rec["text"], rec["label"], reader.line_num)
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise ParseError(path, reader.line_num, f"bad csv: {exc}") from None
    elif format == "json_lines":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an int over Python's digit limit
                raise ParseError(path, line_no, f"bad json: {getattr(exc, 'msg', exc)}") from None
            except RecursionError:
                raise ParseError(path, line_no, "bad json: nested too deeply") from None
            if not isinstance(rec, dict):
                raise ParseError(path, line_no, "expected a json object")
            for key in ("id", "text", "label"):
                if key not in rec:
                    raise ParseError(path, line_no, f"missing field {key!r}")
            if isinstance(rec["id"], (bool, float)):  # int() would coerce or truncate it
                raise ParseError(path, line_no, f"invalid id {shown(rec['id'])}")
            if not isinstance(rec["text"], str):
                raise ParseError(path, line_no, f"invalid text {shown(rec['text'])}")
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
    """One Document per non-empty line, its id the line number; no labels."""
    docs = []
    for i, line in enumerate(_read_lines(path), start=1):
        text = line.strip()
        if text:
            docs.append(Document(i, text))
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
