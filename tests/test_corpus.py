import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plstm.corpus import (
    UNK_ID,
    CorpusError,
    Document,
    LabeledExample,
    ParseError,
    Vocabulary,
    build_vocabulary,
    frequency_table,
    load_labeled_dataset,
    load_plain_text,
    make_folds,
    tokenize,
)
from plstm.train import encode_dataset


def docs(*texts):
    return [Document(i, t) for i, t in enumerate(texts, start=1)]


class TestTokenize:
    def test_strips_edge_punctuation(self):
        assert tokenize("Oh, I really know!") == ["oh", "i", "really", "know"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_interior_apostrophe_and_whitespace(self):
        assert tokenize("don't   go") == ["don't", "go"]

    def test_punctuation_only_tokens_drop(self):
        assert tokenize("... -- !?") == []

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestVocabulary:
    def test_count_order(self):
        vocab = build_vocabulary(docs("oh oh yeah"))
        assert vocab.word_to_id == {"oh": 2, "yeah": 3}

    def test_tie_broken_by_first_occurrence(self):
        vocab = build_vocabulary(docs("b a", "a b"))
        assert vocab.word_to_id == {"b": 2, "a": 3}

    def test_ids_dense_from_two(self):
        vocab = build_vocabulary(docs("x y z z y x w"))
        ids = sorted(vocab.word_to_id.values())
        assert ids == list(range(2, 2 + len(ids)))


class TestFrequencyTable:
    def test_three_token_arithmetic(self):
        table = frequency_table(docs("a a b"), top_k=2)
        assert table.entries[0][:2] == ("a", 2)
        assert table.entries[1][:2] == ("b", 1)
        assert abs(table.entries[0][2] - 200.0 / 3.0) < 1e-9
        assert table.total_tokens == 3

    def test_fewer_entries_than_top_k(self):
        table = frequency_table(docs("x"), top_k=5)
        assert table.entries == [("x", 1, 100.0)]

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(0)
        words = ["oh", "know", "like", "yeah", "well", "go"]
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(30)]
        table = frequency_table(docs(*texts), top_k=100)
        all_tokens = [tok for t in texts for tok in tokenize(t)]
        for word, count, _ in table.entries:
            assert count == sum(1 for tok in all_tokens if tok == word)
        assert sum(c for _, c, _ in table.entries) == table.total_tokens == len(all_tokens)


class TestRanking:
    """The vocabulary and the frequency table share one ranking: count
    descending, ties by first position in the whole token stream, across
    documents."""

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "B", "c!", "d", "...", "e"]),
                             max_size=8).map(" ".join), min_size=1, max_size=6),
           st.integers(1, 8))
    @example(["b a", "a b"], 1)
    @example(["c d", "d c e", "e"], 3)
    @settings(max_examples=200)
    def test_ranking_matches_brute_force(self, texts, top_k):
        stream = [tok for text in texts for tok in tokenize(text)]
        if not stream:
            with pytest.raises(CorpusError):
                build_vocabulary(docs(*texts))
            return
        ranked = sorted(set(stream), key=lambda w: (-stream.count(w), stream.index(w)))
        vocab = build_vocabulary(docs(*texts))
        assert list(vocab.word_to_id.items()) == [(w, i + 2) for i, w in enumerate(ranked)]
        table = frequency_table(docs(*texts), top_k)
        assert [(w, n) for w, n, _ in table.entries] == [(w, stream.count(w))
                                                         for w in ranked[:top_k]]
        assert table.total_tokens == len(stream)


class TestEncode:
    VOCAB = Vocabulary({"oh": 2, "yeah": 3, "sure": 4})

    @given(st.lists(st.tuples(st.lists(st.sampled_from(["oh", "yeah", "sure", "zzz", "qq"]),
                                       max_size=10),
                              st.integers(0, 1)), max_size=6),
           st.integers(1, 12))
    @example(rows=[], L=4)
    @example(rows=[(["oh", "zzz"], 1), (["sure"], 0)], L=12)
    @settings(max_examples=200)
    def test_encode_dataset_rule(self, rows, L):
        """Row i holds example i's first L token ids, `UNK_ID` for a word
        outside the vocabulary, then pad 0; the mask is set exactly where a
        token is; labels keep input order."""
        examples = [LabeledExample(Document(i, " ".join(words) + "!"), label)
                    for i, (words, label) in enumerate(rows)]
        data = encode_dataset(examples, self.VOCAB, L)
        assert (data.ids.dtype, data.mask.dtype, data.labels.dtype) == (np.int64, bool, np.int64)
        assert data.ids.shape == data.mask.shape == (len(rows), L)
        assert data.labels.shape == (len(rows),)
        for (words, _), ids, mask in zip(rows, data.ids, data.mask):
            kept = [self.VOCAB.word_to_id[w] if w in self.VOCAB.word_to_id else UNK_ID
                    for w in words[:L]]
            pad = L - len(kept)
            assert ids.tolist() == kept + [0] * pad
            assert mask.tolist() == [True] * len(kept) + [False] * pad
        assert data.labels.tolist() == [label for _, label in rows]

    @staticmethod
    def encode_one(tokens, vocab, L):
        data = encode_dataset([LabeledExample(Document(1, " ".join(tokens)), 0)], vocab, L)
        return data.ids[0], data.mask[0]

    def test_padding(self):
        ids, mask = self.encode_one(["oh", "yeah"], self.VOCAB, L=5)
        assert ids.tolist() == [2, 3, 0, 0, 0]
        assert mask.tolist() == [True, True, False, False, False]

    def test_unknown_word(self):
        ids, mask = self.encode_one(["zzz"], self.VOCAB, L=2)
        assert ids.tolist() == [UNK_ID, 0]
        assert mask.tolist() == [True, False]

    def test_truncation(self):
        vocab = Vocabulary({"a": 2, "b": 3, "c": 4})
        ids, mask = self.encode_one(["a", "b", "c"], vocab, L=2)
        assert ids.tolist() == [2, 3]
        assert mask.tolist() == [True, True]

    def test_round_trip_in_vocab(self):
        vocab = build_vocabulary(docs("one two three four"))
        tokens = ["three", "one", "four"]
        ids, mask = self.encode_one(tokens, vocab, L=6)
        kept = ids[mask].tolist()
        assert kept == [vocab.lookup(t) for t in tokens]
        id_to_word = {i: w for w, i in vocab.word_to_id.items()}
        assert [id_to_word[i] for i in kept] == tokens


class TestLoaders:
    def test_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\tOh great.\t1\n2\tfine day\t0\n")
        examples = load_labeled_dataset(p, "tsv")
        assert len(examples) == 2
        assert examples[0].doc.text == "Oh great."
        assert examples[0].label == 1
        assert examples[1].label == 0

    def test_tsv_bad_label(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\thello\t1\n2\thello\t7\n")
        with pytest.raises(ParseError, match="line 2"):
            load_labeled_dataset(p, "tsv")

    def test_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,text,label\n1,hello there,sarcastic\n2,bye,non_sarcastic\n")
        examples = load_labeled_dataset(p, "csv")
        assert [ex.label for ex in examples] == [1, 0]

    def test_csv_error_names_the_physical_line(self, tmp_path):
        # a blank line and a two-line quoted text put record 3 on line 6
        p = tmp_path / "d.csv"
        p.write_text('id,text,label\n1,hello,0\n\n2,"two\nlines",1\n3,bad,7\n')
        with pytest.raises(ParseError, match="line 6: invalid label"):
            load_labeled_dataset(p, "csv")

    def test_json_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [{"id": 1, "text": "a b", "label": 1}, {"id": 2, "text": "c", "label": "0"}]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        examples = load_labeled_dataset(p, "json_lines")
        assert [ex.label for ex in examples] == [1, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_labeled_dataset(tmp_path / "nope.tsv", "tsv")

    def test_plain_text_drops_empty_lines(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("abc\n\ndef\n")
        loaded = load_plain_text(p)
        assert [d.text for d in loaded] == ["abc", "def"]

    def test_plain_text_empty_file(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("")
        assert load_plain_text(p) == []


class TestMakeFolds:
    def test_corpus_sized_split(self):
        plan = make_folds(690, 5, 0.6, seed=1)
        assert len(plan.folds) == 5
        for train_idx, test_idx in plan.folds:
            assert len(train_idx) == 414
            assert len(test_idx) == 276
            assert set(train_idx).isdisjoint(test_idx)
            assert set(train_idx) | set(test_idx) == set(range(690))

    def test_smallest_case(self):
        plan = make_folds(5, 1, 0.6, seed=0)
        (train_idx, test_idx), = plan.folds
        assert len(train_idx) == 3 and len(test_idx) == 2
        assert set(train_idx) | set(test_idx) == {0, 1, 2, 3, 4}

    def test_deterministic(self):
        a = make_folds(100, 5, 0.6, seed=9)
        b = make_folds(100, 5, 0.6, seed=9)
        assert a.folds == b.folds

    def test_degenerate_inputs(self):
        with pytest.raises(CorpusError):
            make_folds(1, 1, 0.6, seed=0)
        with pytest.raises(CorpusError):
            make_folds(3, 5, 0.6, seed=0)

    @given(st.integers(2, 200), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_partition_property(self, n, k, seed):
        k = min(k, n)
        plan = make_folds(n, k, 0.6, seed)
        n_train = int(np.floor(0.6 * n + 0.5))
        for train_idx, test_idx in plan.folds:
            assert len(train_idx) == n_train
            assert set(train_idx).isdisjoint(test_idx)
            assert set(train_idx) | set(test_idx) == set(range(n))
