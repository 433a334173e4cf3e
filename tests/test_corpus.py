import random

import pytest

from helpers import tear_writes
from offlang.corpus import (
    Corpus,
    CorpusStats,
    Label,
    LabeledExample,
    corpus_stats,
    load_labeled_tsv,
    load_scored_tsv,
    save_labeled_tsv,
    split_holdout,
)
from offlang.errors import (
    DuplicateId,
    EmptyCorpus,
    MalformedRow,
    OutOfRangeConfidence,
    UnknownLabel,
)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadLabeled:
    def test_basic_row(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\thello world\tNOT\n")
        corpus = load_labeled_tsv(path)
        assert corpus.examples == [LabeledExample("1", "hello world", Label.NOT)]

    def test_two_fields_is_malformed(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\tok\tNOT\n2\tbad text\n")
        with pytest.raises(MalformedRow) as exc:
            load_labeled_tsv(path)
        assert exc.value.line == 2

    def test_case_insensitive_label(self, tmp_path):
        path = write(tmp_path, "a.tsv", "3\tx\toff\n")
        assert load_labeled_tsv(path).examples[0].label is Label.OFF

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\tx\tMAYBE\n")
        with pytest.raises(UnknownLabel):
            load_labeled_tsv(path)

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\tx\tOFF\n1\ty\tNOT\n")
        with pytest.raises(DuplicateId):
            load_labeled_tsv(path)

    def test_header_detected_and_skipped(self, tmp_path):
        path = write(tmp_path, "a.tsv", "id\ttext\tlabel\n1\tx\tOFF\n")
        assert len(load_labeled_tsv(path)) == 1

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\tx\tOFF\tTIN\tUNT\n")
        assert load_labeled_tsv(path).examples[0].label is Label.OFF

    def test_crlf_endings(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\tx\tOFF\r\n2\ty\tNOT\r\n")
        assert [ex.label for ex in load_labeled_tsv(path)] == [Label.OFF, Label.NOT]

    def test_empty_text_is_malformed(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\t   \tOFF\n")
        with pytest.raises(MalformedRow):
            load_labeled_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_labeled_tsv(tmp_path / "nope.tsv")

    def test_order_preserved(self, tmp_path):
        rows = "".join(f"{i}\ttext {i}\tNOT\n" for i in range(50))
        corpus = load_labeled_tsv(write(tmp_path, "a.tsv", rows))
        assert [ex.id for ex in corpus] == [str(i) for i in range(50)]

    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\thello\tOFF\n2\tdéjà vu çok güzel\tNOT\n")
        corpus = load_labeled_tsv(path)
        out = tmp_path / "out.tsv"
        save_labeled_tsv(corpus, out)
        again = load_labeled_tsv(out)
        assert again.examples == corpus.examples


class TestSaveLabeled:
    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_unrepresentable_field_is_refused(self, tmp_path, field, char):
        bad_id, text = (f"b{char}2", "two words") if field == "id" else ("b", f"two{char}words")
        corpus = Corpus("en", [
            LabeledExample("a", "fine", Label.OFF), LabeledExample(bad_id, text, Label.NOT),
        ])
        path = tmp_path / "out.tsv"
        with pytest.raises(ValueError) as exc:
            save_labeled_tsv(corpus, path)
        assert str(exc.value) == (
            f"{path}: example {bad_id!r}: a tab, CR or LF in its id or text cannot be written as TSV"
        )
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.tsv"
        save_labeled_tsv(make_corpus(3, 3), path)
        saved = path.read_bytes()
        tear_writes(monkeypatch, 40)
        with pytest.raises(OSError, match="No space"):
            save_labeled_tsv(make_corpus(30, 30, seed=1), path)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


class TestUndecodableBytes:
    @pytest.mark.parametrize(
        "loader, row",
        [(load_labeled_tsv, b"\tmetin\tOFF"), (load_scored_tsv, b"\tmetin\t0.5")],
        ids=["labeled", "scored"],
    )
    def test_error_names_file_and_line(self, tmp_path, loader, row):
        # The bad line lies past the decoder's first chunk, and a lone \r
        # ends a line as it does for the loader.
        good = b"".join(b"%d%s\n" % (i, row) for i in range(1000))
        path = tmp_path / "bad.tsv"
        path.write_bytes(good + b"x" + row + b"\r" + b"y\xff" + row + b"\n")
        with pytest.raises(MalformedRow) as exc:
            loader(path)
        assert exc.value.line == 1002
        assert str(exc.value) == f"{path}: line 1002: not valid UTF-8"

    def test_truncated_character_on_last_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes("1\tx\tOFF\n2\tkötü".encode("utf-8")[:-1])
        with pytest.raises(MalformedRow) as exc:
            load_labeled_tsv(path)
        assert exc.value.line == 2


class TestLoadScored:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "s.tsv", "9\tsome tweet\t0.93\n")
        scored = load_scored_tsv(path)
        assert scored[0].confidence == pytest.approx(0.93)

    def test_out_of_range(self, tmp_path):
        path = write(tmp_path, "s.tsv", "9\tsome tweet\t1.20\n")
        with pytest.raises(OutOfRangeConfidence):
            load_scored_tsv(path)

    def test_nan_is_malformed(self, tmp_path):
        path = write(tmp_path, "s.tsv", "9\tsome tweet\tNaN\n")
        with pytest.raises(MalformedRow):
            load_scored_tsv(path)

    def test_not_a_number(self, tmp_path):
        path = write(tmp_path, "s.tsv", "9\tsome tweet\thigh\n")
        with pytest.raises(MalformedRow):
            load_scored_tsv(path)

    def test_boundaries_allowed(self, tmp_path):
        path = write(tmp_path, "s.tsv", "1\ta\t0.0\n2\tb\t1.0\n")
        assert [s.confidence for s in load_scored_tsv(path)] == [0.0, 1.0]

    def test_duplicate_id_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "s.tsv", "s1\ta\t0.9\ns2\tb\t0.1\ns1\tc\t0.5\n")
        with pytest.raises(DuplicateId) as info:
            load_scored_tsv(path)
        assert (info.value.path, info.value.line) == (path, 3)

    def test_empty_text_is_malformed(self, tmp_path):
        path = write(tmp_path, "s.tsv", "s1\t \t0.9\n")
        with pytest.raises(MalformedRow, match="line 1: empty text field"):
            load_scored_tsv(path)


def make_corpus(n_off, n_not, seed=0):
    examples = [LabeledExample(f"o{i}", f"off text {i}", Label.OFF) for i in range(n_off)]
    examples += [LabeledExample(f"n{i}", f"not text {i}", Label.NOT) for i in range(n_not)]
    random.Random(seed).shuffle(examples)
    return Corpus("en", examples)


class TestSplitHoldout:
    def test_per_class_counts(self):
        corpus = make_corpus(40, 60)
        train, val = split_holdout(corpus, 0.2, seed=1)
        val_stats = corpus_stats(val)
        train_stats = corpus_stats(train)
        assert (val_stats.off_count, val_stats.not_count) == (8, 12)
        assert (train_stats.off_count, train_stats.not_count) == (32, 48)

    def test_greek_train_sizes(self):
        # 0.2 * 1989 = 397.8 -> 398 OFF; 0.2 * 5005 = 1001 NOT; total 1399.
        corpus = make_corpus(1989, 5005)
        _, val = split_holdout(corpus, 0.2, seed=0)
        stats = corpus_stats(val)
        assert stats.off_count == 398
        assert stats.not_count == 1001
        assert len(val) == 1399

    def test_deterministic(self):
        corpus = make_corpus(30, 50)
        a = split_holdout(corpus, 0.2, seed=9)
        b = split_holdout(corpus, 0.2, seed=9)
        assert [ex.id for ex in a[0]] == [ex.id for ex in b[0]]
        assert [ex.id for ex in a[1]] == [ex.id for ex in b[1]]

    def test_disjoint_and_complete(self):
        corpus = make_corpus(33, 47)
        train, val = split_holdout(corpus, 0.3, seed=4)
        train_ids = {ex.id for ex in train}
        val_ids = {ex.id for ex in val}
        assert not train_ids & val_ids
        assert len(train) + len(val) == len(corpus)
        assert train_ids | val_ids == {ex.id for ex in corpus}

    def test_round_half_up(self):
        # 0.25 * 10 = 2.5 rounds up to 3 per class.
        corpus = make_corpus(10, 10)
        _, val = split_holdout(corpus, 0.25, seed=0)
        stats = corpus_stats(val)
        assert (stats.off_count, stats.not_count) == (3, 3)

    def test_bad_fraction(self):
        corpus = make_corpus(5, 5)
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_holdout(corpus, fraction, seed=0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            split_holdout(Corpus("en", []), 0.2, seed=0)


class TestStats:
    def test_counts(self):
        stats = corpus_stats(make_corpus(1989, 5005))
        assert stats == CorpusStats(1989, 5005)
        assert stats.total == 6994

    def test_empty(self):
        stats = corpus_stats(Corpus("en", []))
        assert (stats.off_count, stats.not_count, stats.total) == (0, 0, 0)

    def test_majority_tie_breaks_to_not(self):
        assert CorpusStats(5, 5).majority is Label.NOT
        assert CorpusStats(6, 5).majority is Label.OFF
