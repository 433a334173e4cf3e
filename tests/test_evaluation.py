import json
import random

import pytest

from helpers import ForwardRecorder

import offlang.evaluation as evaluation_mod
from offlang.augment import PivotSet
from offlang.corpus import Corpus, CorpusStats, Label
from offlang.datagen import (
    cue_encoder_config,
    cue_train_config,
    disambiguation_task,
    separable_toy_corpus,
    toy_encoder_config,
    toy_train_config,
)
from offlang.encoder import EncoderModel, build_vocab
from offlang.errors import DivergenceError, EmptyCorpus
from offlang.evaluation import (
    ablation_augmentation,
    ablation_english,
    evaluate,
    grid_search,
    majority_baseline,
    predict_labels,
)
from offlang.train import train_dual, train_single

OFF, NOT = Label.OFF, Label.NOT

# (train (off, not), test (off, not), published majority macro-F1)
TABLE_ROWS = {
    "tr": ((4837, 20184), (716, 2812), 0.4435),
    "ar": ((1371, 5468), (402, 1598), 0.4441),
    "el": ((1989, 5005), (242, 1302), 0.4575),
    "da": ((307, 2061), (41, 288), 0.4668),
    "en": ((300_000, 300_000), (1080, 2807), 0.4193),
}


def counting_oracle(predictions, gold):
    """Independent per-class counting: explicit loops, no shared code with
    the implementation under test."""
    out = {}
    for cls in (OFF, NOT):
        tp = fp = fn = 0
        for p, g in zip(predictions, gold):
            if p is cls and g is cls:
                tp += 1
            elif p is cls:
                fp += 1
            elif g is cls:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[cls] = (precision, recall, f1)
    macro = (out[OFF][2] + out[NOT][2]) / 2
    accuracy = sum(p is g for p, g in zip(predictions, gold)) / len(gold)
    return out, macro, accuracy


class TestEvaluate:
    def test_hand_computed_example(self):
        gold = [OFF, OFF, NOT, NOT]
        pred = [OFF, NOT, NOT, NOT]
        report = evaluate(pred, gold)
        assert report.per_class[OFF].f1 == pytest.approx(2 / 3)
        assert report.per_class[NOT].f1 == pytest.approx(0.8)
        assert report.macro_f1 == pytest.approx(0.73333, abs=1e-4)

    def test_perfect_predictions(self):
        gold = [OFF, NOT, NOT, OFF, OFF]
        report = evaluate(list(gold), gold)
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0

    def test_english_majority_distribution(self):
        gold = [OFF] * 1080 + [NOT] * 2807
        report = evaluate([NOT] * len(gold), gold)
        assert report.macro_f1 == pytest.approx(0.4193, abs=1e-4)

    def test_matches_counting_oracle(self):
        rng = random.Random(123)
        for _ in range(1000):
            n = rng.randint(1, 500)
            gold = [OFF if rng.random() < rng.random() else NOT for _ in range(n)]
            pred = [OFF if rng.random() < 0.5 else NOT for _ in range(n)]
            report = evaluate(pred, gold)
            per_class, macro, accuracy = counting_oracle(pred, gold)
            assert abs(report.macro_f1 - macro) <= 1e-12
            assert abs(report.accuracy - accuracy) <= 1e-12
            for cls in (OFF, NOT):
                assert abs(report.per_class[cls].precision - per_class[cls][0]) <= 1e-12
                assert abs(report.per_class[cls].recall - per_class[cls][1]) <= 1e-12
                assert abs(report.per_class[cls].f1 - per_class[cls][2]) <= 1e-12

    def test_relabel_invariance(self):
        rng = random.Random(5)
        flip = {OFF: NOT, NOT: OFF}
        for _ in range(50):
            n = rng.randint(1, 60)
            gold = [rng.choice((OFF, NOT)) for _ in range(n)]
            pred = [rng.choice((OFF, NOT)) for _ in range(n)]
            a = evaluate(pred, gold)
            b = evaluate([flip[p] for p in pred], [flip[g] for g in gold])
            assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)

    def test_accuracy_one_iff_diagonal(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 60)
            gold = [rng.choice((OFF, NOT)) for _ in range(n)]
            pred = [rng.choice((OFF, NOT)) for _ in range(n)]
            report = evaluate(pred, gold)
            off_diagonal = report.confusion.get(OFF, NOT) + report.confusion.get(NOT, OFF)
            assert (report.accuracy == 1.0) == (off_diagonal == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([OFF], [OFF, NOT])

    def test_empty(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_json_stable(self):
        report = evaluate([OFF, NOT], [OFF, OFF], system="x")
        assert report.to_json() == report.to_json()
        data = json.loads(report.to_json())
        assert list(data) == [
            "system", "macro_f1", "accuracy", "per_class", "confusion",
            "config_fingerprint", "seed",
        ]


class TestPredictLabels:
    def models(self):
        corpus = separable_toy_corpus(150, seed=0)
        encoder_config = toy_encoder_config()
        vocab = build_vocab(corpus, encoder_config)
        config = toy_train_config(epochs=1)
        model_a = EncoderModel.initialize(encoder_config, vocab.size)
        model_a = train_single(corpus, model_a, vocab, config).model
        model_b = EncoderModel.initialize(toy_encoder_config(seed=1), vocab.size)
        head, _ = train_dual(corpus, model_a, model_b, vocab, config)
        return corpus.texts(), vocab, model_a, model_b, head

    def test_labels_do_not_depend_on_batch_size(self):
        texts, vocab, model_a, model_b, head = self.models()
        reference = predict_labels(model_a, head, vocab, texts, second_model=model_b, batch_size=1)
        assert set(reference) == {OFF, NOT}
        for batch_size in (7, 128):
            assert reference == predict_labels(
                model_a, head, vocab, texts, second_model=model_b, batch_size=batch_size
            )

    def test_each_forward_gets_one_trimmed_batch(self, monkeypatch):
        texts, vocab, model_a, model_b, head = self.models()
        recorder = ForwardRecorder(evaluation_mod.forward)
        monkeypatch.setattr(evaluation_mod, "forward", recorder)
        predict_labels(model_a, head, vocab, texts, second_model=model_b, batch_size=64)
        recorder.assert_per_batch(64)
        assert [rows for rows, *_ in recorder.calls] == [64, 64, 64, 64, 22, 22]

    def test_empty_input(self):
        texts, vocab, model_a, _, head = self.models()
        assert predict_labels(model_a, head, vocab, [], batch_size=8) == []


class TestMajorityBaseline:
    @pytest.mark.parametrize("lang", sorted(TABLE_ROWS))
    def test_published_values(self, lang):
        (tr_off, tr_not), (te_off, te_not), expected = TABLE_ROWS[lang]
        gold = [OFF] * te_off + [NOT] * te_not
        report = majority_baseline(CorpusStats(tr_off, tr_not), gold)
        assert report.macro_f1 == pytest.approx(expected, abs=1e-4)

    def test_tie_breaks_to_not(self):
        report = majority_baseline(CorpusStats(5, 5), [OFF, NOT])
        assert report.confusion.get(NOT, OFF) == 1  # predicted NOT everywhere

    def test_gold_all_majority(self):
        report = majority_baseline(CorpusStats(1, 9), [NOT] * 10)
        assert report.macro_f1 == pytest.approx(0.5)
        assert report.per_class[NOT].f1 == 1.0
        assert report.per_class[OFF].f1 == 0.0

    def test_degenerate_stats(self):
        with pytest.raises(EmptyCorpus):
            majority_baseline(CorpusStats(0, 0), [OFF])


def small_task(seed=0):
    corpus = separable_toy_corpus(120, seed=seed)
    train_corpus = Corpus("en", "train", corpus.examples[:80])
    validation = Corpus("en", "validation", corpus.examples[80:])
    return train_corpus, validation


class TestGridSearch:
    def test_singleton_grid(self):
        train_corpus, validation = small_task()
        result = grid_search(
            [8e-3], [8], train_corpus, validation, toy_train_config(), toy_encoder_config()
        )
        assert result.best.learning_rate == 8e-3
        assert result.best.batch_size == 8
        assert len(result.cells) == 1

    def test_tie_breaks_to_first_declared(self):
        # Both batch sizes exceed n, so each cell trains on one identical
        # full batch per epoch: genuinely tied cells.
        train_corpus, validation = small_task(seed=1)
        result = grid_search(
            [8e-3], [200, 300], train_corpus, validation,
            toy_train_config(seed=1), toy_encoder_config(seed=1),
        )
        assert result.cells[0].report.macro_f1 == result.cells[1].report.macro_f1
        assert result.best.batch_size == 200

    def test_diverged_cell_excluded(self):
        train_corpus, validation = small_task(seed=2)
        result = grid_search(
            [1e4, 8e-3], [8], train_corpus, validation,
            toy_train_config(seed=2), toy_encoder_config(seed=2),
        )
        assert result.cells[0].diverged
        assert not result.cells[1].diverged
        assert result.best.learning_rate == 8e-3

    def test_all_diverged(self):
        train_corpus, validation = small_task(seed=3)
        with pytest.raises(DivergenceError):
            grid_search(
                [1e4, 2e4], [8], train_corpus, validation,
                toy_train_config(seed=3), toy_encoder_config(seed=3),
            )

    def test_empty_grid(self):
        train_corpus, validation = small_task()
        with pytest.raises(ValueError):
            grid_search([], [8], train_corpus, validation, toy_train_config(), toy_encoder_config())


class TestAblationAugmentation:
    def test_two_labeled_reports(self):
        corpus, provider = disambiguation_task(n=40, seed=0)
        reports = ablation_augmentation(
            corpus,
            PivotSet(("en", "fr", "de")),
            provider,
            cue_train_config(epochs=1),
            cue_encoder_config(),
        )
        assert [r.system for r in reports] == ["-Augmentation", "+Augmentation"]

    def test_shared_validation_set(self):
        corpus, provider = disambiguation_task(n=40, seed=1)
        reports = ablation_augmentation(
            corpus,
            PivotSet(("en", "fr", "de")),
            provider,
            cue_train_config(seed=1, epochs=1),
            cue_encoder_config(seed=1),
        )
        assert reports[0].confusion.total == reports[1].confusion.total
        gold_counts_a = [reports[0].confusion.get(p, OFF) for p in (OFF, NOT)]
        gold_counts_b = [reports[1].confusion.get(p, OFF) for p in (OFF, NOT)]
        assert sum(gold_counts_a) == sum(gold_counts_b)  # same gold distribution


class TestAblationEnglish:
    def test_three_labeled_reports(self):
        gold = separable_toy_corpus(60, seed=0)
        weak = separable_toy_corpus(60, seed=1)
        test = separable_toy_corpus(40, seed=2)
        reports = ablation_english(
            gold, weak, test, toy_train_config(epochs=1), toy_encoder_config()
        )
        assert [r.system for r in reports] == ["encoder-A-only", "encoder-B-only", "dual"]
        for r in reports:
            assert r.confusion.total == 40
