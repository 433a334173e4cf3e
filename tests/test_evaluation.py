import json
import random
import tracemalloc

import numpy as np
import pytest

from helpers import ForwardRecorder

import offlang.evaluation as evaluation_mod
import offlang.train as train_mod
from offlang.augment import PivotSet
from offlang.corpus import Corpus, CorpusStats, Label, LabeledExample
from offlang.datagen import (
    cue_encoder_config,
    cue_train_config,
    disambiguation_task,
    separable_toy_corpus,
    toy_encoder_config,
    toy_train_config,
)
from offlang.encoder import RESERVED_TOKENS, EncoderConfig, EncoderModel, Vocabulary, build_vocab
from offlang.errors import DivergenceError, EmptyCorpus
from offlang.evaluation import (
    ablation_augmentation,
    ablation_english,
    evaluate,
    grid_search,
    majority_baseline,
    predict_labels,
)
from offlang.train import (
    FEATURE_BATCH,
    ClassifierHead,
    frozen_features,
    label_ids,
    train_dual,
    train_head,
    train_single,
)

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
    def trained(self):
        corpus = separable_toy_corpus(150, seed=0)
        encoder_config = toy_encoder_config()
        vocab = build_vocab(corpus, encoder_config)
        model = EncoderModel.initialize(encoder_config, vocab.size)
        result = train_single(corpus, model, vocab, toy_train_config(epochs=1))
        return corpus.texts(), vocab, result.model, result.head

    def test_labels_do_not_depend_on_batch_size(self, monkeypatch):
        texts, vocab, model, head = self.trained()
        labels = {}
        for batch in (1, 7, 64, 128):
            monkeypatch.setattr(train_mod, "FEATURE_BATCH", batch)
            labels[batch] = predict_labels(model, head, vocab, texts)
        assert set(labels[1]) == {OFF, NOT}
        assert all(labels[batch] == labels[1] for batch in labels)

    def test_each_forward_gets_one_trimmed_batch(self, monkeypatch):
        texts, vocab, model, head = self.trained()
        recorder = ForwardRecorder(evaluation_mod.forward)
        monkeypatch.setattr(evaluation_mod, "forward", recorder)
        monkeypatch.setattr(train_mod, "FEATURE_BATCH", 64)
        predict_labels(model, head, vocab, texts)
        recorder.assert_per_batch(64)
        assert [rows for rows, *_ in recorder.calls] == [64, 64, 22]

    def test_empty_input(self):
        texts, vocab, model, head = self.trained()
        assert predict_labels(model, head, vocab, []) == []

    def test_peak_memory_is_a_few_of_the_largest_activations(self):
        # At the CLI default encoder (h=64, L=2, T=128), 128 rows of 128
        # tokens make the FFN's (128 x 128, 4h) float64 arrays and the
        # first layer's (128, heads, 128, 128) attention probabilities 32 MiB
        # each. In place and with no cache, inference peaked at 2.54 of them;
        # keeping every layer's activations and making new arrays, at 7.79.
        config = EncoderConfig()
        words = [f"w{i}" for i in range(200)]
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + words)
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(words, size=config.max_len)) for _ in range(128)]
        model = EncoderModel.initialize(config, vocab.size)
        head = ClassifierHead.initialize(config.hidden_size, 0)
        largest = 128 * config.max_len * config.ffn * 8
        tracemalloc.start()
        try:
            predict_labels(model, head, vocab, texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * largest, f"peak {peak / largest:.2f} x {largest} bytes"


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
    train_corpus = Corpus("en", corpus.examples[:80])
    validation = Corpus("en", corpus.examples[80:])
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
        assert result.cells[0].report is None
        assert result.cells[1].report is not None
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
        totals = [sum(map(sum, r.confusion.counts)) for r in reports]
        assert totals[0] == totals[1]
        gold_counts_a = [reports[0].confusion.get(p, OFF) for p in (OFF, NOT)]
        gold_counts_b = [reports[1].confusion.get(p, OFF) for p in (OFF, NOT)]
        assert sum(gold_counts_a) == sum(gold_counts_b)  # same gold distribution


ENGLISH_SYSTEMS = ("encoder-A-only", "encoder-B-only", "dual")


def flipped(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    rng = random.Random(seed)
    swap = {OFF: NOT, NOT: OFF}
    examples = [
        LabeledExample(ex.id, ex.text, swap[ex.label] if rng.random() < fraction else ex.label)
        for ex in corpus
    ]
    return Corpus(corpus.language, examples)


def english_task(seed: int):
    """Gold and test sets above FEATURE_BATCH rows, so features take two
    batches; noisy weak labels, so the B-only arm differs from the others."""
    gold = flipped(separable_toy_corpus(FEATURE_BATCH + 22, seed=seed), 0.15, seed)
    weak = flipped(separable_toy_corpus(60, seed=seed + 10), 0.4, seed)
    test = separable_toy_corpus(FEATURE_BATCH + 12, seed=seed + 20)
    return gold, weak, test, toy_train_config(seed=seed), toy_encoder_config(seed=seed)


def composed_english_ablation(gold, weak, test, config, encoder_config) -> list[dict]:
    """The ablation as separate calls, each extracting its own features: per
    single arm, a head trained on the encoder's frozen gold features and
    predict_labels; for the dual arm, train_dual and the head applied to both
    encoders' test features, concatenated here."""
    combined = Corpus("en", list(gold.examples) + list(weak.examples))
    vocab = build_vocab(combined, encoder_config)
    encoders = [
        train_single(corpus, EncoderModel.initialize(encoder_config, vocab.size), vocab, config).model
        for corpus in (gold, weak)
    ]
    preds = []
    for model in encoders:
        head, _ = train_head(frozen_features(model, gold.texts(), vocab), label_ids(gold), config)
        preds.append(predict_labels(model, head, vocab, test.texts()))
    head, _ = train_dual(gold, *encoders, vocab, config)
    test_x = [frozen_features(model, test.texts(), vocab) for model in encoders]
    preds.append(head.predict(np.concatenate(test_x, axis=1)))
    return [
        evaluate(p, test.labels(), system=system, seed=config.seed).to_dict()
        for p, system in zip(preds, ENGLISH_SYSTEMS)
    ]


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
            assert sum(map(sum, r.confusion.counts)) == 40

    def test_empty_test_corpus_fails_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the test corpus")

        monkeypatch.setattr(train_mod, "train_single", no_training)
        gold = separable_toy_corpus(20, seed=0)
        with pytest.raises(EmptyCorpus):
            ablation_english(
                gold, gold, Corpus("en", []), toy_train_config(), toy_encoder_config()
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_equal_the_composed_ablation(self, seed):
        task = english_task(seed)
        reports = [r.to_dict() for r in ablation_english(*task)]
        assert reports == composed_english_ablation(*task)
        assert reports[1]["confusion"] != reports[0]["confusion"]

    def test_each_encoder_runs_once_per_corpus(self, monkeypatch):
        # Every frozen forward runs through train.frozen_features.
        recorder = ForwardRecorder(train_mod.forward)
        monkeypatch.setattr(train_mod, "forward", recorder)
        monkeypatch.setattr(evaluation_mod, "forward", None)
        gold, weak, test, config, encoder_config = english_task(0)
        ablation_english(gold, weak, test, config, encoder_config)

        recorder.assert_per_batch(FEATURE_BATCH)
        inference_rows = [rows for rows, _, _, train in recorder.calls if not train]
        gold_rows = [FEATURE_BATCH, len(gold) - FEATURE_BATCH]
        test_rows = [FEATURE_BATCH, len(test) - FEATURE_BATCH]
        assert inference_rows == gold_rows * 2 + test_rows * 2
        assert sum(inference_rows) == 2 * len(gold) + 2 * len(test)
