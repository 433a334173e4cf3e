"""Metrics, the majority baseline, grid search, and the two ablation protocols.

Macro-F1 is the unweighted mean of the two per-class F1 scores. A class with
zero precision+recall contributes F1 = 0; this zero-division convention is
what makes the majority baseline well defined on degenerate predictions.
Reports keep full float precision internally; table emitters round to four
decimal places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment as augment_mod
from . import train as train_mod
from .corpus import CLASSES, Corpus, CorpusStats, Label, split_holdout
from .encoder import (
    EncoderConfig,
    EncoderModel,
    Vocabulary,
    build_vocab,
    encode_corpus,
    forward,
)
from .errors import DivergenceError, EmptyCorpus


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[predicted][gold] over {OFF, NOT}."""

    counts: tuple[tuple[int, int], ...]  # row = predicted class, col = gold class

    def get(self, predicted: Label, gold: Label) -> int:
        return self.counts[CLASSES.index(predicted)][CLASSES.index(gold)]


@dataclass(frozen=True)
class EvalReport:
    system: str
    macro_f1: float
    accuracy: float
    per_class: dict[Label, ClassMetrics]
    confusion: ConfusionMatrix
    config_fingerprint: str = ""
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
            "per_class": {
                label.value: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                }
                for label, m in self.per_class.items()
            },
            "confusion": {
                f"pred_{p.value}": {f"gold_{g.value}": self.confusion.get(p, g) for g in CLASSES}
                for p in CLASSES
            },
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def evaluate(
    predictions: list[Label],
    gold: list[Label],
    *,
    system: str = "",
    config_fingerprint: str = "",
    seed: int = 0,
) -> EvalReport:
    """Per-class precision/recall/F1, macro-F1, accuracy, and the confusion matrix."""
    if len(predictions) != len(gold):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold")
    if not gold:
        raise ValueError("cannot evaluate an empty prediction list")

    counts = [[0, 0], [0, 0]]
    for pred, actual in zip(predictions, gold):
        counts[CLASSES.index(pred)][CLASSES.index(actual)] += 1

    per_class: dict[Label, ClassMetrics] = {}
    for k, label in enumerate(CLASSES):
        tp = counts[k][k]
        fp = sum(counts[k]) - tp
        fn = sum(row[k] for row in counts) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1)

    diagonal = counts[0][0] + counts[1][1]
    return EvalReport(
        system=system,
        macro_f1=sum(m.f1 for m in per_class.values()) / len(CLASSES),
        accuracy=diagonal / len(gold),
        per_class=per_class,
        confusion=ConfusionMatrix(tuple(tuple(row) for row in counts)),
        config_fingerprint=config_fingerprint,
        seed=seed,
    )


def majority_baseline(train_stats: CorpusStats, gold: list[Label]) -> EvalReport:
    """Predict the majority training class for every example, then evaluate."""
    if train_stats.total == 0:
        raise EmptyCorpus("majority baseline needs non-degenerate train stats")
    majority = train_stats.majority
    return evaluate([majority] * len(gold), gold, system="majority-baseline")


def predict_labels(
    model: EncoderModel,
    head: train_mod.ClassifierHead,
    vocab: Vocabulary,
    texts: list[str],
) -> list[Label]:
    """Inference on original sentences only: encode, apply the head, argmax.

    Texts are labelled train.FEATURE_BATCH rows at a time, each batch padded
    to its longest row, so labels do not depend on the batch size and memory
    follows the batch, not the corpus. An inference forward keeps no
    activation cache and runs its score scaling, softmax and GELU in place,
    so it holds about two and a half of its largest arrays at once: for
    batches of 128 rows of 128 tokens at h=64, whose FFN activations and
    attention probabilities are 32 MiB each, the traced numpy peak is about
    80 MiB (tests/test_evaluation.py bounds it). cli.main keeps freed
    blocks on glibc's heap, so each batch reuses the blocks the previous one
    freed."""
    batch = train_mod.FEATURE_BATCH
    labels: list[Label] = []
    for start in range(0, len(texts), batch):
        ids, mask = encode_corpus(texts[start : start + batch], vocab, model.config.max_len)
        labels += head.predict(forward(model, ids, mask)[0])
    return labels


@dataclass
class GridCell:
    learning_rate: float
    batch_size: int
    report: EvalReport | None  # None: the cell diverged


@dataclass
class GridSearchResult:
    best: train_mod.TrainConfig
    cells: list[GridCell] = field(default_factory=list)


def grid_search(
    learning_rates: list[float],
    batch_sizes: list[int],
    train_corpus: Corpus,
    validation: Corpus,
    base_config: train_mod.TrainConfig,
    encoder_config: EncoderConfig,
) -> GridSearchResult:
    """Train one model per (learning_rate, batch_size) cell with the shared seed
    and select the max validation macro-F1. Ties break to the first cell in
    declared order; diverged cells are recorded and excluded from selection.
    """
    if not learning_rates or not batch_sizes:
        raise ValueError("grid must contain at least one learning rate and one batch size")
    cells: list[GridCell] = []
    best_cell: GridCell | None = None
    for lr in learning_rates:
        for bs in batch_sizes:
            config = replace(base_config, learning_rate=lr, batch_size=bs)
            system = f"lr={lr:g},batch={bs}"
            try:
                report = _train_and_eval(train_corpus, validation, config, encoder_config, system)
            except DivergenceError:
                cells.append(GridCell(lr, bs, None))
                continue
            cell = GridCell(lr, bs, report)
            cells.append(cell)
            if best_cell is None or report.macro_f1 > best_cell.report.macro_f1:
                best_cell = cell
    if best_cell is None:
        raise DivergenceError("every grid cell diverged")
    best_config = replace(
        base_config, learning_rate=best_cell.learning_rate, batch_size=best_cell.batch_size
    )
    return GridSearchResult(best=best_config, cells=cells)


def _train_and_eval(
    train_corpus: Corpus,
    eval_corpus: Corpus,
    config: train_mod.TrainConfig,
    encoder_config: EncoderConfig,
    system: str,
) -> EvalReport:
    vocab = build_vocab(train_corpus, encoder_config)
    model = EncoderModel.initialize(encoder_config, vocab.size)
    result = train_mod.train_single(train_corpus, model, vocab, config)
    preds = predict_labels(result.model, result.head, vocab, eval_corpus.texts())
    return evaluate(preds, eval_corpus.labels(), system=system, seed=config.seed)


def ablation_augmentation(
    corpus: Corpus,
    pivots: augment_mod.PivotSet,
    provider,
    config: train_mod.TrainConfig,
    encoder_config: EncoderConfig,
    *,
    holdout_fraction: float = 0.2,
) -> list[EvalReport]:
    """Two arms differing only in the augmentation step: both train on the same
    holdout split (validation members identical), with identical seeds/configs;
    only the training corpus of the second arm is augmented.
    """
    train_split, validation = split_holdout(corpus, holdout_fraction, config.seed)
    without = _train_and_eval(train_split, validation, config, encoder_config, "-Augmentation")
    augmented = augment_mod.augment_corpus(
        train_split, pivots, provider, policy=augment_mod.Policy.FAIL_FAST
    )
    with_aug = _train_and_eval(augmented, validation, config, encoder_config, "+Augmentation")
    return [without, with_aug]


def ablation_english(
    gold_corpus: Corpus,
    weak_corpus: Corpus,
    test: Corpus,
    config: train_mod.TrainConfig,
    encoder_config: EncoderConfig,
) -> list[EvalReport]:
    """Three arms sharing seeds: a head on encoder A alone (fine-tuned on the
    gold corpus), a head on encoder B alone (fine-tuned on the weak corpus),
    and a head on the dual concatenation. All heads are trained on the gold
    corpus with encoders frozen, so arms differ only in the representation.
    """
    if len(test) == 0:
        raise EmptyCorpus("cannot evaluate on an empty test corpus")
    combined = Corpus(gold_corpus.language, list(gold_corpus.examples) + list(weak_corpus.examples))
    vocab = build_vocab(combined, encoder_config)

    model_a = EncoderModel.initialize(encoder_config, vocab.size)
    model_a = train_mod.train_single(gold_corpus, model_a, vocab, config).model
    model_b = EncoderModel.initialize(encoder_config, vocab.size)
    model_b = train_mod.train_single(weak_corpus, model_b, vocab, config).model

    # Each encoder's frozen CLS vectors on the gold and the test texts, computed
    # once and shared by the arms; every head is seeded from config.seed alone.
    gold_x = [train_mod.frozen_features(m, gold_corpus.texts(), vocab) for m in (model_a, model_b)]
    test_x = [train_mod.frozen_features(m, test.texts(), vocab) for m in (model_a, model_b)]
    y = train_mod.label_ids(gold_corpus)
    reports: list[EvalReport] = []
    for system, arm in (("encoder-A-only", [0]), ("encoder-B-only", [1]), ("dual", [0, 1])):
        head, _ = train_mod.train_head(np.concatenate([gold_x[i] for i in arm], axis=1), y, config)
        preds = head.predict(np.concatenate([test_x[i] for i in arm], axis=1))
        reports.append(evaluate(preds, test.labels(), system=system, seed=config.seed))
    return reports
