"""Turn confidence-scored sentences into a balanced weakly labeled corpus.

Sentences with confidence strictly above the high threshold become OFF,
strictly below the low threshold become NOT; everything in between is
discarded. Equal per-class counts are then sampled without replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import Corpus, Label, LabeledExample, ScoredExample
from .errors import InsufficientClassSamples


@dataclass(frozen=True)
class WeakLabelConfig:
    hi_threshold: float = 0.8
    lo_threshold: float = 0.2
    per_class_count: int = 300_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lo_threshold < self.hi_threshold <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 <= lo < hi <= 1, got "
                f"lo={self.lo_threshold}, hi={self.hi_threshold}"
            )
        if self.per_class_count < 1:
            raise ValueError("per_class_count must be positive")


def weak_label(example: ScoredExample, config: WeakLabelConfig) -> Label | None:
    """Strict inequalities at both thresholds; boundary values are discarded."""
    if example.confidence > config.hi_threshold:
        return Label.OFF
    if example.confidence < config.lo_threshold:
        return Label.NOT
    return None


def build_weak_corpus(scored: list[ScoredExample], config: WeakLabelConfig) -> Corpus:
    """Sample exactly per_class_count OFF and NOT examples without replacement.

    A single seeded generator draws the OFF sample first, then the NOT sample,
    then shuffles the combined output, so runs are reproducible byte for byte.
    Ids are not checked here: load_scored_tsv rejects a repeated one.
    """
    pools: dict[Label, list[ScoredExample]] = {Label.OFF: [], Label.NOT: []}
    for ex in scored:
        label = weak_label(ex, config)
        if label is not None:
            pools[label].append(ex)

    k = config.per_class_count
    for label in (Label.OFF, Label.NOT):
        if len(pools[label]) < k:
            raise InsufficientClassSamples(label, len(pools[label]), k)

    rng = random.Random(config.seed)
    chosen: list[LabeledExample] = []
    for label in (Label.OFF, Label.NOT):
        for ex in rng.sample(pools[label], k):
            chosen.append(LabeledExample(ex.id, ex.text, label))
    rng.shuffle(chosen)
    return Corpus(language="en", split="train", examples=chosen)
