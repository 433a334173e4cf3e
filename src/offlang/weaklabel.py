"""Turn confidence-scored sentences into a balanced weakly labeled corpus.

Sentences with confidence strictly above the high threshold become OFF,
strictly below the low threshold become NOT; everything in between is
discarded. Equal per-class counts are then sampled without replacement.

A scored file, which can hold millions of rows, is read twice rather than
held: the first pass validates every row and keeps the row numbers of each
class's candidates, the second fetches the text of the chosen rows.
"""

from __future__ import annotations

import os
import random
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    Corpus,
    Label,
    LabeledExample,
    ScoredExample,
    read_confidences,
    read_scored_lines,
)
from .errors import InputChanged, InsufficientClassSamples, MalformedRow


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
    return _label_of(example.confidence, config)


def _label_of(confidence: float, config: WeakLabelConfig) -> Label | None:
    if confidence > config.hi_threshold:
        return Label.OFF
    if confidence < config.lo_threshold:
        return Label.NOT
    return None


def _choose(
    labels: Iterable[tuple[int, Label | None]], config: WeakLabelConfig
) -> list[tuple[int, Label]]:
    """The (key, label) of each chosen row, in output order, from the (key,
    weak label) of every row in order; a key is a row's index or line number.

    A single seeded generator draws the OFF sample first, then the NOT sample,
    then shuffles the combined output. random.Random.sample depends only on
    the length of its population, so drawing keys picks the same rows as
    drawing the rows themselves.
    """
    pools = {Label.OFF: array("q"), Label.NOT: array("q")}
    for key, label in labels:
        if label is not None:
            pools[label].append(key)

    k = config.per_class_count
    for label, pool in pools.items():
        if len(pool) < k:
            raise InsufficientClassSamples(label, len(pool), k)

    rng = random.Random(config.seed)
    chosen = [(key, label) for label, pool in pools.items() for key in rng.sample(pool, k)]
    rng.shuffle(chosen)
    return chosen


def build_weak_corpus(scored: Sequence[ScoredExample], config: WeakLabelConfig) -> Corpus:
    """Sample exactly per_class_count OFF and NOT examples without replacement,
    reproducibly byte for byte (see _choose). Ids are not checked here:
    load_scored_tsv rejects a repeated one.
    """
    chosen = _choose(((i, weak_label(ex, config)) for i, ex in enumerate(scored)), config)
    examples = [LabeledExample(scored[i].id, scored[i].text, label) for i, label in chosen]
    return Corpus(language="en", examples=examples)


def weak_label_file(path: str | Path, config: WeakLabelConfig) -> Corpus:
    """build_weak_corpus of the rows of the scored TSV at path, read in two
    passes: the first validates every row, as load_scored_tsv does, and
    keeps each class's candidate line numbers; the second reads the chosen
    lines. A file that changed between the passes fails with InputChanged."""
    stamp = _stamp(path)
    chosen = _choose(
        ((line_no, _label_of(conf, config)) for line_no, conf in read_confidences(path)), config
    )
    if _stamp(path) != stamp:
        raise InputChanged(path)
    slot = {line_no: i for i, (line_no, _) in enumerate(chosen)}
    examples: list = [None] * len(chosen)
    try:
        for line_no, ex in read_scored_lines(path, slot):
            i = slot.pop(line_no)
            label = chosen[i][1]
            if weak_label(ex, config) is not label:
                raise InputChanged(path)
            examples[i] = LabeledExample(ex.id, ex.text, label)
    except MalformedRow:  # the first pass found every row valid
        raise InputChanged(path) from None
    if slot or _stamp(path) != stamp:
        raise InputChanged(path)
    return Corpus(language="en", examples=examples)


def _stamp(path) -> tuple[int, int, int]:
    """What changes when a file is rewritten: inode, size, modification time."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns
