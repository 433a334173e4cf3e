"""Data model, TSV ingestion, dataset statistics, and stratified holdout splits.

The on-disk format is UTF-8 TSV with an optional header line (detected when
the first field is exactly "id"):

    id<TAB>text<TAB>label        labeled data, label in {OFF, NOT}
    id<TAB>text<TAB>confidence   scored data, confidence in [0, 1]

Fields beyond the third are ignored (some source files carry extra subtask
columns). Tabs inside the text field are therefore not representable.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateId,
    EmptyCorpus,
    MalformedRow,
    OutOfRangeConfidence,
    UnknownLabel,
)

class Label(Enum):
    OFF = "OFF"
    NOT = "NOT"


def parse_label(token: str, line: int) -> Label:
    """Canonicalize a label token case-insensitively; anything else is an error."""
    upper = token.strip().upper()
    if upper == "OFF":
        return Label.OFF
    if upper == "NOT":
        return Label.NOT
    raise UnknownLabel(line, token)


@dataclass(frozen=True)
class LabeledExample:
    id: str
    text: str
    label: Label


@dataclass(frozen=True)
class ScoredExample:
    id: str
    text: str
    confidence: float


@dataclass
class Corpus:
    """Ordered collection of labeled examples for one language/split."""

    language: str
    split: str
    examples: list[LabeledExample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def texts(self) -> list[str]:
        return [ex.text for ex in self.examples]

    def labels(self) -> list[Label]:
        return [ex.label for ex in self.examples]


@dataclass(frozen=True)
class CorpusStats:
    off_count: int
    not_count: int

    @property
    def total(self) -> int:
        return self.off_count + self.not_count

    @property
    def majority(self) -> Label:
        # Documented tie-break: NOT wins ties.
        return Label.OFF if self.off_count > self.not_count else Label.NOT


def corpus_stats(corpus: Corpus) -> CorpusStats:
    off = sum(1 for ex in corpus if ex.label is Label.OFF)
    return CorpusStats(off_count=off, not_count=len(corpus) - off)


# What errors="surrogateescape" decodes a byte to when it is not part of valid
# UTF-8; valid UTF-8 never decodes to these lone surrogates.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _read_rows(path: str | Path, min_fields: int):
    """Yield (line_number, fields) for every data row, skipping a header."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if not line:
                    continue
                fields = line.split("\t")
                if line_no == 1 and fields[0] == "id":
                    continue
                if len(fields) < min_fields:
                    raise MalformedRow(
                        line_no,
                        f"expected >= {min_fields} tab-separated fields, got {len(fields)}",
                    )
                yield line_no, fields
        except UnicodeDecodeError:
            raise MalformedRow(_first_undecodable_line(path), "not valid UTF-8", path) from None


def _first_undecodable_line(path: Path) -> int:
    """The number, as _read_rows counts lines, of the first line of path that
    is not valid UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return next(n for n, line in enumerate(fh, start=1) if _ESCAPED_BYTE.search(line))


def load_labeled_tsv(path: str | Path, language: str = "en", split: str = "train") -> Corpus:
    """Load `id<TAB>text<TAB>label` rows into a Corpus, preserving order."""
    examples: list[LabeledExample] = []
    seen: set[str] = set()
    for line_no, fields in _read_rows(path, 3):
        ex_id, text, label_tok = fields[0], fields[1], fields[2]
        if not text.strip():
            raise MalformedRow(line_no, "empty text field")
        if ex_id in seen:
            raise DuplicateId(ex_id, line_no)
        seen.add(ex_id)
        examples.append(LabeledExample(ex_id, text, parse_label(label_tok, line_no)))
    return Corpus(language=language, split=split, examples=examples)


def save_labeled_tsv(corpus: Corpus, path: str | Path) -> None:
    """Write headerless `id<TAB>text<TAB>label` rows (the loader detects and
    skips a header when one is present)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ex in corpus:
            fh.write(f"{ex.id}\t{ex.text}\t{ex.label.value}\n")


def load_scored_tsv(path: str | Path) -> list[ScoredExample]:
    """Load `id<TAB>text<TAB>confidence` rows; confidence validated to [0, 1]."""
    out: list[ScoredExample] = []
    for line_no, fields in _read_rows(path, 3):
        ex_id, text, conf_tok = fields[0], fields[1], fields[2]
        if not text.strip():
            raise MalformedRow(line_no, "empty text field")
        try:
            conf = float(conf_tok)
        except ValueError:
            raise MalformedRow(line_no, f"confidence {conf_tok!r} is not a number") from None
        if math.isnan(conf) or math.isinf(conf):
            raise MalformedRow(line_no, f"confidence {conf_tok!r} is not finite")
        if not 0.0 <= conf <= 1.0:
            raise OutOfRangeConfidence(line_no, conf)
        out.append(ScoredExample(ex_id, text, conf))
    return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_holdout(
    corpus: Corpus, holdout_fraction: float, seed: int
) -> tuple[Corpus, Corpus]:
    """Stratified holdout split: per class, round(fraction * n) examples go to
    validation (round half up); the remainder stays in train. Deterministic for
    a fixed seed; original corpus order is preserved within each side.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    if len(corpus) == 0:
        raise EmptyCorpus("cannot split an empty corpus")

    rng = random.Random(seed)
    validation_idx: set[int] = set()
    for label in (Label.OFF, Label.NOT):
        class_idx = [i for i, ex in enumerate(corpus.examples) if ex.label is label]
        take = _round_half_up(holdout_fraction * len(class_idx))
        validation_idx.update(rng.sample(class_idx, take))

    train_examples = [ex for i, ex in enumerate(corpus.examples) if i not in validation_idx]
    val_examples = [ex for i, ex in enumerate(corpus.examples) if i in validation_idx]
    return (
        Corpus(corpus.language, "train", train_examples),
        Corpus(corpus.language, "validation", val_examples),
    )
