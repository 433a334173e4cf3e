"""Data model, reading and writing files, dataset statistics, and stratified
holdout splits.

Every input table of the toolkit is read line by line through read_lines, and
every artifact is written through atomic_write. The corpus format is UTF-8
TSV with an optional header line (detected when the first field is exactly
"id"):

    id<TAB>text<TAB>label        labeled data, label in {OFF, NOT}
    id<TAB>text<TAB>confidence   scored data, confidence in [0, 1]

Fields beyond the third are ignored (some source files carry extra subtask
columns). Tabs and line ends inside an id or text are therefore not
representable, and save_labeled_tsv refuses them.

read_labeled and read_confidences stream the rows of a file, and
save_labeled_tsv writes the rows of any iterable as they come, so a stage
that transforms row by row holds one row at a time. Each of them keeps the
ids it has seen, to refuse a repeated one, so its memory still grows with
the number of rows.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import DuplicateId, EmptyCorpus, MalformedRow, OutOfRangeConfidence, UnknownLabel

class Label(Enum):
    OFF = "OFF"
    NOT = "NOT"


# The class order of head outputs and confusion-matrix rows.
CLASSES = (Label.OFF, Label.NOT)


def parse_label(token: str, line: int, path) -> Label:
    """Canonicalize a label token case-insensitively; anything else is an error."""
    upper = token.strip().upper()
    if upper == "OFF":
        return Label.OFF
    if upper == "NOT":
        return Label.NOT
    raise UnknownLabel(line, token, path)


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
    """Ordered collection of labeled examples in one language."""

    language: str
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


def read_lines(path: str | Path, size: int | None = None):
    """Yield (line_number, line) for every non-blank line of the UTF-8 text
    file at path, streamed; with `size`, of its first `size` bytes only. A
    line ends at "\n", "\r\n" or "\r", which is not part of it. The first
    line that is not valid UTF-8 fails as `<path>: line N: not valid UTF-8`,
    and a failed read as an OSError that names path."""
    try:
        with naming_os_errors(path):
            if size is None:
                fh = open(path, encoding="utf-8", newline="")
            else:
                raw = io.BufferedReader(_Prefix(open(path, "rb"), size))
                fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            with fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.rstrip("\r\n")
                    if line:
                        yield line_no, line
    except UnicodeDecodeError:
        raise MalformedRow(_first_undecodable_line(path), "not valid UTF-8", path) from None


class _Prefix(io.RawIOBase):
    """The first `size` bytes of the binary file fh, which it closes."""

    def __init__(self, fh, size: int):
        self.fh, self.left = fh, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.fh.readinto(memoryview(buffer)[: self.left])
        self.left -= n
        return n

    def close(self) -> None:
        self.fh.close()
        super().close()


@contextmanager
def naming_os_errors(path: str | Path):
    """Name path in an OSError that the block raises without a file name,
    such as a failed read or write of a file that is already open."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _first_undecodable_line(path) -> int:
    """The number, as read_lines counts lines, of the first line of path that
    is not valid UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return next(n for n, line in enumerate(fh, start=1) if _ESCAPED_BYTE.search(line))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """A file handle ("w": UTF-8 text, "wb": bytes) whose contents replace
    path when the block ends without an exception. They are written to a
    temporary file beside path and renamed over it, so path never holds a
    partial write; on an exception path is left as it was. An OSError that
    the block raises without a file name, such as a failed write, names
    path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with naming_os_errors(path), open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_rows(path: str | Path, min_fields: int):
    """Yield (line_number, fields) for every data row, skipping a header. A
    row needs min_fields fields, a non-blank text (field 2) and an id (field
    1) that no earlier row has."""
    path = Path(path)
    seen: set[str] = set()
    for line_no, line in read_lines(path):
        fields = line.split("\t")
        if line_no == 1 and fields[0] == "id":
            continue
        if len(fields) < min_fields:
            reason = f"expected >= {min_fields} tab-separated fields, got {len(fields)}"
            raise MalformedRow(line_no, reason, path)
        if not fields[1].strip():
            raise MalformedRow(line_no, "empty text field", path)
        if fields[0] in seen:
            raise DuplicateId(fields[0], line_no, path)
        seen.add(fields[0])
        yield line_no, fields


def read_labeled(path: str | Path) -> Iterator[LabeledExample]:
    """Stream the `id<TAB>text<TAB>label` rows of path, in order."""
    for line_no, fields in _read_rows(path, 3):
        yield LabeledExample(fields[0], fields[1], parse_label(fields[2], line_no, path))


def load_labeled_tsv(path: str | Path, language: str = "en") -> Corpus:
    """Load `id<TAB>text<TAB>label` rows into a Corpus, preserving order."""
    return Corpus(language=language, examples=list(read_labeled(path)))


def save_labeled_tsv(examples: Iterable[LabeledExample], path: str | Path) -> int:
    """Write headerless `id<TAB>text<TAB>label` rows (the loader detects and
    skips a header when one is present), row by row as `examples` yields
    them; the number of rows. An id or text holding a tab, CR or LF, and an
    id an earlier row has, fail naming the file and the example, and path is
    left as it was, as it is when `examples` raises."""
    seen: set[str] = set()
    with atomic_write(path) as fh:
        for ex in examples:
            fields = ex.id + ex.text
            if "\t" in fields or "\n" in fields or "\r" in fields:
                reason = "a tab, CR or LF in its id or text cannot be written as TSV"
                raise ValueError(f"{path}: example {ex.id!r}: {reason}")
            if ex.id in seen:
                raise ValueError(f"{path}: example {ex.id!r}: an earlier example has the same id")
            seen.add(ex.id)
            fh.write(f"{ex.id}\t{ex.text}\t{ex.label.value}\n")
    return len(seen)


def _confidence(token: str, line_no: int, path) -> float:
    """The confidence that a row's third field gives, validated to [0, 1]."""
    try:
        conf = float(token)
    except ValueError:
        raise MalformedRow(line_no, f"confidence {token!r} is not a number", path) from None
    if math.isnan(conf) or math.isinf(conf):
        raise MalformedRow(line_no, f"confidence {token!r} is not finite", path)
    if not 0.0 <= conf <= 1.0:
        raise OutOfRangeConfidence(line_no, conf, path)
    return conf


def _scored(fields: list[str], line_no: int, path) -> ScoredExample:
    return ScoredExample(fields[0], fields[1], _confidence(fields[2], line_no, path))


def load_scored_tsv(path: str | Path) -> list[ScoredExample]:
    """Load `id<TAB>text<TAB>confidence` rows; confidence validated to [0, 1]."""
    return [_scored(fields, line_no, path) for line_no, fields in _read_rows(path, 3)]


def read_confidences(path: str | Path) -> Iterator[tuple[int, float]]:
    """Stream (line number, confidence) for the rows of the scored TSV at
    path, in order, each row validated as load_scored_tsv validates it."""
    for line_no, fields in _read_rows(path, 3):
        yield line_no, _confidence(fields[2], line_no, path)


def read_scored_lines(path: str | Path, line_numbers) -> Iterator[tuple[int, ScoredExample]]:
    """Stream (line number, example) for the rows of the scored TSV at path
    on the given lines, in file order. Only their arity and confidence are
    checked: it is meant for a file that read_confidences has validated."""
    for line_no, line in read_lines(path):
        if line_no in line_numbers:
            fields = line.split("\t")
            if len(fields) < 3:
                raise MalformedRow(line_no, "expected >= 3 tab-separated fields", path)
            yield line_no, _scored(fields, line_no, path)


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
        Corpus(corpus.language, train_examples),
        Corpus(corpus.language, val_examples),
    )
