"""Cross-lingual training-set augmentation.

Each training sentence is translated into the pivot languages and, per pivot,
a new sample is emitted whose text is the original concatenated with the
translation across an explicit separator token. Labels are preserved, so the
augmented set has (1 + #pivots) times the size and exactly scaled class
counts. Only training splits should ever be augmented.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, TextIO

from .corpus import Corpus, Label, LabeledExample, read_lines
from .errors import (
    AugmentationFailed,
    EmptyCorpus,
    EmptyTranslation,
    InvalidPivots,
    MalformedRow,
    ProviderUnavailable,
    TranslationNotFound,
    UnsupportedPair,
)

logger = logging.getLogger(__name__)

SEPARATOR = "[SEP]"
DEFAULT_PIVOTS = ("en", "fr", "de")
ENGLISH_SOURCE_PIVOTS = ("fr", "de", "es")
IO_WORKERS = 4  # threads that augment_corpus gives a provider doing I/O


@dataclass(frozen=True)
class PivotSet:
    pivots: tuple[str, ...] = DEFAULT_PIVOTS

    def __post_init__(self):
        if not self.pivots:
            raise InvalidPivots("pivot set must not be empty")
        if len(set(self.pivots)) != len(self.pivots):
            raise InvalidPivots(f"duplicate pivots in {self.pivots}")

    def validated_for(self, source_language: str) -> "PivotSet":
        if source_language in self.pivots:
            raise InvalidPivots(
                f"pivot set {self.pivots} contains the source language {source_language!r}"
            )
        return self

    @classmethod
    def default_for(cls, source_language: str) -> "PivotSet":
        """The default pivots, remapped when the source is English (which would
        otherwise appear in its own pivot set)."""
        if source_language == "en":
            logger.warning(
                "source language is en; remapping default pivots to %s",
                ENGLISH_SOURCE_PIVOTS,
            )
            return cls(ENGLISH_SOURCE_PIVOTS)
        return cls(DEFAULT_PIVOTS)


@dataclass(frozen=True)
class AugmentedExample:
    id: str
    original_text: str
    translated_text: str
    pivot: str
    label: Label

    @property
    def rendered_text(self) -> str:
        return f"{self.original_text} {SEPARATOR} {self.translated_text}"


class TranslationProvider(Protocol):
    def translate(self, text: str, source: str, target: str) -> str: ...

    def supports(self, source: str, target: str) -> bool: ...


class MockTaggingProvider:
    """Deterministic offline provider: prefix-tags the input with the target code."""

    def __init__(self):
        self.calls = 0

    def translate(self, text: str, source: str, target: str) -> str:
        self.calls += 1
        return f"{target}\u27e6{text}\u27e7"

    def supports(self, source: str, target: str) -> bool:
        return True


class MappingProvider:
    """Serves pre-computed translations from an in-memory mapping.

    The file form is a TSV of `source_text<TAB>source<TAB>target<TAB>translation`.
    """

    def __init__(self, entries: dict[tuple[str, str, str], str]):
        self.entries = dict(entries)
        self._pairs = frozenset((source, target) for _, source, target in self.entries)
        self.calls = 0

    @classmethod
    def from_tsv(cls, path: str | Path) -> "MappingProvider":
        return cls(_parse_translations(path))

    def translate(self, text: str, source: str, target: str) -> str:
        self.calls += 1
        key = (text, source, target)
        if key not in self.entries:
            raise TranslationNotFound(f"no entry for {source}->{target}: {text[:60]!r}")
        return self.entries[key]

    def supports(self, source: str, target: str) -> bool:
        return (source, target) in self._pairs


class HttpProvider:
    """Remote provider: POST {"q": text, "source": ..., "target": ...} and read
    back {"translation": ...}. Retries transient failures with exponential
    backoff before raising ProviderUnavailable.
    """

    does_io = True  # augment_corpus overlaps its requests on a thread pool

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        *,
        timeout: float = 10.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        session=None,
    ):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.session = session or requests.Session()

    def translate(self, text: str, source: str, target: str) -> str:
        import requests

        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"q": text, "source": source, "target": target}
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in (429,) or resp.status_code >= 500:
                last_error = ProviderUnavailable(f"HTTP {resp.status_code} from provider")
                continue
            if resp.status_code >= 400:
                raise UnsupportedPair(source, target)
            return resp.json()["translation"]
        raise ProviderUnavailable(f"provider gave up after {self.max_retries} retries: {last_error}")

    def supports(self, source: str, target: str) -> bool:
        return True


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)  # a backslash and the character it escapes


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[0]), text)


def _parse_translations(path: str | Path, data: bytes | None = None):
    """The {(text, source, target): translation} mapping from the lines of a
    `source_text<TAB>source<TAB>target<TAB>translation` TSV (or of `data`, as
    read_lines takes it); a later line overrides an earlier one for the same
    triple."""
    entries: dict[tuple[str, str, str], str] = {}
    for line_no, line in read_lines(path, data):
        fields = line.split("\t", 3)
        if len(fields) != 4:
            reason = f"expected 4 tab-separated fields, found {len(fields)}"
            raise MalformedRow(line_no, reason, path)
        source_text, source, target, translation = fields
        entries[(_unescape(source_text), source, target)] = _unescape(translation)
    return entries


class TranslationCache:
    """Persistent (text, source, target) -> translation map backed by an
    append-only TSV journal. Read-after-write within a process; reloaded from
    disk on construction so it survives restarts.

    The journal is opened once, on the first `put`, and every entry is flushed
    to the OS before `put` returns; `close()` (or leaving a `with` block)
    releases it. A last line without its line end (`\n` or `\r`), left by an
    interrupted write, is dropped on load and cut from the file before the
    next append.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()
        self._journal: TextIO | None = None
        self._complete_bytes: int | None = None  # set when the last line is torn
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # Read and decoded in one piece, not streamed: its entries all stay
        # in memory anyway, and a torn last line is cut off the bytes before
        # they are parsed.
        data = self.path.read_bytes()
        end = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        self._complete_bytes = end if end < len(data) else None
        self._entries = _parse_translations(self.path, data[:end])
        if end < len(data):
            logger.warning("%s: dropping a torn last line (%d bytes)", self.path, len(data) - end)

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "TranslationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def get(self, text: str, source: str, target: str) -> str | None:
        return self._entries.get((text, source, target))

    def put(self, text: str, source: str, target: str, translation: str) -> None:
        with self._lock:
            key = (text, source, target)
            if key in self._entries:
                return
            self._entries[key] = translation
            if self._journal is None:
                self._journal = self._open_journal()
            self._journal.write(
                f"{_escape(text)}\t{source}\t{target}\t{_escape(translation)}\n"
            )
            self._journal.flush()

    def _open_journal(self) -> TextIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._complete_bytes is not None:
            os.truncate(self.path, self._complete_bytes)
            self._complete_bytes = None
        return open(self.path, "a", encoding="utf-8")


def translate(
    provider: TranslationProvider,
    text: str,
    source: str,
    target: str,
    *,
    cache: TranslationCache | None = None,
) -> str:
    """Cache-first translation; the provider is only consulted on a miss and
    its (validated, non-empty) answer is written back."""
    if cache is not None:
        hit = cache.get(text, source, target)
        if hit is not None:
            return hit
    if not provider.supports(source, target):
        raise UnsupportedPair(source, target)
    translation = provider.translate(text, source, target)
    if not translation:
        raise EmptyTranslation(source, target)
    if cache is not None:
        cache.put(text, source, target, translation)
    return translation


class Policy(Enum):
    FAIL_FAST = "fail_fast"
    SKIP_ON_ERROR = "skip_on_error"


def augment_example(
    example: LabeledExample,
    pivots: PivotSet,
    provider: TranslationProvider,
    source_language: str,
    *,
    cache: TranslationCache | None = None,
    policy: Policy = Policy.SKIP_ON_ERROR,
) -> list[AugmentedExample]:
    """One augmented sample per pivot, in pivot order, carrying the source label."""
    pivots.validated_for(source_language)
    out: list[AugmentedExample] = []
    for pivot in pivots.pivots:
        try:
            translated = translate(provider, example.text, source_language, pivot, cache=cache)
        except Exception as exc:
            if policy is Policy.FAIL_FAST:
                raise AugmentationFailed(pivot, exc) from exc
            logger.warning("skipping pivot %s for %s: %s", pivot, example.id, exc)
            continue
        out.append(
            AugmentedExample(
                id=f"{example.id}-{pivot}",
                original_text=example.text,
                translated_text=translated,
                pivot=pivot,
                label=example.label,
            )
        )
    return out


def augment_corpus(
    corpus: Corpus,
    pivots: PivotSet,
    provider: TranslationProvider,
    *,
    policy: Policy = Policy.SKIP_ON_ERROR,
    cache: TranslationCache | None = None,
) -> Corpus:
    """Original samples plus their per-pivot concatenations; with every
    translation succeeding the result has (1 + #pivots) * n examples and the
    class ratio preserved exactly. Output order is (original index, pivot
    index). A provider that declares `does_io = True` (HttpProvider) is called
    from IO_WORKERS threads; any other runs in the calling thread, so a cache
    journal gains its entries in that same input order.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot augment an empty corpus")
    pivots.validated_for(corpus.language)

    def work(example: LabeledExample) -> list[AugmentedExample]:
        return augment_example(
            example, pivots, provider, corpus.language, cache=cache, policy=policy
        )

    if getattr(provider, "does_io", False):
        with ThreadPoolExecutor(max_workers=IO_WORKERS) as pool:
            augmented_lists = list(pool.map(work, corpus.examples))
    else:
        augmented_lists = [work(ex) for ex in corpus.examples]

    examples: list[LabeledExample] = []
    for original, augmented in zip(corpus.examples, augmented_lists):
        examples.append(original)
        for aug in augmented:
            examples.append(LabeledExample(aug.id, aug.rendered_text, aug.label))
    return Corpus(corpus.language, corpus.split, examples)
