"""Cross-lingual training-set augmentation.

Each training sentence is translated into the pivot languages and, per pivot,
a new sample is emitted whose text is the original concatenated with the
translation across an explicit separator token. Labels are preserved, so the
augmented set has (1 + #pivots) times the size and exactly scaled class
counts. Only training splits should ever be augmented.

augment_rows yields the augmented rows one input row at a time, so a caller
that writes them as they come holds no augmented corpus. A translation
cache keeps every entry of its journal in memory: that grows with the
number of translated rows.
"""

from __future__ import annotations

import contextlib
import logging
import os
import re
import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, TextIO

from .corpus import Corpus, LabeledExample, naming_os_errors, read_lines
from .errors import (
    AugmentationFailed,
    EmptyCorpus,
    EmptyTranslation,
    InvalidPivots,
    JournalWriteFailed,
    MalformedRow,
    ProviderUnavailable,
    TranslationError,
    TranslationNotFound,
    UnsupportedPair,
)

logger = logging.getLogger(__name__)

SEPARATOR = "[SEP]"
DEFAULT_PIVOTS = ("en", "fr", "de")
ENGLISH_SOURCE_PIVOTS = ("fr", "de", "es")
IO_WORKERS = 4  # threads that augment_rows gives a provider doing I/O
# Rows whose requests are in flight at once on those threads: enough to keep
# them busy, few enough that the results waiting to be written stay small.
IO_WINDOW = 16 * IO_WORKERS


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

    does_io = True  # augment_rows overlaps its requests on a thread pool

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
            return self._translation(resp)
        raise ProviderUnavailable(f"provider gave up after {self.max_retries} retries: {last_error}")

    def _translation(self, resp) -> str:
        """The reply's non-empty string `translation`. Any other reply raises
        a TranslationError naming the endpoint; it is not retried, since a
        malformed reply is not transient."""
        try:
            body = resp.json()
        except ValueError:  # requests' JSONDecodeError too
            body = None
        if not isinstance(body, dict):
            raise TranslationError(f"{self.endpoint}: the reply is not a JSON object")
        translation = body.get("translation")
        if not isinstance(translation, str) or not translation:
            raise TranslationError(
                f"{self.endpoint}: the reply's translation is {translation!r}, "
                "not a non-empty string"
            )
        return translation

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


def _parse_translations(path: str | Path, size: int | None = None):
    """The {(text, source, target): translation} mapping from the lines of a
    `source_text<TAB>source<TAB>target<TAB>translation` TSV (or of its first
    `size` bytes, as read_lines takes it); a later line overrides an earlier
    one for the same triple."""
    entries: dict[tuple[str, str, str], str] = {}
    # The keys share one string per language code, and consecutive lines
    # with the same source text (a row's pivots, as augment writes them)
    # share one string for it.
    codes: dict[str, str] = {}
    escaped = text = ""
    for line_no, line in read_lines(path, size):
        fields = line.split("\t", 3)
        if len(fields) != 4:
            reason = f"expected 4 tab-separated fields, found {len(fields)}"
            raise MalformedRow(line_no, reason, path)
        if fields[0] != escaped:
            escaped, text = fields[0], _unescape(fields[0])
        source = codes.setdefault(fields[1], fields[1])
        target = codes.setdefault(fields[2], fields[2])
        entries[(text, source, target)] = _unescape(fields[3])
    return entries


class TranslationCache:
    """Persistent (text, source, target) -> translation map backed by an
    append-only TSV journal. Read-after-write within a process; reloaded from
    disk on construction so it survives restarts.

    The journal is opened once, on the first `put`, and every entry is flushed
    to the OS before `put` returns; `close()` (or leaving a `with` block)
    releases it. A last line without its line end (`\n` or `\r`), left by an
    interrupted write, is dropped on load and cut from the file when the
    journal is next opened for appending.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()
        self._journal: TextIO | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # Streamed up to the end of the last complete line, so a torn last
        # line is never decoded; only the entries stay in memory.
        end, size = _complete_lines(self.path)
        self._entries = _parse_translations(self.path, end)
        if end < size:
            logger.warning("%s: dropping a torn last line (%d bytes)", self.path, size - end)

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "TranslationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                journal, self._journal = self._journal, None
                with naming_os_errors(self.path):  # closing flushes what a put could not
                    journal.close()

    def get(self, text: str, source: str, target: str) -> str | None:
        return self._entries.get((text, source, target))

    def put(self, text: str, source: str, target: str, translation: str) -> None:
        """Record a translation and append it to the journal; a journal that
        cannot be opened or written raises JournalWriteFailed naming it."""
        with self._lock:
            key = (text, source, target)
            if key in self._entries:
                return
            try:
                if self._journal is None:
                    self._journal = self._open_journal()
                self._journal.write(
                    f"{_escape(text)}\t{source}\t{target}\t{_escape(translation)}\n"
                )
                self._journal.flush()
            except OSError as exc:  # named as naming_os_errors does, without its cost per entry
                self._give_up_journal()
                where = exc.filename or str(self.path)
                raise JournalWriteFailed(exc.errno, exc.strerror or str(exc), where) from exc
            # Recorded once written, so that the same put can be tried again.
            self._entries[key] = translation

    def _give_up_journal(self) -> None:
        """Close the journal after a failed write, so that close() does not
        raise the failure again for the line still in its buffer. A torn
        line that the failure left is cut when the journal is next opened.
        (Should the close write the line after all, a retried put writes it
        again, and the later of two equal lines wins on load.)"""
        journal, self._journal = self._journal, None
        with contextlib.suppress(OSError):
            if journal is not None:
                journal.close()  # one more try at the buffered line

    def _open_journal(self) -> TextIO:
        """The journal opened for appending, cut first to the end of the last
        complete line that it holds now (another cache may have appended)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            end, size = _complete_lines(self.path)
            if end < size:
                os.truncate(self.path, end)
        return open(self.path, "a", encoding="utf-8")


TAIL_BLOCK = 1 << 16  # bytes read at a time while looking for the last line end


def _complete_lines(path: Path) -> tuple[int, int]:
    """(the length of the file at path up to the end of its last complete
    line, its length). A line ends at "\n" or "\r"; the file is searched
    from its end, one TAIL_BLOCK at a time."""
    with open(path, "rb") as fh:
        size = end = fh.seek(0, os.SEEK_END)
        while end > 0:
            start = max(0, end - TAIL_BLOCK)
            fh.seek(start)
            block = fh.read(end - start)
            cut = max(block.rfind(b"\n"), block.rfind(b"\r"))
            if cut >= 0:
                return start + cut + 1, size
            end = start
    return 0, size


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
) -> list[LabeledExample]:
    """One augmented sample per pivot, in pivot order, carrying the source
    label: id "<id>-<pivot>", text "<text> [SEP] <translation>". A failed
    translation raises AugmentationFailed under FAIL_FAST and skips its pivot
    under SKIP_ON_ERROR; a journal that cannot be written raises
    JournalWriteFailed under both."""
    pivots.validated_for(source_language)
    out: list[LabeledExample] = []
    for pivot in pivots.pivots:
        try:
            translated = translate(provider, example.text, source_language, pivot, cache=cache)
        except JournalWriteFailed:
            raise
        except Exception as exc:
            if policy is Policy.FAIL_FAST:
                raise AugmentationFailed(pivot, exc) from exc
            logger.warning("skipping pivot %s for %s: %s", pivot, example.id, exc)
            continue
        out.append(
            LabeledExample(
                f"{example.id}-{pivot}", f"{example.text} {SEPARATOR} {translated}", example.label
            )
        )
    return out


def augment_rows(
    corpus: Corpus,
    pivots: PivotSet,
    provider: TranslationProvider,
    *,
    policy: Policy = Policy.SKIP_ON_ERROR,
    cache: TranslationCache | None = None,
) -> Iterator[LabeledExample]:
    """Original samples plus their per-pivot concatenations, yielded in
    (original index, pivot index) order as each original is translated;
    with every translation succeeding there are (1 + #pivots) * n of them
    and the class ratio is preserved exactly. An empty corpus and a pivot
    set holding the source language fail at the call, before any
    translation. A provider that declares `does_io = True` (HttpProvider) is
    called from IO_WORKERS threads, IO_WINDOW rows at a time; any other runs
    in the calling thread, so a cache journal gains its entries in that same
    input order.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot augment an empty corpus")
    pivots.validated_for(corpus.language)

    def work(example: LabeledExample) -> list[LabeledExample]:
        return augment_example(
            example, pivots, provider, corpus.language, cache=cache, policy=policy
        )

    return _augmented(corpus.examples, work, getattr(provider, "does_io", False))


def _augmented(originals: list[LabeledExample], work, pooled: bool) -> Iterator[LabeledExample]:
    """Each original, then its augmented rows as work(original) gives them,
    one window of IO_WINDOW originals at a time; pooled, a window's work
    runs on IO_WORKERS threads, which closing the generator waits for."""
    with ThreadPoolExecutor(IO_WORKERS) if pooled else contextlib.nullcontext() as pool:
        mapped = pool.map if pooled else map
        for start in range(0, len(originals), IO_WINDOW):
            window = originals[start : start + IO_WINDOW]
            for original, augmented in zip(window, mapped(work, window)):
                yield original
                yield from augmented


def augment_corpus(
    corpus: Corpus,
    pivots: PivotSet,
    provider: TranslationProvider,
    *,
    policy: Policy = Policy.SKIP_ON_ERROR,
    cache: TranslationCache | None = None,
) -> Corpus:
    """The rows of augment_rows as a Corpus of the same language."""
    rows = augment_rows(corpus, pivots, provider, policy=policy, cache=cache)
    return Corpus(corpus.language, list(rows))
