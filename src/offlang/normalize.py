"""English tweet normalization: placeholder substitution, emoji textualization,
hashtag segmentation, slang expansion, number removal, whitespace cleanup.

Steps run in a fixed order (user/url, emoji, hashtag, slang, numbers);
hashtag segmentation must precede slang expansion so segmented words can be
slang keys, and number removal runs late so it cannot break earlier
substitutions. Slang expansion and number removal re-join the tokens with
single spaces, which is the whitespace cleanup. Output is lowercased except
for the reserved `<user>` placeholder. The whole pipeline is idempotent as
long as the slang map satisfies its closure invariant (no replacement phrase
contains a key of the map).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import read_lines
from .errors import MalformedRow

MAX_SEGMENT_WORD_LEN = 24
# Distinct hashtag chunks remembered per lexicon; the memo is cleared when full.
SEGMENT_MEMO_SIZE = 65536
USER_PLACEHOLDER = "<user>"

# No lookbehind: replacing one occurrence must not change whether an adjacent
# occurrence matches (idempotence over inputs like "@USER@USER").
_USER_RE = re.compile(r"@user\b", re.IGNORECASE)
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_URL_LITERAL_RE = re.compile(r"\bURL\b")
_HASHTAG_RE = re.compile(r"#(\w+)")
_DIGITS_RE = re.compile(r"^[0-9]+$")

# Unicode ranges treated as emoji; unmapped codepoints in these ranges are
# dropped by map_emoji.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),  # emoticons, pictographs, transport, flags, extended
    (0x2600, 0x27BF),  # misc symbols and dingbats
    (0x2B00, 0x2BFF),  # arrows and stars used as emoji
    (0xFE00, 0xFE0F),  # variation selectors
    (0x200D, 0x200D),  # zero-width joiner
    (0x20E3, 0x20E3),  # combining keycap
)
_EMOJI_CHARS = frozenset(chr(cp) for lo, hi in _EMOJI_RANGES for cp in range(lo, hi + 1))


def _load_table(cls, path: str | Path, parse=str):
    """cls of the {key: parse(value)} mapping that the `key<TAB>value` lines
    of the table at path give, a later line overriding an earlier one. parse
    is str, or int for counts. A bad line fails as `<path>: line N: <reason>`
    and a table that cls rejects as `<path>: <reason>`."""
    entries = {}
    for line_no, line in read_lines(path):
        key, tab, value = line.partition("\t")
        if not tab:
            raise MalformedRow(line_no, "expected 2 tab-separated fields, got 1", path)
        try:
            entries[key] = parse(value)
        except ValueError:
            raise MalformedRow(line_no, f"count {value!r} is not an integer", path) from None
    try:
        return cls(entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EmojiMap:
    entries: dict[str, str]

    def __post_init__(self):
        # Phrases must be plain lowercase text, or a second pass would change them.
        object.__setattr__(
            self, "entries", {k: v.strip().lower() for k, v in self.entries.items()}
        )
        object.__setattr__(
            self, "max_key_len", max((len(k) for k in self.entries), default=1)
        )
        # Characters at which map_emoji may start a match or drop a codepoint:
        # emoji-range codepoints and one-character keys. A longer key whose
        # first character is neither never starts a match.
        object.__setattr__(
            self, "triggers", _EMOJI_CHARS | {k for k in self.entries if len(k) == 1}
        )


@dataclass(frozen=True)
class SlangMap:
    entries: dict[str, str]

    def __post_init__(self):
        entries = {k.lower(): v.strip().lower() for k, v in self.entries.items()}
        for key, phrase in entries.items():
            for word in phrase.split():
                if word in entries:
                    raise ValueError(
                        f"slang map violates closure: replacement for {key!r} "
                        f"contains the key {word!r}"
                    )
        object.__setattr__(self, "entries", entries)


class Lexicon:
    """Unigram frequencies backing the hashtag segmentation cost model.

    P(w) = count(w) / total for in-lexicon words; out-of-lexicon words get the
    floor (1/total) / (total * 10^len(w)), a length-penalized probability that
    keeps unknown tags unsplit unless a real-word split beats them.
    """

    def __init__(self, counts: dict[str, int]):
        self.counts = {w.lower(): int(c) for w, c in counts.items()}
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("lexicon counts must be positive")
        self.total = sum(self.counts.values())
        if self.total <= 0:
            raise ValueError("lexicon must be non-empty")
        self._log_total = math.log(self.total)
        self._log10 = math.log(10.0)
        self._segment_memo: dict[str, str] = {}

    def score(self, word: str) -> float:
        """log P(word) under the unigram model with the out-of-lexicon floor."""
        count = self.counts.get(word)
        if count is not None:
            return math.log(count) - self._log_total
        return -2.0 * self._log_total - len(word) * self._log10


@dataclass(frozen=True)
class NormalizationConfig:
    emoji_map: EmojiMap
    slang_map: SlangMap
    lexicon: Lexicon

    @classmethod
    def from_paths(
        cls, emoji_map_path: str | Path, slang_map_path: str | Path, lexicon_path: str | Path
    ) -> "NormalizationConfig":
        return cls(
            emoji_map=_load_table(EmojiMap, emoji_map_path),
            slang_map=_load_table(SlangMap, slang_map_path),
            lexicon=_load_table(Lexicon, lexicon_path, int),
        )

    @classmethod
    def bundled(cls) -> "NormalizationConfig":
        """Configuration backed by the data files shipped with the package."""
        data = resources.files("offlang.data")
        return cls.from_paths(data / "emoji_map.tsv", data / "slang_map.tsv", data / "lexicon.tsv")


def map_emoji(text: str, emoji_map: EmojiMap) -> str:
    """Replace mapped emoji sequences by their phrases and drop unmapped
    emoji-range codepoints.

    Spacing is boundary-aware: a space is inserted only where a word boundary
    is missing, and a removal swallows one following space when the text
    before it already ends in whitespace. ASCII-only input passes through
    unchanged.
    """
    triggers = emoji_map.triggers
    if triggers.isdisjoint(text):
        # Without a trigger character the loop below copies every character.
        return text
    out: list[str] = []
    pending_space = False  # a phrase was just emitted; next word needs a gap
    swallow_space = False  # a removal happened right after whitespace
    i = 0
    n = len(text)
    while i < n:
        matched = None
        ch = text[i]
        if ch in triggers:
            limit = min(emoji_map.max_key_len, n - i)
            for length in range(limit, 0, -1):
                candidate = text[i : i + length]
                if candidate in emoji_map.entries:
                    matched = candidate
                    break
        if matched is not None:
            if out and not out[-1].isspace():
                out.append(" ")
            out.append(emoji_map.entries[matched])
            pending_space = True
            swallow_space = False
            i += len(matched)
            continue
        if ch in _EMOJI_CHARS:
            swallow_space = bool(out) and out[-1].isspace()
            i += 1
            continue
        if ch.isspace():
            if swallow_space and out and out[-1].isspace():
                swallow_space = False
                i += 1
                continue
            pending_space = False
        elif pending_space:
            out.append(" ")
            pending_space = False
        swallow_space = False
        out.append(ch)
        i += 1
    return "".join(out)


def segment_hashtag(tag: str, lexicon: Lexicon) -> str:
    """Best split of a hashtag body under the unigram model, by dynamic
    programming over split points (words capped at MAX_SEGMENT_WORD_LEN).
    Falls back to the whole tag when no split beats leaving it unsplit.
    Results are memoized per lexicon, keyed by the lowercased tag."""
    tag = tag.lower()
    memo = lexicon._segment_memo
    cached = memo.get(tag)
    if cached is None:
        cached = _segment(tag, lexicon)
        if len(memo) >= SEGMENT_MEMO_SIZE:
            memo.clear()
        memo[tag] = cached
    return cached


def _segment(tag: str, lexicon: Lexicon) -> str:
    n = len(tag)
    if n == 0:
        return tag
    best = [-math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for i in range(1, n + 1):
        for j in range(max(0, i - MAX_SEGMENT_WORD_LEN), i):
            score = best[j] + lexicon.score(tag[j:i])
            if score > best[i]:
                best[i] = score
                back[i] = j
    if best[n] <= lexicon.score(tag):
        return tag
    words: list[str] = []
    i = n
    while i > 0:
        words.append(tag[back[i] : i])
        i = back[i]
    return " ".join(reversed(words))


def normalize(text: str, config: NormalizationConfig) -> str:
    """Apply every step in its fixed order; total on valid UTF-8."""
    text = _URL_RE.sub("http", text)
    text = _URL_LITERAL_RE.sub("http", text)
    text = _USER_RE.sub(USER_PLACEHOLDER, text)
    text = map_emoji(text, config.emoji_map).lower()

    def replace_tag(match: re.Match) -> str:
        chunks = [c for c in re.split(r"_+", match.group(1)) if c]
        return " ".join(segment_hashtag(c, config.lexicon) for c in chunks)

    text = _HASHTAG_RE.sub(replace_tag, text).replace("#", " ")
    text = " ".join(config.slang_map.entries.get(tok, tok) for tok in text.split())
    return " ".join(tok for tok in text.split() if not _DIGITS_RE.match(tok))
