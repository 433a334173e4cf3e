import json
import math
import random
from pathlib import Path

import pytest

import offlang.normalize as normalize_mod
from offlang.normalize import (
    EmojiMap,
    Lexicon,
    NormalizationConfig,
    SlangMap,
    map_emoji,
    normalize,
    segment_hashtag,
)

GOLDEN = Path(__file__).parent / "data" / "normalize_golden.json"

# Alphabet for the idempotence fuzz: words, digits, tweets' special characters,
# mapped and unmapped emoji, whitespace.
FUZZ_ALPHABET = (
    list("abcdefghij ")
    + ["@USER", "URL", "#", "#nowplaying", "#GoodMorning", "http://x.io/a", "www.q.de"]
    + ["brb", "u", "2day", "lol", "12", "007", "2pac", "don't", "..."]
    + ["😂", "👍", "❤️", "🔥", "🜚", "\t", "\n", "  "]
)


@pytest.fixture(scope="module")
def config():
    return NormalizationConfig.bundled()


@pytest.fixture(scope="module")
def golden_pairs():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class TestGolden:
    def test_at_least_25_pairs(self, golden_pairs):
        assert len(golden_pairs) >= 25

    def test_golden_pairs_byte_exact(self, config, golden_pairs):
        for pair in golden_pairs:
            assert normalize(pair["in"], config) == pair["out"], pair["in"]


class TestNormalizeProperties:
    def test_idempotent_on_goldens(self, config, golden_pairs):
        for pair in golden_pairs:
            once = normalize(pair["in"], config)
            assert normalize(once, config) == once

    def test_idempotence_fuzz(self, config):
        rng = random.Random(20_24)
        for _ in range(10_000):
            text = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 12)))
            once = normalize(text, config)
            assert normalize(once, config) == once, repr(text)

    def test_never_emits_forbidden_tokens(self, config):
        rng = random.Random(7)
        for _ in range(2_000):
            text = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 12)))
            out = normalize(text, config)
            assert "#" not in out
            assert "@USER" not in out
            assert "\t" not in out
            assert "  " not in out

    def test_output_lowercase_except_placeholder(self, config):
        out = normalize("@USER THIS IS LOUD", config)
        assert out == "<user> this is loud"


class TestMapEmoji:
    def test_simple_replacement(self):
        emap = EmojiMap({"👍": "thumbs up"})
        assert map_emoji("ok 👍", emap) == "ok thumbs up"

    def test_identity_on_ascii(self, config):
        rng = random.Random(3)
        ascii_chars = "abc XYZ,.!?0129 #@\t"
        for _ in range(2_000):
            text = "".join(rng.choices(ascii_chars, k=rng.randint(0, 30)))
            assert map_emoji(text, config.emoji_map) == text

    def test_unmapped_emoji_removed(self):
        emap = EmojiMap({"👍": "thumbs up"})
        assert map_emoji("x 🜚 y", emap) == "x y"

    def test_multi_codepoint_longest_match(self):
        emap = EmojiMap({"❤": "red heart", "❤️": "red heart selected"})
        assert map_emoji("a ❤️ b", emap) == "a red heart selected b"
        assert map_emoji("a ❤ b", emap) == "a red heart b"

    def test_adjacent_emoji_get_separated(self):
        emap = EmojiMap({"👍": "thumbs up", "🔥": "fire"})
        assert map_emoji("👍🔥", emap) == "thumbs up fire"
        assert map_emoji("👍x", emap) == "thumbs up x"
        assert map_emoji("x👍", emap) == "x thumbs up"


# The per-character map_emoji as it was before its set-lookup fast path; the
# exactness tests below hold the current implementation to it.
ORACLE_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
    (0xFE00, 0xFE0F),
    (0x200D, 0x200D),
    (0x20E3, 0x20E3),
)


def oracle_is_emoji_codepoint(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in ORACLE_EMOJI_RANGES)


def oracle_map_emoji(text: str, emoji_map: EmojiMap) -> str:
    out: list[str] = []
    pending_space = False
    swallow_space = False
    i = 0
    n = len(text)
    while i < n:
        matched = None
        if text[i] in emoji_map.entries or oracle_is_emoji_codepoint(text[i]):
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
        ch = text[i]
        if oracle_is_emoji_codepoint(ch):
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


# Pieces for random map_emoji inputs: ASCII, whitespace runs, mapped one- and
# multi-codepoint keys (VS16 heart, flag), unmapped emoji-range codepoints,
# ZWJ and VS16 alone, an out-of-range mapped key (watch), and ":)", a key
# whose first character is not a trigger.
EMOJI_FUZZ_PIECES = (
    list("abcXYZ,.!?019#@:)(")
    + [" ", "  ", "\t", "\n", " \t ", "\u00a0"]
    + ["😂", "👍", "🔥", "❤", "❤️", "🇺🇸", "🇺", "⌚", ":)"]
    + ["🜚", "\U0001FAFF", "\u2600", "\u2bff", "\u20e3", "\u200d", "\ufe0f", "\ufe00"]
    + ["é", "ß", "\u3042", "\u2603"]
)


class TestMapEmojiExactness:
    def test_emoji_codepoint_set_matches_ranges(self):
        for cp in range(0x30000):
            ch = chr(cp)
            assert (ch in normalize_mod._EMOJI_CHARS) == oracle_is_emoji_codepoint(ch), hex(cp)

    @pytest.mark.parametrize("which", ["bundled", "custom"])
    def test_matches_per_character_oracle(self, config, which):
        emap = config.emoji_map if which == "bundled" else EmojiMap(
            {":)": "smile", "❤": "heart", "❤️": "red heart", "😂": "joy",
             "⌚": "watch", "🇺🇸": "flag us", "a": "letter a"}
        )
        rng = random.Random(41 if which == "bundled" else 42)
        for _ in range(5_000):
            text = "".join(rng.choices(EMOJI_FUZZ_PIECES, k=rng.randint(0, 16)))
            assert map_emoji(text, emap) == oracle_map_emoji(text, emap), repr(text)

    def test_multi_character_key_with_plain_first_character_never_matches(self):
        emap = EmojiMap({":)": "smile"})
        assert map_emoji("hi :) there", emap) == "hi :) there"
        assert map_emoji("hi :) 😂", emap) == oracle_map_emoji("hi :) 😂", emap) == "hi :) "

    def test_text_without_triggers_is_returned_as_is(self, config):
        text = "plain text, no emoji \t here"
        assert map_emoji(text, config.emoji_map) is text

    def test_empty_map(self):
        emap = EmojiMap({})
        for text in ("", "abc", "a 😂 b", "❤️"):
            assert map_emoji(text, emap) == oracle_map_emoji(text, emap)


class TestSegmentHashtagMemo:
    def test_repeated_calls_give_first_result(self, toy_lexicon):
        tags = ["nowplaying", "NowPlaying", "bananaband", "xqzt", "", "standonthe"]
        first = [segment_hashtag(t, toy_lexicon) for t in tags]
        fresh = Lexicon(dict(toy_lexicon.counts))
        assert first == [segment_hashtag(t, fresh) for t in tags]
        for _ in range(3):
            assert [segment_hashtag(t, toy_lexicon) for t in tags] == first

    def test_memo_is_per_lexicon(self):
        joined = Lexicon({"now": 10, "here": 10, "nowhere": 1000})
        split = Lexicon({"now": 1000, "here": 1000, "nowhere": 1})
        for _ in range(2):
            assert segment_hashtag("nowhere", joined) == "nowhere"
            assert segment_hashtag("nowhere", split) == "now here"

    def test_memo_is_bounded(self, toy_lexicon, monkeypatch):
        monkeypatch.setattr(normalize_mod, "SEGMENT_MEMO_SIZE", 3)
        lexicon = Lexicon(dict(toy_lexicon.counts))
        rng = random.Random(8)
        for _ in range(200):
            tag = "".join(rng.choices("abdghinoplstwy", k=rng.randint(1, 10)))
            assert segment_hashtag(tag, lexicon) == segment_hashtag(tag, toy_lexicon)
            assert len(lexicon._segment_memo) <= 3


class TestSlangMap:
    def test_closure_violation_rejected(self):
        with pytest.raises(ValueError):
            SlangMap({"u": "you", "yu": "u there"})

    def test_bundled_map_satisfies_closure(self, config):
        for phrase in config.slang_map.entries.values():
            for word in phrase.split():
                assert word not in config.slang_map.entries


def brute_force_best_score(tag: str, lexicon: Lexicon) -> float:
    """Independent oracle: enumerate every split of the tag and return the
    best total log-probability."""

    def rec(rest: str) -> float:
        if not rest:
            return 0.0
        best = -math.inf
        for i in range(1, len(rest) + 1):
            best = max(best, lexicon.score(rest[:i]) + rec(rest[i:]))
        return best

    return rec(tag)


@pytest.fixture(scope="module")
def toy_lexicon():
    return Lexicon(
        {
            "now": 1000,
            "playing": 500,
            "nowp": 1,
            "laying": 400,
            "a": 800,
            "an": 300,
            "ana": 20,
            "nan": 15,
            "banana": 40,
            "ban": 60,
            "band": 55,
            "and": 900,
            "stand": 70,
            "st": 5,
            "b": 2,
            "on": 600,
            "the": 2000,
            "there": 150,
            "here": 220,
            "in": 700,
            "inn": 9,
        }
    )


class TestSegmentHashtag:
    def test_compound_splits_into_dictionary_words(self, toy_lexicon):
        assert segment_hashtag("nowplaying", toy_lexicon) == "now playing"

    def test_single_char(self, toy_lexicon):
        assert segment_hashtag("a", toy_lexicon) == "a"

    def test_no_substring_in_lexicon_falls_back(self, toy_lexicon):
        assert segment_hashtag("xqzt", toy_lexicon) == "xqzt"

    def test_uppercase_tag_lowered(self, toy_lexicon):
        assert segment_hashtag("NowPlaying", toy_lexicon) == "now playing"

    def test_segmentation_concatenates_back(self, toy_lexicon):
        rng = random.Random(5)
        chars = "abdghinoplstwy"
        for _ in range(300):
            tag = "".join(rng.choices(chars, k=rng.randint(1, 12)))
            out = segment_hashtag(tag, toy_lexicon)
            assert out.replace(" ", "") == tag

    def test_matches_exhaustive_oracle(self, toy_lexicon):
        rng = random.Random(17)
        tags = [
            "a", "an", "ana", "banana", "bananaband", "standonthe",
            "nowplaying", "theband", "hereandthere", "innandon",
            "nowplayingnow", "bandstand", "anahere",
        ]
        chars = "abdghinoplstwy"
        tags += ["".join(rng.choices(chars, k=rng.randint(1, 14))) for _ in range(25)]
        tags += ["nowplayingbandstand0", "standhereandthereon"]  # length 19-20
        for tag in tags:
            assert len(tag) <= 20
            best = brute_force_best_score(tag.lower(), toy_lexicon)
            out = segment_hashtag(tag, toy_lexicon)
            got = sum(toy_lexicon.score(w) for w in out.split())
            assert got == pytest.approx(best, abs=1e-9), tag
