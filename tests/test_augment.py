import logging
import os
import random
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import offlang
from offlang.augment import (
    TAIL_BLOCK,
    HttpProvider,
    MappingProvider,
    MockTaggingProvider,
    PivotSet,
    Policy,
    TranslationCache,
    _escape,
    _unescape,
    augment_corpus,
    augment_example,
    translate,
)
from offlang.corpus import Corpus, Label, LabeledExample, corpus_stats
from offlang.errors import (
    AugmentationFailed,
    EmptyCorpus,
    EmptyTranslation,
    InvalidPivots,
    MalformedRow,
    ProviderUnavailable,
    TranslationError,
    TranslationNotFound,
    UnsupportedPair,
)


class EmptyStringProvider:
    def translate(self, text, source, target):
        return ""

    def supports(self, source, target):
        return True


class FlakyProvider:
    """Fails on one specific pivot, succeeds elsewhere."""

    def __init__(self, bad_pivot):
        self.bad_pivot = bad_pivot

    def translate(self, text, source, target):
        if target == self.bad_pivot:
            raise TranslationNotFound(f"no {target}")
        return f"{target}|{text}"

    def supports(self, source, target):
        return True


class SlowIOProvider:
    """Declares I/O like HttpProvider. The first row's calls are slow, so on a
    pool a later row finishes first; each call records the thread it ran on."""

    does_io = True

    def __init__(self):
        self.threads = set()

    def translate(self, text, source, target):
        self.threads.add(threading.get_ident())
        time.sleep(0.02 if text.endswith(" 0") else 0.0)
        return f"{target}:{text}"

    def supports(self, source, target):
        return True


class TestPivotSet:
    def test_default(self):
        assert PivotSet().pivots == ("en", "fr", "de")

    def test_empty_rejected(self):
        with pytest.raises(InvalidPivots):
            PivotSet(())

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidPivots):
            PivotSet(("en", "en", "fr"))

    def test_source_in_pivots_rejected(self):
        with pytest.raises(InvalidPivots):
            PivotSet(("en", "fr", "de")).validated_for("fr")

    def test_english_default_remapped(self):
        assert PivotSet.default_for("en").pivots == ("fr", "de", "es")
        assert PivotSet.default_for("tr").pivots == ("en", "fr", "de")


def oracle_unescape(text: str) -> str:
    """The per-character journal unescape, as it was before its fast path."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestJournalFormat:
    def test_unescape_matches_oracle(self):
        pieces = ["a", "ü", " ", "\\", "\\\\", "\\t", "\\n", "\\r", "\\q", "\\0", "\t", "x\\"]
        rng = random.Random(12)
        for _ in range(5_000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 10)))
            assert _unescape(text) == oracle_unescape(text), repr(text)
        for text in ("", "\\", "plain", "end\\", "\\\\\\"):
            assert _unescape(text) == oracle_unescape(text), repr(text)

    def test_escape_round_trips(self):
        rng = random.Random(13)
        pieces = ["a", "\\", "\t", "\n", "\r", "\\t", "⟦", " "]
        for _ in range(2_000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 10)))
            assert _unescape(_escape(text)) == text

    def test_journal_bytes_of_single_threaded_puts(self, tmp_path):
        path = tmp_path / "sub" / "cache.tsv"
        with TranslationCache(path) as cache:
            cache.put("hello", "en", "fr", "bonjour")
            cache.put("tab\there", "en", "de", "line\nbreak")
            cache.put("hello", "en", "fr", "ignored: already cached")
            cache.put("back\\slash", "tr", "en", "cr\rend")
        with TranslationCache(path) as cache:
            cache.put("iyi günler", "tr", "en", "good day")
        assert path.read_bytes() == (
            "hello\ten\tfr\tbonjour\n"
            "tab\\there\ten\tde\tline\\nbreak\n"
            "back\\\\slash\ttr\ten\tcr\\rend\n"
            "iyi günler\ttr\ten\tgood day\n"
        ).encode("utf-8")

    def test_each_put_reaches_the_file_before_close(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = TranslationCache(path)
        cache.put("a", "en", "fr", "b")
        assert path.read_text(encoding="utf-8") == "a\ten\tfr\tb\n"
        assert TranslationCache(path).get("a", "en", "fr") == "b"
        cache.close()
        cache.close()  # closing twice is harmless
        cache.put("c", "en", "fr", "d")  # and a later put reopens the journal
        cache.close()
        assert path.read_text(encoding="utf-8") == "a\ten\tfr\tb\nc\ten\tfr\td\n"


class TestTornJournal:
    def test_torn_last_line_is_dropped_and_cut_before_append(self, tmp_path, caplog):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"good\ten\tde\tgut\nhello\ten\tfr\tbonj")
        with caplog.at_level(logging.WARNING, logger="offlang.augment"):
            cache = TranslationCache(path)
        assert "torn last line (16 bytes)" in caplog.text
        assert cache.get("hello", "en", "fr") is None
        assert cache.get("good", "en", "de") == "gut"
        cache.put("bye", "en", "fr", "au revoir")
        cache.close()
        assert path.read_bytes() == b"good\ten\tde\tgut\nbye\ten\tfr\tau revoir\n"
        reloaded = TranslationCache(path)
        assert reloaded.get("hello", "en", "fr") is None
        assert reloaded.get("bye", "en", "fr") == "au revoir"
        assert len(reloaded) == 2

    def test_two_caches_on_one_torn_journal_keep_both_puts(self, tmp_path):
        # The second cache's journal opens after the first has appended: it
        # must cut only what is torn when it opens, not what was torn at load.
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"a\ten\tfr\tA\ntorn\ten")
        with TranslationCache(path) as first, TranslationCache(path) as second:
            first.put("c", "en", "fr", "C")
            second.put("d", "en", "fr", "D")
        assert path.read_bytes() == b"a\ten\tfr\tA\nc\ten\tfr\tC\nd\ten\tfr\tD\n"
        reloaded = TranslationCache(path)
        assert [reloaded.get(text, "en", "fr") for text in "acd"] == ["A", "C", "D"]

    def test_torn_line_with_few_fields_loads(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_bytes("good\ten\tde\tgut\nhel".encode("utf-8") + "ü".encode("utf-8")[:1])
        cache = TranslationCache(path)
        assert len(cache) == 1
        assert path.stat().st_size == len(b"good\ten\tde\tgut\nhel") + 1  # untouched until a put

    def test_torn_inside_a_character_is_cut_only_by_a_put(self, tmp_path):
        # The complete lines span several of the decoder's chunks.
        path = tmp_path / "cache.tsv"
        complete = "".join(f"w{i}\ten\tfr\tü{i}\n" for i in range(2000)).encode("utf-8")
        journal = complete + "torn\ten\tfr\tkötü".encode("utf-8")[:-1]
        path.write_bytes(journal)
        cache = TranslationCache(path)
        assert len(cache) == 2000 and cache.get("w1999", "en", "fr") == "ü1999"
        assert path.read_bytes() == journal
        cache.put("new", "en", "fr", "neu")
        cache.close()
        assert path.read_bytes() == complete + b"new\ten\tfr\tneu\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_torn_line_longer_than_a_block_after_many_blocks(self, tmp_path, caplog, newline):
        # The complete lines span many of the decoder's chunks and of the
        # blocks read while looking for the last line end. The torn line is
        # longer than a block and ends inside a character, and the edge of
        # the last block falls inside a character too.
        path = tmp_path / "cache.tsv"
        complete = "".join(f"w{i}\ten\tfr\tçok güzel {i}{newline}" for i in range(20_000))
        complete = complete.encode("utf-8")
        torn = ("torn\ten\tfr\t" + "ü" * TAIL_BLOCK).encode("utf-8")[:-1]
        path.write_bytes(complete + torn)
        assert len(complete) > 8 * TAIL_BLOCK
        assert (len(torn) - TAIL_BLOCK - len("torn\ten\tfr\t")) % 2 == 1  # inside a ü
        with caplog.at_level(logging.WARNING, logger="offlang.augment"):
            cache = TranslationCache(path)
        assert f"torn last line ({len(torn)} bytes)" in caplog.text
        assert len(cache) == 20_000
        assert cache.get("w0", "en", "fr") == "çok güzel 0"
        assert cache.get("w19999", "en", "fr") == "çok güzel 19999"
        assert path.read_bytes() == complete + torn
        cache.put("new", "en", "fr", "neu")
        cache.close()
        assert path.read_bytes() == complete + b"new\ten\tfr\tneu\n"

    def test_lines_ending_in_cr_are_whole(self, tmp_path, caplog):
        path = tmp_path / "cache.tsv"
        journal = b"hi\ten\tfr\tH-FR\rhi\ten\tde\tH-DE\r"
        path.write_bytes(journal)
        corpus = Corpus("en", [LabeledExample("1", "hi", Label.NOT)])
        provider = MockTaggingProvider()
        with caplog.at_level(logging.WARNING, logger="offlang.augment"):
            with TranslationCache(path) as cache:
                assert len(cache) == 2
                augmented = augment_corpus(corpus, PivotSet(("fr", "de")), provider, cache=cache)
        assert "torn" not in caplog.text
        assert provider.calls == 0
        assert augmented.texts() == ["hi", "hi [SEP] H-FR", "hi [SEP] H-DE"]
        assert path.read_bytes() == journal

    def test_failed_put_is_not_raised_again_by_close(self, tmp_path):
        # The journal has room for 30 bytes of the next 33-byte line under a
        # file size limit set in the child only, as a full disk would stop it;
        # the child lifts the limit and tries the failed put again.
        path = tmp_path / "cache.tsv"
        complete = "".join(f"w{i}\ten\tfr\tx\n" for i in range(100)).encode("utf-8")
        path.write_bytes(complete)
        limit = len(complete) + 30
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        child = "\n".join([
            "import resource, sys",
            "from offlang.augment import TranslationCache",
            "from offlang.errors import JournalWriteFailed",
            "cache = TranslationCache(sys.argv[1])",
            "try:",
            "    cache.put('new 0', 'en', 'fr', 'y' * 20)",
            "except JournalWriteFailed as exc:",
            "    print('put failed:', exc.strerror)",
            "cache.close()",
            "print('closed')",
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[2]),) * 2)",
            "with cache:",
            "    cache.put('new 0', 'en', 'fr', 'y' * 20)",
            "    cache.put('after', 'en', 'fr', 'z')",
        ])

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

        src = str(Path(offlang.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, str(path), str(hard)],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_file_size,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "put failed: File too large\nclosed\n"
        # The torn line was cut before the next append, and the retried put
        # wrote its line.
        retried = b"new 0\ten\tfr\t" + b"y" * 20 + b"\n"
        assert path.read_bytes() == complete + retried + b"after\ten\tfr\tz\n"
        assert len(TranslationCache(path)) == 102

    def test_malformed_complete_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("good\ten\tde\tgut\n\nbad\ten\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as info:
            TranslationCache(path)
        assert info.value.line == 3
        assert str(info.value).startswith(f"{path}: line 3: ")


class TestTranslate:
    def test_mock_tagging(self):
        out = translate(MockTaggingProvider(), "iyi günler", "tr", "en")
        assert out == "en⟦iyi günler⟧"

    def test_cache_prevents_second_call(self, tmp_path):
        provider = MockTaggingProvider()
        with TranslationCache(tmp_path / "cache.tsv") as cache:
            first = translate(provider, "iyi günler", "tr", "en", cache=cache)
            second = translate(provider, "iyi günler", "tr", "en", cache=cache)
        assert first == second
        assert provider.calls == 1

    def test_cache_survives_restart(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with TranslationCache(path) as cache:
            translate(MockTaggingProvider(), "text with\ttab", "tr", "en", cache=cache)
        provider = MockTaggingProvider()
        with TranslationCache(path) as reloaded:
            translate(provider, "text with\ttab", "tr", "en", cache=reloaded)
        assert provider.calls == 0

    def test_empty_translation_rejected(self):
        with pytest.raises(EmptyTranslation):
            translate(EmptyStringProvider(), "x", "tr", "en")

    def test_mapping_provider_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "translations.tsv"
        path.write_text("merhaba\ttr\ten\thello\nbad\ttr\ten\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}: line 2: "):
            MappingProvider.from_tsv(path)

    def test_mapping_provider_supports_exactly_the_pairs_it_holds(self):
        provider = MappingProvider({
            ("a", "en", "fr"): "x", ("b", "en", "fr"): "y", ("a", "en", "de"): "z",
            ("c", "tr", "en"): "w",
        })
        for pair in (("en", "fr"), ("en", "de"), ("tr", "en")):
            assert provider.supports(*pair)
        for pair in (("fr", "en"), ("de", "en"), ("en", "tr"), ("en", "es"), ("tr", "fr")):
            assert not provider.supports(*pair)
        assert not MappingProvider({}).supports("en", "fr")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_translation_file_names_file_and_line(self, tmp_path, newline):
        path = tmp_path / "translations.tsv"
        good = b"".join(b"w%d\ttr\ten\tt%d%s" % (i, i, newline) for i in range(3000))
        # A cache journal drops a last line that does not end in "\n".
        path.write_bytes(good + b"bad\ttr\ten\tb\xffd\n")
        with pytest.raises(MalformedRow) as exc:
            MappingProvider.from_tsv(path)
        assert str(exc.value) == f"{path}: line 3001: not valid UTF-8"
        with pytest.raises(MalformedRow) as exc:
            TranslationCache(path)
        assert str(exc.value) == f"{path}: line 3001: not valid UTF-8"

    def test_mapping_provider_miss(self):
        provider = MappingProvider({("merhaba", "tr", "en"): "hello"})
        assert translate(provider, "merhaba", "tr", "en") == "hello"
        with pytest.raises(TranslationNotFound):
            translate(provider, "unknown", "tr", "en")

    def test_mapping_provider_from_tsv(self, tmp_path):
        path = tmp_path / "translations.tsv"
        path.write_text(
            "merhaba d\\u00fcnya\tmerhaba dünya\niyi g\\tünler\tiyi g\tünler\n".replace(
                "merhaba d\\u00fcnya\tmerhaba dünya\n", ""
            ),
            encoding="utf-8",
        )
        # escaped tab in the source text column round-trips
        path.write_text("iyi g\\tünler\ttr\ten\tgood\\tday\n", encoding="utf-8")
        provider = MappingProvider.from_tsv(path)
        assert provider.translate("iyi g\tünler", "tr", "en") == "good\tday"
        assert provider.supports("tr", "en")
        assert not provider.supports("tr", "zz")


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class NotJsonResponse(FakeResponse):
    def json(self):
        import requests

        raise requests.JSONDecodeError("Expecting value", "<html>", 0)


# Each malformed reply and the reason its TranslationError gives.
MALFORMED_REPLIES = {
    "list_translation": (FakeResponse(200, {"translation": ["a", "b"]}),
                         "the reply's translation is ['a', 'b'], not a non-empty string"),
    "int_translation": (FakeResponse(200, {"translation": 5}),
                        "the reply's translation is 5, not a non-empty string"),
    "empty_translation": (FakeResponse(200, {"translation": ""}),
                          "the reply's translation is '', not a non-empty string"),
    "no_translation": (FakeResponse(200, {"text": "good day"}),
                       "the reply's translation is None, not a non-empty string"),
    "list_body": (FakeResponse(200, ["good day"]), "the reply is not a JSON object"),
    "not_json": (NotJsonResponse(200), "the reply is not a JSON object"),
}


class FakeSession:
    """Scripted requests.Session stand-in: pops one response per post()."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestHttpProvider:
    def make(self, responses, **kwargs):
        session = FakeSession(responses)
        provider = HttpProvider(
            "https://mt.example/translate", api_key="k3y",
            backoff=0.0, session=session, **kwargs,
        )
        return provider, session

    def test_success_wire_format(self):
        provider, session = self.make([FakeResponse(200, {"translation": "good day"})])
        assert provider.translate("iyi günler", "tr", "en") == "good day"
        sent = session.requests[0]
        assert sent["json"] == {"q": "iyi günler", "source": "tr", "target": "en"}
        assert sent["headers"]["Authorization"] == "Bearer k3y"

    def test_retries_transient_then_succeeds(self):
        import requests

        provider, session = self.make(
            [
                requests.ConnectionError("boom"),
                FakeResponse(503),
                FakeResponse(200, {"translation": "ok"}),
            ]
        )
        assert provider.translate("x", "tr", "en") == "ok"
        assert len(session.requests) == 3

    def test_exhausted_retries_raise_unavailable(self):
        provider, session = self.make([FakeResponse(500)] * 4, max_retries=3)
        with pytest.raises(ProviderUnavailable):
            provider.translate("x", "tr", "en")
        assert len(session.requests) == 4

    def test_client_error_is_unsupported_pair(self):
        provider, _ = self.make([FakeResponse(400)])
        with pytest.raises(UnsupportedPair):
            provider.translate("x", "tr", "zz")

    @pytest.mark.parametrize("reply", list(MALFORMED_REPLIES))
    def test_malformed_reply_is_a_translation_error_without_retry(self, reply):
        response, reason = MALFORMED_REPLIES[reply]
        provider, session = self.make([response, FakeResponse(200, {"translation": "ok"})])
        with pytest.raises(TranslationError) as info:
            provider.translate("iyi", "tr", "en")
        assert str(info.value) == f"https://mt.example/translate: {reason}"
        assert len(session.requests) == 1

    @pytest.mark.parametrize("reply", list(MALFORMED_REPLIES))
    def test_malformed_reply_under_each_policy(self, reply):
        response, reason = MALFORMED_REPLIES[reply]
        provider, _ = self.make([response] * 3)
        skipped = augment_example(example(text="iyi"), PivotSet(), provider, "tr",
                                  policy=Policy.SKIP_ON_ERROR)
        assert skipped == []
        provider, _ = self.make([response])
        with pytest.raises(AugmentationFailed, match=re.escape(reason)):
            augment_example(example(text="iyi"), PivotSet(), provider, "tr",
                            policy=Policy.FAIL_FAST)

    @pytest.mark.parametrize("policy", ["fail_fast", "skip_on_error"])
    def test_malformed_reply_through_the_cli(self, tmp_path, capsys, monkeypatch, policy):
        import requests

        from offlang.cli import main

        response, reason = MALFORMED_REPLIES["list_translation"]
        session = FakeSession([response] * 6)
        monkeypatch.setattr(requests, "Session", lambda: session)
        (tmp_path / "in.tsv").write_text("1\tiyi\tNOT\n2\tkötü\tOFF\n", encoding="utf-8")
        code = main([
            "augment", "--input", str(tmp_path / "in.tsv"), "--language", "tr",
            "--provider", "http", "--endpoint", "https://mt.example/translate",
            "--pivots", "en,fr,de", "--policy", policy, "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        if policy == "fail_fast":
            assert code == 1
            assert err.count("\n") == 1 and err.startswith("error: augmentation failed on pivot ")
            assert reason in err
            assert not (tmp_path / "o" / "augmented.tsv").exists()
        else:
            assert code == 0
            rows = (tmp_path / "o" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
            assert [row.split("\t")[0] for row in rows] == ["1", "2"]


def example(i=0, label=Label.OFF, text="iyi günler"):
    return LabeledExample(f"e{i}", text, label)


class TestAugmentExample:
    def test_three_pivots(self):
        out = augment_example(example(), PivotSet(), MockTaggingProvider(), "tr")
        assert [a.id.rsplit("-", 1)[1] for a in out] == ["en", "fr", "de"]
        assert out[0].text == "iyi günler [SEP] en⟦iyi günler⟧"
        assert out[1].text == "iyi günler [SEP] fr⟦iyi günler⟧"
        assert out[2].text == "iyi günler [SEP] de⟦iyi günler⟧"
        assert all(a.label is Label.OFF for a in out)

    def test_label_preserved(self):
        out = augment_example(example(label=Label.NOT), PivotSet(), MockTaggingProvider(), "tr")
        assert all(a.label is Label.NOT for a in out)

    def test_skip_on_error_keeps_other_pivots(self):
        out = augment_example(
            example(), PivotSet(), FlakyProvider("fr"), "tr", policy=Policy.SKIP_ON_ERROR
        )
        assert [a.id.rsplit("-", 1)[1] for a in out] == ["en", "de"]

    def test_fail_fast_annotates_pivot(self):
        with pytest.raises(AugmentationFailed) as exc:
            augment_example(
                example(), PivotSet(), FlakyProvider("de"), "tr", policy=Policy.FAIL_FAST
            )
        assert exc.value.pivot == "de"

    def test_skip_on_error_is_the_default(self):
        out = augment_example(example(), PivotSet(), FlakyProvider("fr"), "tr")
        assert [a.id.rsplit("-", 1)[1] for a in out] == ["en", "de"]

    def test_ids_carry_pivot_suffix(self):
        out = augment_example(example(3), PivotSet(), MockTaggingProvider(), "tr")
        assert [a.id for a in out] == ["e3-en", "e3-fr", "e3-de"]


def make_corpus(n_off, n_not, language="tr"):
    examples = [example(i, Label.OFF, f"kötü metin {i}") for i in range(n_off)]
    examples += [example(n_off + i, Label.NOT, f"iyi metin {i}") for i in range(n_not)]
    return Corpus(language, examples)


class TestAugmentCorpus:
    def test_four_n(self):
        corpus = make_corpus(2, 3)
        out = augment_corpus(corpus, PivotSet(), MockTaggingProvider())
        assert len(out) == 20

    def test_class_counts_scale_by_four(self):
        corpus = make_corpus(2, 3)
        out = augment_corpus(corpus, PivotSet(), MockTaggingProvider())
        stats = corpus_stats(out)
        assert (stats.off_count, stats.not_count) == (8, 12)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            augment_corpus(Corpus("tr", []), PivotSet(), MockTaggingProvider())

    def test_originals_unmodified_and_prefix(self):
        corpus = make_corpus(3, 3)
        out = augment_corpus(corpus, PivotSet(), MockTaggingProvider())
        original_by_id = {ex.id: ex for ex in corpus}
        for ex in out:
            if ex.id in original_by_id:
                assert ex == original_by_id[ex.id]
            else:
                base_id = ex.id.rsplit("-", 1)[0]
                assert ex.text.startswith(original_by_id[base_id].text + " [SEP] ")

    def test_output_order_by_original_then_pivot(self):
        corpus = make_corpus(2, 0)
        provider = SlowIOProvider()
        out = augment_corpus(corpus, PivotSet(), provider)
        assert [ex.id for ex in out] == ["e0", "e0-en", "e0-fr", "e0-de", "e1", "e1-en", "e1-fr", "e1-de"]
        assert threading.get_ident() not in provider.threads

    def test_in_process_provider_runs_in_calling_thread(self, monkeypatch):
        threads = set()
        translate_mock = MockTaggingProvider.translate

        def recording_translate(self, text, source, target):
            threads.add(threading.get_ident())
            return translate_mock(self, text, source, target)

        monkeypatch.setattr(MockTaggingProvider, "translate", recording_translate)
        out = augment_corpus(make_corpus(3, 3), PivotSet(), MockTaggingProvider())
        assert len(out) == 24
        assert threads == {threading.get_ident()}

    def test_identity_provider_still_distinct(self):
        class IdentityProvider:
            def translate(self, text, source, target):
                return text

            def supports(self, source, target):
                return True

        corpus = make_corpus(2, 2)
        out = augment_corpus(corpus, PivotSet(("en", "fr", "de")), IdentityProvider())
        texts = [ex.text for ex in out]
        assert len(set(ex.id for ex in out)) == 16
        for orig in corpus:
            assert texts.count(orig.text) == 1  # separator keeps augmented distinct

    def test_second_pass_uses_cache_only(self, tmp_path):
        corpus = make_corpus(4, 4)
        provider = MockTaggingProvider()
        with TranslationCache(tmp_path / "cache.tsv") as cache:
            first = augment_corpus(corpus, PivotSet(), provider, cache=cache)
            calls_after_first = provider.calls
            second = augment_corpus(corpus, PivotSet(), provider, cache=cache)
        assert provider.calls == calls_after_first
        assert [ex.text for ex in first] == [ex.text for ex in second]

    def test_random_corpora_property(self):
        rng = random.Random(99)
        for trial in range(25):
            n_off = rng.randint(1, 8)
            n_not = rng.randint(1, 8)
            corpus = make_corpus(n_off, n_not)
            out = augment_corpus(corpus, PivotSet(), MockTaggingProvider())
            assert len(out) == 4 * len(corpus)
            stats = corpus_stats(out)
            assert (stats.off_count, stats.not_count) == (4 * n_off, 4 * n_not)
