"""normalize, weaklabel and augment stream their rows: they write the same
bytes, exit codes and error lines as the in-memory stages (tests/helpers.py),
and their peak memory grows far more slowly than their input."""

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import offlang
import offlang.weaklabel as weaklabel_mod
from helpers import run_in_memory
from offlang.augment import IO_WINDOW, PivotSet, TranslationCache, augment_rows
from offlang.cli import EXIT_OK, EXIT_RUNTIME, main
from offlang.corpus import Corpus, Label, LabeledExample

SRC = str(Path(offlang.__file__).resolve().parent.parent)
WORDS = ["hi", "bye", ":)", "#goodday", "@USER", "brb", "4u", "123", "güzel", "😂"]
# Per table kind: the third fields that pass, and those that fail.
THIRD_FIELD = {
    "labeled": (["OFF", "NOT", "off", "Not"], ["MAYBE", ""]),
    "scored": (["0.9", "0.95", "1", "0.1", "0.05", "0", "0.8"],
               ["1.5", "-0.1", "nan", "inf", "x"]),
}
# What may be wrong with a row; "0-fr" is the id of row 0's French copy, and
# "id" as the first field of line 1 makes that line a header.
FAULTS = ["bad_third_field", "two_fields", "four_fields", "repeated_id", "copy_id",
          "header_id", "blank_text"]


@st.composite
def table(draw, kind: str) -> bytes:
    """A labeled or scored table that may have a header, LF, CRLF and lone-CR
    line ends, blank lines and no last line end, and rows with the faults
    above (about one row in ten)."""
    lines = []
    if draw(st.booleans()):
        lines.append("id\ttext\t" + ("label" if kind == "labeled" else "confidence"))
    good, bad = THIRD_FIELD[kind]
    for i in range(draw(st.integers(2, 12))):
        fault = draw(st.sampled_from([None] * 60 + FAULTS))
        ex_id = {"repeated_id": "1", "copy_id": "0-fr", "header_id": "id"}.get(fault, str(i))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
        text = " " if fault == "blank_text" else " ".join(words)
        third = draw(st.sampled_from(bad if fault == "bad_third_field" else good))
        arity = {"two_fields": 2, "four_fields": 4}.get(fault, 3)
        lines.append("\t".join([ex_id, text, third, "extra"][:arity]))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\r\n"])
    data = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        data = data.rstrip("\r\n")
    return data.encode("utf-8")


def quietly(runner, argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = runner([str(a) for a in argv])
    return code, err.getvalue()


# Each stage: the table kind it reads, its flags and its artifact.
STAGES = {
    "normalize": ("labeled", ["normalize"], "normalized.tsv"),
    "weaklabel": ("scored", ["weaklabel", "--per-class", "1"], "weak_train.tsv"),
    "augment": ("labeled", ["augment", "--language", "en", "--provider", "mock",
                            "--pivots", "fr,de"], "augmented.tsv"),
}


@pytest.mark.parametrize("stage", STAGES)
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_stage_matches_the_in_memory_one(tmp_path, stage, data):
    kind, flags, artifact = STAGES[stage]
    src = tmp_path / "in.tsv"
    src.write_bytes(data.draw(table(kind)))
    out, journal = tmp_path / "o", tmp_path / "cache.tsv"
    argv = [*flags, "--input", src, "--out-dir", out]
    if stage == "weaklabel":
        argv += ["--seed", data.draw(st.integers(0, 3))]
    if stage == "augment":
        argv += ["--cache", journal]
    results = []
    for runner in (main, run_in_memory):
        shutil.rmtree(out, ignore_errors=True)
        journal.write_bytes(b"hi\ten\tfr\tsalut\r")  # one warm entry
        code, err = quietly(runner, argv)
        written = (out / artifact).read_bytes() if (out / artifact).exists() else None
        # A row that cannot be written stops the streamed augment before it
        # translates the rows after it, so only a whole run's journal compares.
        results.append((code, err, written, journal.read_bytes() if code == EXIT_OK else None))
    assert results[0] == results[1]
    assert results[0][0] in (EXIT_OK, EXIT_RUNTIME)


# --- weaklabel reads its input twice -------------------------------------------


def _scored_file(path: Path, n: int) -> None:
    rng = random.Random(n)
    path.write_text("".join(f"s{i}\ttweet {i}\t{rng.random():.4f}\n" for i in range(n)),
                    encoding="utf-8")


@pytest.mark.parametrize("change", ["rewritten", "same_size_and_time"])
def test_scored_file_that_changes_between_the_passes_fails_in_one_line(
    tmp_path, capsys, monkeypatch, change
):
    path = tmp_path / "scored.tsv"
    _scored_file(path, 200)
    choose = weaklabel_mod._choose

    def choose_then_change(labels, config):
        chosen = choose(labels, config)
        if change == "rewritten":
            _scored_file(path, 300)
        else:
            # Flip every confidence: same size, and the time put back.
            st_before = path.stat()
            rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
            path.write_text("".join(f"{i}\t{t}\t{1 - float(c):.4f}\n" for i, t, c in rows),
                            encoding="utf-8")
            os.utime(path, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
            assert path.stat().st_size == st_before.st_size
        return chosen

    monkeypatch.setattr(weaklabel_mod, "_choose", choose_then_change)
    code = main([str(a) for a in ("weaklabel", "--input", path, "--per-class", "10",
                                  "--out-dir", tmp_path / "o")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: {path}: changed while it was read; run the stage again\n"
    assert not (tmp_path / "o").exists()


# --- augment keeps a bounded window of requests in flight ---------------------------


class RecordingIOProvider:
    """Declares I/O like HttpProvider, takes `delay` seconds a request, and
    records the texts it was asked for and the requests in flight."""

    does_io = True

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.texts = set()
        self.in_flight = 0
        self.lock = threading.Lock()

    def translate(self, text, source, target):
        with self.lock:
            self.texts.add(text)
            self.in_flight += 1
        time.sleep(self.delay)
        with self.lock:
            self.in_flight -= 1
        return f"{target}:{text}"

    def supports(self, source, target):
        return True


def test_io_provider_is_called_one_window_at_a_time_in_input_order():
    corpus = Corpus("en", [
        LabeledExample(str(i), f"text {i}", Label.OFF if i % 3 else Label.NOT)
        for i in range(3 * IO_WINDOW + 5)
    ])
    provider = RecordingIOProvider()
    rows = augment_rows(corpus, PivotSet(("fr", "de")), provider)
    first_window = [next(rows) for _ in range(3 * IO_WINDOW)]
    assert provider.texts == {f"text {i}" for i in range(IO_WINDOW)}
    out = first_window + list(rows)
    assert [ex.id for ex in out[:4]] == ["0", "0-fr", "0-de", "1"]
    assert out[::3] == corpus.examples
    assert [ex.id for ex in out[1::3]] == [f"{ex.id}-fr" for ex in corpus]
    assert [ex.id for ex in out[2::3]] == [f"{ex.id}-de" for ex in corpus]


# --- peak memory ---------------------------------------------------------------------

# Peak RSS (VmHWM: ru_maxrss would also count the parent's pages that the
# child held before it ran exec) at 10n rows over peak RSS at n rows, each
# in a fresh interpreter that runs one CLI command. Measured on 2-core
# x86_64 (Python 3.11, glibc 2.36), streamed against the in-memory stages:
#   normalize 2k -> 20k rows      36.1 -> 42.2 MiB, 1.17   (in memory 1.35)
#   weaklabel 20k -> 200k rows    39.3 -> 62.2 MiB, 1.58   (in memory 2.36)
#   augment cold 2k -> 20k rows   38.9 -> 71.7 MiB, 1.84   (in memory 2.52)
#   augment warm 2k -> 20k rows   39.1 -> 73.7 MiB, 1.88   (in memory 3.44)
# What still grows with the rows: the duplicate-id sets, weaklabel's
# candidate line numbers, augment's input corpus and its journal's entries.
GROWTH_BOUND = 2.2


def _labeled_file(path: Path, n: int) -> None:
    rng = random.Random(n)
    words = ["good", "bad", "day", ":)", "#goodday", "brb", "@USER", "güzel", "lol", "4u"]
    path.write_text("".join(
        f"e{i}\t{' '.join(rng.choice(words) for _ in range(12))}\t{rng.choice(['OFF', 'NOT'])}\n"
        for i in range(n)
    ), encoding="utf-8")


def peak_rss_mib(argv) -> float:
    """Peak RSS of a fresh interpreter that runs main(argv)."""
    script = (
        "import re, sys\nfrom offlang.cli import main\ncode = main(sys.argv[1:])\n"
        "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])\nsys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize("stage", ["normalize", "weaklabel", "augment"])
def test_peak_memory_grows_far_less_than_the_input(tmp_path, stage):
    peaks = {}
    for n in (1, 10):
        d = tmp_path / f"x{n}"
        d.mkdir()
        if stage == "weaklabel":
            _scored_file(d / "in.tsv", 20_000 * n)
            argv = ["weaklabel", "--per-class", "1000"]
        else:
            _labeled_file(d / "in.tsv", 2_000 * n)
            argv = [stage]
        if stage == "augment":
            argv += ["--language", "en", "--provider", "mock", "--pivots", "fr,de,es",
                     "--cache", d / "cache.tsv"]
            peaks[f"cold{n}"] = peak_rss_mib([*argv, "--input", d / "in.tsv", "--out-dir", d / "c"])
        peaks[n] = peak_rss_mib([*argv, "--input", d / "in.tsv", "--out-dir", d / "o"])
    if stage == "augment":
        assert peaks["cold10"] / peaks["cold1"] < GROWTH_BOUND, peaks
    assert peaks[10] / peaks[1] < GROWTH_BOUND, peaks


def test_closing_the_rows_waits_for_the_requests_in_flight(tmp_path):
    corpus = Corpus("en", [LabeledExample(str(i), f"t {i}", Label.OFF) for i in range(20)])
    provider = RecordingIOProvider(delay=0.01)
    journal = tmp_path / "cache.tsv"
    with TranslationCache(journal) as cache:
        rows = augment_rows(corpus, PivotSet(("fr", "de")), provider, cache=cache)
        with contextlib.closing(rows):
            next(rows)
        # Requests that had started finished; those still queued were dropped.
        assert provider.in_flight == 0
        entries = len(cache)
    assert 2 <= entries < 2 * len(corpus)
    assert len(journal.read_bytes().splitlines()) == entries
