"""Tests of the benchmark's own accounting: self time, error rate, metric
names and units. Run with `python3 -m pytest perfbench -q` from the root."""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

import layers
import run
from spans import Span, Tracer, self_times, union_length

UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, parent=None, thread=1):
    return Span(name, start, end, parent, thread, 0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_overlapping_worker_children():
    spans = [
        span("augment.augment_corpus", 0.0, 10.0),
        # Three worker threads: two overlapping children, one running past
        # the parent's end.
        span("augment.cache_put", 1.0, 4.0, parent=0, thread=2),
        span("augment.cache_put", 3.0, 6.0, parent=0, thread=3),
        span("augment.cache_put", 8.0, 12.0, parent=0, thread=4),
        # A grandchild is covered by its own parent, not the root.
        span("augment.provider_translate", 1.5, 2.0, parent=1, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 7)  # union [1, 6) + [8, 10)
    assert selfs[1] == pytest.approx(3 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_worker_thread_spans_are_parented_to_the_client_span():
    tracer = Tracer()

    def put():
        with tracer.span("augment.cache_put"):
            pass

    with tracer.span("cli.augment"):
        workers = [threading.Thread(target=put) for _ in range(3)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
            assert not t.is_alive()
    assert [s.parent for s in tracer.spans[1:]] == [0, 0, 0]
    assert {s.thread for s in tracer.spans[1:]} != {tracer.spans[0].thread}


def test_error_rate_counts_failed_checks_and_nonzero_exits():
    ledger = run.Ledger()
    ledger.stage(lambda argv: 0, ["train"])
    ledger.stage(lambda argv: 1, ["evaluate"])  # non-zero exit
    ledger.check("passes", lambda: True)
    ledger.check("injected failure", lambda: False)
    ledger.check("raises", lambda: 1 / 0)
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert ledger.error_rate == pytest.approx(3 / 5)
    assert len(ledger.failures) == 3


def test_stage_exception_counts_as_failure():
    def crash(argv):
        raise RuntimeError("boom")

    ledger = run.Ledger()
    rc, _ = ledger.stage(crash, ["ablate"])
    assert rc != 0 and ledger.failed == 1


@pytest.mark.parametrize("spec", [run.END_TO_END, layers.PER_LAYER])
def test_every_metric_has_a_valid_name_unit_and_direction(spec):
    for name, (unit, better) in spec.items():
        assert layers.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower")


def test_result_metrics_carry_units():
    values = {name: 1.5 for name in run.END_TO_END}
    metrics = run.result_metrics(values, run.END_TO_END)
    assert set(metrics) == set(run.END_TO_END)
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"} and m["unit"] == run.END_TO_END[name][0]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == emitted


def test_tweet_generator_is_seeded_and_repeats_only_when_asked():
    sys.path.insert(0, str(run.SRC))
    import inputs

    tables = inputs.TweetTables(run.SRC / "offlang" / "data")

    def texts_and_tags(repeats):
        texts = [t for t, _ in inputs.make_tweets(tables, 3, 2000, "test", repeats=repeats)]
        tags = [
            chunk.lower()
            for t in texts
            for tok in t.split()
            if tok.startswith("#")
            for chunk in tok[1:].split("_")
            if chunk
        ]
        return texts, tags

    texts, tags = texts_and_tags(repeats=False)
    assert texts == texts_and_tags(repeats=False)[0]
    assert len(set(texts)) == len(texts) == 2000
    assert tags and len(set(tags)) == len(tags)
    texts, tags = texts_and_tags(repeats=True)
    assert len(set(texts)) < len(texts)
    assert len(set(tags)) < len(tags) / 2
