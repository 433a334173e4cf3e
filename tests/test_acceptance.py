"""Verification criteria for the full pipeline, one test per criterion.

Each test prints a `[criterion NN] PASS/FAIL` line (run with `pytest -s` to
see them live) and asserts both the stated tolerance and the runtime budget.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

from helpers import gradient_check, random_batch, random_gradcheck_model

from offlang.augment import MockTaggingProvider, PivotSet, augment_corpus
from offlang.cli import main as cli_main
from offlang.corpus import (
    Corpus,
    CorpusStats,
    Label,
    LabeledExample,
    corpus_stats,
    load_scored_tsv,
    save_labeled_tsv,
)
from offlang.datagen import (
    DISAMBIG_PIVOTS,
    cue_corpus,
    cue_encoder_config,
    cue_train_config,
    disambiguation_task,
    flip_labels,
    mini_corpus,
    separable_toy_corpus,
    toy_encoder_config,
    toy_train_config,
)
from offlang.encoder import EncoderModel, build_vocab
from offlang.evaluation import (
    ablation_augmentation,
    ablation_english,
    evaluate,
    majority_baseline,
    predict_labels,
)
from offlang.normalize import Lexicon, NormalizationConfig, normalize, segment_hashtag
from offlang.train import train_single
from offlang.weaklabel import WeakLabelConfig, build_weak_corpus

OFF, NOT = Label.OFF, Label.NOT


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[criterion {number:02d}] FAIL {description} (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s: {elapsed:.1f}s")
    print(f"[criterion {number:02d}] PASS {description} ({elapsed:.1f}s)")


def test_criterion_01_majority_baseline_reproduction():
    rows = {
        "English": ((300_000, 300_000), (1080, 2807), 0.4193),
        "Danish": ((307, 2061), (41, 288), 0.4668),
        "Turkish": ((4837, 20184), (716, 2812), 0.4435),
        "Arabic": ((1371, 5468), (402, 1598), 0.4441),
        "Greek": ((1989, 5005), (242, 1302), 0.4575),
    }
    with criterion(1, "majority baselines match published table to 1e-4", 1.0):
        for name, ((tr_off, tr_not), (te_off, te_not), expected) in rows.items():
            gold = [OFF] * te_off + [NOT] * te_not
            report = majority_baseline(CorpusStats(tr_off, tr_not), gold)
            assert abs(report.macro_f1 - expected) <= 1e-4, name


def test_criterion_02_metric_oracle_equivalence():
    def oracle(pred, gold):
        per = {}
        for cls in (OFF, NOT):
            tp = sum(1 for p, g in zip(pred, gold) if p is cls and g is cls)
            fp = sum(1 for p, g in zip(pred, gold) if p is cls and g is not cls)
            fn = sum(1 for p, g in zip(pred, gold) if p is not cls and g is cls)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            per[cls] = (
                precision,
                recall,
                2 * precision * recall / (precision + recall) if precision + recall else 0.0,
            )
        macro = (per[OFF][2] + per[NOT][2]) / 2
        acc = sum(p is g for p, g in zip(pred, gold)) / len(gold)
        return per, macro, acc

    with criterion(2, "evaluate matches counting oracle on 1000 random cases", 5.0):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 500)
            bias = rng.random()
            gold = [OFF if rng.random() < bias else NOT for _ in range(n)]
            pred = [OFF if rng.random() < rng.random() else NOT for _ in range(n)]
            report = evaluate(pred, gold)
            per, macro, acc = oracle(pred, gold)
            assert abs(report.macro_f1 - macro) <= 1e-12
            assert abs(report.accuracy - acc) <= 1e-12
            for cls in (OFF, NOT):
                got = report.per_class[cls]
                assert abs(got.precision - per[cls][0]) <= 1e-12
                assert abs(got.recall - per[cls][1]) <= 1e-12
                assert abs(got.f1 - per[cls][2]) <= 1e-12


def test_criterion_03_augmentation_cardinality_and_labels():
    with criterion(3, "augmentation: |X^| = 4n, labels scale by 4, originals prefix", 5.0):
        rng = random.Random(7)
        pivots = PivotSet(("en", "fr", "de"))
        provider = MockTaggingProvider()
        for trial in range(100):
            n_off = rng.randint(0, 10)
            n_not = rng.randint(0 if n_off else 1, 10)
            examples = [
                LabeledExample(f"t{trial}o{i}", f"kotu {trial} {i}", OFF) for i in range(n_off)
            ] + [
                LabeledExample(f"t{trial}n{i}", f"iyi {trial} {i}", NOT) for i in range(n_not)
            ]
            rng.shuffle(examples)
            corpus = Corpus("tr", examples)
            out = augment_corpus(corpus, pivots, provider)
            assert len(out) == 4 * len(corpus)
            stats = corpus_stats(out)
            assert (stats.off_count, stats.not_count) == (4 * n_off, 4 * n_not)
            by_id = {ex.id: ex for ex in corpus}
            for ex in out:
                if ex.id in by_id:
                    assert ex == by_id[ex.id]
                else:
                    original = by_id[ex.id.rsplit("-", 1)[0]]
                    assert ex.text.startswith(original.text)


def test_criterion_04_gradient_check():
    with criterion(4, "analytic gradients match finite differences (<1e-4) on 10 batches", 60.0):
        rng = np.random.default_rng(404)
        for batch_idx in range(10):
            model, head = random_gradcheck_model(seed=batch_idx)
            ids, mask, y = random_batch(rng)
            errors = gradient_check(model, head, ids, mask, y, eps=1e-4)
            assert set(errors) == set(model.params) | {"head.w", "head.b"}
            for name, err in errors.items():
                assert err < 1e-4, f"batch {batch_idx} tensor {name}: {err:.2e}"


def test_criterion_05_trainability():
    with criterion(5, "toy corpus: accuracy 1.0 and loss < 0.1 for >= 4 of 5 seeds", 60.0):
        successes = 0
        for seed in range(5):
            corpus = separable_toy_corpus(200, seed=seed)
            encoder_config = toy_encoder_config(seed=seed)
            train_config = toy_train_config(seed=seed)
            assert train_config.epochs == 4
            vocab = build_vocab(corpus, encoder_config)
            model = EncoderModel.initialize(encoder_config, vocab.size)
            result = train_single(corpus, model, vocab, train_config)
            preds = predict_labels(result.model, result.head, vocab, corpus.texts())
            accuracy = sum(p == g for p, g in zip(preds, corpus.labels())) / len(corpus)
            if result.loss_trace[-1] < 0.1 and accuracy == 1.0:
                successes += 1
        assert successes >= 4, f"only {successes}/5 seeds reached the target"


def test_criterion_06_augmentation_direction():
    with criterion(6, "median macro-F1 improves >= 0.05 with augmentation (5 seeds)", 300.0):
        without, with_aug = [], []
        for seed in range(5):
            corpus, provider = disambiguation_task(n=120, seed=seed)
            reports = ablation_augmentation(
                corpus,
                DISAMBIG_PIVOTS,
                provider,
                cue_train_config(seed=seed),
                cue_encoder_config(seed=seed),
            )
            assert [r.system for r in reports] == ["-Augmentation", "+Augmentation"]
            without.append(reports[0].macro_f1)
            with_aug.append(reports[1].macro_f1)
        gap = median(with_aug) - median(without)
        assert gap >= 0.05, f"median gap {gap:.3f} (without={without}, with={with_aug})"


def test_criterion_07_english_ablation_direction():
    with criterion(7, "clean-only >= noised-only and dual >= max - 0.02 in median (5 seeds)", 300.0):
        arms = {"clean": [], "noised": [], "dual": []}
        for seed in range(5):
            gold = cue_corpus(200, seed=seed)
            weak = flip_labels(gold, fraction=0.2, seed=seed + 1000)
            test = cue_corpus(80, seed=seed + 2000)
            reports = ablation_english(
                gold, weak, test, cue_train_config(seed=seed), cue_encoder_config(seed=seed)
            )
            assert [r.system for r in reports] == ["encoder-A-only", "encoder-B-only", "dual"]
            arms["clean"].append(reports[0].macro_f1)
            arms["noised"].append(reports[1].macro_f1)
            arms["dual"].append(reports[2].macro_f1)
        clean, noised, dual = (median(arms[k]) for k in ("clean", "noised", "dual"))
        assert clean >= noised, f"clean {clean:.3f} < noised {noised:.3f}"
        assert dual >= max(clean, noised) - 0.02, f"dual {dual:.3f} vs max {max(clean, noised):.3f}"


def test_criterion_08_weak_labeling(tmp_path):
    with criterion(8, "weak labeling on 10k scored file: strict thresholds, exact k, deterministic", 5.0):
        rng = random.Random(88)
        lines = []
        boundary_ids = set()
        for i in range(10_000):
            if i % 500 == 0:  # exact boundary values: must be excluded
                conf = 0.8 if i % 1000 == 0 else 0.2
                boundary_ids.add(f"s{i}")
            else:
                conf = rng.random()
            lines.append(f"s{i}\tgenerated tweet {i}\t{conf:.6f}")
        scored_path = tmp_path / "scored_10k.tsv"
        scored_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        scored = load_scored_tsv(scored_path)
        assert len(scored) == 10_000
        by_id = {s.id: s for s in scored}
        config = WeakLabelConfig(per_class_count=1500, seed=5)
        corpus = build_weak_corpus(scored, config)
        again = build_weak_corpus(scored, config)
        assert corpus.examples == again.examples

        stats = corpus_stats(corpus)
        assert (stats.off_count, stats.not_count) == (1500, 1500)
        for ex in corpus:
            conf = by_id[ex.id].confidence
            if ex.label is OFF:
                assert conf > 0.8
            else:
                assert conf < 0.2
            assert ex.id not in boundary_ids


def test_criterion_09_normalization(tmp_path):
    golden_path = Path(__file__).parent / "data" / "normalize_golden.json"
    with criterion(9, "normalization goldens, idempotence fuzz, segmentation oracle", 30.0):
        config = NormalizationConfig.bundled()
        pairs = json.loads(golden_path.read_text(encoding="utf-8"))
        assert len(pairs) >= 25
        for pair in pairs:
            assert normalize(pair["in"], config) == pair["out"], pair["in"]

        alphabet = (
            list("abcdefgh ")
            + ["@USER", "URL", "#", "#nowplaying", "http://x.io/a", "www.q.de"]
            + ["brb", "u", "2day", "12", "2pac", "😂", "👍", "❤️", "🜚", "\t", "\n"]
        )
        rng = random.Random(909)
        for _ in range(10_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 10)))
            once = normalize(text, config)
            assert normalize(once, config) == once, repr(text)

        lexicon = Lexicon(
            {
                "now": 1000, "playing": 500, "nowp": 1, "laying": 400, "a": 800,
                "an": 300, "and": 900, "ban": 60, "band": 55, "banana": 40,
                "stand": 70, "on": 600, "the": 2000, "there": 150, "here": 220,
            }
        )

        def oracle_best(rest):
            if not rest:
                return 0.0
            return max(
                lexicon.score(rest[:i]) + oracle_best(rest[i:])
                for i in range(1, len(rest) + 1)
            )

        chars = "abdehnoprstwy"
        tags = ["nowplaying", "bananaband", "standonthe", "hereandthere", "a", "xqzt"]
        tags += ["".join(rng.choices(chars, k=rng.randint(1, 13))) for _ in range(25)]
        tags += ["nowplayingbandstand", "standhereandthereon"]
        for tag in tags:
            assert len(tag) <= 20
            out = segment_hashtag(tag, lexicon)
            assert out.replace(" ", "") == tag.lower()
            got = sum(lexicon.score(w) for w in out.split())
            assert abs(got - oracle_best(tag.lower())) <= 1e-9, tag


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    config_yaml = """
language: tr
seed: 17
encoder:
  hidden_size: 32
  num_layers: 2
  num_heads: 2
  ffn_size: 64
  max_len: 16
  vocab_cap: 300
  dropout: 0.1
train:
  epochs: 4
  batch_size: 16
  learning_rate: 0.008
"""
    with criterion(10, "CLI train + evaluate twice: byte-identical reports", 60.0):
        save_labeled_tsv(mini_corpus("tr", 200, seed=3), tmp_path / "train.tsv")
        save_labeled_tsv(mini_corpus("tr", 80, seed=4, split="test"), tmp_path / "test.tsv")
        (tmp_path / "run.yaml").write_text(config_yaml, encoding="utf-8")

        for name in ("one", "two"):
            run_dir = tmp_path / name
            assert cli_main([
                "train", "--config", str(tmp_path / "run.yaml"),
                "--input", str(tmp_path / "train.tsv"), "--out-dir", str(run_dir),
            ]) == 0
            assert cli_main([
                "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                "--input", str(tmp_path / "test.tsv"), "--out-dir", str(run_dir / "eval"),
            ]) == 0
        capsys.readouterr()

        for rel in ("model.ckpt", "loss_trace.csv", "eval/report.json"):
            a = (tmp_path / "one" / rel).read_bytes()
            b = (tmp_path / "two" / rel).read_bytes()
            assert a == b, f"{rel} differs between runs"
        for rel in ("manifest.json", "eval/manifest.json"):
            a = json.loads((tmp_path / "one" / rel).read_text(encoding="utf-8"))
            b = json.loads((tmp_path / "two" / rel).read_text(encoding="utf-8"))
            a.pop("created_at")
            b.pop("created_at")
            # Input paths legitimately differ across run dirs; their content must not.
            assert sorted(a.pop("inputs").values()) == sorted(b.pop("inputs").values())
            assert a == b, f"{rel} differs beyond its timestamp"

        report = json.loads((tmp_path / "one" / "eval" / "report.json").read_text(encoding="utf-8"))
        assert report["macro_f1"] > 0.6  # the mini task is genuinely learned
