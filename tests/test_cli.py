import json
import random

import pytest

from offlang.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, emit_report_table, main
from offlang.corpus import (
    Corpus,
    Label,
    LabeledExample,
    corpus_stats,
    load_labeled_tsv,
    save_labeled_tsv,
)
from offlang.datagen import mini_corpus
from offlang.encoder import EncoderConfig, EncoderModel, build_vocab, save_checkpoint
from offlang.errors import ArityMismatch
from offlang.evaluation import evaluate
from offlang.normalize import NormalizationConfig, normalize

RUN_YAML = """
language: tr
seed: 11
encoder:
  hidden_size: 16
  num_layers: 1
  num_heads: 2
  ffn_size: 32
  max_len: 16
  vocab_cap: 200
  dropout: 0.1
train:
  epochs: 2
  batch_size: 8
  learning_rate: 0.008
"""


@pytest.fixture()
def workspace(tmp_path):
    save_labeled_tsv(mini_corpus("tr", 120, seed=5), tmp_path / "train.tsv")
    save_labeled_tsv(mini_corpus("tr", 48, seed=6, split="test"), tmp_path / "test.tsv")
    (tmp_path / "run.yaml").write_text(RUN_YAML, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("train", "--config", tmp_path / "missing.toml", "--out-dir", tmp_path / "o")
        assert code == EXIT_CONFIG
        assert "missing.toml" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = run("train", "--input", tmp_path / "nope.tsv", "--out-dir", tmp_path / "o")
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_corrupt_checkpoint_is_runtime_failure(self, workspace, capsys):
        bad = workspace / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = run(
            "evaluate", "--checkpoint", bad,
            "--input", workspace / "test.tsv", "--out-dir", workspace / "o",
        )
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train: {epochs: 1\n", "not valid YAML"),
            ("encoder: {hiden_size: 8}\n", "encoder.hiden_size"),
            ("train: {epoch: 1}\n", "train.epoch"),
            ("train: {seed: 4}\n", "train.seed"),
            ("train: 5\n", "'train' must be a mapping"),
            ("encoder: [8]\n", "'encoder' must be a mapping"),
            ('train: {epochs: "4"}\n', "train.epochs must be int, got '4'"),
            ('encoder: {dropout: "x"}\n', "encoder.dropout must be float, got 'x'"),
            ("train: {epochs: true}\n", "train.epochs must be int, got True"),
            ("train: {epochs: null}\n", "train.epochs must be int, got None"),
            ("encoder: {hidden_size: null}\n", "encoder.hidden_size must be int, got None"),
            ("train: {learning_rate: true}\n", "train.learning_rate must be float or null"),
            ("seed: 4.5\n", "seed must be int, got 4.5"),
            ("train: {epochs: 0}\n", "invalid train settings: epochs must be >= 1"),
            ("encoder: {hidden_size: 63}\n", "invalid encoder settings: hidden_size 63"),
        ],
        ids=[
            "malformed_yaml", "unknown_encoder_key", "unknown_train_key",
            "seed_in_train_section", "scalar_section", "list_section",
            "string_for_int", "string_for_float", "bool_for_int", "null_for_int",
            "null_for_encoder_int", "bool_for_float", "float_seed", "zero_epochs",
            "hidden_not_divisible",
        ],
    )
    def test_bad_config_is_config_error(self, workspace, capsys, text, message):
        config = workspace / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        code = run(
            "train", "--config", config, "--input", workspace / "train.tsv",
            "--language", "tr", "--out-dir", workspace / "o",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("weaklabel", 'weaklabel: {per_class_count: "1"}\n',
             "weaklabel.per_class_count must be int, got '1'"),
            ("weaklabel", "weaklabel: 5\n", "'weaklabel' must be a mapping"),
            ("weaklabel", "weaklabel: {seed: 1}\n", "unknown config key weaklabel.seed"),
            ("weaklabel", "weaklabel: {hi_threshold: 0.1}\n",
             "invalid weaklabel settings: thresholds must satisfy"),
            ("augment", "augment: [1]\n", "'augment' must be a mapping"),
            ("augment", "augment: {pivots: 5}\n",
             "augment.pivots must be str or a list of str or null, got 5"),
            ("augment", "augment: {pivots: [fr, 3]}\n",
             "augment.pivots must be str or a list of str or null, got ['fr', 3]"),
            ("augment", "augment: {cache: 5}\n", "augment.cache must be str or null, got 5"),
            ("augment", "augment: {policy: 5}\n", "augment.policy must be str, got 5"),
            ("augment", "augment: {policy: later}\n",
             "augment.policy must be one of fail_fast, skip_on_error, got 'later'"),
            ("augment", "augment: {workers: 2}\n", "unknown config key augment.workers"),
        ],
        ids=[
            "string_for_int", "scalar_section", "seed_in_section", "bad_thresholds", "list_augment",
            "int_pivots", "int_in_pivot_list", "int_cache", "int_policy", "unknown_policy",
            "unknown_augment_key",
        ],
    )
    def test_bad_stage_section_is_config_error(self, tmp_path, capsys, command, text, message):
        (tmp_path / "scored.tsv").write_text("s1\tsome tweet\t0.9\n", encoding="utf-8")
        save_labeled_tsv(mini_corpus("tr", 8, seed=1), tmp_path / "train.tsv")
        config = tmp_path / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        inputs = {"weaklabel": "scored.tsv", "augment": "train.tsv"}
        code = run(
            command, "--config", config, "--input", tmp_path / inputs[command],
            "--language", "tr", "--out-dir", tmp_path / "o",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_int_for_float_and_null_for_optional_are_accepted(self, workspace, capsys):
        config = workspace / "ok.yaml"
        config.write_text(
            "encoder: {hidden_size: 8, num_layers: 1, num_heads: 2, max_len: 16, dropout: 0}\n"
            "train: {epochs: 1, batch_size: null, learning_rate: 1}\n",
            encoding="utf-8",
        )
        code = run(
            "train", "--config", config, "--input", workspace / "train.tsv",
            "--language", "tr", "--out-dir", workspace / "o",
        )
        assert code == EXIT_OK
        assert "trained 1 epochs" in capsys.readouterr().out

    def test_directory_input_is_config_error(self, tmp_path, capsys):
        assert run("stats", "--input", tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize("command", ["stats", "weaklabel"])
    def test_undecodable_tsv_is_runtime_failure(self, tmp_path, capsys, command):
        path = tmp_path / "in.tsv"
        path.write_bytes(b"1\tgood\t0.5\n2\tb\xffd\t0.5\n")
        code = run(command, "--input", path, "--out-dir", tmp_path / "o")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: line 2: not valid UTF-8\n"

    def test_checkpoint_without_head_is_runtime_failure(self, workspace, capsys):
        corpus = load_labeled_tsv(workspace / "train.tsv", language="tr")
        config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
        vocab = build_vocab(corpus, config)
        path = workspace / "encoder_only.ckpt"
        save_checkpoint(path, EncoderModel.initialize(config, vocab.size), vocab)
        code = run(
            "evaluate", "--checkpoint", path,
            "--input", workspace / "test.tsv", "--out-dir", workspace / "o",
        )
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "head.w" in err and str(path) in err


class TestStats:
    def test_prints_counts(self, workspace, capsys):
        assert run("stats", "--input", workspace / "train.tsv", "--language", "tr") == EXIT_OK
        out = capsys.readouterr().out
        stats = corpus_stats(load_labeled_tsv(workspace / "train.tsv", language="tr"))
        assert out.strip() == f"{{off={stats.off_count}, not={stats.not_count}, total={stats.total}}}"

    def test_published_greek_distribution(self, tmp_path, capsys):
        rows = [f"o{i}\tκείμενο {i}\tOFF" for i in range(1989)]
        rows += [f"n{i}\tκείμενο {i}\tNOT" for i in range(5005)]
        (tmp_path / "greek_train.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run("stats", "--input", tmp_path / "greek_train.tsv", "--language", "el") == EXIT_OK
        assert capsys.readouterr().out.strip() == "{off=1989, not=5005, total=6994}"


class TestAugmentCommand:
    def test_mock_provider_quadruples_rows(self, workspace, capsys):
        out_dir = workspace / "aug"
        code = run(
            "augment", "--input", workspace / "train.tsv", "--provider", "mock",
            "--pivots", "en,fr,de", "--language", "tr", "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        rows = (out_dir / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4 * 120
        capsys.readouterr()

    def test_five_row_file_gives_twenty_rows(self, tmp_path, capsys):
        rows = [f"{i}\tcümle {i}\t{'OFF' if i % 2 else 'NOT'}" for i in range(5)]
        (tmp_path / "toy.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run(
            "augment", "--input", tmp_path / "toy.tsv", "--provider", "mock",
            "--pivots", "en,fr,de", "--out-dir", tmp_path / "out",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 20
        capsys.readouterr()

    def test_config_section_sets_pivots_policy_and_cache(self, tmp_path, capsys):
        (tmp_path / "toy.tsv").write_text("1\tmerhaba\tNOT\n2\tkötü\tOFF\n", encoding="utf-8")
        (tmp_path / "run.yaml").write_text(
            f"augment: {{pivots: [fr, de], policy: skip_on_error, cache: {tmp_path / 'c.tsv'}}}\n",
            encoding="utf-8",
        )
        code = run(
            "augment", "--config", tmp_path / "run.yaml", "--input", tmp_path / "toy.tsv",
            "--language", "tr", "--out-dir", tmp_path / "out",
        )
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert [row.split("\t")[0] for row in rows] == ["1", "1-fr", "1-de", "2", "2-fr", "2-de"]
        assert len((tmp_path / "c.tsv").read_text(encoding="utf-8").splitlines()) == 4
        capsys.readouterr()

    def test_source_language_in_pivots_rejected(self, tmp_path, capsys):
        (tmp_path / "en.tsv").write_text("1\thello\tNOT\n", encoding="utf-8")
        code = run(
            "augment", "--input", tmp_path / "en.tsv", "--provider", "mock",
            "--pivots", "en,fr,de", "--language", "en", "--out-dir", tmp_path / "out",
        )
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_cold_journals_are_byte_identical_in_row_then_pivot_order(self, tmp_path, capsys):
        corpus = mini_corpus("tr", 240, seed=3)
        save_labeled_tsv(corpus, tmp_path / "train.tsv")
        journals = []
        for name in ("a", "b"):
            cache = tmp_path / name / "cache.tsv"
            code = run(
                "augment", "--input", tmp_path / "train.tsv", "--provider", "mock",
                "--pivots", "en,fr,de", "--language", "tr", "--cache", cache,
                "--out-dir", tmp_path / name,
            )
            assert code == EXIT_OK
            journals.append(cache.read_bytes())
        assert journals[0] == journals[1]
        assert [line.split("\t")[:3] for line in journals[0].decode("utf-8").splitlines()] == [
            [ex.text, "tr", pivot] for ex in corpus for pivot in ("en", "fr", "de")
        ]
        capsys.readouterr()


    @staticmethod
    def _augment_with_cache(tmp_path, journal: bytes):
        (tmp_path / "toy.tsv").write_text("1\thello\tNOT\n2\tbye\tOFF\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(journal)
        code = run(
            "augment", "--input", tmp_path / "toy.tsv", "--provider", "mock",
            "--pivots", "fr", "--language", "en", "--cache", cache,
            "--out-dir", tmp_path / "out",
        )
        return code, cache

    def test_torn_cache_line_is_not_served(self, tmp_path, capsys):
        code, cache = self._augment_with_cache(tmp_path, b"hello\ten\tfr\tbonj")
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "1-fr\thello [SEP] fr\u27e6hello\u27e7\tNOT"
        assert cache.read_text(encoding="utf-8") == (
            "hello\ten\tfr\tfr\u27e6hello\u27e7\nbye\ten\tfr\tfr\u27e6bye\u27e7\n"
        )
        capsys.readouterr()

    def test_torn_cache_line_with_few_fields(self, tmp_path, capsys):
        code, cache = self._augment_with_cache(tmp_path, b"hello\ten\tfr\tbonjour\nbye\te")
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "1-fr\thello [SEP] bonjour\tNOT"
        assert cache.read_text(encoding="utf-8") == (
            "hello\ten\tfr\tbonjour\nbye\ten\tfr\tfr\u27e6bye\u27e7\n"
        )
        capsys.readouterr()

    def test_malformed_cache_line_is_runtime_failure(self, tmp_path, capsys):
        code, cache = self._augment_with_cache(tmp_path, b"hello\ten\tfr\tbonjour\nbye\ten\n")
        assert code == EXIT_RUNTIME
        assert f"{cache}: line 2: " in capsys.readouterr().err


class TestWeaklabelCommand:
    def test_writes_balanced_corpus(self, tmp_path, capsys):
        lines = [f"s{i}\ttweet number {i}\t{i / 999:.4f}" for i in range(1000)]
        (tmp_path / "scored.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "weaklabel", "--input", tmp_path / "scored.tsv", "--per-class", "40",
            "--seed", "3", "--out-dir", tmp_path / "weak",
        )
        assert code == EXIT_OK
        corpus = load_labeled_tsv(tmp_path / "weak" / "weak_train.tsv")
        stats = corpus_stats(corpus)
        assert (stats.off_count, stats.not_count) == (40, 40)
        capsys.readouterr()


class TestNormalizeCommand:
    def test_normalizes_texts(self, tmp_path, capsys):
        (tmp_path / "en.tsv").write_text("1\t@USER brb URL\tOFF\n", encoding="utf-8")
        code = run("normalize", "--input", tmp_path / "en.tsv", "--out-dir", tmp_path / "norm")
        assert code == EXIT_OK
        corpus = load_labeled_tsv(tmp_path / "norm" / "normalized.tsv")
        assert corpus.examples[0].text == "<user> be right back http"
        capsys.readouterr()


class TestTrainEvaluate:
    def test_full_round_trip_with_manifest(self, workspace, capsys):
        run_dir = workspace / "run"
        code = run(
            "train", "--config", workspace / "run.yaml",
            "--input", workspace / "train.tsv", "--out-dir", run_dir,
        )
        assert code == EXIT_OK
        assert (run_dir / "model.ckpt").exists()
        trace = (run_dir / "loss_trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 3

        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["artifacts"]) == {"model.ckpt", "loss_trace.csv"}
        for digest in manifest["artifacts"].values():
            assert len(digest) == 64

        eval_dir = workspace / "eval"
        code = run(
            "evaluate", "--checkpoint", run_dir / "model.ckpt",
            "--input", workspace / "test.tsv", "--out-dir", eval_dir,
        )
        assert code == EXIT_OK
        report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert "macro-F1" in capsys.readouterr().out

    def test_reruns_byte_identical(self, workspace, capsys):
        for name in ("a", "b"):
            assert run(
                "train", "--config", workspace / "run.yaml",
                "--input", workspace / "train.tsv", "--out-dir", workspace / name,
            ) == EXIT_OK
        assert (workspace / "a" / "model.ckpt").read_bytes() == (workspace / "b" / "model.ckpt").read_bytes()
        assert (workspace / "a" / "loss_trace.csv").read_bytes() == (workspace / "b" / "loss_trace.csv").read_bytes()
        capsys.readouterr()


class TestGridsearchCommand:
    def test_writes_cells_and_best(self, workspace, capsys):
        out_dir = workspace / "grid"
        code = run(
            "gridsearch", "--config", workspace / "run.yaml",
            "--input", workspace / "train.tsv",
            "--learning-rates", "0.008,10000.0", "--batch-sizes", "8",
            "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        best = json.loads((out_dir / "best_config.json").read_text(encoding="utf-8"))
        assert best["learning_rate"] == 0.008
        cells = (out_dir / "grid_cells.tsv").read_text(encoding="utf-8").splitlines()
        assert len(cells) == 3
        assert cells[2].endswith("true")  # the absurd rate diverged
        capsys.readouterr()


class TestAblateCommand:
    def test_augmentation_mode(self, workspace, capsys):
        out_dir = workspace / "ablate"
        code = run(
            "ablate", "--mode", "augmentation", "--config", workspace / "run.yaml",
            "--input", workspace / "train.tsv", "--provider", "mock",
            "--pivots", "en,fr,de", "--epochs", "1", "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        table = (out_dir / "table4.tsv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "System\tMacro-F1\tAccuracy"
        assert table[1].startswith("-Augmentation\t")
        assert table[2].startswith("+Augmentation\t")
        capsys.readouterr()

    def test_english_mode(self, workspace, capsys):
        save_labeled_tsv(mini_corpus("en", 80, seed=7), workspace / "gold.tsv")
        save_labeled_tsv(mini_corpus("en", 80, seed=8, split="weak"), workspace / "weak.tsv")
        save_labeled_tsv(mini_corpus("en", 40, seed=9, split="test"), workspace / "test_en.tsv")
        out_dir = workspace / "ablate_en"
        code = run(
            "ablate", "--mode", "english", "--config", workspace / "run.yaml",
            "--gold", workspace / "gold.tsv", "--weak", workspace / "weak.tsv",
            "--test", workspace / "test_en.tsv", "--language", "en",
            "--epochs", "8", "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        table = (out_dir / "table3.tsv").read_text(encoding="utf-8").splitlines()
        assert len(table) == 4
        rows = [line.split("\t") for line in table[1:]]
        assert [row[0] for row in rows] == ["encoder-A-only", "encoder-B-only", "dual"]
        # Every arm learns: each beats predicting NOT for every test row, and
        # the arms do not all score the same.
        test_labels = [ex.label for ex in mini_corpus("en", 40, seed=9, split="test")]
        all_not = evaluate([Label.NOT] * len(test_labels), test_labels).macro_f1
        assert all(float(row[1]) > all_not + 0.05 for row in rows), table
        assert len({tuple(row[1:]) for row in rows}) > 1, table
        capsys.readouterr()

    def test_english_mode_normalizes_like_train(self, workspace, capsys):
        # Tweets with placeholders, hashtags, emoji, URLs and slang give the
        # same ablation as their normalized copies: normalize is idempotent,
        # so both runs train on identical text.
        rng = random.Random(0)
        extras = ["@USER", "#GoodMorning", "😂", "http://x.io/a", "brb", "2day", "lol 12"]
        norm_config = NormalizationConfig.bundled()
        inputs = (("gold", 80, 7, "train"), ("weak", 80, 8, "weak"), ("test", 40, 9, "test"))
        for name, n, seed, split in inputs:
            raw = [
                LabeledExample(ex.id, f"{rng.choice(extras)} {ex.text} {rng.choice(extras)}", ex.label)
                for ex in mini_corpus("en", n, seed=seed, split=split)
            ]
            pre = [LabeledExample(ex.id, normalize(ex.text, norm_config), ex.label) for ex in raw]
            for kind, examples in (("raw", raw), ("pre", pre)):
                (workspace / kind).mkdir(exist_ok=True)
                save_labeled_tsv(Corpus("en", split, examples), workspace / kind / f"{name}.tsv")
        for kind in ("raw", "pre"):
            code = run(
                "ablate", "--mode", "english", "--config", workspace / "run.yaml",
                "--gold", workspace / kind / "gold.tsv", "--weak", workspace / kind / "weak.tsv",
                "--test", workspace / kind / "test.tsv", "--language", "en",
                "--epochs", "8", "--out-dir", workspace / f"ablate_{kind}",
            )
            assert code == EXIT_OK
        artifacts = sorted(p.name for p in (workspace / "ablate_raw").iterdir())
        assert "table3.tsv" in artifacts and len(artifacts) == 5  # table, 3 reports, manifest
        for name in artifacts:
            if name != "manifest.json":
                raw_bytes = (workspace / "ablate_raw" / name).read_bytes()
                assert raw_bytes == (workspace / "ablate_pre" / name).read_bytes(), name
        capsys.readouterr()


class TestReportTable:
    def make_reports(self, n):
        gold = [Label.OFF, Label.NOT, Label.NOT]
        return [evaluate([Label.NOT] * 3, gold, system=f"r{i}") for i in range(n)]

    def test_table4_shape(self):
        text = emit_report_table(self.make_reports(2), "table4")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == "System\tMacro-F1\tAccuracy"
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_table3_shape(self):
        lines = emit_report_table(self.make_reports(3), "table3").splitlines()
        assert len(lines) == 4

    def test_table2_shape(self):
        lines = emit_report_table(self.make_reports(5), "table2").splitlines()
        assert lines[0] == "System\tTurkish\tArabic\tGreek\tDanish\tEnglish"
        assert len(lines) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            emit_report_table(self.make_reports(1), "table3")

    def test_values_rounded_to_four_decimals(self):
        line = emit_report_table(self.make_reports(2), "table4").splitlines()[1]
        for cell in line.split("\t")[1:]:
            assert len(cell.split(".")[1]) == 4
