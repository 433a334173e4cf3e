import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import offlang
import offlang.cli as cli_mod
import offlang.corpus as corpus_mod
import offlang.train as train_mod
from helpers import drop_head, tear_writes
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
from offlang.encoder import EncoderConfig, EncoderModel, build_vocab
from offlang.errors import ArityMismatch
from offlang.evaluation import evaluate
from offlang.normalize import NormalizationConfig, normalize
from offlang.train import ClassifierHead, save_checkpoint

# The meta a `train` run of RUN_YAML writes.
META = {"language": "tr", "seed": 11, "normalize": False}

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


BUNDLED_TABLES = Path(offlang.__file__).parent / "data"
TABLE_KEYS = ("emoji_map", "slang_map", "lexicon")


def normalize_argv(tmp_path, key: str, table: Path) -> list:
    """The command line of `normalize` on a two-row English file, with the
    normalization table `key` read from `table` and the other two bundled."""
    tables = {k: str(BUNDLED_TABLES / f"{k}.tsv") for k in TABLE_KEYS}
    tables[key] = str(table)
    config = tmp_path / "maps.yaml"
    config.write_text(json.dumps({"normalize_maps": tables}), encoding="utf-8")
    (tmp_path / "en.tsv").write_text("1\t#goodday :)\tNOT\n2\tbye 4u\tOFF\n", encoding="utf-8")
    return ["normalize", "--config", config, "--input", tmp_path / "en.tsv", "--out-dir", tmp_path / "o"]


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

    @staticmethod
    def _edit_header(data: bytes, edit) -> bytes:
        """The checkpoint with its header edited and its header digest made to
        match, so that the checks behind the digest see the edit."""
        size = int.from_bytes(data[8:16], "little")
        header = json.loads(data[48 : 48 + size])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        digest = hashlib.sha256(raw).digest()
        return data[:8] + len(raw).to_bytes(8, "little") + digest + raw + data[48 + size :]

    # Each damage and the reason its one-line error gives.
    DAMAGE = {
        "cut_in_half": "runs past the end of the",
        "first_40_bytes": "the header runs past the end of the 40-byte file",
        "header_byte_ff": "the header does not match its SHA-256",
        "version_1": "version 1 is no longer read",
        "short_tensor": "tensor head.b does not match its SHA-256",
        "misplaced_tensor": "tensor head.w does not match its SHA-256",
        "meta_not_an_object": "the header is not a JSON object with a meta object",
        "no_vocab": "the header has no 'vocab' entry",
        "payload_byte_flipped": "tensor model.tok_emb does not match its SHA-256",
        "trailing_byte": "1 bytes follow the last tensor",
        "head_only": "bytes follow the last tensor",
        "head_relabelled": "tensor head.w is [4, 4] float64, not [8, 2] float64",
        "extra_tensor": "unexpected tensors head.z",
    }

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_checkpoint_names_the_file(self, workspace, capsys, damage):
        corpus = load_labeled_tsv(workspace / "train.tsv", language="tr")
        config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
        vocab = build_vocab(corpus, config)
        path = workspace / "damaged.ckpt"
        head = ClassifierHead.initialize(8, seed=0)
        save_checkpoint(path, EncoderModel.initialize(config, vocab.size), vocab, head, meta=META)
        data = path.read_bytes()

        def tensors(edit):
            return lambda header: header.update(tensors=edit(header["tensors"]))

        def relabel(name, shape):
            return tensors(lambda index: [
                dict(e, shape=shape) if e["name"] == name else e for e in index
            ])

        path.write_bytes({
            "cut_in_half": lambda: data[: len(data) // 2],
            "first_40_bytes": lambda: data[:40],
            "header_byte_ff": lambda: data[:60] + b"\xff" + data[61:],
            "version_1": lambda: b"OFFLANG1" + data[8:],
            "short_tensor": lambda: self._edit_header(data, relabel("head.b", [1])),
            "misplaced_tensor": lambda: self._edit_header(
                data, tensors(lambda index: [index[1], index[0], *index[2:]])),
            "meta_not_an_object": lambda: self._edit_header(data, lambda h: h.update(meta=[])),
            "no_vocab": lambda: self._edit_header(data, lambda h: h.pop("vocab")),
            "payload_byte_flipped": lambda: data[:-5] + bytes([data[-5] ^ 1]) + data[-4:],
            "trailing_byte": lambda: data + b"\x00",
            "head_only": lambda: self._edit_header(
                data, tensors(lambda index: [e for e in index if e["name"].startswith("head.")])),
            "head_relabelled": lambda: self._edit_header(data, relabel("head.w", [4, 4])),
            "extra_tensor": lambda: self._edit_header(data, tensors(lambda index: [*index, {
                "name": "head.z", "dtype": "float64", "shape": [1],
                "sha256": hashlib.sha256(bytes(8)).hexdigest(),
            }])) + bytes(8),
        }[damage]())
        code = run(
            "evaluate", "--checkpoint", path,
            "--input", workspace / "test.tsv", "--out-dir", workspace / "o",
        )
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert self.DAMAGE[damage] in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train: {epochs: 1\n", "not valid YAML"),
            ("encoder: {hiden_size: 8}\n", "encoder.hiden_size"),
            ("train: {epoch: 1}\n", "train.epoch"),
            ("train: {seed: 4}\n", "train.seed"),
            ("encoder: {init_seed: 3}\n", "unknown config key encoder.init_seed"),
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
            ("encoder: {ffn_size: -5}\n", "invalid encoder settings: ffn_size must be >= 0, got -5"),
        ],
        ids=[
            "malformed_yaml", "unknown_encoder_key", "unknown_train_key",
            "seed_in_train_section", "init_seed_in_encoder_section", "scalar_section",
            "list_section",
            "string_for_int", "string_for_float", "bool_for_int", "null_for_int",
            "null_for_encoder_int", "bool_for_float", "float_seed", "zero_epochs",
            "hidden_not_divisible", "negative_ffn_size",
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

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("train", "normalize_maps: 5\n", "config section 'normalize_maps' must be a mapping"),
            ("gridsearch", "grid: 5\n", "config section 'grid' must be a mapping, got 5"),
            ("train", "train_file: 5\n", "config key train_file must be str or null, got 5"),
            ("gridsearch", 'grid: {learning_rates: "x", batch_sizes: [8]}\n',
             "invalid grid settings: could not convert string to float: 'x'"),
            ("gridsearch", "holdout_fraction: 2\n",
             "config key holdout_fraction must be in (0, 1), got 2"),
            ("train", "trian: {epochs: 9}\n", "unknown config key trian"),
            ("stats", "language: 5\n", "config key language must be str, got 5"),
            ("train", 'normalize: "no"\n', "config key normalize must be bool or null, got 'no'"),
            ("stats", "train: {epoch: 1}\n", "unknown config key train.epoch"),
            ("evaluate", "augment: {workers: 2}\n", "unknown config key augment.workers"),
            ("normalize", "weaklabel: {hi_threshold: 0.1}\n", "invalid weaklabel settings"),
            ("stats", "train: {epochs: 0}\n", "invalid train settings: epochs must be >= 1, got 0"),
            ("augment", "train: {learning_rate: 0}\n",
             "invalid train settings: learning_rate must be positive"),
            ("train", "train: {learning_rate: .inf}\n",
             "invalid train settings: learning_rate must be positive and finite, got inf"),
            ("gridsearch", "grid: {learning_rates: [.nan], batch_sizes: [8]}\n",
             "invalid grid settings: learning_rate must be positive and finite, got nan"),
            ("weaklabel", "seed: -1\n", "config key seed must be >= 0, got -1"),
        ],
        ids=[
            "scalar_normalize_maps", "scalar_grid", "int_train_file", "string_rate",
            "holdout_above_one", "misspelt_section", "int_language", "string_normalize",
            "unknown_key_in_stats", "unknown_key_in_evaluate", "bad_section_in_normalize",
            "zero_epochs_in_stats", "zero_rate_in_augment", "infinite_rate_in_train",
            "nan_candidate_in_gridsearch", "negative_seed_in_weaklabel",
        ],
    )
    def test_every_command_checks_the_whole_file(self, workspace, capsys, command, text, message):
        config = workspace / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        flags = {"gridsearch": ["--learning-rates", "0.01", "--batch-sizes", "8"],
                 "evaluate": ["--checkpoint", workspace / "train.tsv"]}.get(command, [])
        if "grid:" in text:
            flags = []  # a flag would override the section's value
        code = run(
            command, "--config", config, "--input", workspace / "train.tsv", *flags,
            "--out-dir", workspace / "o",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize(
        "command, text, flags, message",
        [
            ("train", "train: {epochs: 0}\n", ["--epochs", "1"], "epochs must be >= 1, got 0"),
            ("weaklabel", "weaklabel: {per_class_count: 0}\n", ["--per-class", "5"],
             "per_class_count must be positive"),
            ("augment", "augment: {policy: retry}\n", ["--policy", "fail_fast"],
             "augment.policy must be one of"),
            ("gridsearch", "grid: {batch_sizes: 'a,b'}\n", ["--batch-sizes", "8"],
             "invalid grid settings"),
            ("ablate", "holdout_fraction: 1.5\n", ["--holdout", "0.2", "--mode", "augmentation"],
             "holdout_fraction must be in (0, 1)"),
        ],
        ids=["epochs", "per_class", "policy", "batch_sizes", "holdout"],
    )
    def test_a_file_value_that_a_flag_overrides_is_still_checked(
        self, workspace, capsys, command, text, flags, message
    ):
        config = workspace / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        argv = (command, "--config", config, "--input", workspace / "train.tsv", *flags)
        assert run(*argv, "--out-dir", workspace / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "config key seed must be >= 0, got -1"),
            (["--learning-rate", "inf"],
             "invalid train settings: learning_rate must be positive and finite, got inf"),
            (["--learning-rate", "nan"],
             "invalid train settings: learning_rate must be positive and finite, got nan"),
        ],
        ids=["negative_seed", "infinite_rate", "nan_rate"],
    )
    def test_out_of_range_train_flag_is_a_config_error(self, workspace, capsys, flags, message):
        argv = ("train", "--config", workspace / "run.yaml", "--input", workspace / "train.tsv")
        assert run(*argv, *flags, "--out-dir", workspace / "o") == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (workspace / "o").exists()

    def test_an_overflowing_fit_ends_in_one_line(self, workspace):
        # Run in a child, whose stderr holds any numpy warning as it would print.
        argv = [
            "train", "--config", workspace / "run.yaml", "--input", workspace / "train.tsv",
            "--learning-rate", "1e300", "--out-dir", workspace / "o",
        ]
        src = str(Path(offlang.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "offlang.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_RUNTIME
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: training diverged at epoch 0 batch 1: overflow encountered")

    def test_train_section_needs_no_language_defaults_outside_training(self, tmp_path, capsys):
        (tmp_path / "in.tsv").write_text("1\thi\tNOT\n", encoding="utf-8")
        (tmp_path / "run.yaml").write_text("language: xx\ntrain: {epochs: 2}\n", encoding="utf-8")
        argv = ("--config", tmp_path / "run.yaml", "--input", tmp_path / "in.tsv")
        assert run("stats", *argv) == EXIT_OK
        assert run("train", *argv, "--out-dir", tmp_path / "o") == EXIT_CONFIG
        assert "no defaults for language 'xx'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gridsearch", "--learning-rates", "a,b", "--batch-sizes", "8"],
            ["gridsearch", "--learning-rates", "0.01", "--batch-sizes", "8.5"],
            ["evaluate", "--checkpoint", "m.ckpt", "--language", "en"],
            ["evaluate", "--checkpoint", "m.ckpt", "--seed", "1"],
            ["augment", "--seed", "1"],
        ],
        ids=["bad_rates", "bad_batch_sizes", "evaluate_language", "evaluate_seed", "augment_seed"],
    )
    def test_bad_or_dead_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out-dir", tmp_path / "o") == EXIT_USAGE
        err = capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "command, flag, data, reason",
        [
            ("stats", "--input", b"1\tgood\t0.5\n2\tb\xffd\t0.5\n", "not valid UTF-8"),
            ("weaklabel", "--input", b"1\tgood\t0.5\n2\tb\xffd\t0.5\n", "not valid UTF-8"),
            ("stats", "--input", b"1\tx\tOFF\n2\ty\tMAYBE\n", "unknown label token 'MAYBE'"),
            ("stats", "--input", b"1\tx\tOFF\n1\ty\tNOT\n", "duplicate example id '1'"),
            ("stats", "--input", b"1\tx\tOFF\n2\ty\n",
             "expected >= 3 tab-separated fields, got 2"),
            ("weaklabel", "--input", b"1\tx\t0.5\n2\ty\t1.5\n", "confidence 1.5 outside [0, 1]"),
            ("weaklabel", "--input", b"s1\tx\t0.9\ns1\ty\t0.1\n", "duplicate example id 's1'"),
            ("augment", "--translations", b"hi\ten\tfr\tsalut\nbye\ten\tfr\tb\xffe\n",
             "not valid UTF-8"),
            ("augment", "--cache", b"hi\ten\tfr\tsalut\r\nbye\ten\tfr\tb\xffe\n",
             "not valid UTF-8"),
            ("normalize", "emoji_map", b":)\tsmile\nno tab here\n",
             "expected 2 tab-separated fields, got 1"),
            ("normalize", "slang_map", b"u\tyou\r\nb\xffd\tx\r\n", "not valid UTF-8"),
            ("normalize", "lexicon", b"good\t10\nday\tmany\n", "count 'many' is not an integer"),
        ],
        ids=[
            "stats", "weaklabel", "unknown_label", "duplicate_id", "short_row",
            "confidence_out_of_range", "scored_duplicate_id", "undecodable_translations", "undecodable_cache",
            "emoji_map_without_tab", "undecodable_slang_map", "lexicon_count_not_a_number",
        ],
    )
    def test_undecodable_tsv_is_runtime_failure(
        self, tmp_path, capsys, command, flag, data, reason
    ):
        # Every bad input file ends with one line naming the file and the line.
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        (tmp_path / "en.tsv").write_text("1\thi\tNOT\n2\tbye\tOFF\n", encoding="utf-8")
        if command == "normalize":  # flag names the table's config key
            code = run(*normalize_argv(tmp_path, flag, path))
        else:
            argv = [flag, path] if flag == "--input" else [
                "--input", tmp_path / "en.tsv", "--language", "en", "--pivots", "fr", flag, path,
                "--provider", "file" if flag == "--translations" else "mock",
            ]
            code = run(command, *argv, "--out-dir", tmp_path / "o")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: line 2: {reason}\n"

    @pytest.mark.parametrize(
        "key, table, reason",
        [
            ("slang_map", "u\tyou\nyu\tu there\n",
             "slang map violates closure: replacement for 'yu' contains the key 'u'"),
            ("lexicon", "\n", "lexicon must be non-empty"),
            ("lexicon", "good\t3\nday\t0\n", "lexicon counts must be positive"),
        ],
        ids=["slang_closure", "empty_lexicon", "non_positive_count"],
    )
    def test_bad_normalization_table_names_the_file(self, tmp_path, capsys, key, table, reason):
        path = tmp_path / "table.tsv"
        path.write_text(table, encoding="utf-8")
        assert run(*normalize_argv(tmp_path, key, path)) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("case", ["out_dir_under_a_file", "artifact_is_a_directory"])
    def test_os_error_on_an_output_path_is_one_line(self, tmp_path, capsys, case):
        (tmp_path / "in.tsv").write_text("1\thi\tNOT\n", encoding="utf-8")
        if case == "out_dir_under_a_file":
            out = where = tmp_path / "in.tsv" / "sub"
            reason = "Not a directory"
        else:
            out, reason = tmp_path / "o", "Is a directory"
            where = out / "normalized.tsv"
            where.mkdir(parents=True)
        assert run("normalize", "--input", tmp_path / "in.tsv", "--out-dir", out) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {reason}: {where}\n"
        assert sorted(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("full", ["artifact", "journal", "journal_skip_on_error"])
    def test_write_past_the_file_size_limit_names_the_file(self, tmp_path, full):
        # The limit is set in the child only, as a full disk would stop it.
        rows = "".join(f"{i}\tcümle numara {i}\t{'OFF' if i % 2 else 'NOT'}\n" for i in range(400))
        (tmp_path / "in.tsv").write_text(rows, encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        (out / "augmented.tsv").write_text("previous\n", encoding="utf-8")
        limit = 20_000
        cache = []
        if full != "artifact":  # a journal a few entries short of the limit
            journal = tmp_path / "cache.tsv"
            journal.write_text("".join(f"w{i}\ten\tfr\tx\n" for i in range(1500)), encoding="utf-8")
            assert limit - 200 < journal.stat().st_size < limit
            cache = ["--cache", str(journal)]
        if full == "journal_skip_on_error":  # a failed put ends the stage under every policy
            cache += ["--policy", "skip_on_error"]

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        src = str(Path(offlang.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "offlang.cli", "augment", "--input", str(tmp_path / "in.tsv"),
             "--language", "tr", "--provider", "mock", "--out-dir", str(out), *cache],
            env=env, capture_output=True, text=True, timeout=300, preexec_fn=limit_file_size,
        )
        assert proc.returncode == EXIT_RUNTIME
        named = out / "augmented.tsv" if full == "artifact" else tmp_path / "cache.tsv"
        assert proc.stderr == f"error: File too large: {named}\n"
        assert (out / "augmented.tsv").read_text(encoding="utf-8") == "previous\n"
        assert sorted(p.name for p in out.iterdir()) == ["augmented.tsv"]

    def test_skip_on_error_skips_failed_translations_but_not_a_full_journal(self, tmp_path):
        # Every 7th row has no translation; the journal has room for a few
        # entries under a file size limit set in the child only.
        rows = [(i, f"cümle numara {i}") for i in range(400)]
        (tmp_path / "in.tsv").write_text(
            "".join(f"{i}\t{text}\tOFF\n" for i, text in rows), encoding="utf-8"
        )
        (tmp_path / "tr.tsv").write_text(
            "".join(
                f"{text}\ttr\t{pivot}\tsentence {i} {pivot}\n"
                for i, text in rows if i % 7 for pivot in ("en", "fr", "de")
            ),
            encoding="utf-8",
        )
        journal = tmp_path / "cache.tsv"
        journal.write_text("".join(f"w{i}\ten\tfr\tx\n" for i in range(1500)), encoding="utf-8")
        limit = journal.stat().st_size + 200

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        src = str(Path(offlang.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "offlang.cli", "augment", "--input", str(tmp_path / "in.tsv"),
             "--language", "tr", "--provider", "file", "--translations", str(tmp_path / "tr.tsv"),
             "--policy", "skip_on_error", "--cache", str(journal), "--out-dir", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=300, preexec_fn=limit_file_size,
        )
        assert proc.returncode == EXIT_RUNTIME
        *skipped, last = proc.stderr.splitlines()
        assert last == f"error: File too large: {journal}"
        skipped_rows = [
            int(re.fullmatch(r"skipping pivot (en|fr|de) for (\d+): no entry for .*", line)[2])
            for line in skipped
        ]
        assert skipped_rows[:3] == [0, 0, 0] and len(skipped_rows) <= 6
        assert all(i % 7 == 0 for i in skipped_rows)
        assert not (tmp_path / "o" / "augmented.tsv").exists()

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "in.tsv").write_text("1\thi\tNOT\n2\tbye\tOFF\n", encoding="utf-8")
        argv = ("stats", "--input", tmp_path / "in.tsv", "--out-dir", tmp_path / "o")
        assert run(*argv) == EXIT_OK
        # stats.json fits in the room; the manifest does not.
        tear_writes(monkeypatch, 100)
        assert run(*argv) == EXIT_RUNTIME
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            f"error: No space left on device: {tmp_path / 'o' / 'manifest.json'}\n"
        )
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["stats.json"]

    def test_checkpoint_without_head_is_runtime_failure(self, workspace, capsys):
        corpus = load_labeled_tsv(workspace / "train.tsv", language="tr")
        config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
        vocab = build_vocab(corpus, config)
        path = workspace / "encoder_only.ckpt"
        head = ClassifierHead.initialize(8, seed=0)
        save_checkpoint(path, EncoderModel.initialize(config, vocab.size), vocab, head, meta=META)
        drop_head(path)
        code = run(
            "evaluate", "--checkpoint", path,
            "--input", workspace / "test.tsv", "--out-dir", workspace / "o",
        )
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "head.w" in err and str(path) in err

    @pytest.mark.parametrize(
        "meta, reason",
        [
            ({**META, "normalize": "no"}, "meta normalize must be a bool, got 'no'"),
            ({"seed": 0}, "the meta has no 'language' entry"),
        ],
        ids=["normalize_no", "seed_only"],
    )
    def test_checkpoint_with_bad_meta_is_runtime_failure(self, workspace, capsys, meta, reason):
        corpus = load_labeled_tsv(workspace / "train.tsv", language="tr")
        config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
        vocab = build_vocab(corpus, config)
        path = workspace / "bad_meta.ckpt"
        head = ClassifierHead.initialize(8, seed=0)
        save_checkpoint(path, EncoderModel.initialize(config, vocab.size), vocab, head, meta=meta)
        code = run(
            "evaluate", "--checkpoint", path,
            "--input", workspace / "test.tsv", "--out-dir", workspace / "o",
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: bad checkpoint: {reason}\n"
        assert not (workspace / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "message",
        ["Unable to allocate 4.66 TiB for an array with shape (10000000000, 64) and data type float64",
         ""],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_one_line(self, workspace, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_mod, "train_single", exhausted)
        code = run(
            "train", "--config", workspace / "run.yaml",
            "--input", workspace / "train.tsv", "--out-dir", workspace / "o",
        )
        assert code == EXIT_RUNTIME
        expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
        assert capsys.readouterr().err == expected


class TestConfigOverlay:
    def test_input_comes_from_the_file_unless_the_flag_names_it(self, workspace, capsys):
        (workspace / "c.yaml").write_text(
            f"language: tr\ntrain_file: {workspace / 'test.tsv'}\n", encoding="utf-8"
        )
        assert run("stats", "--config", workspace / "c.yaml") == EXIT_OK
        assert capsys.readouterr().out.endswith("total=48}\n")
        assert run(
            "stats", "--config", workspace / "c.yaml", "--input", workspace / "train.tsv"
        ) == EXIT_OK
        assert capsys.readouterr().out.endswith("total=120}\n")
        assert run("normalize", "--config", workspace / "c.yaml", "--out-dir", workspace / "n") == 0
        assert len(load_labeled_tsv(workspace / "n" / "normalized.tsv")) == 48
        capsys.readouterr()

    def test_grid_strings_in_the_file_equal_the_flags(self, workspace, capsys):
        grid = "grid: {learning_rates: '0.008, 10000.0', batch_sizes: '8'}\n"
        (workspace / "grid.yaml").write_text(RUN_YAML + grid, encoding="utf-8")
        assert run(
            "gridsearch", "--config", workspace / "grid.yaml", "--input", workspace / "train.tsv",
            "--out-dir", workspace / "file",
        ) == EXIT_OK
        assert run(
            "gridsearch", "--config", workspace / "run.yaml", "--input", workspace / "train.tsv",
            "--learning-rates", "0.008,10000.0", "--batch-sizes", "8",
            "--out-dir", workspace / "flag",
        ) == EXIT_OK
        for name in ("grid_cells.tsv", "best_config.json"):
            assert (workspace / "file" / name).read_bytes() == (
                workspace / "flag" / name
            ).read_bytes()
        capsys.readouterr()

    def test_partial_normalize_maps_is_config_error(self, tmp_path, capsys):
        (tmp_path / "en.tsv").write_text("1\thello\tOFF\n", encoding="utf-8")
        (tmp_path / "c.yaml").write_text(f"normalize_maps: {{emoji_map: {tmp_path / 'en.tsv'}}}\n")
        code = run(
            "normalize", "--config", tmp_path / "c.yaml", "--input", tmp_path / "en.tsv",
            "--out-dir", tmp_path / "o",
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: missing required slang map\n"


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

    @pytest.mark.parametrize(
        "entry, bad_id",
        [("merhaba\ttr\ten\thello\\nthere\n", "1-en"), ("iyi\ttr\ten\tgood\\tday\n", "2-en")],
        ids=["newline", "tab"],
    )
    def test_translation_that_tsv_cannot_hold_is_refused(self, tmp_path, capsys, entry, bad_id):
        (tmp_path / "toy.tsv").write_text("1\tmerhaba\tNOT\n2\tiyi\tOFF\n", encoding="utf-8")
        (tmp_path / "tr.tsv").write_text(
            "merhaba\ttr\ten\thello\niyi\ttr\ten\tgood\n" + entry, encoding="utf-8"
        )
        code = run(
            "augment", "--input", tmp_path / "toy.tsv", "--language", "tr", "--provider", "file",
            "--translations", tmp_path / "tr.tsv", "--pivots", "en", "--out-dir", tmp_path / "out",
        )
        assert code == EXIT_RUNTIME
        out = tmp_path / "out" / "augmented.tsv"
        assert capsys.readouterr().err == (
            f"error: {out}: example {bad_id!r}: a tab, CR or LF in its id or text "
            f"cannot be written as TSV\n"
        )
        assert list(out.parent.iterdir()) == []

    def test_augmented_id_that_an_input_row_has_is_refused(self, tmp_path, capsys):
        # Row 1's English copy is named 1-en, which row 2 already is.
        (tmp_path / "toy.tsv").write_text("1\tmerhaba\tNOT\n1-en\tiyi\tOFF\n", encoding="utf-8")
        out = tmp_path / "out" / "augmented.tsv"
        out.parent.mkdir()
        out.write_text("previous\n", encoding="utf-8")
        code = run(
            "augment", "--input", tmp_path / "toy.tsv", "--language", "tr", "--provider", "mock",
            "--pivots", "en", "--out-dir", out.parent,
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: {out}: example '1-en': an earlier example has the same id\n"
        )
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["augmented.tsv"]

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

    def test_cache_lines_ending_in_cr_are_served_and_kept(self, tmp_path, capsys):
        journal = b"hello\ten\tfr\tH-FR\rbye\ten\tfr\tB-FR\r"
        code, cache = self._augment_with_cache(tmp_path, journal)
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "1-fr\thello [SEP] H-FR\tNOT"
        assert rows[3] == "2-fr\tbye [SEP] B-FR\tOFF"
        assert cache.read_bytes() == journal
        assert "torn" not in capsys.readouterr().err

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
    def test_checkpoints_go_through_offlang_train(self, workspace, capsys, monkeypatch):
        # perfbench/layers.py traces save_checkpoint and load_checkpoint by
        # replacing them on offlang.train, so train and evaluate must look
        # them up there when they run.
        calls = []
        for name in ("save_checkpoint", "load_checkpoint"):
            def traced(*args, _name=name, _fn=getattr(train_mod, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(train_mod, name, traced)
        assert run(
            "train", "--config", workspace / "run.yaml",
            "--input", workspace / "train.tsv", "--out-dir", workspace / "run",
        ) == EXIT_OK
        assert run(
            "evaluate", "--checkpoint", workspace / "run" / "model.ckpt",
            "--input", workspace / "test.tsv", "--out-dir", workspace / "eval",
        ) == EXIT_OK
        assert calls == ["save_checkpoint", "load_checkpoint"]
        capsys.readouterr()

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

    def test_collapsed_classifier_is_a_warning(self, workspace, capsys):
        corpus = load_labeled_tsv(workspace / "train.tsv", language="tr")
        config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
        vocab = build_vocab(corpus, config)
        # A head whose bias outweighs any CLS vector predicts NOT for every row.
        head = ClassifierHead(w=np.zeros((8, 2)), b=np.array([-10.0, 10.0]))
        ckpt = workspace / "model.ckpt"
        save_checkpoint(ckpt, EncoderModel.initialize(config, vocab.size), vocab, head,
                        meta={"language": "tr", "seed": 4, "normalize": False})
        code = run("evaluate", "--checkpoint", ckpt, "--input", workspace / "test.tsv",
                   "--out-dir", workspace / "eval")
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "warning: the classifier collapsed: all 48 predictions are NOT\n"
        assert "macro-F1" in captured.out
        gold = load_labeled_tsv(workspace / "test.tsv", language="tr").labels()
        expected = evaluate([Label.NOT] * 48, gold, system="model",
                            config_fingerprint=cli_mod._fingerprint({}), seed=4)
        assert (workspace / "eval" / "report.json").read_text(encoding="utf-8") == expected.to_json()

    def test_reruns_byte_identical(self, workspace, capsys):
        for name in ("a", "b"):
            assert run(
                "train", "--config", workspace / "run.yaml",
                "--input", workspace / "train.tsv", "--out-dir", workspace / name,
            ) == EXIT_OK
        assert (workspace / "a" / "model.ckpt").read_bytes() == (workspace / "b" / "model.ckpt").read_bytes()
        assert (workspace / "a" / "loss_trace.csv").read_bytes() == (workspace / "b" / "loss_trace.csv").read_bytes()
        capsys.readouterr()

    def test_train_and_evaluate_run_without_scipy(self, workspace):
        # scipy is only a test dependency: a None entry in sys.modules makes
        # any import of it fail, so both stages must run on numpy alone.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from offlang.cli import main\n"
            f"d = {str(workspace)!r}\n"
            "code = main(['train', '--config', d + '/run.yaml', '--input', d + '/train.tsv',"
            " '--out-dir', d + '/run']) or main(['evaluate', '--checkpoint', d + '/run/model.ckpt',"
            " '--input', d + '/test.tsv', '--out-dir', d + '/eval'])\n"
            "sys.exit(code)\n"
        )
        src = str(Path(offlang.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (workspace / "eval" / "report.json").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small train checkpoint and a test file, made once for the fuzz."""
    d = tmp_path_factory.mktemp("fuzz")
    save_labeled_tsv(mini_corpus("tr", 40, seed=5), d / "train.tsv")
    save_labeled_tsv(mini_corpus("tr", 8, seed=6, split="test"), d / "test.tsv")
    corpus = load_labeled_tsv(d / "train.tsv", language="tr")
    config = EncoderConfig(hidden_size=8, num_layers=1, num_heads=2, max_len=16, vocab_cap=50)
    vocab = build_vocab(corpus, config)
    head = ClassifierHead.initialize(8, seed=0)
    save_checkpoint(d / "model.ckpt", EncoderModel.initialize(config, vocab.size), vocab, head,
                    meta=META)
    return d


# One damage to a file's bytes: a byte flipped, the file cut short, or bytes
# appended, at a fraction `at` of its length.
DAMAGE = dict(
    kind=st.sampled_from(["flip", "truncate", "extend"]),
    at=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.integers(1, 255),
    extra=st.binary(min_size=1, max_size=64),
)


def damaged(data: bytes, kind: str, at: float, byte: int, extra: bytes) -> bytes:
    i = int(at * len(data))
    return {
        "flip": lambda: data[:i] + bytes([data[i] ^ byte]) + data[i + 1 :],
        "truncate": lambda: data[:i],
        "extend": lambda: data + extra,
    }[kind]()


def run_quietly(*argv) -> tuple[int, str]:
    """run(*argv)'s exit code and what it printed on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**DAMAGE)
def test_every_damaged_checkpoint_fails_in_one_line(trained, kind, at, byte, extra):
    path = trained / "damaged.ckpt"
    path.write_bytes(damaged((trained / "model.ckpt").read_bytes(), kind, at, byte, extra))
    code, err = run_quietly("evaluate", "--checkpoint", path, "--input", trained / "test.tsv",
                            "--out-dir", trained / "o")
    assert code == EXIT_RUNTIME, err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A valid file of every input table kind, for the input fuzz."""
    d = tmp_path_factory.mktemp("tables")
    rows = [f"{i}\ttweet {i} :) #goodday\t{'OFF' if i % 3 else 'NOT'}" for i in range(12)]
    (d / "labeled.tsv").write_text("id\ttext\tlabel\n" + "\n".join(rows) + "\n", encoding="utf-8")
    scored = [f"s{i}\tscored tweet {i}\t{i / 39:.3f}" for i in range(40)]
    (d / "scored.tsv").write_text("\n".join(scored) + "\n", encoding="utf-8")
    (d / "en.tsv").write_text("1\thi\tNOT\n2\tbye\tOFF\n", encoding="utf-8")
    (d / "translations.tsv").write_text("hi\ten\tfr\tsalut\r\nbye\ten\tfr\tau revoir\r\n", encoding="utf-8")
    (d / "journal.tsv").write_text("hi\ten\tfr\tsalut\nbye\ten\tfr\tà plus\n", encoding="utf-8")
    for key in TABLE_KEYS:
        (d / f"{key}.tsv").write_bytes((BUNDLED_TABLES / f"{key}.tsv").read_bytes())
    return d


INPUT_KINDS = ["labeled", "scored", "translations", "journal", *TABLE_KEYS]


@pytest.mark.parametrize("input_kind", INPUT_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(**DAMAGE)
def test_every_damaged_input_table_ends_in_at_most_one_line(
    tables, tmp_path, input_kind, kind, at, byte, extra
):
    path = tmp_path / f"{input_kind}.tsv"
    path.write_bytes(damaged((tables / f"{input_kind}.tsv").read_bytes(), kind, at, byte, extra))
    out = ("--out-dir", tmp_path / "o")
    augment = ("augment", "--input", tables / "en.tsv", "--language", "en", "--pivots", "fr", *out)
    argv = {
        "labeled": ("stats", "--input", path, *out),
        "scored": ("weaklabel", "--input", path, "--per-class", "3", *out),
        "translations": (*augment, "--provider", "file", "--translations", path),
        "journal": (*augment, "--provider", "mock", "--cache", path),
    }.get(input_kind) or normalize_argv(tmp_path, input_kind, path)
    code, err = run_quietly(*argv)
    assert code in (EXIT_OK, EXIT_RUNTIME), err
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert code == EXIT_OK or err.startswith("error: "), err


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    # perfbench/layers.py wraps these names by attribute; a renamed or moved
    # one would break only the benchmark's traced runs.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import layers
    from spans import Patcher, Tracer

    patcher = Patcher()
    try:
        layers.install(Tracer(), patcher)
        assert cli_mod.load_labeled_tsv is not corpus_mod.load_labeled_tsv
    finally:
        patcher.restore()
    assert cli_mod.load_labeled_tsv is corpus_mod.load_labeled_tsv


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

    def test_an_overflowing_cell_is_written_as_diverged(self, workspace, capsys):
        out_dir = workspace / "grid"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "gridsearch", "--config", workspace / "run.yaml", "--input", workspace / "train.tsv",
                "--learning-rates", "0.008,1e300", "--batch-sizes", "8", "--out-dir", out_dir,
            )
        assert (code, caught, capsys.readouterr().err) == (EXIT_OK, [], "")
        cells = (out_dir / "grid_cells.tsv").read_text(encoding="utf-8").splitlines()
        assert cells[2] == "1e+300\t8\t\t\ttrue"

    @pytest.mark.parametrize(
        "lrs, batches, message",
        [("0.008", "8,0", "batch_size must be positive"),
         ("0.008,-1", "8", "learning_rate must be positive and finite, got -1.0")],
        ids=["zero_batch_size", "negative_rate"],
    )
    def test_a_bad_candidate_fails_before_any_cell_trains(
        self, workspace, capsys, monkeypatch, lrs, batches, message
    ):
        monkeypatch.setattr(cli_mod, "grid_search", None)  # calling it would fail the test
        code = run(
            "gridsearch", "--config", workspace / "run.yaml", "--input", workspace / "train.tsv",
            "--learning-rates", lrs, "--batch-sizes", batches, "--out-dir", workspace / "grid",
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: invalid grid settings: {message}\n"
        assert not (workspace / "grid" / "grid_cells.tsv").exists()

    @pytest.mark.parametrize(
        "command, fraction, side",
        [("gridsearch", "0.001", "validation"), ("gridsearch", "0.999", "train"),
         ("ablate", "0.001", "validation")],
        ids=["gridsearch_empty_validation", "gridsearch_empty_train", "ablate_empty_validation"],
    )
    def test_a_holdout_that_empties_a_split_fails_before_any_fit(
        self, workspace, capsys, monkeypatch, command, fraction, side
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(train_mod, "train_single", no_fit)
        flags = {
            "gridsearch": ["--learning-rates", "0.008", "--batch-sizes", "8"],
            "ablate": ["--mode", "augmentation", "--provider", "mock", "--pivots", "en,fr,de"],
        }[command]
        out_dir = workspace / "out"
        code = run(
            command, "--config", workspace / "run.yaml", "--input", workspace / "train.tsv",
            "--holdout", fraction, *flags, "--out-dir", out_dir,
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: holdout_fraction {fraction} leaves the {side} split of a 120-row corpus empty\n"
        )
        assert not (out_dir / "grid_cells.tsv").exists() and not (out_dir / "table4.tsv").exists()


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

    def test_english_mode_loads_the_tables_once(self, workspace, capsys, monkeypatch):
        loads = []
        from_paths = NormalizationConfig.from_paths

        def counted(cls, *paths):
            loads.append(paths)
            return from_paths(*paths)

        monkeypatch.setattr(NormalizationConfig, "from_paths", classmethod(counted))
        save_labeled_tsv(mini_corpus("en", 16, seed=7), workspace / "gold.tsv")
        save_labeled_tsv(mini_corpus("en", 16, seed=8, split="weak"), workspace / "weak.tsv")
        save_labeled_tsv(mini_corpus("en", 8, seed=9, split="test"), workspace / "test_en.tsv")
        code = run(
            "ablate", "--mode", "english", "--config", workspace / "run.yaml",
            "--gold", workspace / "gold.tsv", "--weak", workspace / "weak.tsv",
            "--test", workspace / "test_en.tsv", "--language", "en",
            "--epochs", "1", "--out-dir", workspace / "ablate_en",
        )
        assert code == EXIT_OK
        assert len(loads) == 1
        assert (workspace / "ablate_en" / "table3.tsv").exists()
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
                save_labeled_tsv(Corpus("en", examples), workspace / kind / f"{name}.tsv")
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


TINY_YAML = """
language: tr
seed: 11
encoder: {hidden_size: 8, num_layers: 1, num_heads: 2, max_len: 16, vocab_cap: 50}
train: {epochs: 1, batch_size: 8, learning_rate: 0.008}
"""


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """Inputs for every command at a tiny config (seed 11), and a checkpoint
    trained at seed 5 for evaluate."""
    d = tmp_path_factory.mktemp("run_dir")
    (d / "run.yaml").write_text(TINY_YAML, encoding="utf-8")
    save_labeled_tsv(mini_corpus("tr", 40, seed=5), d / "train.tsv")
    save_labeled_tsv(mini_corpus("tr", 16, seed=6, split="test"), d / "test.tsv")
    scored = [f"s{i}\tscored tweet {i}\t{i / 39:.3f}" for i in range(40)]
    (d / "scored.tsv").write_text("\n".join(scored) + "\n", encoding="utf-8")
    save_labeled_tsv(mini_corpus("en", 32, seed=7), d / "gold.tsv")
    save_labeled_tsv(mini_corpus("en", 32, seed=8, split="weak"), d / "weak.tsv")
    save_labeled_tsv(mini_corpus("en", 16, seed=9, split="test"), d / "test_en.tsv")
    code = run_quietly("train", "--config", d / "run.yaml", "--input", d / "train.tsv",
                       "--seed", "5", "--out-dir", d / "ckpt")[0]
    assert code == EXIT_OK
    return d


# Each command line (with --config run.yaml), the inputs its manifest names
# and the seed it records: 0 for the stages that draw no random numbers, the
# checkpoint's for evaluate.
RUN_DIRS = {
    "stats": (("stats", "--input", "train.tsv"), ["train.tsv"], 0),
    "normalize": (("normalize", "--input", "train.tsv"), ["train.tsv"], 0),
    "weaklabel": (("weaklabel", "--input", "scored.tsv", "--per-class", "3"), ["scored.tsv"], 11),
    "augment": (("augment", "--input", "train.tsv", "--pivots", "en,fr"), ["train.tsv"], 0),
    "train": (("train", "--input", "train.tsv"), ["train.tsv"], 11),
    "evaluate": (("evaluate", "--checkpoint", "ckpt/model.ckpt", "--input", "test.tsv"),
                 ["ckpt/model.ckpt", "test.tsv"], 5),
    "gridsearch": (("gridsearch", "--input", "train.tsv", "--learning-rates", "0.008,10000.0",
                    "--batch-sizes", "8"), ["train.tsv"], 11),
    "ablate_augmentation": (("ablate", "--mode", "augmentation", "--input", "train.tsv",
                             "--pivots", "en,fr"), ["train.tsv"], 11),
    "ablate_english": (("ablate", "--mode", "english", "--language", "en", "--gold", "gold.tsv",
                        "--weak", "weak.tsv", "--test", "test_en.tsv"),
                       ["gold.tsv", "weak.tsv", "test_en.tsv"], 11),
}


@pytest.mark.parametrize("case", RUN_DIRS)
def test_manifest_lists_every_file_of_its_run_directory(run_inputs, tmp_path, case):
    argv, inputs, seed = RUN_DIRS[case]
    d, out = run_inputs, tmp_path / "o"
    # Every value that names a file is relative to the inputs' directory.
    argv = [str(d / a) if (d / a).is_file() else a for a in argv]
    code, err = run_quietly(*argv, "--config", d / "run.yaml", "--out-dir", out)
    assert code == EXIT_OK, err

    def sha256(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["command"], manifest["seed"]) == (argv[0], seed)
    files = {p.name: sha256(p) for p in out.iterdir() if p.name != "manifest.json"}
    assert manifest["artifacts"] == files and files
    assert manifest["inputs"] == {str(d / name): sha256(d / name) for name in inputs}


def test_a_run_that_fails_part_way_leaves_no_manifest(run_inputs, tmp_path):
    argv, _, _ = RUN_DIRS["gridsearch"]
    d, out = run_inputs, tmp_path / "o"
    argv = [str(d / a) if (d / a).is_file() else a for a in argv]
    argv += ["--config", d / "run.yaml", "--out-dir", out]
    assert run_quietly(*argv)[0] == EXIT_OK
    (out / "best_config.json").unlink()
    (out / "best_config.json").mkdir()
    code, err = run_quietly(*argv)
    assert code == EXIT_RUNTIME and err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in out.iterdir()) == ["best_config.json", "grid_cells.tsv"]


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

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            emit_report_table(self.make_reports(1), "table3")

    def test_values_rounded_to_four_decimals(self):
        line = emit_report_table(self.make_reports(2), "table4").splitlines()[1]
        for cell in line.split("\t")[1:]:
            assert len(cell.split(".")[1]) == 4
