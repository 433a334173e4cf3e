"""cli.main keeps freed blocks on glibc's heap: a later batch's numpy
temporaries reuse them instead of faulting in fresh pages, and no artifact
changes a byte."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import offlang
import offlang.cli as cli_mod
from offlang.cli import EXIT_OK, main
from offlang.corpus import save_labeled_tsv
from offlang.datagen import mini_corpus


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not _glibc(), reason="the thresholds are glibc's")

SRC = str(Path(offlang.__file__).resolve().parent.parent)

# Without the thresholds a call took about 13,000 minor faults, and with
# them 0 or 1 (2-core x86_64, glibc 2.36).
FAULT_BOUND = 1000


def _python(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports offlang from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.fixture()
def train_tsv(tmp_path):
    save_labeled_tsv(mini_corpus("tr", 120, seed=5), tmp_path / "train.tsv")
    return tmp_path / "train.tsv"


@glibc_only
def test_predicting_again_faults_in_no_fresh_pages(train_tsv):
    script = f"""
import resource
import offlang.cli as cli
from offlang.datagen import mini_corpus
from offlang.encoder import EncoderConfig, EncoderModel, build_vocab
from offlang.evaluation import predict_labels
from offlang.train import ClassifierHead

assert cli.main(["stats", "--input", {str(train_tsv)!r}]) == 0
assert cli._keep_freed_memory_on_heap()
corpus = mini_corpus("tr", 384, seed=3)
config = EncoderConfig(hidden_size=64)
vocab = build_vocab(corpus, config)
model = EncoderModel.initialize(config, vocab.size)
head = ClassifierHead.initialize(64, seed=0)
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    predict_labels(model, head, vocab, corpus.texts())
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < FAULT_BOUND


def test_main_runs_on_a_libc_without_mallopt(monkeypatch, train_tsv, capsys):
    no_mallopt = types.SimpleNamespace(CDLL=lambda name: types.SimpleNamespace())
    monkeypatch.setattr(cli_mod, "ctypes", no_mallopt)
    cli_mod._keep_freed_memory_on_heap.cache_clear()
    try:
        assert main(["stats", "--input", str(train_tsv)]) == EXIT_OK
        assert cli_mod._keep_freed_memory_on_heap() is False
    finally:
        cli_mod._keep_freed_memory_on_heap.cache_clear()
    capsys.readouterr()


def test_importing_offlang_leaves_the_allocator_alone():
    proc = _python(
        "import offlang.cli as cli; print(cli._keep_freed_memory_on_heap.cache_info().currsize)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@glibc_only
def test_train_and_evaluate_write_the_same_bytes_with_and_without_the_thresholds(
    tmp_path, train_tsv
):
    # The default encoder, so that batch temporaries exceed glibc's default
    # 128 KiB mmap threshold; 384 test rows are three inference batches.
    save_labeled_tsv(mini_corpus("tr", 384, seed=6, split="test"), tmp_path / "test.tsv")
    (tmp_path / "run.yaml").write_text("language: tr\ntrain:\n  epochs: 1\n", encoding="utf-8")
    artifacts = ("train/model.ckpt", "train/loss_trace.csv", "eval/report.json")
    written = {}
    for side, stub in (("set", ""), ("unset", "cli._keep_freed_memory_on_heap = lambda: False\n")):
        d = tmp_path / side
        script = (
            "import sys\nimport offlang.cli as cli\n" + stub
            + f"d, w = {str(d)!r}, {str(tmp_path)!r}\n"
            "sys.exit(cli.main(['train', '--config', w + '/run.yaml', '--input', w + '/train.tsv',"
            " '--out-dir', d + '/train']) or cli.main(['evaluate', '--checkpoint',"
            " d + '/train/model.ckpt', '--input', w + '/test.tsv', '--out-dir', d + '/eval']))\n"
        )
        proc = _python(script)
        assert proc.returncode == EXIT_OK, proc.stderr
        written[side] = [(d / name).read_bytes() for name in artifacts]
    assert written["set"] == written["unset"]
