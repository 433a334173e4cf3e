"""Shared test oracles: the finite-difference gradient check, a model's
parameter bytes, a recorder of encoder forward calls, a torn write for the
shared file writer, and the text stages as they ran before they streamed
their rows."""

import contextlib
import random
from pathlib import Path

import numpy as np

import offlang.cli as cli
import offlang.corpus as corpus_mod
from offlang.augment import Policy, TranslationCache, augment_example
from offlang.corpus import Corpus, Label, LabeledExample, load_labeled_tsv, load_scored_tsv
from offlang.encoder import EncoderConfig, EncoderModel, backward, forward
from offlang.errors import EmptyCorpus, InsufficientClassSamples
from offlang.normalize import normalize
from offlang.train import ClassifierHead, _batch_cross_entropy
from offlang.weaklabel import weak_label

GRADCHECK_CONFIG = EncoderConfig(
    hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
    max_len=8, vocab_cap=20, dropout=0.0,
)
GRADCHECK_VOCAB_SIZE = 12

# Relative-error floor: when a tensor's true gradient is structurally zero
# (the key-projection bias cancels in softmax), both sides measure roundoff
# noise and a pure ratio would compare noise against noise.
ZERO_GRADIENT_FLOOR = 1e-6


def random_gradcheck_model(
    seed: int, config: EncoderConfig = GRADCHECK_CONFIG
) -> tuple[EncoderModel, ClassifierHead]:
    """Tiny model with O(1)-scale random parameters. The default 0.02-sigma
    initialization leaves attention-score gradients near 1e-9, where central
    differences are dominated by float64 roundoff; re-drawing parameters at
    unit scale checks the same backward code with measurable gradients."""
    model = EncoderModel.initialize(config, GRADCHECK_VOCAB_SIZE)
    rng = np.random.default_rng(seed)
    for name, tensor in model.params.items():
        if name.endswith(".gain"):
            model.params[name] = 1.0 + 0.3 * rng.standard_normal(tensor.shape)
        else:
            model.params[name] = 0.6 * rng.standard_normal(tensor.shape)
    head = ClassifierHead(
        w=0.6 * rng.standard_normal((config.hidden_size, 2)),
        b=0.1 * rng.standard_normal(2),
    )
    return model, head


def random_batch(
    rng: np.random.Generator, batch_size: int = 4, config: EncoderConfig = GRADCHECK_CONFIG
):
    T = config.max_len
    ids = rng.integers(0, GRADCHECK_VOCAB_SIZE, size=(batch_size, T))
    ids[:, 0] = 2  # CLS
    mask = np.zeros((batch_size, T))
    for i, length in enumerate(rng.integers(3, T + 1, size=batch_size)):
        mask[i, :length] = 1.0
    y = rng.integers(0, 2, size=batch_size)
    return ids, mask, y


def param_bytes(model: EncoderModel) -> bytes:
    """Every parameter's bytes in name order, to compare two models bit for bit."""
    return b"".join(model.params[k].tobytes() for k in sorted(model.params))


def analytic_gradients(model, head, ids, mask, y):
    """Backpropagated gradients of the mean cross-entropy, through a
    training-mode forward: the models checked here have dropout 0, so it
    computes what inference computes and records the cache backward needs."""
    cls, cache = forward(model, ids, mask, train=True)
    _, dlogits = _batch_cross_entropy(cls @ head.w + head.b, y)
    grads = backward(model, cache, dlogits @ head.w.T)
    grads["head.w"] = cls.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    return grads


def finite_difference_gradient(loss_fn, tensor: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central differences, perturbing every element of the tensor in place."""
    flat = tensor.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        loss_plus = loss_fn()
        flat[i] = orig - eps
        loss_minus = loss_fn()
        flat[i] = orig
        grad[i] = (loss_plus - loss_minus) / (2 * eps)
    return grad.reshape(tensor.shape)


def gradient_check(model, head, ids, mask, y, eps: float = 1e-4) -> dict[str, float]:
    """Relative error per parameter tensor between analytic and numeric grads."""

    def loss_fn():
        cls, _ = forward(model, ids, mask)
        return _batch_cross_entropy(cls @ head.w + head.b, y)[0]

    analytic = analytic_gradients(model, head, ids, mask, y)
    tensors = dict(model.params)
    tensors["head.w"] = head.w
    tensors["head.b"] = head.b
    errors = {}
    for name, tensor in tensors.items():
        numeric = finite_difference_gradient(loss_fn, tensor, eps)
        ga, gn = analytic[name].reshape(-1), numeric.reshape(-1)
        denom = max(np.linalg.norm(ga), np.linalg.norm(gn), ZERO_GRADIENT_FLOOR)
        errors[name] = float(np.linalg.norm(ga - gn) / denom)
    return errors


class ForwardRecorder:
    """Stands in for an encoder `forward` and records, per call, the batch
    rows, its padded length T, the longest real row and the train flag."""

    def __init__(self, forward_fn):
        self.forward_fn = forward_fn
        self.calls: list[tuple[int, int, int, bool]] = []

    def __call__(self, model, ids, mask, **kwargs):
        longest = int(mask.sum(axis=1).max())
        self.calls.append((ids.shape[0], ids.shape[1], longest, kwargs.get("train", False)))
        return self.forward_fn(model, ids, mask, **kwargs)

    def assert_per_batch(self, max_rows: int) -> None:
        assert self.calls
        for rows, length, longest, _ in self.calls:
            assert rows <= max_rows
            assert length == longest


class TornWrites:
    """A file that takes `room` more characters (or bytes), then fails the
    write that would pass them with a full disk, after writing what fits."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def tear_writes(monkeypatch, room: int) -> None:
    """Make every file that offlang.corpus opens for writing (atomic_write's
    temporary file) fail with a full disk after `room` characters or bytes."""

    def torn_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return TornWrites(fh, room) if "w" in mode else fh

    monkeypatch.setattr(corpus_mod, "open", torn_open, raising=False)


# --- the in-memory text stages ------------------------------------------------
# normalize, weaklabel and augment as they were before they streamed: each
# loads its whole input, builds the whole output corpus, then saves it. The
# streamed commands must give the same bytes, exit code and error line.


def in_memory_weak_corpus(scored, config) -> Corpus:
    """Weak labeling by sampling the scored examples themselves."""
    pools = {Label.OFF: [], Label.NOT: []}
    for ex in scored:
        label = weak_label(ex, config)
        if label is not None:
            pools[label].append(ex)
    k = config.per_class_count
    for label in (Label.OFF, Label.NOT):
        if len(pools[label]) < k:
            raise InsufficientClassSamples(label, len(pools[label]), k)
    rng = random.Random(config.seed)
    chosen = []
    for label in (Label.OFF, Label.NOT):
        for ex in rng.sample(pools[label], k):
            chosen.append(LabeledExample(ex.id, ex.text, label))
    rng.shuffle(chosen)
    return Corpus(language="en", examples=chosen)


def in_memory_augment_corpus(corpus, pivots, provider, *, policy, cache) -> Corpus:
    """Augmentation of the whole corpus in the calling thread."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot augment an empty corpus")
    pivots.validated_for(corpus.language)
    examples = []
    for original in corpus:
        examples.append(original)
        examples += augment_example(
            original, pivots, provider, corpus.language, cache=cache, policy=policy
        )
    return Corpus(corpus.language, examples)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _in_memory_normalize(args, run) -> int:
    path = cli._require_input(run.train_file, "input file")
    out = _out_dir(args)
    corpus = load_labeled_tsv(path, language=run.language)
    norm_config = run.normalize_maps.load()
    examples = [LabeledExample(ex.id, normalize(ex.text, norm_config), ex.label) for ex in corpus]
    normalized = Corpus(corpus.language, examples)
    corpus_mod.save_labeled_tsv(normalized, out / "normalized.tsv")
    return cli.EXIT_OK


def _in_memory_weaklabel(args, run) -> int:
    path = cli._require_input(run.scored_file, "scored input file")
    corpus = in_memory_weak_corpus(load_scored_tsv(path), run.weaklabel)
    corpus_mod.save_labeled_tsv(corpus, _out_dir(args) / "weak_train.tsv")
    return cli.EXIT_OK


def _in_memory_augment(args, run) -> int:
    path = cli._require_input(run.train_file, "input file")
    corpus = load_labeled_tsv(path, language=run.language)
    pivots = cli._pivot_set(run.augment, run.language)
    provider = cli._make_provider(run.augment)
    journal = run.augment.cache
    with TranslationCache(journal) if journal else contextlib.nullcontext() as cache:
        augmented = in_memory_augment_corpus(
            corpus, pivots, provider, policy=Policy(run.augment.policy), cache=cache
        )
    corpus_mod.save_labeled_tsv(augmented, _out_dir(args) / "augmented.tsv")
    return cli.EXIT_OK


IN_MEMORY_COMMANDS = {
    "normalize": _in_memory_normalize,
    "weaklabel": _in_memory_weaklabel,
    "augment": _in_memory_augment,
}


def run_in_memory(argv: list[str]) -> int:
    """cli.main(argv), with normalize, weaklabel and augment run in memory
    (they write their artifact, but no manifest)."""
    saved = dict(cli.COMMANDS)
    try:
        for name, command in IN_MEMORY_COMMANDS.items():
            cli.COMMANDS[name] = (command, *saved[name][1:])
        return cli.main(argv)
    finally:
        cli.COMMANDS.update(saved)
