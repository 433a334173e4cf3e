"""Supervised fine-tuning of the miniature encoder.

A two-way classification head sits on the CLS vector; training backpropagates
through head and encoder and applies Adam updates. Everything is driven by one
seeded generator in a fixed order, so a (seed, data, config) triple maps to
bitwise-identical final parameters.

Each fit keeps its parameters in one contiguous float64 buffer (the model's
`params` and the head are views of it) and its gradients in another, zeroed in
place per step; Adam updates it in place one erf.BLOCK at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CLASSES, Corpus, Label
from .encoder import (
    Checkpoint,
    EncoderModel,
    Vocabulary,
    backward,
    encode_corpus,
    forward,
    load_checkpoint,
    save_checkpoint,
    tensor_mismatch,
    _truncated_normal,
)
from .erf import BLOCK
from .errors import DivergenceError, EmptyCorpus

# (batch size, learning rate) per language, as tuned for the fine-tuning runs.
LANGUAGE_DEFAULTS: dict[str, tuple[int, float]] = {
    "en": (8, 2e-5),
    "da": (16, 1e-5),
    "ar": (24, 3e-5),
    "el": (32, 2e-5),
    "tr": (16, 2e-5),
}

LOSS_DIVERGENCE_LIMIT = 1e3

# Rows per inference-mode forward pass (frozen features and prediction).
FEATURE_BATCH = 128

# Adam's decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def label_index(label: Label) -> int:
    return CLASSES.index(label)


def index_label(idx: int) -> Label:
    return CLASSES[idx]


@dataclass
class TrainConfig:
    language: str = "en"
    epochs: int = 4
    batch_size: int | None = None
    learning_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        self.check(self.epochs, self.batch_size, self.learning_rate)
        if self.batch_size is None or self.learning_rate is None:
            if self.language not in LANGUAGE_DEFAULTS:
                raise ValueError(
                    f"no defaults for language {self.language!r}; "
                    "set batch_size and learning_rate explicitly"
                )
            default_bs, default_lr = LANGUAGE_DEFAULTS[self.language]
            if self.batch_size is None:
                self.batch_size = default_bs
            if self.learning_rate is None:
                self.learning_rate = default_lr

    @staticmethod
    def check(
        epochs: int | None = None, batch_size: int | None = None, learning_rate: float | None = None
    ) -> None:
        """Reject out-of-range values; None (not given) passes."""
        if epochs is not None and epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        if learning_rate is not None and not 0 < learning_rate < np.inf:  # nan fails too
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")


@dataclass
class ClassifierHead:
    w: np.ndarray  # (input_dim, 2)
    b: np.ndarray  # (2,)

    @classmethod
    def initialize(cls, input_dim: int, seed: int) -> "ClassifierHead":
        rng = np.random.default_rng(seed)
        return cls(w=_truncated_normal(rng, (input_dim, 2), 0.02), b=np.zeros(2))

    def predict(self, x: np.ndarray) -> list[Label]:
        """The argmax label of each row of sentence vectors x (n, input_dim)."""
        return [index_label(int(i)) for i in (x @ self.w + self.b).argmax(axis=1)]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def _packed(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The arrays copied end to end, in order, into one contiguous float64
    buffer, and a view of the buffer in each array's shape by name."""
    buffer = np.concatenate([np.ravel(a) for a in arrays.values()])
    parts = np.split(buffer, np.cumsum([a.size for a in arrays.values()])[:-1])
    return buffer, {name: part.reshape(a.shape) for (name, a), part in zip(arrays.items(), parts)}


def _batch_cross_entropy(logits: np.ndarray, label_idx: np.ndarray):
    """Mean loss over a batch and dloss/dlogits (already divided by batch size)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = (log_z[:, 0] - shifted[np.arange(len(label_idx)), label_idx])
    dlogits = np.exp(shifted - log_z)
    dlogits[np.arange(len(label_idx)), label_idx] -= 1.0
    return float(losses.mean()), dlogits / len(label_idx)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """Standard Adam with bias correction over 1-D params and grads; updates
    params and state in place, BLOCK elements at a time, so that its
    temporaries are at most one block each and stay in the L2 cache."""
    if params.ndim != 1 or params.shape != grads.shape:
        raise ValueError(f"params {params.shape} and grads {grads.shape} must be equal 1-D shapes")
    state.t += 1
    for start in range(0, params.size, BLOCK):
        p, g, m, v = (a[start : start + BLOCK] for a in (params, grads, state.m, state.v))
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        p -= lr * (m / (1 - BETA1**state.t)) / (np.sqrt(v / (1 - BETA2**state.t)) + EPS)


@dataclass
class TrainResult:
    model: EncoderModel
    head: ClassifierHead
    loss_trace: list[float] = field(default_factory=list)


def _check_divergence(loss: float, epoch: int, batch: int) -> None:
    if not np.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"training diverged at epoch {epoch} batch {batch}: loss={loss}"
        )


def frozen_features(model: EncoderModel, texts: list[str], vocab: Vocabulary) -> np.ndarray:
    """Inference-mode CLS vectors of every text, FEATURE_BATCH rows per forward,
    so the activation cache follows the batch size, not the corpus size."""
    batches = []
    for start in range(0, len(texts), FEATURE_BATCH):
        ids, mask = encode_corpus(texts[start : start + FEATURE_BATCH], vocab, model.config.max_len)
        batches.append(forward(model, ids, mask)[0])
    return np.concatenate(batches)


def _fit(
    params: np.ndarray, views: dict[str, np.ndarray], n: int, step, config: TrainConfig,
    rng: np.random.Generator,
) -> list[float]:
    """The training loop shared by every mode; returns the mean loss per epoch.

    Each epoch walks one seeded permutation of the n rows in mini-batches (the
    final short batch is used, not dropped). step(sel) returns the batch's
    mean loss and a callable that adds its gradients into views, shaped as
    `views` of the flat `params`, of one gradient buffer. The loss is checked
    for divergence before any backward pass, the buffer is zeroed in place,
    then Adam updates `params` in place. The callable, and the activations it
    holds, is released before the next batch's step. An overflow or invalid
    operation anywhere in a step is a DivergenceError of its batch, so no fit
    returns parameters that a non-finite value reached."""
    grads, grad_views = _packed(views)
    adam = AdamState(np.zeros_like(params), np.zeros_like(params))
    trace: list[float] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                perm = rng.permutation(n)
                epoch_loss = 0.0
                for batch, b_start in enumerate(range(0, n, config.batch_size)):
                    sel = perm[b_start : b_start + config.batch_size]
                    loss, backprop = step(sel)
                    _check_divergence(loss, epoch, batch)
                    epoch_loss += loss * len(sel)
                    grads.fill(0.0)
                    backprop(grad_views)
                    adam_step(params, grads, adam, config.learning_rate)
                    del backprop
                trace.append(epoch_loss / n)
    except FloatingPointError as exc:
        raise DivergenceError(f"training diverged at epoch {epoch} batch {batch}: {exc}") from exc
    return trace


def label_ids(corpus: Corpus) -> np.ndarray:
    return np.array([label_index(ex.label) for ex in corpus], dtype=np.int64)


def train_head(
    vectors: np.ndarray, y: np.ndarray, config: TrainConfig
) -> tuple[ClassifierHead, list[float]]:
    """Train a head on fixed sentence vectors (n, d), as from frozen encoders.
    Its initialization and shuffling are seeded from config.seed alone, so
    heads trained in any order on the same vectors are identical. The head's
    w and b are views of one buffer."""
    init = ClassifierHead.initialize(vectors.shape[1], config.seed)
    params, views = _packed({"head.w": init.w, "head.b": init.b})
    head = ClassifierHead(w=views["head.w"], b=views["head.b"])

    def step(sel):
        x = vectors[sel]
        loss, dlogits = _batch_cross_entropy(x @ head.w + head.b, y[sel])
        return loss, lambda grads: _head_backward(x, dlogits, grads)

    trace = _fit(params, views, len(y), step, config, np.random.default_rng(config.seed))
    return head, trace


def _head_backward(x: np.ndarray, dlogits: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Add the head's gradients, given its input rows x, into grads."""
    grads["head.w"] += x.T @ dlogits
    grads["head.b"] += dlogits.sum(axis=0)


def train_single(
    corpus: Corpus, model: EncoderModel, vocab: Vocabulary, config: TrainConfig
) -> TrainResult:
    """Fine-tune encoder + head with cross-entropy over seeded-shuffled
    mini-batches, each encoded when it is drawn and padded to its longest row.
    The input model is not mutated: the result's model params and head are
    views of one new buffer."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    texts = corpus.texts()
    y = label_ids(corpus)
    rng = np.random.default_rng(config.seed)
    init = ClassifierHead.initialize(model.config.hidden_size, config.seed)
    # No encoder parameter is named head.*, so backward() can take these views.
    params, views = _packed({"head.w": init.w, "head.b": init.b, **model.params})
    head = ClassifierHead(w=views["head.w"], b=views["head.b"])
    model = EncoderModel(model.config, {k: views[k] for k in model.params})

    def step(sel):
        ids, mask = encode_corpus([texts[i] for i in sel], vocab, model.config.max_len)
        cls, cache = forward(model, ids, mask, train=True, dropout_rng=rng)
        loss, dlogits = _batch_cross_entropy(cls @ head.w + head.b, y[sel])

        def backprop(grads):
            _head_backward(cls, dlogits, grads)
            backward(model, cache, dlogits @ head.w.T, grads)

        return loss, backprop

    trace = _fit(params, views, len(corpus), step, config, rng)
    return TrainResult(model=model, head=head, loss_trace=trace)


def train_dual(
    head_corpus: Corpus,
    model_a: EncoderModel,
    model_b: EncoderModel,
    vocab: Vocabulary,
    config: TrainConfig,
) -> tuple[ClassifierHead, list[float]]:
    """Train a 2h -> 2 head on concatenated CLS vectors from two fine-tuned
    encoders. Both encoders stay frozen: their representations are extracted
    once, in inference mode."""
    if len(head_corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if model_a.config.hidden_size != model_b.config.hidden_size:
        raise ValueError("dual training requires encoders with matching hidden size")
    if model_a.config.max_len != model_b.config.max_len:
        raise ValueError("dual training requires encoders with matching max_len")
    texts = head_corpus.texts()
    vectors = [frozen_features(model, texts, vocab) for model in (model_a, model_b)]
    return train_head(np.concatenate(vectors, axis=1), label_ids(head_corpus), config)


def save_train_checkpoint(
    path: str | Path,
    model: EncoderModel,
    vocab: Vocabulary,
    head: ClassifierHead,
    *,
    meta: dict | None = None,
) -> None:
    """Encoder checkpoint container extended with the head parameters."""
    extra = {"head.w": head.w, "head.b": head.b}
    save_checkpoint(path, model, vocab, extra_tensors=extra, meta=meta)


@dataclass
class TrainCheckpoint:
    model: EncoderModel
    vocab: Vocabulary
    head: ClassifierHead
    meta: dict


def load_train_checkpoint(path: str | Path) -> TrainCheckpoint:
    """A train checkpoint: load_checkpoint's checks, and besides the encoder
    exactly a head.w of (hidden_size, 2) and a head.b of (2,)."""
    ckpt: Checkpoint = load_checkpoint(path)
    head_tensors = {k: v for k, v in ckpt.tensors.items() if not k.startswith("model.")}
    reason = tensor_mismatch(head_tensors, {"head.w": (ckpt.config.hidden_size, 2), "head.b": (2,)})
    if reason:
        raise ValueError(f"{path}: bad checkpoint: {reason}")
    head = ClassifierHead(w=ckpt.tensors["head.w"], b=ckpt.tensors["head.b"])
    return TrainCheckpoint(model=ckpt.model(), vocab=ckpt.vocab, head=head, meta=ckpt.meta)
