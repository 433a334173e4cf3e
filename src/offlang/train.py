"""Supervised fine-tuning of the miniature encoder.

A two-way classification head sits on the CLS vector; training backpropagates
through head and encoder (unless frozen) and applies Adam updates. Everything
is driven by one seeded generator in a fixed order, so a (seed, data, config)
triple maps to bitwise-identical final parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Label
from .encoder import (
    Checkpoint,
    EncoderModel,
    Vocabulary,
    backward,
    encode_corpus,
    forward,
    load_checkpoint,
    save_checkpoint,
    _truncated_normal,
)
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

_CLASS_ORDER = (Label.OFF, Label.NOT)


def label_index(label: Label) -> int:
    return _CLASS_ORDER.index(label)


def index_label(idx: int) -> Label:
    return _CLASS_ORDER[idx]


@dataclass
class TrainConfig:
    language: str = "en"
    epochs: int = 4
    batch_size: int | None = None
    learning_rate: float | None = None
    seed: int = 0
    freeze_encoders: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class ClassifierHead:
    w: np.ndarray  # (input_dim, 2)
    b: np.ndarray  # (2,)

    @classmethod
    def initialize(cls, input_dim: int, seed: int) -> "ClassifierHead":
        rng = np.random.default_rng(seed)
        return cls(w=_truncated_normal(rng, (input_dim, 2), 0.02), b=np.zeros(2))

    @property
    def input_dim(self) -> int:
        return self.w.shape[0]


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def cross_entropy_loss(logits: np.ndarray, label: Label) -> tuple[float, np.ndarray]:
    """Loss and gradient for one logit pair: -log softmax(logits)[label],
    stabilized with log-sum-exp; gradient is softmax(logits) - one_hot."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError(f"non-finite logits: {logits}")
    idx = label_index(label)
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[idx])
    grad = np.exp(shifted - log_z)
    grad[idx] -= 1.0
    return loss, grad


def _batch_cross_entropy(logits: np.ndarray, label_idx: np.ndarray):
    """Mean loss over a batch and dloss/dlogits (already divided by batch size)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = (log_z[:, 0] - shifted[np.arange(len(label_idx)), label_idx])
    dlogits = np.exp(shifted - log_z)
    dlogits[np.arange(len(label_idx)), label_idx] -= 1.0
    return float(losses.mean()), dlogits / len(label_idx)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam with bias correction; updates params and state in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for name, grad in grads.items():
        if params[name].shape != grad.shape:
            raise ValueError(
                f"shape mismatch for {name}: param {params[name].shape} vs grad {grad.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad * grad
        m_hat = m / (1 - b1**state.t)
        v_hat = v / (1 - b2**state.t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


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


def _frozen_features(model: EncoderModel, texts: list[str], vocab: Vocabulary) -> np.ndarray:
    """Inference-mode CLS vectors of every text, FEATURE_BATCH rows per forward,
    so the activation cache follows the batch size, not the corpus size."""
    batches = []
    for start in range(0, len(texts), FEATURE_BATCH):
        ids, mask = encode_corpus(texts[start : start + FEATURE_BATCH], vocab, model.config.max_len)
        batches.append(forward(model, ids, mask)[0])
    return np.concatenate(batches)


def train_single(
    corpus: Corpus, model: EncoderModel, vocab: Vocabulary, config: TrainConfig
) -> TrainResult:
    """Fine-tune encoder + head with cross-entropy over seeded-shuffled
    mini-batches (the final short batch is used, not dropped). Each batch is
    encoded when it is drawn, padded to its longest row. With freeze_encoders
    the CLS vectors are computed once in inference mode and only the head is
    optimized. The input model is not mutated."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    model = model.copy()
    h = model.config.hidden_size
    rng = np.random.default_rng(config.seed)
    head = ClassifierHead.initialize(h, config.seed)

    texts = corpus.texts()
    y = np.array([label_index(ex.label) for ex in corpus], dtype=np.int64)
    n = len(corpus)

    if config.freeze_encoders:
        cls_all = _frozen_features(model, texts, vocab)
        trace = _train_head_on_vectors(cls_all, y, head, config, rng)
        return TrainResult(model=model, head=head, loss_trace=trace)

    params = {f"enc.{k}": v for k, v in model.params.items()}
    params["head.w"] = head.w
    params["head.b"] = head.b
    adam = AdamState.init_like(params)

    trace: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for b_start in range(0, n, config.batch_size):
            sel = perm[b_start : b_start + config.batch_size]
            ids, mask = encode_corpus([texts[i] for i in sel], vocab, model.config.max_len)
            cls, cache = forward(model, ids, mask, train=True, dropout_rng=rng)
            logits = cls @ head.w + head.b
            loss, dlogits = _batch_cross_entropy(logits, y[sel])
            _check_divergence(loss, epoch, b_start // config.batch_size)
            epoch_loss += loss * len(sel)

            grads = {
                "head.w": cls.T @ dlogits,
                "head.b": dlogits.sum(axis=0),
            }
            d_cls = dlogits @ head.w.T
            enc_grads = backward(model, cache, d_cls)
            grads.update({f"enc.{k}": g for k, g in enc_grads.items()})
            adam_step(params, grads, adam, config.learning_rate)
        trace.append(epoch_loss / n)
    return TrainResult(model=model, head=head, loss_trace=trace)


def _train_head_on_vectors(
    vectors: np.ndarray,
    y: np.ndarray,
    head: ClassifierHead,
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[float]:
    n = len(y)
    params = {"head.w": head.w, "head.b": head.b}
    adam = AdamState.init_like(params)
    trace: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for b_start in range(0, n, config.batch_size):
            sel = perm[b_start : b_start + config.batch_size]
            logits = vectors[sel] @ head.w + head.b
            loss, dlogits = _batch_cross_entropy(logits, y[sel])
            _check_divergence(loss, epoch, b_start // config.batch_size)
            epoch_loss += loss * len(sel)
            grads = {
                "head.w": vectors[sel].T @ dlogits,
                "head.b": dlogits.sum(axis=0),
            }
            adam_step(params, grads, adam, config.learning_rate)
        trace.append(epoch_loss / n)
    return trace


@dataclass
class DualTrainResult:
    head: ClassifierHead
    loss_trace: list[float]
    model_a: EncoderModel
    model_b: EncoderModel


def train_dual(
    head_corpus: Corpus,
    model_a: EncoderModel,
    model_b: EncoderModel,
    vocab: Vocabulary,
    config: TrainConfig,
    *,
    joint: bool = False,
) -> tuple[ClassifierHead, list[float]] | DualTrainResult:
    """Train a 2h -> 2 head on concatenated CLS vectors from two fine-tuned
    encoders. Encoders stay frozen (representations extracted once, in
    inference mode) unless joint=True, which backpropagates into copies of
    both encoders and returns them alongside the head."""
    if len(head_corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if model_a.config.hidden_size != model_b.config.hidden_size:
        raise ValueError("dual training requires encoders with matching hidden size")
    if model_a.config.max_len != model_b.config.max_len:
        raise ValueError("dual training requires encoders with matching max_len")
    h = model_a.config.hidden_size
    rng = np.random.default_rng(config.seed)
    head = ClassifierHead.initialize(2 * h, config.seed)

    texts = head_corpus.texts()
    y = np.array([label_index(ex.label) for ex in head_corpus], dtype=np.int64)
    n = len(head_corpus)

    if not joint:
        vectors = np.concatenate(
            [_frozen_features(model_a, texts, vocab), _frozen_features(model_b, texts, vocab)],
            axis=1,
        )
        trace = _train_head_on_vectors(vectors, y, head, config, rng)
        return head, trace

    model_a = model_a.copy()
    model_b = model_b.copy()
    params = {f"a.{k}": v for k, v in model_a.params.items()}
    params.update({f"b.{k}": v for k, v in model_b.params.items()})
    params["head.w"] = head.w
    params["head.b"] = head.b
    adam = AdamState.init_like(params)
    trace = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for b_start in range(0, n, config.batch_size):
            sel = perm[b_start : b_start + config.batch_size]
            ids, mask = encode_corpus([texts[i] for i in sel], vocab, model_a.config.max_len)
            cls_a, cache_a = forward(model_a, ids, mask, train=True, dropout_rng=rng)
            cls_b, cache_b = forward(model_b, ids, mask, train=True, dropout_rng=rng)
            cls = np.concatenate([cls_a, cls_b], axis=1)
            logits = cls @ head.w + head.b
            loss, dlogits = _batch_cross_entropy(logits, y[sel])
            _check_divergence(loss, epoch, b_start // config.batch_size)
            epoch_loss += loss * len(sel)
            grads = {"head.w": cls.T @ dlogits, "head.b": dlogits.sum(axis=0)}
            d_cls = dlogits @ head.w.T
            grads.update({f"a.{k}": g for k, g in backward(model_a, cache_a, d_cls[:, :h]).items()})
            grads.update({f"b.{k}": g for k, g in backward(model_b, cache_b, d_cls[:, h:]).items()})
            adam_step(params, grads, adam, config.learning_rate)
        trace.append(epoch_loss / n)
    return DualTrainResult(head=head, loss_trace=trace, model_a=model_a, model_b=model_b)


def save_train_checkpoint(
    path: str | Path,
    model: EncoderModel,
    vocab: Vocabulary,
    head: ClassifierHead,
    *,
    adam: AdamState | None = None,
    meta: dict | None = None,
) -> None:
    """Encoder checkpoint container extended with head parameters and,
    optionally, Adam state for resumable training."""
    extra = {"head.w": head.w, "head.b": head.b}
    merged_meta = dict(meta or {})
    if adam is not None:
        for name, m in adam.m.items():
            extra[f"adam.m.{name}"] = m
        for name, v in adam.v.items():
            extra[f"adam.v.{name}"] = v
        merged_meta["adam"] = {
            "t": adam.t,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
        }
    save_checkpoint(path, model, vocab, extra_tensors=extra, meta=merged_meta)


@dataclass
class TrainCheckpoint:
    model: EncoderModel
    vocab: Vocabulary
    head: ClassifierHead
    adam: AdamState | None
    meta: dict


def load_train_checkpoint(path: str | Path) -> TrainCheckpoint:
    ckpt: Checkpoint = load_checkpoint(path)
    head = ClassifierHead(w=ckpt.tensors["head.w"], b=ckpt.tensors["head.b"])
    adam = None
    if "adam" in ckpt.meta:
        meta = ckpt.meta["adam"]
        adam = AdamState(
            m={
                k.removeprefix("adam.m."): t
                for k, t in ckpt.tensors.items()
                if k.startswith("adam.m.")
            },
            v={
                k.removeprefix("adam.v."): t
                for k, t in ckpt.tensors.items()
                if k.startswith("adam.v.")
            },
            t=meta["t"],
            beta1=meta["beta1"],
            beta2=meta["beta2"],
            eps=meta["eps"],
        )
    return TrainCheckpoint(
        model=ckpt.model(), vocab=ckpt.vocab, head=head, adam=adam, meta=ckpt.meta
    )
