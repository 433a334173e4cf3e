"""Supervised fine-tuning of the miniature encoder.

A two-way classification head sits on the CLS vector; training backpropagates
through head and encoder and applies Adam updates. Everything is driven by one
seeded generator in a fixed order, so a (seed, data, config) triple maps to
bitwise-identical final parameters.

Each fit keeps its parameters in one contiguous float64 buffer (the model's
`params` and the head are views of it) and its gradients in another, zeroed in
place per step; Adam updates it in place one erf.BLOCK at a time.

The trained classifier, encoder and head, is the one model that is saved:
save_checkpoint writes it and load_checkpoint reads it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CLASSES, Corpus, Label, atomic_write
from .encoder import (
    EncoderConfig,
    EncoderModel,
    Vocabulary,
    backward,
    encode_corpus,
    forward,
    pad_batch,
    param_shapes,
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


def frozen_batches(model: EncoderModel, texts: list[str], vocab: Vocabulary):
    """Inference-mode CLS vectors of the texts, one array per FEATURE_BATCH of
    them: the one inference loop, read by frozen_features and predict_labels.
    Each batch is encoded and padded to its longest row when it is reached,
    so memory follows the batch, not the corpus: for batches of 128 rows of
    128 tokens at h=64, whose FFN activations and attention probabilities are
    32 MiB each, the traced numpy peak of an inference forward (which keeps no
    cache; see forward) is about 80 MiB, as tests/test_evaluation.py bounds."""
    for start in range(0, len(texts), FEATURE_BATCH):
        rows = encode_corpus(texts[start : start + FEATURE_BATCH], vocab, model.config.max_len)
        yield forward(model, *pad_batch(rows))[0]


def frozen_features(model: EncoderModel, texts: list[str], vocab: Vocabulary) -> np.ndarray:
    """The (n, h) inference-mode CLS vectors of every text, from frozen_batches."""
    return np.concatenate(list(frozen_batches(model, texts, vocab)))


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
    mini-batches of the corpus's id rows, encoded once, padded per batch.
    The input model is not mutated: the result's model params and head are
    views of one new buffer."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    rows = encode_corpus(corpus.texts(), vocab, model.config.max_len)
    y = label_ids(corpus)
    rng = np.random.default_rng(config.seed)
    init = ClassifierHead.initialize(model.config.hidden_size, config.seed)
    # No encoder parameter is named head.*, so backward() can take these views.
    params, views = _packed({"head.w": init.w, "head.b": init.b, **model.params})
    head = ClassifierHead(w=views["head.w"], b=views["head.b"])
    model = EncoderModel(model.config, {k: views[k] for k in model.params})

    def step(sel):
        ids, mask = pad_batch([rows[i] for i in sel])
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


# ---------------------------------------------------------------------------
# The checkpoint of a trained classifier, version 2: deterministic bytes (no
# archive timestamps). The file is the magic, the header's length (u64, little
# endian), the header's SHA-256, the header (JSON: config, vocab, meta and a
# tensor index of name, dtype, shape and SHA-256), then the tensors' raw bytes
# back to back in index order: the encoder's `model.*` and the head's `head.w`
# and `head.b`. Every byte is covered by a digest.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2
_MAGIC = b"OFFLANG%d" % CHECKPOINT_VERSION
_PREAMBLE = len(_MAGIC) + 8 + 32  # magic, header length, header SHA-256

# Each meta key that every checkpoint carries, from the run that trained it,
# and the check of its value.
META_KEYS = {
    "language": ("a string", lambda v: isinstance(v, str)),
    "seed": ("an int >= 0", lambda v: type(v) is int and v >= 0),
    "normalize": ("a bool", lambda v: isinstance(v, bool)),
}


@dataclass
class Checkpoint:
    model: EncoderModel
    vocab: Vocabulary
    head: ClassifierHead
    meta: dict  # META_KEYS and their values


def save_checkpoint(
    path: str | Path, model: EncoderModel, vocab: Vocabulary, head: ClassifierHead, *, meta: dict
) -> None:
    """Write the classifier and the meta of its run to path, atomically."""
    tensors = {f"model.{name}": t for name, t in model.params.items()}
    tensors.update({"head.w": head.w, "head.b": head.b})
    index = []
    payload_parts = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        raw = arr.tobytes()
        index.append(
            {
                "name": name,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "sha256": hashlib.sha256(raw).hexdigest(),
            }
        )
        payload_parts.append(raw)
    header = {
        "config": asdict(model.config),
        "vocab": list(vocab.id_to_token),
        "tensors": index,
        "meta": meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(hashlib.sha256(header_bytes).digest())
        fh.write(header_bytes)
        fh.write(b"".join(payload_parts))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """A checkpoint file whose every byte matches its digest, whose tensors
    are exactly the encoder parameters its config and vocabulary make
    (param_shapes) and a head.w of (hidden_size, 2) and head.b of (2,), in
    float64, and whose meta has every META_KEYS key with a value that passes
    its check. Anything else fails with one ValueError line naming the file."""
    data = Path(path).read_bytes()
    if data[: len(_MAGIC)] == b"OFFLANG1":
        raise ValueError(
            f"{path}: bad checkpoint: version 1 is no longer read (it carries no "
            f"SHA-256 digests); train again to write version {CHECKPOINT_VERSION}"
        )
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    size_at = len(_MAGIC)
    try:
        header_end = _PREAMBLE + int.from_bytes(data[size_at : size_at + 8], "little")
        if header_end > len(data):
            raise ValueError(f"the header runs past the end of the {len(data)}-byte file")
        header_bytes = data[_PREAMBLE:header_end]
        if hashlib.sha256(header_bytes).digest() != data[size_at + 8 : _PREAMBLE]:
            raise ValueError("the header does not match its SHA-256")
        header = json.loads(header_bytes.decode("utf-8"))
        if not isinstance(header, dict) or not isinstance(header.get("meta"), dict):
            raise ValueError("the header is not a JSON object with a meta object")
        meta = header["meta"]
        for key, (what, ok) in META_KEYS.items():
            if key not in meta:
                raise ValueError(f"the meta has no {key!r} entry")
            if not ok(meta[key]):
                raise ValueError(f"meta {key} must be {what}, got {meta[key]!r}")
        payload = memoryview(data)[header_end:]
        tensors, offset = {}, 0
        for entry in header["tensors"]:
            tensors[entry["name"]], offset = _tensor(payload, offset, entry)
        if offset != len(payload):
            raise ValueError(f"{len(payload) - offset} bytes follow the last tensor")
        config = EncoderConfig(**header["config"])
        vocab = Vocabulary.from_tokens(header["vocab"])
        expected = {f"model.{name}": s for name, s in param_shapes(config, vocab.size).items()}
        expected.update({"head.w": (config.hidden_size, 2), "head.b": (2,)})
        reason = tensor_mismatch(tensors, expected)
        if reason:
            raise ValueError(f"{reason} for its config and {vocab.size}-token vocabulary")
    except KeyError as exc:
        raise ValueError(f"{path}: bad checkpoint: the header has no {exc} entry") from None
    except (TypeError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise ValueError(f"{path}: bad checkpoint: {exc}") from None
    head = ClassifierHead(w=tensors.pop("head.w"), b=tensors.pop("head.b"))
    params = {name.removeprefix("model."): t for name, t in tensors.items()}
    return Checkpoint(model=EncoderModel(config, params), vocab=vocab, head=head, meta=meta)


def _tensor(payload: memoryview, offset: int, entry: dict) -> tuple[np.ndarray, int]:
    """The tensor an index entry names, starting at `offset` of the payload,
    its bytes checked against the payload and its digest; and the offset
    after it."""
    name, dtype = entry["name"], np.dtype(entry["dtype"])
    end = offset + math.prod(entry["shape"]) * dtype.itemsize
    if end > len(payload):
        raise ValueError(f"tensor {name} runs past the end of the {len(payload)}-byte payload")
    raw = payload[offset:end]
    if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
        raise ValueError(f"tensor {name} does not match its SHA-256")
    return np.frombuffer(raw, dtype).reshape(entry["shape"]).copy(), end


def tensor_mismatch(tensors: dict[str, np.ndarray], expected: dict[str, tuple]) -> str | None:
    """Why `tensors` are not exactly the `expected` names and shapes in
    float64, or None when they are."""
    missing, unexpected = expected.keys() - tensors.keys(), tensors.keys() - expected.keys()
    if missing:
        return f"missing tensors {', '.join(sorted(missing))}"
    if unexpected:
        return f"unexpected tensors {', '.join(sorted(unexpected))}"
    for name, shape in expected.items():
        if tensors[name].shape != tuple(shape) or tensors[name].dtype != np.float64:
            got = f"{list(tensors[name].shape)} {tensors[name].dtype}"
            return f"tensor {name} is {got}, not {list(shape)} float64"
    return None
