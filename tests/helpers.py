"""Shared test oracles: the finite-difference gradient check and a recorder
of encoder forward calls."""

import numpy as np

from offlang.encoder import EncoderConfig, EncoderModel, backward, forward
from offlang.train import ClassifierHead, _batch_cross_entropy

GRADCHECK_CONFIG = EncoderConfig(
    hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
    max_len=8, vocab_cap=20, dropout=0.0,
)
GRADCHECK_VOCAB_SIZE = 12

# Relative-error floor: when a tensor's true gradient is structurally zero
# (the key-projection bias cancels in softmax), both sides measure roundoff
# noise and a pure ratio would compare noise against noise.
ZERO_GRADIENT_FLOOR = 1e-6


def random_gradcheck_model(seed: int) -> tuple[EncoderModel, ClassifierHead]:
    """Tiny model with O(1)-scale random parameters. The default 0.02-sigma
    initialization leaves attention-score gradients near 1e-9, where central
    differences are dominated by float64 roundoff; re-drawing parameters at
    unit scale checks the same backward code with measurable gradients."""
    model = EncoderModel.initialize(GRADCHECK_CONFIG, GRADCHECK_VOCAB_SIZE)
    rng = np.random.default_rng(seed)
    for name, tensor in model.params.items():
        if name.endswith(".gain"):
            model.params[name] = 1.0 + 0.3 * rng.standard_normal(tensor.shape)
        else:
            model.params[name] = 0.6 * rng.standard_normal(tensor.shape)
    head = ClassifierHead(
        w=0.6 * rng.standard_normal((GRADCHECK_CONFIG.hidden_size, 2)),
        b=0.1 * rng.standard_normal(2),
    )
    return model, head


def random_batch(rng: np.random.Generator, batch_size: int = 4):
    T = GRADCHECK_CONFIG.max_len
    ids = rng.integers(0, GRADCHECK_VOCAB_SIZE, size=(batch_size, T))
    ids[:, 0] = 2  # CLS
    mask = np.zeros((batch_size, T))
    for i, length in enumerate(rng.integers(3, T + 1, size=batch_size)):
        mask[i, :length] = 1.0
    y = rng.integers(0, 2, size=batch_size)
    return ids, mask, y


def analytic_gradients(model, head, ids, mask, y):
    cls, cache = forward(model, ids, mask)
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
