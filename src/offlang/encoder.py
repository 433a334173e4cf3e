"""Tokenization and a miniature transformer encoder producing CLS sentence vectors.

The encoder is a desk-scale stand-in for large pretrained models: learned
token + position embeddings followed by post-norm blocks of masked multi-head
self-attention and a GELU feed-forward, all in float64 numpy with hand-written
backward passes so training is exactly reproducible and gradients can be
checked against finite differences.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from .corpus import Corpus
from .errors import EmptyCorpus

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, USER_ID = range(5)

_TOKEN_RE = re.compile(r"\[sep\]|<user>|\w+|[^\w\s]")
_LN_EPS = 1e-12
_MASK_BIAS = -1e9


def tokenize(text: str) -> list[str]:
    """Whitespace/punctuation tokenization, uncased. `<user>` stays atomic and
    a literal "[SEP]" (the rendered augmentation separator) maps back to the
    reserved separator token."""
    return [
        "[SEP]" if tok == "[sep]" else tok for tok in _TOKEN_RE.findall(text.lower())
    ]


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]

    def __post_init__(self):
        self.id_to_token = [None] * len(self.token_to_id)
        for token, idx in self.token_to_id.items():
            self.id_to_token[idx] = token

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        return cls({tok: idx for idx, tok in enumerate(tokens)})


@dataclass(frozen=True)
class EncoderConfig:
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 2
    ffn_size: int = 0  # 0 means 4 * hidden_size
    max_len: int = 128
    vocab_cap: int = 8000
    dropout: float = 0.1
    init_seed: int = 0

    def __post_init__(self):
        if self.hidden_size < 1 or self.num_layers < 1 or self.num_heads < 1:
            raise ValueError("hidden_size, num_layers, and num_heads must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.max_len < 2 or self.vocab_cap <= len(RESERVED_TOKENS):
            raise ValueError("max_len must be >= 2 and vocab_cap must exceed the reserved tokens")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def ffn(self) -> int:
        return self.ffn_size if self.ffn_size else 4 * self.hidden_size

    def to_dict(self) -> dict:
        return {
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "ffn_size": self.ffn_size,
            "max_len": self.max_len,
            "vocab_cap": self.vocab_cap,
            "dropout": self.dropout,
            "init_seed": self.init_seed,
        }


def build_vocab(corpus: Corpus, config: EncoderConfig) -> Vocabulary:
    """Reserved tokens first, then corpus tokens by descending frequency with
    lexicographic tie-break, truncated to the vocab cap."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for ex in corpus:
        counts.update(tokenize(ex.text))
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    room = config.vocab_cap - len(RESERVED_TOKENS)
    tokens = list(RESERVED_TOKENS) + [tok for tok, _ in ranked[:room]]
    return Vocabulary.from_tokens(tokens)


def _token_ids(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """[CLS] + tokens + [SEP], at most max_len ids; truncation keeps leading
    tokens and always retains the final [SEP]."""
    tokens = tokenize(text)[: max_len - 2]
    return [CLS_ID] + [vocab.id_of(tok) for tok in tokens] + [SEP_ID]


def encode_corpus(texts: list[str], vocab: Vocabulary, max_len: int):
    """Stack tokenized sequences into (n, T) id and mask matrices, right-padded
    to T = the longest row of `texts` ([CLS] and [SEP] included), so at most
    max_len. Attention costs O(T^2), so callers encode one batch at a time
    and each batch pays only for its own longest row."""
    rows = [_token_ids(t, vocab, max_len) for t in texts]
    length = max((len(row) for row in rows), default=0)
    ids = np.full((len(rows), length), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), length), dtype=np.float64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        mask[i, : len(row)] = 1.0
    return ids, mask


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


class EncoderModel:
    """Immutable-at-inference container of config plus named parameter tensors."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: EncoderConfig, vocab_size: int) -> "EncoderModel":
        """Truncated normal (sigma=0.02) weights, zero biases, unit layer-norm gains."""
        rng = np.random.default_rng(config.init_seed)
        h, ff = config.hidden_size, config.ffn
        params: dict[str, np.ndarray] = {
            "tok_emb": _truncated_normal(rng, (vocab_size, h), 0.02),
            "pos_emb": _truncated_normal(rng, (config.max_len, h), 0.02),
        }
        for i in range(config.num_layers):
            p = f"layer{i}."
            for name in ("wq", "wk", "wv", "wo"):
                params[p + "attn." + name] = _truncated_normal(rng, (h, h), 0.02)
                params[p + "attn.b" + name[1]] = np.zeros(h)
            params[p + "ln1.gain"] = np.ones(h)
            params[p + "ln1.bias"] = np.zeros(h)
            params[p + "ffn.w1"] = _truncated_normal(rng, (h, ff), 0.02)
            params[p + "ffn.b1"] = np.zeros(ff)
            params[p + "ffn.w2"] = _truncated_normal(rng, (ff, h), 0.02)
            params[p + "ffn.b2"] = np.zeros(h)
            params[p + "ln2.gain"] = np.ones(h)
            params[p + "ln2.bias"] = np.zeros(h)
        return cls(config, params)

    def copy(self) -> "EncoderModel":
        return EncoderModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def param_bytes(self) -> bytes:
        return b"".join(self.params[k].tobytes() for k in sorted(self.params))


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GELU(x), Phi(x)) where GELU(x) = x * Phi(x) and Phi is the standard
    normal CDF. Phi is returned so the backward pass needs no second erf."""
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return x * phi, phi


def gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d GELU / dx = Phi(x) + x * pdf(x), given phi = Phi(x) from gelu()."""
    return phi + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv, gain)


def _layer_norm_backward(dy, cache):
    xhat, inv, gain = cache
    d_gain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    d_bias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, d_gain, d_bias


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _dropout(x, rate, rng):
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * keep, keep


def forward(
    model: EncoderModel,
    ids: np.ndarray,
    mask: np.ndarray,
    *,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the encoder over a (B, T) batch and return (CLS vectors, cache).

    T may be anything up to max_len; batches from encode_corpus are padded
    only to their longest row. Padding positions carry a -1e9 additive
    attention bias, so they receive exactly zero attention weight and never
    influence real positions: a row's CLS vector does not depend on how far
    its batch is padded (up to roundoff). Dropout is applied only when
    train=True (inverted dropout with the supplied rng), with masks drawn at
    the batch's (B, T) shape.
    """
    cfg = model.config
    p = model.params
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
    if ids.max() >= p["tok_emb"].shape[0]:
        raise ValueError("token id out of vocabulary range")
    A, h = cfg.num_heads, cfg.hidden_size
    dk = h // A
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("training forward pass with dropout needs a dropout_rng")

    x = p["tok_emb"][ids] + p["pos_emb"][:T]
    emb_keep = None
    if use_dropout:
        x, emb_keep = _dropout(x, cfg.dropout, dropout_rng)

    attn_bias = (1.0 - mask)[:, None, None, :] * _MASK_BIAS
    scale = 1.0 / np.sqrt(dk)
    layers = []
    for i in range(cfg.num_layers):
        pre = f"layer{i}."
        x_in = x
        q = x_in @ p[pre + "attn.wq"] + p[pre + "attn.bq"]
        k = x_in @ p[pre + "attn.wk"] + p[pre + "attn.bk"]
        v = x_in @ p[pre + "attn.wv"] + p[pre + "attn.bv"]
        qh = q.reshape(B, T, A, dk).transpose(0, 2, 1, 3)
        kh = k.reshape(B, T, A, dk).transpose(0, 2, 1, 3)
        vh = v.reshape(B, T, A, dk).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + attn_bias
        probs = _softmax(scores)
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, T, h)
        attn = ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
        attn_keep = None
        if use_dropout:
            attn, attn_keep = _dropout(attn, cfg.dropout, dropout_rng)
        ln1, ln1_cache = _layer_norm(x_in + attn, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        mid_pre = ln1 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        mid, phi = gelu(mid_pre)
        ffn = mid @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
        ffn_keep = None
        if use_dropout:
            ffn, ffn_keep = _dropout(ffn, cfg.dropout, dropout_rng)
        x, ln2_cache = _layer_norm(ln1 + ffn, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        layers.append(
            {
                "x_in": x_in,
                "qh": qh,
                "kh": kh,
                "vh": vh,
                "probs": probs,
                "ctx": ctx,
                "attn_keep": attn_keep,
                "ln1": ln1,
                "ln1_cache": ln1_cache,
                "mid_pre": mid_pre,
                "phi": phi,
                "ffn_keep": ffn_keep,
                "ln2_cache": ln2_cache,
            }
        )
    cache = {"ids": ids, "T": T, "emb_keep": emb_keep, "layers": layers, "scale": scale}
    return x[:, 0, :], cache


def backward(model: EncoderModel, cache: dict, d_cls: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of every encoder parameter given the loss gradient at the CLS
    vectors. Mirrors forward() exactly; dropout masks come from the cache."""
    cfg = model.config
    p = model.params
    ids, T = cache["ids"], cache["T"]
    B = ids.shape[0]
    A, h = cfg.num_heads, cfg.hidden_size
    dk = h // A
    scale = cache["scale"]

    grads = {name: np.zeros_like(tensor) for name, tensor in p.items()}
    dx = np.zeros((B, T, h))
    dx[:, 0, :] = d_cls

    def flat(t):
        return t.reshape(-1, t.shape[-1])

    for i in reversed(range(cfg.num_layers)):
        pre = f"layer{i}."
        c = cache["layers"][i]
        dres2, dg2, db2_ln = _layer_norm_backward(dx, c["ln2_cache"])
        grads[pre + "ln2.gain"] += dg2
        grads[pre + "ln2.bias"] += db2_ln

        dffn = dres2 if c["ffn_keep"] is None else dres2 * c["ffn_keep"]
        dln1 = dres2.copy()
        mid_pre, phi = c["mid_pre"], c["phi"]
        grads[pre + "ffn.w2"] += flat(mid_pre * phi).T @ flat(dffn)
        grads[pre + "ffn.b2"] += dffn.sum(axis=(0, 1))
        dmid = dffn @ p[pre + "ffn.w2"].T
        dmid_pre = dmid * gelu_grad(mid_pre, phi)
        grads[pre + "ffn.w1"] += flat(c["ln1"]).T @ flat(dmid_pre)
        grads[pre + "ffn.b1"] += dmid_pre.sum(axis=(0, 1))
        dln1 += dmid_pre @ p[pre + "ffn.w1"].T

        dres1, dg1, db1_ln = _layer_norm_backward(dln1, c["ln1_cache"])
        grads[pre + "ln1.gain"] += dg1
        grads[pre + "ln1.bias"] += db1_ln

        dattn = dres1 if c["attn_keep"] is None else dres1 * c["attn_keep"]
        dx = dres1.copy()
        grads[pre + "attn.wo"] += flat(c["ctx"]).T @ flat(dattn)
        grads[pre + "attn.bo"] += dattn.sum(axis=(0, 1))
        dctx = (dattn @ p[pre + "attn.wo"].T).reshape(B, T, A, dk).transpose(0, 2, 1, 3)

        probs, qh, kh, vh = c["probs"], c["qh"], c["kh"], c["vh"]
        dprobs = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dqh = dscores @ kh * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale

        dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, h)
        dk_full = dkh.transpose(0, 2, 1, 3).reshape(B, T, h)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, h)
        x_in = c["x_in"]
        for name, dmat in (("wq", dq), ("wk", dk_full), ("wv", dv)):
            grads[pre + "attn." + name] += flat(x_in).T @ flat(dmat)
            grads[pre + "attn.b" + name[1]] += dmat.sum(axis=(0, 1))
            dx += dmat @ p[pre + "attn." + name].T

    if cache["emb_keep"] is not None:
        dx = dx * cache["emb_keep"]
    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:T] += dx.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Checkpoint container: deterministic bytes (no archive timestamps), a JSON
# header carrying version/config/vocab plus a tensor index, then raw
# little-endian payload.
# ---------------------------------------------------------------------------

_MAGIC = b"OFFLANG1"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    config: EncoderConfig
    vocab: Vocabulary
    tensors: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def model(self) -> EncoderModel:
        params = {
            name.removeprefix("model."): tensor
            for name, tensor in self.tensors.items()
            if name.startswith("model.")
        }
        return EncoderModel(self.config, params)


def save_checkpoint(
    path: str | Path,
    model: EncoderModel,
    vocab: Vocabulary,
    *,
    extra_tensors: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    tensors = {f"model.{name}": t for name, t in model.params.items()}
    if extra_tensors:
        tensors.update(extra_tensors)
    index = []
    offset = 0
    payload_parts = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        raw = arr.tobytes()
        index.append(
            {
                "name": name,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        payload_parts.append(raw)
        offset += len(raw)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": list(vocab.id_to_token),
        "tensors": index,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Written beside the target and renamed over it, so a failed write never
    # leaves a torn checkpoint at `path`.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            fh.write(b"".join(payload_parts))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        payload = fh.read()
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        tensors[entry["name"]] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(
            entry["shape"]
        ).copy()
    config = EncoderConfig(**header["config"])
    vocab = Vocabulary.from_tokens(header["vocab"])
    return Checkpoint(config=config, vocab=vocab, tensors=tensors, meta=header["meta"])
