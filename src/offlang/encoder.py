"""Tokenization and a miniature transformer encoder producing CLS sentence vectors.

The encoder is a desk-scale stand-in for large pretrained models: learned
token + position embeddings followed by post-norm blocks of masked multi-head
self-attention and a GELU feed-forward, all in float64 numpy with hand-written
backward passes so training is exactly reproducible and gradients can be
checked against finite differences.

The feed-forward activation is BERT's exact GELU, x * Phi(x) with the normal
CDF Phi(x) = (1 + erf(x / sqrt 2)) / 2. `erf` is `offlang.erf.erf`, a numpy
port of fdlibm's s_erf.c; every result tests/test_erf.py samples is within
1 ulp of a 60-digit reference.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .erf import erf
from .errors import EmptyCorpus

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, USER_ID = range(5)

_TOKEN_RE = re.compile(r"\[sep\]|<user>|\w+|[^\w\s]")
_LN_EPS = 1e-12
_MASK_BIAS = -1e9
_SQRT2 = math.sqrt(2.0)


def tokenize(text: str) -> list[str]:
    """Whitespace/punctuation tokenization, uncased. `<user>` stays atomic and
    a literal "[SEP]" (the rendered augmentation separator) maps back to the
    reserved separator token. Text that is not ASCII is put in NFC first, and
    a combining mark stays inside the word it touches."""
    text = text.lower()
    if text.isascii():
        tokens = _TOKEN_RE.findall(text)
    else:
        tokens = _marks_joined(unicodedata.normalize("NFC", text))
    return ["[SEP]" if tok == "[sep]" else tok for tok in tokens]


def _is_mark(char: str) -> bool:
    return unicodedata.category(char)[0] == "M"


def _in_word(tok: str) -> bool:
    """Whether tok starts with a word character (as \\w matches) or a mark."""
    return tok[0].isalnum() or tok[0] == "_" or _is_mark(tok[0])


def _marks_joined(text: str) -> list[str]:
    """The tokens of text with each combining mark joined to the word tokens
    it touches: \\w matches no mark, so _TOKEN_RE makes each one a token of
    its own that cuts its word in two. Punctuation, `[sep]` and `<user>`
    join nothing."""
    tokens: list[str] = []
    end, after_mark = -1, False
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        mark = len(tok) == 1 and _is_mark(tok)
        touching = match.start() == end and (mark or after_mark)
        if touching and _in_word(tok) and _in_word(tokens[-1]):
            tokens[-1] += tok
        else:
            tokens.append(tok)
        end, after_mark = match.end(), mark
    return tokens


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
        if self.ffn_size < 0:
            raise ValueError(f"ffn_size must be >= 0, got {self.ffn_size}")
        if self.max_len < 2 or self.vocab_cap <= len(RESERVED_TOKENS):
            raise ValueError("max_len must be >= 2 and vocab_cap must exceed the reserved tokens")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def ffn(self) -> int:
        return self.ffn_size if self.ffn_size else 4 * self.hidden_size


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


def encode_corpus(texts: list[str], vocab: Vocabulary, max_len: int) -> list[list[int]]:
    """Each text's id row: [CLS] + its tokens + [SEP], at most max_len ids.
    Truncation keeps the leading tokens and always the final [SEP], and a
    token outside the vocabulary is [UNK]."""
    lookup = vocab.token_to_id.get
    rows = [[lookup(tok, UNK_ID) for tok in tokenize(t)[: max_len - 2]] for t in texts]
    return [[CLS_ID, *row, SEP_ID] for row in rows]


def pad_batch(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack id rows into (n, T) id and mask matrices, right-padded to T = the
    longest row. Attention costs O(T^2), so callers pad one batch at a time
    and each batch pays only for its own longest row."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    mask = (np.arange(lengths.max(initial=0)) < lengths[:, None]).astype(np.float64)
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    # Row-major order, so the flat list fills each row's real slots in turn.
    ids[mask != 0] = [i for row in rows for i in row]
    return ids, mask


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


def param_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every encoder parameter; 2-D shapes are weights."""
    h, ff = config.hidden_size, config.ffn
    shapes = {"tok_emb": (vocab_size, h), "pos_emb": (config.max_len, h)}
    for i in range(config.num_layers):
        p = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + name] = (h, h)
            shapes[p + "attn.b" + name[1]] = (h,)
        shapes[p + "ln1.gain"] = shapes[p + "ln1.bias"] = (h,)
        shapes[p + "ffn.w1"], shapes[p + "ffn.b1"] = (h, ff), (ff,)
        shapes[p + "ffn.w2"], shapes[p + "ffn.b2"] = (ff, h), (h,)
        shapes[p + "ln2.gain"] = shapes[p + "ln2.bias"] = (h,)
    return shapes


class EncoderModel:
    """Immutable-at-inference container of config plus named parameter tensors."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: EncoderConfig, vocab_size: int) -> "EncoderModel":
        """Truncated normal (sigma=0.02) weights, zero biases, unit layer-norm
        gains, drawn in the order of param_shapes."""
        rng = np.random.default_rng(config.init_seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config, vocab_size).items():
            if len(shape) == 2:
                params[name] = _truncated_normal(rng, shape, 0.02)
            else:
                params[name] = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        return cls(config, params)


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(GELU(x), Phi(x)) where GELU(x) = x * Phi(x) and Phi is the standard
    normal CDF, 0.5 * (1 + erf(x / sqrt 2)), computed in place in the array
    x / sqrt 2. Phi is returned so the backward pass needs no second erf.
    GELU(x) goes into `out` when given, which may be x itself."""
    phi = x / _SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return np.multiply(x, phi, out=out), phi


def gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d GELU / dx = Phi(x) + x * pdf(x), given phi = Phi(x) from gelu(),
    in one new array."""
    g = -0.5 * x
    g *= x
    np.exp(g, out=g)
    g *= x
    g /= np.sqrt(2.0 * np.pi)
    g += phi
    return g


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
    """Softmax over the last axis, in place in x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _dropout(x, slots, shape, rate, rng):
    """Inverted dropout of packed rows x. The mask is drawn at the padded
    `shape` and only its `slots` rows are kept, so the rng stream and each
    real token's mask do not depend on how many slots are padding."""
    keep = (rng.random(shape).reshape(-1, shape[-1])[slots] >= rate) / (1.0 - rate)
    return x * keep, keep


def _heads(rows, slots, batch, length, num_heads):
    """Scatter packed rows (n, h) into `slots` of a zero (batch * length, h)
    grid, viewed as (batch, heads, length, h / heads)."""
    grid = np.zeros((batch * length, rows.shape[1]))
    grid[slots] = rows
    return grid.reshape(batch, length, num_heads, -1).transpose(0, 2, 1, 3)


def _unheads(heads, slots):
    """Gather the `slots` rows of (batch, heads, length, dk) heads as (n, h),
    in one copy."""
    batch, num_heads, length, dk = heads.shape
    return heads[slots // length, :, slots % length].reshape(len(slots), num_heads * dk)


def _layer(p, pre, x, real, q_slots, T, num_heads, attn_bias, drop, cache):
    """One post-norm block over packed rows. x holds the (N, h) rows of the
    `real` slots of the flat (B * T) batch; every real row gives a key and a
    value, and the rows at `q_slots` (a subset of `real`) give the queries.
    Only the query rows go on through the output projection, LayerNorms and
    FFN, so the result is (len(q_slots), h).

    When training, `cache` is a dict that receives what _layer_backward
    needs. In inference it is None, each intermediate is dropped once its
    consumer has run, and GELU runs in place, so the layer holds at most two
    of its largest arrays at a time."""
    B = attn_bias.shape[0]
    q_rows = np.searchsorted(real, q_slots)
    q_len = int((q_slots % T).max()) + 1
    q_grid = q_slots // T * q_len + q_slots % T
    x_q = x[q_rows]
    qh = _heads(x_q @ p[pre + "attn.wq"] + p[pre + "attn.bq"], q_grid, B, q_len, num_heads)
    kh = _heads(x @ p[pre + "attn.wk"] + p[pre + "attn.bk"], real, B, T, num_heads)
    vh = _heads(x @ p[pre + "attn.wv"] + p[pre + "attn.bv"], real, B, T, num_heads)
    if cache is not None:
        cache.update(x_in=x, q_rows=q_rows, q_grid=q_grid, qh=qh, kh=kh, vh=vh)
    probs = qh @ kh.transpose(0, 1, 3, 2)
    del qh, kh
    probs *= 1.0 / np.sqrt(vh.shape[-1])
    probs += attn_bias
    _softmax(probs)
    ctx = _unheads(probs @ vh, q_grid)
    if cache is not None:
        cache.update(probs=probs, ctx=ctx)
    del probs, vh
    attn, attn_keep = drop(ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"], q_slots)
    del ctx
    ln1, ln1_cache = _layer_norm(x_q + attn, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
    if cache is not None:
        cache.update(attn_keep=attn_keep, ln1=ln1, ln1_cache=ln1_cache)
    del x_q, attn, ln1_cache
    mid_pre = ln1 @ p[pre + "ffn.w1"]
    mid_pre += p[pre + "ffn.b1"]
    if cache is None:
        mid = gelu(mid_pre, out=mid_pre)[0]
    else:
        mid, phi = gelu(mid_pre)
        cache.update(mid_pre=mid_pre, phi=phi)
        del phi
    del mid_pre
    ffn, ffn_keep = drop(mid @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"], q_slots)
    del mid
    out, ln2_cache = _layer_norm(ln1 + ffn, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
    if cache is not None:
        cache.update(ffn_keep=ffn_keep, ln2_cache=ln2_cache)
    return out


def _layer_backward(p, pre, c, d_out, real, grads):
    """Gradients of one _layer given d_out at its query rows: accumulates the
    layer's parameter gradients into `grads` and returns d x, (N, h)."""
    B, num_heads, q_len, dk = c["qh"].shape
    scale = 1.0 / np.sqrt(dk)
    dres2, dg2, db2_ln = _layer_norm_backward(d_out, c["ln2_cache"])
    grads[pre + "ln2.gain"] += dg2
    grads[pre + "ln2.bias"] += db2_ln

    dffn = dres2 if c["ffn_keep"] is None else dres2 * c["ffn_keep"]
    mid_pre, phi = c["mid_pre"], c["phi"]
    grads[pre + "ffn.w2"] += (mid_pre * phi).T @ dffn
    grads[pre + "ffn.b2"] += dffn.sum(axis=0)
    dmid_pre = dffn @ p[pre + "ffn.w2"].T
    dmid_pre *= gelu_grad(mid_pre, phi)
    grads[pre + "ffn.w1"] += c["ln1"].T @ dmid_pre
    grads[pre + "ffn.b1"] += dmid_pre.sum(axis=0)
    dln1 = dres2 + dmid_pre @ p[pre + "ffn.w1"].T

    dres1, dg1, db1_ln = _layer_norm_backward(dln1, c["ln1_cache"])
    grads[pre + "ln1.gain"] += dg1
    grads[pre + "ln1.bias"] += db1_ln

    dattn = dres1 if c["attn_keep"] is None else dres1 * c["attn_keep"]
    grads[pre + "attn.wo"] += c["ctx"].T @ dattn
    grads[pre + "attn.bo"] += dattn.sum(axis=0)
    dctx = _heads(dattn @ p[pre + "attn.wo"].T, c["q_grid"], B, q_len, num_heads)

    probs, qh, kh, vh = c["probs"], c["qh"], c["kh"], c["vh"]
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    # dscores = probs * (dprobs - rowsum(dprobs * probs)), built in dprobs
    dscores = dprobs
    dscores -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dscores *= probs
    dqh = dscores @ kh
    dqh *= scale
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dkh *= scale

    x_in, q_rows = c["x_in"], c["q_rows"]
    dx = np.zeros_like(x_in)
    dx[q_rows] = dres1
    every = slice(None)
    for name, rows, dmat in (
        ("wq", q_rows, _unheads(dqh, c["q_grid"])),
        ("wk", every, _unheads(dkh, real)),
        ("wv", every, _unheads(dvh, real)),
    ):
        grads[pre + "attn." + name] += x_in[rows].T @ dmat
        grads[pre + "attn.b" + name[1]] += dmat.sum(axis=0)
        dx[rows] += dmat @ p[pre + "attn." + name].T
    return dx


def forward(
    model: EncoderModel,
    ids: np.ndarray,
    mask: np.ndarray,
    *,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the encoder over a (B, T) batch and return (CLS vectors, cache),
    where the activation cache for backward() is recorded only when
    train=True and is None otherwise.

    T may be anything up to max_len; batches from pad_batch are padded
    only to their longest row, and every row's position 0 ([CLS]) must be
    real. Position-wise work runs on packed rows: the N real tokens
    (mask != 0) are gathered once into an (N, h) matrix for the embedding
    sum, projections, LayerNorms, FFN and dropout, and only scores, softmax
    and context use the padded (B, heads, T, dk) layout, where padding keys
    carry a -1e9 additive bias and so receive exactly zero attention weight.
    Inner layers query every real token. The last layer, whose only output
    is the CLS vector, computes keys and values for every real token but
    queries, output projection, LayerNorms and FFN for the B [CLS] rows
    alone, so its attention probabilities are (B, heads, 1, T). A row's CLS
    vector does not depend on how far its batch is padded (up to roundoff).
    Dropout is applied only when train=True (inverted dropout with the
    supplied rng), with masks drawn at the padded (B, T, h) shape.
    Score scaling and softmax run in place in the scores array. Without
    train, each layer also drops every intermediate once it is consumed and
    runs GELU in place; at dropout 0 the CLS vectors are bit for bit those
    of a training forward.
    """
    cfg = model.config
    p = model.params
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
    if ids.max() >= p["tok_emb"].shape[0]:
        raise ValueError("token id out of vocabulary range")
    if not mask[:, 0].all():
        raise ValueError("position 0 ([CLS]) of every row must be unmasked")
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("training forward pass with dropout needs a dropout_rng")

    def drop(x, slots):
        if not use_dropout:
            return x, None
        return _dropout(x, slots, (B, T, cfg.hidden_size), cfg.dropout, dropout_rng)

    real = np.flatnonzero(mask)  # slots of the real tokens in the flat (B * T) batch
    x, emb_keep = drop(p["tok_emb"][ids.reshape(-1)[real]] + p["pos_emb"][real % T], real)
    attn_bias = (1.0 - mask)[:, None, None, :] * _MASK_BIAS
    layers = [{} if train else None for _ in range(cfg.num_layers)]
    for i, layer_cache in enumerate(layers):
        q_slots = real if i < cfg.num_layers - 1 else np.arange(B) * T
        x = _layer(p, f"layer{i}.", x, real, q_slots, T, cfg.num_heads, attn_bias, drop, layer_cache)
    if not train:
        return x, None
    return x, {"ids": ids, "real": real, "emb_keep": emb_keep, "layers": layers}


def backward(model: EncoderModel, cache: dict, d_cls: np.ndarray, grads: dict | None = None) -> dict:
    """Gradients of every encoder parameter given the loss gradient at the CLS
    vectors, added into `grads` (arrays by parameter name) when given, else
    into new zero arrays; returns them. Mirrors forward() exactly, on the same
    packed rows: the last layer's gradients enter at the [CLS] rows only, and
    the embedding gradients are scattered from the real rows. Dropout masks
    come from the cache."""
    p = model.params
    ids, real = cache["ids"], cache["real"]
    if grads is None:
        grads = {name: np.zeros_like(tensor) for name, tensor in p.items()}
    dx = d_cls
    for i in reversed(range(model.config.num_layers)):
        dx = _layer_backward(p, f"layer{i}.", cache["layers"][i], dx, real, grads)
    if cache["emb_keep"] is not None:
        dx = dx * cache["emb_keep"]
    np.add.at(grads["tok_emb"], ids.reshape(-1)[real], dx)
    np.add.at(grads["pos_emb"], real % ids.shape[1], dx)
    return grads
