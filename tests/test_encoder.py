import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ZERO_GRADIENT_FLOOR, param_bytes, tear_writes

import offlang.encoder as encoder_mod
from offlang.corpus import Corpus, Label, LabeledExample
from offlang.encoder import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    EncoderConfig,
    EncoderModel,
    Vocabulary,
    backward,
    build_vocab,
    encode_corpus,
    forward,
    gelu,
    gelu_grad,
    pad_batch,
    tokenize,
)
from offlang.errors import EmptyCorpus
from offlang.train import ClassifierHead, load_checkpoint, save_checkpoint

META = {"language": "tr", "seed": 0, "normalize": False}


def corpus_of(texts):
    return Corpus("en", [LabeledExample(str(i), t, Label.NOT) for i, t in enumerate(texts)])


TINY = EncoderConfig(
    hidden_size=8, num_layers=1, num_heads=2, ffn_size=16, max_len=8, vocab_cap=50, dropout=0.0
)


class TestTokenize:
    def test_user_token_atomic(self):
        assert tokenize("<user> hi there") == ["<user>", "hi", "there"]

    def test_punctuation_split(self):
        assert tokenize("no, really!") == ["no", ",", "really", "!"]

    def test_uncased(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_rendered_separator_atomic(self):
        assert tokenize("iyi [SEP] good") == ["iyi", "[SEP]", "good"]

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("مَرْحَبًا بِكُم", ["مَرْحَبًا", "بِكُم"]),
            ("İYİ AKŞAMLAR", ["i\u0307yi\u0307", "akşamlar"]),  # str.lower: İ -> i + U+0307
            (unicodedata.normalize("NFD", "Καλημέρα"), ["καλημέρα"]),
            ("\u0308[SEP] <user>\u0301", ["\u0308", "[SEP]", "<user>", "\u0301"]),
            ("İYİ!", ["i\u0307yi\u0307", "!"]),
            ("GELDİ! İYİ?", ["geldi\u0307", "!", "i\u0307yi\u0307", "?"]),
            ("كتبَ؟", ["كتبَ", "؟"]),
        ],
        ids=[
            "arabic_harakat", "turkish_capital_dotted_i", "decomposed_greek", "atomic_tokens",
            "turkish_final_mark_then_punctuation", "turkish_two_words_with_punctuation",
            "arabic_final_haraka_then_punctuation",
        ],
    )
    def test_combining_marks_stay_inside_their_word(self, text, tokens):
        assert tokenize(text) == tokens

    @given(st.text(st.characters(categories=("L", "M")), min_size=1))
    def test_a_run_of_letters_and_marks_is_one_token(self, word):
        assert tokenize(word) == [unicodedata.normalize("NFC", word.lower())]

    @given(
        st.text(st.characters(categories=("L", "M")), min_size=1),
        st.characters(categories=("M",)),
        st.characters(categories=("P",), exclude_characters="_"),
    )
    def test_punctuation_after_a_word_is_a_token_of_its_own(self, word, mark, punct):
        word += mark  # a word that ends in a mark, unless NFC composes it
        expected = [unicodedata.normalize("NFC", tok) for tok in (word.lower(), punct)]
        assert tokenize(word + punct) == expected

    @given(st.text(st.characters(max_codepoint=127)))
    def test_ascii_text_tokenizes_as_before(self, text):
        before = re.findall(r"\[sep\]|<user>|\w+|[^\w\s]", text.lower())
        assert tokenize(text) == ["[SEP]" if tok == "[sep]" else tok for tok in before]


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        vocab = build_vocab(corpus_of(["a b", "a c"]), TINY)
        assert vocab.id_to_token[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>"]
        assert vocab.id_to_token[5:] == ["a", "b", "c"]

    def test_cap_of_six_admits_one_token(self):
        config = EncoderConfig(
            hidden_size=8, num_layers=1, num_heads=2, max_len=8, vocab_cap=6, dropout=0.0
        )
        vocab = build_vocab(corpus_of(["b b b a a c"]), config)
        assert vocab.size == 6
        assert vocab.id_to_token[5] == "b"

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(corpus_of(["a b"]), TINY)
        ids, _ = pad_batch(encode_corpus(["a zebra"], vocab, max_len=8))
        assert ids[0, 1:3].tolist() == [vocab.token_to_id["a"], UNK_ID]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab(corpus_of([]), TINY)


class TestEncodeCorpus:
    def test_pads_to_longest_row(self):
        vocab = build_vocab(corpus_of(["a b c"]), TINY)
        ids, mask = pad_batch(encode_corpus(["a", "a b c", ""], vocab, max_len=8))
        a, b, c = (vocab.token_to_id[t] for t in "abc")
        assert ids.tolist() == [
            [CLS_ID, a, SEP_ID, PAD_ID, PAD_ID],
            [CLS_ID, a, b, c, SEP_ID],
            [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID],
        ]
        assert mask.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 0, 0, 0]]
        assert ids.dtype == np.int64 and mask.dtype == np.float64

    def test_long_text_capped_at_max_len_keeps_sep(self):
        vocab = build_vocab(corpus_of(["w"]), TINY)
        long_text = " ".join(f"tok{i}" for i in range(200))
        ids, mask = pad_batch(encode_corpus(["w", long_text], vocab, max_len=128))
        assert ids.shape == mask.shape == (2, 128)
        assert ids[1, 0] == CLS_ID and ids[1, 127] == SEP_ID
        assert mask[1].sum() == 128
        assert mask[0].sum() == 3


def loop_encode_corpus(texts, vocab, max_len):
    """The row-by-row encode_corpus that the flat fill replaced, kept as its
    reference."""
    rows = [
        [CLS_ID] + [vocab.token_to_id.get(t, UNK_ID) for t in tokenize(text)[: max_len - 2]]
        + [SEP_ID]
        for text in texts
    ]
    length = max((len(row) for row in rows), default=0)
    ids = np.full((len(rows), length), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), length), dtype=np.float64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        mask[i, : len(row)] = 1.0
    return ids, mask


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "zebra", "<user>", "[SEP]", "!", "A"]), max_size=12)
        .map(" ".join),
        max_size=8,
    ),
    max_len=st.integers(2, 10),
    data=st.data(),
)
def test_encode_corpus_equals_the_row_loop(texts, max_len, data):
    # A fit encodes its corpus once and pads each batch it draws (any
    # selection of rows, repeats included); this keeps it bit for bit the
    # fit that encoded each batch when it drew it.
    vocab = build_vocab(corpus_of(["a b c"]), TINY)
    rows = encode_corpus(texts, vocab, max_len)
    drawn = data.draw(st.lists(st.integers(0, len(texts) - 1), max_size=8) if texts else st.just([]))
    for sel in (range(len(texts)), drawn):
        ids, mask = pad_batch([rows[i] for i in sel])
        ref_ids, ref_mask = loop_encode_corpus([texts[i] for i in sel], vocab, max_len)
        assert ids.dtype == ref_ids.dtype and mask.dtype == ref_mask.dtype
        assert ids.shape == ref_ids.shape and mask.shape == ref_mask.shape
        assert ids.tobytes() == ref_ids.tobytes() and mask.tobytes() == ref_mask.tobytes()


def tiny_model(seed=0, vocab_size=12, num_layers=1):
    config = EncoderConfig(
        hidden_size=8, num_layers=num_layers, num_heads=2, ffn_size=16,
        max_len=8, vocab_cap=50, dropout=0.0, init_seed=seed,
    )
    return EncoderModel.initialize(config, vocab_size)


AB_VOCAB = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a", "b"])


def cls_vectors(model, texts, vocab=AB_VOCAB):
    ids, mask = pad_batch(encode_corpus(texts, vocab, model.config.max_len))
    return forward(model, ids, mask)[0]


def attention_probs(model, ids, mask):
    """Each layer's attention probabilities, from a training-mode cache (the
    models here have dropout 0; inference records no cache)."""
    return [layer["probs"] for layer in forward(model, ids, mask, train=True)[1]["layers"]]


class TestForward:
    def test_output_length(self):
        vec = cls_vectors(tiny_model(), ["a b"])
        assert vec.shape == (1, 8)
        assert np.all(np.isfinite(vec))

    def test_padding_invariance(self):
        # Alone, "a b" is 4 ids wide; beside a 6-token text it is padded to 8.
        model = tiny_model()
        short = cls_vectors(model, ["a b"])
        long = cls_vectors(model, ["a b", "a b a b a b"])
        assert long.shape == (2, 8)
        assert np.allclose(short[0], long[0], atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, size=(3, 8))
        mask = np.ones((3, 8))
        mask[:, 6:] = 0.0
        for probs in attention_probs(model, ids, mask):
            sums = probs.sum(axis=-1)
            assert np.allclose(sums, 1.0, atol=1e-6)
        # Two layers: the first queries all 6 real positions, the last [CLS] only.
        inner, last = attention_probs(tiny_model(num_layers=2), ids, mask)
        assert inner.shape == (3, 2, 6, 8) and last.shape == (3, 2, 1, 8)
        for probs in (inner, last):
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_pad_positions_get_zero_attention(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 12, size=(2, 8))
        mask = np.ones((2, 8))
        mask[:, 5:] = 0.0
        for probs in attention_probs(model, ids, mask):
            assert probs[:, :, :, 5:].max() < 1e-9
        inner, last = attention_probs(tiny_model(num_layers=2), ids, mask)
        assert inner.shape[2] == 5
        for probs in (inner, last):
            assert probs[:, :, :, 5:].max() < 1e-9

    def test_deterministic_inference(self):
        model = tiny_model()
        assert np.array_equal(cls_vectors(model, ["a a a"]), cls_vectors(model, ["a a a"]))

    def test_out_of_range_id_rejected(self):
        model = tiny_model(vocab_size=6)
        ids = np.full((1, 8), 7, dtype=np.int64)
        with pytest.raises(ValueError):
            forward(model, ids, np.ones((1, 8)))


class TestTrimmedBatch:
    """A batch padded only to its longest row computes what the same batch
    padded to max_len computes, up to float64 roundoff."""

    def batches(self):
        config = EncoderConfig(dropout=0.0)  # default h=64, L=2, T=128
        words = [f"w{i}" for i in range(40)]
        vocab = Vocabulary.from_tokens(list(RESERVED_TOKENS) + words)
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(words, size=k)) for k in (0, 3, 9, 17, 5, 30)]
        ids, mask = pad_batch(encode_corpus(texts, vocab, config.max_len))
        assert ids.shape[1] == 32 < config.max_len
        padded_ids = np.full((len(texts), config.max_len), PAD_ID, dtype=np.int64)
        padded_mask = np.zeros((len(texts), config.max_len))
        padded_ids[:, : ids.shape[1]] = ids
        padded_mask[:, : ids.shape[1]] = mask
        model = EncoderModel.initialize(config, vocab.size)
        return model, (ids, mask), (padded_ids, padded_mask)

    def test_cls_vectors_match_padded(self):
        model, trimmed, padded = self.batches()
        cls_trimmed, _ = forward(model, *trimmed)
        cls_padded, _ = forward(model, *padded)
        assert np.abs(cls_trimmed - cls_padded).max() < 1e-12

    def test_gradients_match_padded(self):
        model, trimmed, padded = self.batches()
        cls, cache_trimmed = forward(model, *trimmed, train=True)
        _, cache_padded = forward(model, *padded, train=True)
        d_cls = np.random.default_rng(1).standard_normal(cls.shape)
        g_trimmed = backward(model, cache_trimmed, d_cls)
        g_padded = backward(model, cache_padded, d_cls)
        for name in model.params:
            a, b = g_trimmed[name], g_padded[name]
            if name.endswith("attn.bk"):
                # Structurally zero: the key bias cancels in the softmax.
                assert max(np.linalg.norm(a), np.linalg.norm(b)) < ZERO_GRADIENT_FLOOR
                continue
            err = np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))
            assert err < 1e-12, f"{name}: {err}"


def padded_forward(model, ids, mask, *, train=False, dropout_rng=None):
    """Oracle: the encoder before packing, every op on all B * T slots and a
    full-query last layer. Masks are drawn at (B, T, h), as forward draws them."""
    cfg, p = model.config, model.params
    B, T = ids.shape
    A, h = cfg.num_heads, cfg.hidden_size
    dk = h // A
    use_dropout = train and cfg.dropout > 0.0

    def drop(x):
        if not use_dropout:
            return x, None
        keep = (dropout_rng.random(x.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        return x * keep, keep

    x, emb_keep = drop(p["tok_emb"][ids] + p["pos_emb"][:T])
    attn_bias = (1.0 - mask)[:, None, None, :] * encoder_mod._MASK_BIAS
    scale = 1.0 / np.sqrt(dk)
    layers = []
    for i in range(cfg.num_layers):
        pre = f"layer{i}."
        x_in = x
        qh, kh, vh = (
            (x_in @ p[pre + "attn.w" + n] + p[pre + "attn.b" + n])
            .reshape(B, T, A, dk)
            .transpose(0, 2, 1, 3)
            for n in "qkv"
        )
        probs = encoder_mod._softmax(qh @ kh.transpose(0, 1, 3, 2) * scale + attn_bias)
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, T, h)
        attn, attn_keep = drop(ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"])
        ln1, ln1_cache = encoder_mod._layer_norm(x_in + attn, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        mid_pre = ln1 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        mid, phi = gelu(mid_pre)
        ffn, ffn_keep = drop(mid @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"])
        x, ln2_cache = encoder_mod._layer_norm(ln1 + ffn, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        layers.append(dict(
            x_in=x_in, qh=qh, kh=kh, vh=vh, probs=probs, ctx=ctx, attn_keep=attn_keep,
            ln1=ln1, ln1_cache=ln1_cache, mid_pre=mid_pre, phi=phi, ffn_keep=ffn_keep,
            ln2_cache=ln2_cache,
        ))
    return x[:, 0, :], {"ids": ids, "emb_keep": emb_keep, "layers": layers, "scale": scale}


def padded_backward(model, cache, d_cls):
    """Oracle: the backward pass of padded_forward, over all B * T slots."""
    cfg, p = model.config, model.params
    ids, scale = cache["ids"], cache["scale"]
    B, T = ids.shape
    A, h = cfg.num_heads, cfg.hidden_size
    layer_norm_backward = encoder_mod._layer_norm_backward
    grads = {name: np.zeros_like(tensor) for name, tensor in p.items()}
    dx = np.zeros((B, T, h))
    dx[:, 0, :] = d_cls

    def flat(t):
        return t.reshape(-1, t.shape[-1])

    for i in reversed(range(cfg.num_layers)):
        pre = f"layer{i}."
        c = cache["layers"][i]
        dres2, grads[pre + "ln2.gain"], grads[pre + "ln2.bias"] = layer_norm_backward(dx, c["ln2_cache"])
        dffn = dres2 if c["ffn_keep"] is None else dres2 * c["ffn_keep"]
        mid_pre, phi = c["mid_pre"], c["phi"]
        grads[pre + "ffn.w2"] = flat(mid_pre * phi).T @ flat(dffn)
        grads[pre + "ffn.b2"] = dffn.sum(axis=(0, 1))
        dmid_pre = (dffn @ p[pre + "ffn.w2"].T) * gelu_grad(mid_pre, phi)
        grads[pre + "ffn.w1"] = flat(c["ln1"]).T @ flat(dmid_pre)
        grads[pre + "ffn.b1"] = dmid_pre.sum(axis=(0, 1))
        dln1 = dres2 + dmid_pre @ p[pre + "ffn.w1"].T
        dres1, grads[pre + "ln1.gain"], grads[pre + "ln1.bias"] = layer_norm_backward(dln1, c["ln1_cache"])
        dattn = dres1 if c["attn_keep"] is None else dres1 * c["attn_keep"]
        grads[pre + "attn.wo"] = flat(c["ctx"]).T @ flat(dattn)
        grads[pre + "attn.bo"] = dattn.sum(axis=(0, 1))
        dctx = (dattn @ p[pre + "attn.wo"].T).reshape(B, T, A, -1).transpose(0, 2, 1, 3)
        probs, qh, kh, vh = c["probs"], c["qh"], c["kh"], c["vh"]
        dprobs = dctx @ vh.transpose(0, 1, 3, 2)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dheads = {
            "q": dscores @ kh * scale,
            "k": dscores.transpose(0, 1, 3, 2) @ qh * scale,
            "v": probs.transpose(0, 1, 3, 2) @ dctx,
        }
        dx = dres1.copy()
        for n, dh in dheads.items():
            dmat = dh.transpose(0, 2, 1, 3).reshape(B, T, h)
            grads[pre + "attn.w" + n] = flat(c["x_in"]).T @ flat(dmat)
            grads[pre + "attn.b" + n] = dmat.sum(axis=(0, 1))
            dx += dmat @ p[pre + "attn.w" + n].T
    if cache["emb_keep"] is not None:
        dx = dx * cache["emb_keep"]
    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:T] += dx.sum(axis=0)
    return grads


class TestPackedMatchesPadded:
    """forward/backward on packed real rows with a [CLS]-query last layer
    compute what the padded encoder computes, up to float64 roundoff, and
    draw the same dropout masks from the same rng stream."""

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 5),
        length=st.integers(1, 9),
        num_layers=st.sampled_from([1, 2, 3]),
        dropout=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_cls_gradients_and_rng_match_padded_oracle(
        self, batch, length, num_layers, dropout, seed, data
    ):
        # The encoder's own initialization. At O(1) parameter scale a softmax
        # can saturate, and a tensor whose gradient nearly cancels then
        # differs by more than 1e-12 of its own norm on both sides alike.
        config = EncoderConfig(
            hidden_size=8, num_layers=num_layers, num_heads=2, ffn_size=16,
            max_len=9, vocab_cap=50, dropout=dropout, init_seed=seed,
        )
        model = EncoderModel.initialize(config, 12)
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 12, size=(batch, length))
        ids[:, 0] = CLS_ID
        lengths = data.draw(st.lists(st.integers(1, length), min_size=batch, max_size=batch))
        mask = (np.arange(length) < np.array(lengths)[:, None]).astype(np.float64)
        d_cls = rng.standard_normal((batch, config.hidden_size))

        packed_rng, padded_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cls, cache = forward(model, ids, mask, train=True, dropout_rng=packed_rng)
        ref_cls, ref_cache = padded_forward(model, ids, mask, train=True, dropout_rng=padded_rng)
        assert packed_rng.random() == padded_rng.random()
        assert np.abs(cls - ref_cls).max() < 1e-12

        grads = backward(model, cache, d_cls)
        ref_grads = padded_backward(model, ref_cache, d_cls)
        assert set(grads) == set(ref_grads) == set(model.params)
        for name in model.params:
            a, b = np.linalg.norm(grads[name]), np.linalg.norm(ref_grads[name])
            if name.endswith("attn.bk"):
                # Structurally zero: the key bias cancels in the softmax.
                assert max(a, b) < ZERO_GRADIENT_FLOOR
                continue
            # <=, so that a structurally zero gradient (wq and bq when every
            # row is [CLS] alone) passes when both sides are exactly zero.
            diff = np.linalg.norm(grads[name] - ref_grads[name])
            assert diff <= 1e-12 * max(a, b), f"{name}: {diff} vs norm {max(a, b)}"


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    length=st.integers(1, 9),
    num_layers=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_inference_equals_training_at_dropout_zero(batch, length, num_layers, seed, data):
    """Inference runs GELU in place and records no cache; at dropout 0 its CLS
    vectors are bit for bit those of a training-mode forward."""
    config = EncoderConfig(
        hidden_size=8, num_layers=num_layers, num_heads=2, ffn_size=16,
        max_len=9, vocab_cap=50, dropout=0.0, init_seed=seed,
    )
    model = EncoderModel.initialize(config, 12)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 12, size=(batch, length))
    lengths = data.draw(st.lists(st.integers(1, length), min_size=batch, max_size=batch))
    mask = (np.arange(length) < np.array(lengths)[:, None]).astype(np.float64)
    cls, cache = forward(model, ids, mask)
    train_cls, train_cache = forward(model, ids, mask, train=True)
    assert cache is None and len(train_cache["layers"]) == num_layers
    assert cls.tobytes() == train_cls.tobytes()


def _two_copy_unheads(heads, slots):
    """The reference gather: a transpose-reshape copy, then the slots' rows."""
    batch, num_heads, length, dk = heads.shape
    return heads.transpose(0, 2, 1, 3).reshape(batch * length, num_heads * dk)[slots]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_unheads_equals_the_two_copy_gather(shape, seed, data):
    heads = np.random.default_rng(seed).standard_normal(shape)
    slots = np.array(sorted(data.draw(st.sets(st.integers(0, shape[0] * shape[2] - 1)))), dtype=np.int64)
    got = encoder_mod._unheads(heads, slots)
    want = _two_copy_unheads(heads, slots)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_unheads_equals_the_two_copy_gather_in_every_caller(monkeypatch):
    config = EncoderConfig(hidden_size=16, num_layers=2, num_heads=2, max_len=12, dropout=0.1)
    model = EncoderModel.initialize(config, 30)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 30, size=(4, 12))
    mask = (np.arange(12) < rng.integers(2, 13, size=(4, 1))).astype(float)
    one_gather, calls = encoder_mod._unheads, []

    def checked(heads, slots):
        got, want = one_gather(heads, slots), _two_copy_unheads(heads, slots)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        calls.append(len(slots))
        return got

    monkeypatch.setattr(encoder_mod, "_unheads", checked)
    _, cache = forward(model, ids, mask, train=True, dropout_rng=np.random.default_rng(7))
    backward(model, cache, rng.standard_normal((4, 16)))
    forward(model, ids, mask)
    # Per layer: the context in each forward, and d q, d k and d v in backward.
    real, cls_rows = int(mask.sum()), 4
    assert calls == [real, cls_rows, cls_rows, real, real, real, real, real, real, cls_rows]


def _two_erf_gelu(x):
    return 0.5 * x * (1.0 + encoder_mod.erf(x / np.sqrt(2.0)))


def _two_erf_gelu_grad(x):
    phi = 0.5 * (1.0 + encoder_mod.erf(x / np.sqrt(2.0)))
    return phi + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


class TestGelu:
    """gelu returns Phi(x) for gelu_grad to reuse. Scaling by 0.5 is exact, so
    the one-erf form is bitwise the two-erf reference formulas."""

    def test_bitwise_equal_to_reference_formulas(self):
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [np.linspace(-40.0, 40.0, 20001), 3.0 * rng.standard_normal(20000), [0.0, 1e-8, -1e-8]]
        )
        mid, phi = gelu(x)
        assert np.array_equal(mid, _two_erf_gelu(x))
        assert np.array_equal(gelu_grad(x, phi), _two_erf_gelu_grad(x))
        in_place = x.copy()
        assert gelu(in_place, out=in_place)[0] is in_place
        assert in_place.tobytes() == mid.tobytes()

    def test_forward_and_backward_bitwise_unchanged(self, monkeypatch):
        config = EncoderConfig(hidden_size=16, num_layers=2, num_heads=2, max_len=12, dropout=0.1)
        model = EncoderModel.initialize(config, 30)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 30, size=(4, 12))
        mask = (np.arange(12) < rng.integers(2, 13, size=(4, 1))).astype(float)
        d_cls = rng.standard_normal((4, 16))

        def run():
            cls, cache = forward(model, ids, mask, train=True, dropout_rng=np.random.default_rng(7))
            for layer in cache["layers"]:
                assert np.array_equal(layer["mid_pre"] * layer["phi"], _two_erf_gelu(layer["mid_pre"]))
            return cls, backward(model, cache, d_cls)

        cls, grads = run()
        monkeypatch.setattr(
            encoder_mod,
            "gelu",
            lambda x: (_two_erf_gelu(x), 0.5 * (1.0 + encoder_mod.erf(x / np.sqrt(2.0)))),
        )
        monkeypatch.setattr(encoder_mod, "gelu_grad", lambda x, phi: _two_erf_gelu_grad(x))
        ref_cls, ref_grads = run()
        assert cls.tobytes() == ref_cls.tobytes()
        for name in grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name


class TestInit:
    def test_reproducible_bit_for_bit(self):
        a = tiny_model(seed=5)
        b = tiny_model(seed=5)
        assert param_bytes(a) == param_bytes(b)

    def test_seed_changes_params(self):
        assert param_bytes(tiny_model(seed=1)) != param_bytes(tiny_model(seed=2))

    def test_truncated_normal_bounds(self):
        model = tiny_model()
        w = model.params["layer0.attn.wq"]
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12

    def test_layer_norm_init(self):
        model = tiny_model()
        assert np.all(model.params["layer0.ln1.gain"] == 1.0)
        assert np.all(model.params["layer0.ln1.bias"] == 0.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        model = tiny_model(vocab_size=vocab.size)
        head = ClassifierHead.initialize(8, seed=3)
        path = tmp_path / "m.ckpt"
        meta = {"language": "tr", "seed": 5, "normalize": True}
        save_checkpoint(path, model, vocab, head, meta=meta)
        ckpt = load_checkpoint(path)
        assert ckpt.model.config == model.config
        assert ckpt.vocab.token_to_id == vocab.token_to_id
        assert ckpt.meta == meta
        assert param_bytes(ckpt.model) == param_bytes(model)
        assert ckpt.head.w.tobytes() == head.w.tobytes()
        assert ckpt.head.b.tobytes() == head.b.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        model = tiny_model(vocab_size=vocab.size)
        head = ClassifierHead.initialize(8, seed=3)
        save_checkpoint(tmp_path / "a.ckpt", model, vocab, head, meta=META)
        save_checkpoint(tmp_path / "b.ckpt", model, vocab, head, meta=META)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        old, new = tiny_model(0, vocab_size=vocab.size), tiny_model(1, vocab_size=vocab.size)
        head = ClassifierHead.initialize(8, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, old, vocab, head, meta=META)
        saved = path.read_bytes()
        tear_writes(monkeypatch, len(saved) // 2)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, new, vocab, head, meta=META)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert param_bytes(load_checkpoint(path).model) == param_bytes(old)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_missing_or_misshapen_parameters_are_rejected(self, tmp_path):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        head = ClassifierHead.initialize(8, seed=3)
        model = tiny_model(vocab_size=vocab.size)
        del model.params["pos_emb"]
        save_checkpoint(tmp_path / "m.ckpt", model, vocab, head, meta=META)
        with pytest.raises(ValueError, match=r"m.ckpt: bad checkpoint: missing tensors model.pos_emb"):
            load_checkpoint(tmp_path / "m.ckpt")
        model = tiny_model(vocab_size=vocab.size + 1)
        save_checkpoint(tmp_path / "m.ckpt", model, vocab, head, meta=META)
        with pytest.raises(ValueError, match=r"tensor model.tok_emb is \[7, 8\] float64, not \[6, 8\]"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_version_1_is_rejected_with_a_hint_to_retrain(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"OFFLANG1" + (10).to_bytes(8, "little") + b'{"version": 1}')
        with pytest.raises(ValueError, match="old.ckpt: bad checkpoint: version 1 .* train again"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_size=10, num_heads=3)
        with pytest.raises(ValueError):
            EncoderConfig(dropout=1.0)
        with pytest.raises(ValueError):
            EncoderConfig(max_len=1)
