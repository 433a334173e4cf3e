import numpy as np
import pytest
from scipy.special import erf

from helpers import ZERO_GRADIENT_FLOOR

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
    attention_maps,
    backward,
    build_vocab,
    dual_encode,
    encode,
    encode_corpus,
    forward,
    gelu,
    gelu_grad,
    load_checkpoint,
    save_checkpoint,
    tokenize,
    tokenize_encode,
)
from offlang.errors import EmptyCorpus


def corpus_of(texts):
    return Corpus(
        "en", "train", [LabeledExample(str(i), t, Label.NOT) for i, t in enumerate(texts)]
    )


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
        assert vocab.id_of("zebra") == UNK_ID

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab(corpus_of([]), TINY)

    def test_tsv_round_trip(self, tmp_path):
        vocab = build_vocab(corpus_of(["a b", "a c"]), TINY)
        vocab.to_tsv(tmp_path / "v.tsv")
        again = Vocabulary.from_tsv(tmp_path / "v.tsv")
        assert again.token_to_id == vocab.token_to_id


class TestTokenizeEncode:
    def test_layout(self):
        vocab = build_vocab(corpus_of(["a b"]), TINY)
        seq = tokenize_encode("a b", vocab, max_len=8)
        a, b = vocab.id_of("a"), vocab.id_of("b")
        assert seq.ids.tolist() == [CLS_ID, a, b, SEP_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        assert seq.mask.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_empty_string(self):
        vocab = build_vocab(corpus_of(["a"]), TINY)
        seq = tokenize_encode("", vocab, max_len=8)
        assert seq.ids.tolist()[:2] == [CLS_ID, SEP_ID]
        assert seq.mask.sum() == 2

    def test_truncation_keeps_head_and_sep(self):
        vocab = build_vocab(corpus_of(["w"]), TINY)
        text = " ".join(f"tok{i}" for i in range(200))
        seq = tokenize_encode(text, vocab, max_len=128)
        assert len(seq.ids) == 128
        assert seq.ids[0] == CLS_ID
        assert seq.ids[127] == SEP_ID
        assert seq.mask.sum() == 128


class TestEncodeCorpus:
    def test_pads_to_longest_row(self):
        vocab = build_vocab(corpus_of(["a b c"]), TINY)
        ids, mask = encode_corpus(["a", "a b c", ""], vocab, max_len=8)
        a, b, c = (vocab.id_of(t) for t in "abc")
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
        ids, mask = encode_corpus(["w", long_text], vocab, max_len=128)
        assert ids.shape == mask.shape == (2, 128)
        assert ids[1, 0] == CLS_ID and ids[1, 127] == SEP_ID
        assert mask[1].sum() == 128
        assert mask[0].sum() == 3


def tiny_model(seed=0, vocab_size=12):
    config = EncoderConfig(
        hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
        max_len=8, vocab_cap=50, dropout=0.0, init_seed=seed,
    )
    return EncoderModel.initialize(config, vocab_size)


class TestForward:
    def test_output_length(self):
        model = tiny_model()
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a", "b"])
        vec = encode(model, tokenize_encode("a b", vocab, 8))
        assert vec.shape == (8,)
        assert np.all(np.isfinite(vec))

    def test_padding_invariance(self):
        model = tiny_model()
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a", "b"])
        short = encode(model, tokenize_encode("a b", vocab, 5))
        long = encode(model, tokenize_encode("a b", vocab, 8))
        assert np.allclose(short, long, atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, size=(3, 8))
        mask = np.ones((3, 8))
        mask[:, 6:] = 0.0
        for probs in attention_maps(model, ids, mask):
            sums = probs.sum(axis=-1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_pad_positions_get_zero_attention(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 12, size=(2, 8))
        mask = np.ones((2, 8))
        mask[:, 5:] = 0.0
        for probs in attention_maps(model, ids, mask):
            assert probs[:, :, :, 5:].max() < 1e-9

    def test_deterministic_inference(self):
        model = tiny_model()
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        seq = tokenize_encode("a a a", vocab, 8)
        assert np.array_equal(encode(model, seq), encode(model, seq))

    def test_out_of_range_id_rejected(self):
        model = tiny_model(vocab_size=6)
        ids = np.full((1, 8), 7, dtype=np.int64)
        with pytest.raises(ValueError):
            from offlang.encoder import forward

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
        ids, mask = encode_corpus(texts, vocab, config.max_len)
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
        cls, cache_trimmed = forward(model, *trimmed)
        _, cache_padded = forward(model, *padded)
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


def _two_erf_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _two_erf_gelu_grad(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


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
            encoder_mod, "gelu", lambda x: (_two_erf_gelu(x), 0.5 * (1.0 + erf(x / np.sqrt(2.0))))
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
        assert a.param_bytes() == b.param_bytes()

    def test_seed_changes_params(self):
        assert tiny_model(seed=1).param_bytes() != tiny_model(seed=2).param_bytes()

    def test_truncated_normal_bounds(self):
        model = tiny_model()
        w = model.params["layer0.attn.wq"]
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12

    def test_layer_norm_init(self):
        model = tiny_model()
        assert np.all(model.params["layer0.ln1.gain"] == 1.0)
        assert np.all(model.params["layer0.ln1.bias"] == 0.0)


class TestDualEncode:
    def make(self, seed):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a", "b"])
        return tiny_model(seed, vocab_size=vocab.size), vocab

    def test_concatenation_length(self):
        model_a, vocab = self.make(1)
        model_b, _ = self.make(2)
        seq = tokenize_encode("a b", vocab, 8)
        assert dual_encode(model_a, model_b, seq).shape == (16,)

    def test_same_model_halves_equal(self):
        model, vocab = self.make(1)
        seq = tokenize_encode("a b", vocab, 8)
        vec = dual_encode(model, model, seq)
        assert np.array_equal(vec[:8], vec[8:])

    def test_swap_order_swaps_halves(self):
        model_a, vocab = self.make(1)
        model_b, _ = self.make(2)
        seq = tokenize_encode("a b", vocab, 8)
        ab = dual_encode(model_a, model_b, seq)
        ba = dual_encode(model_b, model_a, seq)
        assert np.array_equal(ab[:8], ba[8:])
        assert np.array_equal(ab[8:], ba[:8])
        assert np.linalg.norm(ab) == pytest.approx(np.linalg.norm(ba))

    def test_mismatched_configs_rejected(self):
        model_a, vocab = self.make(1)
        other = EncoderConfig(
            hidden_size=8, num_layers=1, num_heads=2, max_len=6, vocab_cap=50, dropout=0.0
        )
        model_b = EncoderModel.initialize(other, vocab.size)
        with pytest.raises(ValueError):
            dual_encode(model_a, model_b, tokenize_encode("a", vocab, 8))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        model = tiny_model(vocab_size=vocab.size)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab, meta={"language": "tr"})
        ckpt = load_checkpoint(path)
        assert ckpt.config == model.config
        assert ckpt.vocab.token_to_id == vocab.token_to_id
        assert ckpt.meta["language"] == "tr"
        restored = ckpt.model()
        assert restored.param_bytes() == model.param_bytes()

    def test_deterministic_bytes(self, tmp_path):
        vocab = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "<user>", "a"])
        model = tiny_model(vocab_size=vocab.size)
        save_checkpoint(tmp_path / "a.ckpt", model, vocab)
        save_checkpoint(tmp_path / "b.ckpt", model, vocab)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

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
