import math
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRADCHECK_CONFIG,
    ForwardRecorder,
    drop_head,
    gradient_check,
    param_bytes,
    random_batch,
    random_gradcheck_model,
)

import offlang.encoder as encoder_mod
import offlang.train as train_mod
from offlang.corpus import Corpus, Label
from offlang.datagen import separable_toy_corpus, toy_encoder_config, toy_train_config
from offlang.encoder import EncoderModel, build_vocab
from offlang.errors import DivergenceError, EmptyCorpus
from offlang.evaluation import predict_labels
from offlang.train import (
    BETA1,
    BETA2,
    EPS,
    FEATURE_BATCH,
    AdamState,
    ClassifierHead,
    TrainConfig,
    _batch_cross_entropy,
    _check_divergence,
    adam_step,
    frozen_features,
    label_ids,
    label_index,
    load_checkpoint,
    save_checkpoint,
    train_dual,
    train_head,
    train_single,
)


def one_row(logits, label: Label):
    return _batch_cross_entropy(np.array([logits], dtype=np.float64), np.array([label_index(label)]))


def random_logits(rng, n, scale):
    return rng.normal(scale=scale, size=(n, 2)), rng.integers(0, 2, size=n)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = one_row([0.0, 0.0], Label.OFF)
        assert loss == pytest.approx(math.log(2), rel=1e-12)
        assert grad[0] == pytest.approx([-0.5, 0.5])
        # A batch averages: the same loss, each row's gradient divided by n.
        labels = np.array([0, 1, 1, 0])
        loss, grad = _batch_cross_entropy(np.zeros((4, 2)), labels)
        assert loss == pytest.approx(math.log(2), rel=1e-12)
        expected = np.full((4, 2), 0.5)
        expected[np.arange(4), labels] = -0.5
        assert grad == pytest.approx(expected / 4)

    def test_saturated(self):
        loss, _ = one_row([30.0, -30.0], Label.OFF)
        assert loss < 1e-12
        loss, _ = _batch_cross_entropy(np.array([[30.0, -30.0], [-30.0, 30.0]]), np.array([0, 1]))
        assert loss < 1e-12

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            logits = rng.normal(scale=5.0, size=2)
            label = Label.OFF if rng.random() < 0.5 else Label.NOT
            _, grad = one_row(logits, label)
            assert abs(grad.sum()) < 1e-12
        _, grad = _batch_cross_entropy(*random_logits(rng, 100, 5.0))
        assert np.abs(grad.sum(axis=1)).max() < 1e-12

    def test_loss_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            loss, _ = one_row(rng.normal(scale=10.0, size=2), Label.NOT)
            assert loss >= 0.0
        loss, _ = _batch_cross_entropy(*random_logits(rng, 100, 10.0))
        assert loss >= 0.0

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"):
            loss, _ = one_row([np.inf, 0.0], Label.OFF)
        with pytest.raises(DivergenceError):
            _check_divergence(loss, epoch=0, batch=0)


class TestAdamStep:
    def test_hand_evaluated_first_step(self):
        params = np.array([0.0])
        grads = np.array([1.0])
        state = AdamState(np.zeros_like(params), np.zeros_like(params))
        adam_step(params, grads, state, lr=2e-5)
        assert state.t == 1
        assert state.m[0] == pytest.approx(0.1, rel=1e-12)
        assert state.v[0] == pytest.approx(0.001, rel=1e-12)
        # bias-corrected step == lr * 1 / (1 + eps)
        assert params[0] == pytest.approx(-2e-5, rel=1e-6)

    def test_zero_gradient_on_fresh_state(self):
        params = np.array([1.5])
        state = AdamState(np.zeros_like(params), np.zeros_like(params))
        adam_step(params, np.array([0.0]), state, lr=1e-2)
        assert params[0] == 1.5

    def test_momentum_decays_after_nonzero_step(self):
        params = np.array([0.0])
        state = AdamState(np.zeros_like(params), np.zeros_like(params))
        adam_step(params, np.array([1.0]), state, lr=2e-5)
        p_after_1 = params[0]
        m_after_1 = state.m[0]
        adam_step(params, np.array([0.0]), state, lr=2e-5)
        assert state.m[0] == pytest.approx(0.9 * m_after_1, rel=1e-12)
        assert params[0] < p_after_1  # still moving on momentum
        adam_step(params, np.array([0.0]), state, lr=2e-5)
        assert state.m[0] == pytest.approx(0.81 * m_after_1, rel=1e-12)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = AdamState(np.zeros_like(params), np.zeros_like(params))
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(4), state, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step(params.reshape(3, 1), np.zeros((3, 1)), state, lr=1e-3)


def per_tensor_adam_step(params, grads, state, lr):
    """The reference: Adam over a dict of named tensors, one tensor at a time."""
    state.t += 1
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * grad
        v *= BETA2
        v += (1 - BETA2) * grad * grad
        m_hat = m / (1 - BETA1**state.t)
        v_hat = v / (1 - BETA2**state.t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + EPS)


ADAM_VALUES = st.floats(-1e3, 1e3) | st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, -1e-310]
)


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=4),
    steps=st.integers(1, 4),
    block=st.sampled_from([1, 2, 7, train_mod.BLOCK]),
    lr=st.sampled_from([2e-5, 1e-2, 0.5]),
    data=st.data(),
)
def test_flat_adam_matches_the_per_tensor_form_bit_for_bit(shapes, steps, block, lr, data):
    def draw(shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(ADAM_VALUES, min_size=size, max_size=size))).reshape(shape)

    def flat(tensors):
        return np.concatenate([t.ravel() for t in tensors.values()])

    names = [f"t{i}" for i in range(len(shapes))]
    ref_params = {name: draw(shape) for name, shape in zip(names, shapes)}
    ref_state = SimpleNamespace(
        m={n: np.zeros_like(p) for n, p in ref_params.items()},
        v={n: np.zeros_like(p) for n, p in ref_params.items()},
        t=0,
    )
    params = flat(ref_params)
    state = AdamState(np.zeros_like(params), np.zeros_like(params))
    with mock.patch.object(train_mod, "BLOCK", block), np.errstate(over="ignore"):
        for _ in range(steps):
            grads = {name: draw(shape) for name, shape in zip(names, shapes)}
            per_tensor_adam_step(ref_params, grads, ref_state, lr)
            adam_step(params, flat(grads), state, lr)
    assert state.t == ref_state.t == steps
    for got, want in ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)):
        assert got.tobytes() == flat(want).tobytes()


def one_buffer(arrays):
    """Whether the arrays are views that together tile one buffer."""
    base = arrays[0].base
    return (
        base is not None
        and all(a.base is base and np.shares_memory(a, base) for a in arrays)
        and sum(a.size for a in arrays) == base.size
    )


class TestTrainConfig:
    def test_language_defaults(self):
        expected = {"en": (8, 2e-5), "da": (16, 1e-5), "ar": (24, 3e-5), "el": (32, 2e-5), "tr": (16, 2e-5)}
        for lang, (bs, lr) in expected.items():
            config = TrainConfig(language=lang)
            assert (config.batch_size, config.learning_rate) == (bs, lr)
            assert config.epochs == 4

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ValueError):
            TrainConfig(language="en", epochs=0)

    def test_unknown_language_needs_explicit_values(self):
        with pytest.raises(ValueError):
            TrainConfig(language="xx")
        config = TrainConfig(language="xx", batch_size=4, learning_rate=1e-3)
        assert config.batch_size == 4


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        model, head = random_gradcheck_model(seed=0)
        rng = np.random.default_rng(100)
        ids, mask, y = random_batch(rng)
        errors = gradient_check(model, head, ids, mask, y)
        assert set(errors) == set(model.params) | {"head.w", "head.b"}
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_two_layers_match_finite_differences(self):
        # With one layer, the only layer is the [CLS]-query last layer; a
        # second layer also checks a layer that queries every real token.
        config = replace(GRADCHECK_CONFIG, num_layers=2)
        rng = np.random.default_rng(200)
        for seed in range(3):
            model, head = random_gradcheck_model(seed, config)
            ids, mask, y = random_batch(rng, config=config)
            errors = gradient_check(model, head, ids, mask, y)
            assert set(errors) == set(model.params) | {"head.w", "head.b"}
            for name, err in errors.items():
                assert err < 1e-4, f"seed {seed} tensor {name}: {err:.2e}"


def trained_toy(seed=0, epochs=4, dropout=0.1):
    corpus = separable_toy_corpus(200, seed=seed)
    encoder_config = toy_encoder_config(seed=seed, dropout=dropout)
    train_config = toy_train_config(seed=seed, epochs=epochs)
    vocab = build_vocab(corpus, encoder_config)
    model = EncoderModel.initialize(encoder_config, vocab.size)
    return corpus, vocab, model, train_config


class TestTrainSingle:
    def test_toy_corpus_reaches_perfect_accuracy(self):
        corpus, vocab, model, config = trained_toy(seed=1)
        result = train_single(corpus, model, vocab, config)
        assert result.loss_trace[-1] < 0.1
        preds = predict_labels(result.model, result.head, vocab, corpus.texts())
        accuracy = sum(p == g for p, g in zip(preds, corpus.labels())) / len(corpus)
        assert accuracy == 1.0

    def test_empty_corpus(self):
        _, vocab, model, config = trained_toy()
        with pytest.raises(EmptyCorpus):
            train_single(Corpus("en", []), model, vocab, config)

    def test_bitwise_determinism(self):
        corpus, vocab, model, config = trained_toy(seed=2)
        a = train_single(corpus, model, vocab, config)
        b = train_single(corpus, model, vocab, config)
        assert param_bytes(a.model) == param_bytes(b.model)
        assert a.head.w.tobytes() == b.head.w.tobytes()
        assert a.loss_trace == b.loss_trace

    def test_overflow_is_a_divergence_of_its_batch(self):
        # Adam's first step at lr=1e300 makes the next forward pass overflow.
        corpus, vocab, model, config = trained_toy(seed=0, epochs=1)
        errors = np.geterr()
        with pytest.raises(DivergenceError, match="at epoch 0 batch 1: overflow encountered in"):
            train_single(corpus, model, vocab, replace(config, learning_rate=1e300))
        assert np.geterr() == errors

    def test_input_model_not_mutated(self):
        corpus, vocab, model, config = trained_toy(seed=3)
        before = param_bytes(model)
        train_single(corpus, model, vocab, config)
        assert param_bytes(model) == before

    def test_params_and_head_are_views_of_one_buffer(self):
        corpus, vocab, model, config = trained_toy(seed=3, epochs=1)
        before = param_bytes(model)
        result = train_single(corpus, model, vocab, config)
        arrays = [result.head.w, result.head.b, *result.model.params.values()]
        assert one_buffer(arrays)
        assert not any(np.shares_memory(arrays[0].base, p) for p in model.params.values())
        assert result.model.params.keys() == model.params.keys()
        assert param_bytes(model) == before

    def test_divergence_guard(self):
        corpus, vocab, model, config = trained_toy(seed=4)
        config.learning_rate = 1e4
        with pytest.raises(DivergenceError):
            train_single(corpus, model, vocab, config)

    def test_each_batch_activations_are_freed_before_the_next_forward(self, monkeypatch):
        corpus, vocab, model, config = trained_toy(seed=5, epochs=2)
        forward = train_mod.forward
        earlier = []  # weak references to each batch's attention probabilities

        def checked_forward(*args, **kwargs):
            alive = sum(ref() is not None for ref in earlier)
            assert alive == 0, f"{alive} earlier batches' caches alive at forward {len(earlier)}"
            cls, cache = forward(*args, **kwargs)
            earlier.append(weakref.ref(cache["layers"][0]["probs"]))
            return cls, cache

        monkeypatch.setattr(train_mod, "forward", checked_forward)
        train_single(corpus, model, vocab, config)
        assert len(earlier) == 2 * math.ceil(len(corpus) / config.batch_size)

    def test_loss_trace_length(self):
        corpus, vocab, model, config = trained_toy(seed=6, epochs=3)
        result = train_single(corpus, model, vocab, config)
        assert len(result.loss_trace) == 3
        assert all(np.isfinite(l) for l in result.loss_trace)


class TestTrainDual:
    def setup_models(self, seed=0):
        corpus, vocab, model, config = trained_toy(seed=seed)
        result_a = train_single(corpus, model, vocab, config)
        model_b = EncoderModel.initialize(model.config, vocab.size)
        return corpus, vocab, result_a.model, model_b, config

    def test_head_dimension_is_2h(self):
        corpus, vocab, model_a, model_b, config = self.setup_models()
        head, _ = train_dual(corpus, model_a, model_b, vocab, config)
        assert head.w.shape[0] == 2 * model_a.config.hidden_size

    def test_encoders_frozen(self):
        corpus, vocab, model_a, model_b, config = self.setup_models(seed=1)
        bytes_a = param_bytes(model_a)
        bytes_b = param_bytes(model_b)
        train_dual(corpus, model_a, model_b, vocab, config)
        assert param_bytes(model_a) == bytes_a
        assert param_bytes(model_b) == bytes_b

    def test_loss_decreases_on_toy(self):
        corpus, vocab, model_a, model_b, config = self.setup_models(seed=2)
        _, trace = train_dual(corpus, model_a, model_b, vocab, config)
        assert all(np.isfinite(l) for l in trace)
        assert trace[-1] < trace[0]

    def test_duplicated_encoder_matches_single_head_accuracy(self):
        # With model_b a copy of model_a the dual features are redundant; the
        # median accuracies over 5 seeds should agree within 2 points.
        from statistics import median

        singles, duals = [], []
        for seed in range(5):
            corpus, vocab, model_a, _, config = self.setup_models(seed=seed)
            x = frozen_features(model_a, corpus.texts(), vocab)
            for accuracies, vectors in ((singles, x), (duals, np.concatenate([x, x], axis=1))):
                head, _ = train_head(vectors, label_ids(corpus), config)
                preds = head.predict(vectors)
                accuracies.append(sum(p == g for p, g in zip(preds, corpus.labels())) / len(corpus))
        assert abs(median(singles) - median(duals)) <= 0.02

    def test_train_head_w_and_b_are_views_of_one_buffer(self):
        rng = np.random.default_rng(0)
        vectors, y = rng.normal(size=(20, 6)), rng.integers(0, 2, size=20)
        before = vectors.tobytes()
        head, _ = train_head(vectors, y, toy_train_config(seed=0, epochs=1))
        assert one_buffer([head.w, head.b])
        assert vectors.tobytes() == before


class TestPerBatchEncoding:
    """Every forward call gets one batch, padded to that batch's longest real
    row, never the whole corpus at max_len."""

    @pytest.fixture()
    def recorder(self, monkeypatch):
        recorder = ForwardRecorder(train_mod.forward)
        monkeypatch.setattr(train_mod, "forward", recorder)
        return recorder

    def test_fine_tuning(self, recorder):
        corpus, vocab, model, config = trained_toy(epochs=1)
        train_single(corpus, model, vocab, config)
        recorder.assert_per_batch(config.batch_size)
        assert all(train for *_, train in recorder.calls)
        assert sum(rows for rows, *_ in recorder.calls) == len(corpus)
        assert len({length for _, length, _, _ in recorder.calls}) > 1

    def test_fine_tuning_tokenizes_each_text_once(self, monkeypatch):
        corpus = separable_toy_corpus(150, seed=0)
        encoder_config = toy_encoder_config()
        vocab = build_vocab(corpus, encoder_config)
        model = EncoderModel.initialize(encoder_config, vocab.size)
        tokenized, tokenize = [], encoder_mod.tokenize
        monkeypatch.setattr(encoder_mod, "tokenize", lambda t: tokenized.append(t) or tokenize(t))
        train_single(corpus, model, vocab, toy_train_config(epochs=3))
        assert len(tokenized) == 150
        assert sorted(tokenized) == sorted(corpus.texts())

    def test_frozen_features(self, recorder):
        corpus, vocab, model, _ = trained_toy(epochs=1)
        x = frozen_features(model, corpus.texts(), vocab)
        assert x.shape == (len(corpus), model.config.hidden_size)
        recorder.assert_per_batch(FEATURE_BATCH)
        assert [(rows, train) for rows, _, _, train in recorder.calls] == [
            (FEATURE_BATCH, False),
            (len(corpus) - FEATURE_BATCH, False),
        ]

    def test_train_dual(self, recorder):
        corpus, vocab, model, config = trained_toy(epochs=1)
        model_b = EncoderModel.initialize(model.config, vocab.size)
        train_dual(corpus, model, model_b, vocab, config)
        recorder.assert_per_batch(FEATURE_BATCH)
        assert not any(train for *_, train in recorder.calls)
        assert sum(rows for rows, *_ in recorder.calls) == 2 * len(corpus)


MISSING = object()  # a meta key left out


class TestTrainCheckpoint:
    META = {"language": "en", "seed": 7, "normalize": True}

    def test_round_trip(self, tmp_path):
        corpus, vocab, model, config = trained_toy(seed=7, epochs=1)
        result = train_single(corpus, model, vocab, config)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, result.model, vocab, result.head, meta=self.META)
        loaded = load_checkpoint(path)
        assert param_bytes(loaded.model) == param_bytes(result.model)
        assert loaded.vocab.token_to_id == vocab.token_to_id
        assert np.array_equal(loaded.head.w, result.head.w)
        assert np.array_equal(loaded.head.b, result.head.b)
        assert loaded.meta == self.META

    def test_missing_head_rejected(self, tmp_path):
        corpus, vocab, model, config = trained_toy(seed=7, epochs=1)
        path = tmp_path / "encoder_only.ckpt"
        head = ClassifierHead.initialize(model.config.hidden_size, 0)
        save_checkpoint(path, model, vocab, head, meta=self.META)
        drop_head(path)
        reason = "encoder_only.ckpt: bad checkpoint: missing tensors head.b, head.w for its config"
        with pytest.raises(ValueError, match=reason):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("language", MISSING, "the meta has no 'language' entry"),
            ("seed", MISSING, "the meta has no 'seed' entry"),
            ("normalize", MISSING, "the meta has no 'normalize' entry"),
            ("language", 5, "meta language must be a string, got 5"),
            ("language", None, "meta language must be a string, got None"),
            ("seed", -1, "meta seed must be an int >= 0, got -1"),
            ("seed", True, "meta seed must be an int >= 0, got True"),
            ("seed", 1.0, "meta seed must be an int >= 0, got 1.0"),
            ("seed", "0", "meta seed must be an int >= 0, got '0'"),
            ("normalize", "no", "meta normalize must be a bool, got 'no'"),
            ("normalize", 1, "meta normalize must be a bool, got 1"),
            ("normalize", None, "meta normalize must be a bool, got None"),
        ],
    )
    def test_bad_meta_rejected(self, tmp_path, key, value, reason):
        _, vocab, model, _ = trained_toy(seed=7, epochs=1)
        meta = {k: v for k, v in {**self.META, key: value}.items() if v is not MISSING}
        path = tmp_path / "m.ckpt"
        head = ClassifierHead.initialize(model.config.hidden_size, 0)
        save_checkpoint(path, model, vocab, head, meta=meta)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: bad checkpoint: {reason}"
