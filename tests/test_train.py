import math

import numpy as np
import pytest

from helpers import ForwardRecorder, gradient_check, random_batch, random_gradcheck_model

import offlang.train as train_mod
from offlang.corpus import Corpus, Label
from offlang.datagen import separable_toy_corpus, toy_encoder_config, toy_train_config
from offlang.encoder import EncoderModel, build_vocab
from offlang.errors import DivergenceError, EmptyCorpus
from offlang.evaluation import predict_labels
from offlang.train import (
    FEATURE_BATCH,
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    load_train_checkpoint,
    save_train_checkpoint,
    train_dual,
    train_single,
)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = cross_entropy_loss(np.zeros(2), Label.OFF)
        assert loss == pytest.approx(math.log(2), rel=1e-12)
        assert grad == pytest.approx([-0.5, 0.5])

    def test_saturated(self):
        loss, _ = cross_entropy_loss(np.array([30.0, -30.0]), Label.OFF)
        assert loss < 1e-12

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            logits = rng.normal(scale=5.0, size=2)
            label = Label.OFF if rng.random() < 0.5 else Label.NOT
            _, grad = cross_entropy_loss(logits, label)
            assert abs(grad.sum()) < 1e-12

    def test_loss_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            loss, _ = cross_entropy_loss(rng.normal(scale=10.0, size=2), Label.NOT)
            assert loss >= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([np.inf, 0.0]), Label.OFF)


class TestAdamStep:
    def test_hand_evaluated_first_step(self):
        params = {"p": np.array([0.0])}
        grads = {"p": np.array([1.0])}
        state = AdamState.init_like(params)
        adam_step(params, grads, state, lr=2e-5)
        assert state.t == 1
        assert state.m["p"][0] == pytest.approx(0.1, rel=1e-12)
        assert state.v["p"][0] == pytest.approx(0.001, rel=1e-12)
        # bias-corrected step == lr * 1 / (1 + eps)
        assert params["p"][0] == pytest.approx(-2e-5, rel=1e-6)

    def test_zero_gradient_on_fresh_state(self):
        params = {"p": np.array([1.5])}
        state = AdamState.init_like(params)
        adam_step(params, {"p": np.array([0.0])}, state, lr=1e-2)
        assert params["p"][0] == 1.5

    def test_momentum_decays_after_nonzero_step(self):
        params = {"p": np.array([0.0])}
        state = AdamState.init_like(params)
        adam_step(params, {"p": np.array([1.0])}, state, lr=2e-5)
        p_after_1 = params["p"][0]
        m_after_1 = state.m["p"][0]
        adam_step(params, {"p": np.array([0.0])}, state, lr=2e-5)
        assert state.m["p"][0] == pytest.approx(0.9 * m_after_1, rel=1e-12)
        assert params["p"][0] < p_after_1  # still moving on momentum
        adam_step(params, {"p": np.array([0.0])}, state, lr=2e-5)
        assert state.m["p"][0] == pytest.approx(0.81 * m_after_1, rel=1e-12)

    def test_shape_mismatch(self):
        params = {"p": np.zeros(3)}
        state = AdamState.init_like(params)
        with pytest.raises(ValueError):
            adam_step(params, {"p": np.zeros(4)}, state, lr=1e-3)


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
            train_single(Corpus("en", "train", []), model, vocab, config)

    def test_bitwise_determinism(self):
        corpus, vocab, model, config = trained_toy(seed=2)
        a = train_single(corpus, model, vocab, config)
        b = train_single(corpus, model, vocab, config)
        assert a.model.param_bytes() == b.model.param_bytes()
        assert a.head.w.tobytes() == b.head.w.tobytes()
        assert a.loss_trace == b.loss_trace

    def test_input_model_not_mutated(self):
        corpus, vocab, model, config = trained_toy(seed=3)
        before = model.param_bytes()
        train_single(corpus, model, vocab, config)
        assert model.param_bytes() == before

    def test_divergence_guard(self):
        corpus, vocab, model, config = trained_toy(seed=4)
        config.learning_rate = 1e4
        with pytest.raises(DivergenceError):
            train_single(corpus, model, vocab, config)

    def test_freeze_encoders_keeps_encoder_bytes(self):
        corpus, vocab, model, config = trained_toy(seed=5)
        config.freeze_encoders = True
        result = train_single(corpus, model, vocab, config)
        assert result.model.param_bytes() == model.param_bytes()

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
        assert head.input_dim == 2 * model_a.config.hidden_size

    def test_encoders_frozen(self):
        corpus, vocab, model_a, model_b, config = self.setup_models(seed=1)
        bytes_a = model_a.param_bytes()
        bytes_b = model_b.param_bytes()
        train_dual(corpus, model_a, model_b, vocab, config)
        assert model_a.param_bytes() == bytes_a
        assert model_b.param_bytes() == bytes_b

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
            frozen = TrainConfig(
                language=config.language, epochs=config.epochs, batch_size=config.batch_size,
                learning_rate=config.learning_rate, seed=config.seed, freeze_encoders=True,
            )
            single = train_single(corpus, model_a, vocab, frozen)
            preds = predict_labels(single.model, single.head, vocab, corpus.texts())
            singles.append(sum(p == g for p, g in zip(preds, corpus.labels())) / len(corpus))

            head, _ = train_dual(corpus, model_a, model_a.copy(), vocab, frozen)
            preds = predict_labels(model_a, head, vocab, corpus.texts(), second_model=model_a)
            duals.append(sum(p == g for p, g in zip(preds, corpus.labels())) / len(corpus))
        assert abs(median(singles) - median(duals)) <= 0.02

    def test_joint_mode_updates_encoder_copies(self):
        corpus, vocab, model_a, model_b, config = self.setup_models(seed=4)
        result = train_dual(corpus, model_a, model_b, vocab, config, joint=True)
        assert result.model_a.param_bytes() != model_a.param_bytes()
        assert result.model_b.param_bytes() != model_b.param_bytes()
        # inputs untouched
        assert model_a.param_bytes() == self.setup_models(seed=4)[2].param_bytes()


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

    def test_frozen_features(self, recorder):
        corpus, vocab, model, config = trained_toy(epochs=1)
        config.freeze_encoders = True
        train_single(corpus, model, vocab, config)
        recorder.assert_per_batch(FEATURE_BATCH)
        assert [(rows, train) for rows, _, _, train in recorder.calls] == [
            (FEATURE_BATCH, False),
            (len(corpus) - FEATURE_BATCH, False),
        ]

    @pytest.mark.parametrize("joint", [False, True])
    def test_train_dual(self, recorder, joint):
        corpus, vocab, model, config = trained_toy(epochs=1)
        model_b = EncoderModel.initialize(model.config, vocab.size)
        train_dual(corpus, model, model_b, vocab, config, joint=joint)
        recorder.assert_per_batch(config.batch_size if joint else FEATURE_BATCH)
        assert sum(rows for rows, *_ in recorder.calls) == 2 * len(corpus)


class TestTrainCheckpoint:
    def test_round_trip_with_adam(self, tmp_path):
        corpus, vocab, model, config = trained_toy(seed=7, epochs=1)
        result = train_single(corpus, model, vocab, config)
        adam = AdamState.init_like({"head.w": result.head.w, "head.b": result.head.b})
        adam.t = 5
        path = tmp_path / "t.ckpt"
        save_train_checkpoint(
            path, result.model, vocab, result.head, adam=adam, meta={"language": "en"}
        )
        loaded = load_train_checkpoint(path)
        assert loaded.model.param_bytes() == result.model.param_bytes()
        assert np.array_equal(loaded.head.w, result.head.w)
        assert loaded.adam.t == 5
        assert set(loaded.adam.m) == {"head.w", "head.b"}
        assert loaded.meta["language"] == "en"
