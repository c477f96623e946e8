import math

import numpy as np
import pytest

from figphm import neuralnet as nn
from figphm import phm
from figphm.corpus import NONPHM, PHM, PaddedSequence, build_vocab, pad
from figphm.embeddings import random_table
from figphm.figurative import (FIGURATIVE, LITERAL, FigurativeVerdict,
                               LinguisticFeatures)
from figphm.phm import (FeatAugModel, ModelConfig, build_feataug, build_phmd,
                        feataug_predict, feature_vector_length, load_model,
                        pipeline_predict, predict_phmd, save_model, train,
                        verdict_feature_vector)
from figphm.synthetic import separable_corpus


def small_config(**overrides):
    base = dict(max_sequence_length=8, filters=6, epochs=3, batch_size=16)
    base.update(overrides)
    return ModelConfig(**base)


def table_for(n_words, dim, seed=0):
    return random_table([f"w{i}" for i in range(n_words)], dim, seed=seed)


def seq_of(ids, max_len):
    padded = list(ids) + [0] * (max_len - len(ids))
    return PaddedSequence(padded, len(ids))


def make_verdict(label, score=0.9):
    return FigurativeVerdict(literal_score=score, label=label,
                             features=LinguisticFeatures.zeros())


class TestBuildPhmd:
    def test_parameter_count_closed_form(self):
        table = table_for(5, 50)  # |V| = 7 with reserved rows
        model = build_phmd(table, ModelConfig(max_sequence_length=50), seed=0)
        vocab_size = 7
        conv = (3 + 4 + 5) * 50 * 100 + 300
        dense = (48 // 2 + 47 // 2 + 46 // 2) * 100 + 1
        assert model.num_parameters() == vocab_size * 50 + conv + dense

    def test_same_seed_identical(self):
        table = table_for(4, 6)
        a = build_phmd(table, small_config(), seed=3)
        b = build_phmd(table, small_config(), seed=3)
        for pa, pb in zip(a.all_parameters(), b.all_parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        table = table_for(4, 6)
        a = build_phmd(table, small_config(), seed=3)
        b = build_phmd(table, small_config(), seed=4)
        assert not np.array_equal(a.dense_w.value, b.dense_w.value)

    def test_sequence_shorter_than_largest_kernel(self):
        with pytest.raises(ValueError, match="shorter than"):
            build_phmd(table_for(4, 6), ModelConfig(max_sequence_length=4), seed=0)

    def test_embedding_copied_row_for_row(self):
        table = table_for(4, 6, seed=9)
        model = build_phmd(table, small_config(), seed=0)
        assert np.array_equal(model.embedding.value, table.matrix)
        assert model.embedding.value is not table.matrix


class TestPredictPhmd:
    def test_probability_in_open_interval(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        pred = predict_phmd(model, seq_of([2, 3, 4], 8), doc_id="d1")
        assert 0.0 < pred.probability < 1.0
        assert pred.doc_id == "d1"

    def test_eval_deterministic(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        seq = seq_of([2, 3, 4, 5], 8)
        assert predict_phmd(model, seq).probability == \
            predict_phmd(model, seq).probability

    def test_threshold_at_half(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        model.dense_w.value[:] = 0.0
        model.dense_b.value[:] = math.log(0.49 / 0.51)
        pred = predict_phmd(model, seq_of([2], 8))
        assert pred.probability == pytest.approx(0.49, abs=1e-12)
        assert pred.label == NONPHM
        model.dense_b.value[:] = 0.0
        assert predict_phmd(model, seq_of([2], 8)).label == PHM  # 0.5 is PHM


class TestPipelinePredict:
    def test_figurative_bypasses_model(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        before = model.forward_count
        pred = pipeline_predict(make_verdict(FIGURATIVE, 0.05), model,
                                seq_of([2], 8), "d9")
        assert model.forward_count == before
        assert pred.label == NONPHM
        assert pred.probability == 0.0
        assert pred.figurative_label == FIGURATIVE

    def test_literal_delegates(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        model.dense_w.value[:] = 0.0
        for bias, expected in ((2.0, PHM), (-2.0, NONPHM)):
            model.dense_b.value[:] = bias
            pred = pipeline_predict(make_verdict(LITERAL), model, seq_of([2], 8))
            assert pred.label == expected
            assert pred.figurative_label == LITERAL


class TestFeatAug:
    def test_feature_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than right kernel"):
            build_feataug(table_for(4, 4), small_config(), seed=0, feature_length=1)

    def test_feature_length_mismatch_at_predict(self):
        model = build_feataug(table_for(4, 4), small_config(), seed=0,
                              feature_length=5)
        with pytest.raises(ValueError, match="feature vector"):
            feataug_predict(model, seq_of([2], 8), np.zeros(7))

    def test_eval_deterministic(self):
        model = build_feataug(table_for(4, 4), small_config(), seed=0)
        verdict = make_verdict(LITERAL, 0.7)
        seq = seq_of([2, 3], 8)
        a = feataug_predict(model, seq, verdict)
        b = feataug_predict(model, seq, verdict)
        assert a.probability == b.probability
        assert a.figurative_label == LITERAL

    def test_zeroed_right_branch_equals_left_only_model(self):
        table = table_for(6, 5, seed=2)
        config = small_config(dropout_rates=(0.3, 0.1, 0.3))
        feataug = build_feataug(table, config, seed=7)
        phmd = build_phmd(table, config, seed=8)
        # share left parameters, silence the right branch and its head weights
        phmd.embedding.value[:] = feataug.embedding.value
        for bp, bf in zip(phmd.branches, feataug.branches):
            bp.kernels.value[:] = bf.kernels.value
            bp.bias.value[:] = bf.bias.value
        feataug.right.kernels.value[:] = 0.0
        feataug.right.bias.value[:] = 0.0
        left_flat = phmd.dense_w.value.shape[1]
        feataug.dense_w.value[:, left_flat:] = 0.0
        phmd.dense_w.value[:] = feataug.dense_w.value[:, :left_flat]
        phmd.dense_b.value[:] = feataug.dense_b.value

        seq = seq_of([2, 3, 4, 5, 2], 8)
        verdict = make_verdict(FIGURATIVE, 0.1)
        p_aug = feataug_predict(feataug, seq, verdict).probability
        p_base = predict_phmd(phmd, seq).probability
        assert abs(p_aug - p_base) < 1e-12

    def test_verdict_feature_vector_layout(self):
        verdict = make_verdict(FIGURATIVE, 0.12)
        vec = verdict_feature_vector(verdict, include_score=True)
        assert vec.shape == (feature_vector_length(True),)
        assert vec[0] == 1.0
        assert vec[-1] == pytest.approx(0.12)
        vec2 = verdict_feature_vector(make_verdict(LITERAL), include_score=False)
        assert vec2.shape == (feature_vector_length(False),)
        assert vec2[0] == 0.0


def _toy_corpus(model_len=8, n=24, seed=0):
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n):
        ids = rng.integers(2, 6, size=int(rng.integers(3, model_len))).tolist()
        corpus.append((seq_of(ids, model_len), PHM if i % 2 else NONPHM))
    return corpus


class TestTrain:
    def test_trace_deterministic(self):
        table = table_for(4, 4)
        corpus = _toy_corpus()
        a = train(build_phmd(table, small_config(), seed=1), corpus, seed=5)
        b = train(build_phmd(table, small_config(), seed=1), corpus, seed=5)
        assert a == b
        assert len(a) == small_config().epochs

    def test_trace_invariant_to_storage_order(self):
        table = table_for(4, 4)
        corpus = _toy_corpus()
        reordered = list(reversed(corpus))
        a = train(build_phmd(table, small_config(), seed=1), corpus, seed=5)
        b = train(build_phmd(table, small_config(), seed=1), reordered, seed=5)
        assert a == b

    def test_feataug_requires_verdicts(self):
        table = table_for(4, 4)
        model = build_feataug(table, small_config(), seed=1)
        with pytest.raises(ValueError, match="verdict"):
            train(model, _toy_corpus(), seed=5)

    def test_feataug_accepts_verdicts_and_vectors(self):
        table = table_for(4, 4)
        model = build_feataug(table, small_config(), seed=1)
        corpus = [(seq, label, make_verdict(LITERAL, 0.8))
                  for seq, label in _toy_corpus(n=8)]
        trace = train(model, corpus, epochs=1, seed=5)
        assert len(trace) == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(build_phmd(table_for(4, 4), small_config(), seed=1), [], seed=5)

    def test_single_example_step_decreases_loss(self):
        # one Adam step at small lr must reduce that example's loss
        for trial in range(5):
            table = table_for(6, 5, seed=trial)
            model = build_phmd(table, small_config(), seed=trial + 10)
            ids = np.random.default_rng(trial).integers(0, 8, size=8)
            y = trial % 2
            before = model.loss(ids, y)
            model.loss_and_grad(ids, y)
            nn.Adam(model.parameters(), lr=1e-4).step()
            assert model.loss(ids, y) < before

    def test_loss_trace_finite_and_decreasing_on_separable_data(self):
        docs = separable_corpus(60, seed=3)
        vocab = build_vocab(docs)
        table = random_table(sorted(vocab, key=vocab.get), 10, seed=4)
        config = small_config(max_sequence_length=10, epochs=8)
        model = build_phmd(table, config, seed=5)
        corpus = [(pad(d.tokens, vocab, 10), d.label) for d in docs]
        trace = train(model, corpus, seed=6)
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < trace[0]


class TestModelCheckpoint:
    def test_phmd_round_trip(self, tmp_path):
        table = table_for(5, 4)
        model = build_phmd(table, small_config(), seed=2)
        seq = seq_of([2, 3, 4], 8)
        expected = predict_phmd(model, seq).probability
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        assert loaded.kind == "phmd"
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert predict_phmd(loaded, seq).probability == expected

    def test_feataug_round_trip(self, tmp_path):
        table = table_for(5, 4)
        model = build_feataug(table, small_config(), seed=2)
        verdict = make_verdict(LITERAL, 0.6)
        seq = seq_of([2, 4], 8)
        expected = feataug_predict(model, seq, verdict).probability
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        assert isinstance(loaded, FeatAugModel)
        assert loaded.feature_length == model.feature_length
        assert feataug_predict(loaded, seq, verdict).probability == expected


class TestGoldenValues:
    """Parameter layout, seeded initialisation and the eval forward, pinned
    to values recorded before PHMD and FeatAug shared one CNN class. Any
    change to the declaration order, the RNG draw order or the eval forward
    shows here; float changes must stay within 1e-12."""

    CONV = [("embedding", (8, 5)),
            ("conv3_kernels", (3, 3, 5)), ("conv3_bias", (3,)),
            ("conv4_kernels", (3, 4, 5)), ("conv4_bias", (3,)),
            ("conv5_kernels", (3, 5, 5)), ("conv5_bias", (3,))]
    LAYOUT = {
        "phmd": CONV + [("dense_w", (1, 21)), ("dense_b", (1,))],
        "feataug": CONV + [("right_kernels", (3, 2, 1)), ("right_bias", (3,)),
                           ("dense_w", (1, 63)), ("dense_b", (1,))],
    }
    CONV_SUMS = [-0.11146155163294963, -1.651367112016358, 0.0,
                 -2.4795479573027843, 0.0, -2.7543565762611553, 0.0]
    PARAM_SUMS = {
        "phmd": CONV_SUMS + [1.469353062868758, 0.0],
        "feataug": CONV_SUMS + [0.19482592041525226, 0.0, -2.002211351590214, 0.0],
    }
    PROBABILITY = {"phmd": 0.5081460968188543, "feataug": 0.41441659685950255}

    @staticmethod
    def _model_and_inputs(kind):
        table = random_table([f"w{i}" for i in range(6)], 5, seed=7)
        config = ModelConfig(max_sequence_length=8, filters=3, init_bound=0.5)
        ids = np.array([2, 3, 4, 5, 6, 7, 0, 0], dtype=np.intp)
        if kind == "phmd":
            return build_phmd(table, config, seed=11), ids
        model = build_feataug(table, config, seed=11)
        return model, (ids, np.linspace(-0.5, 1.0, model.feature_length))

    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_parameter_layout_and_init(self, kind):
        model, _ = self._model_and_inputs(kind)
        params = model.all_parameters()
        assert [(p.name, p.value.shape) for p in params] == self.LAYOUT[kind]
        sums = [float(p.value.sum()) for p in params]
        assert sums == pytest.approx(self.PARAM_SUMS[kind], abs=1e-12)

    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_eval_forward(self, kind):
        model, inputs = self._model_and_inputs(kind)
        assert model.predict_proba(inputs) == pytest.approx(self.PROBABILITY[kind],
                                                            abs=1e-12)

    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_checkpoint_round_trip(self, kind, tmp_path):
        model, inputs = self._model_and_inputs(kind)
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        assert type(loaded) is type(model)
        assert [(p.name, p.value.shape) for p in loaded.all_parameters()] == \
            self.LAYOUT[kind]
        assert loaded.predict_proba(inputs) == pytest.approx(self.PROBABILITY[kind],
                                                             abs=1e-12)


def _golden_corpus():
    rng = np.random.default_rng(21)
    corpus = []
    for i in range(20):
        n = int(rng.integers(3, 9))
        ids = rng.integers(2, 11, size=n).tolist() + [0] * (8 - n)
        verdict = FigurativeVerdict(literal_score=float(rng.uniform()),
                                    label=FIGURATIVE if i % 3 == 0 else LITERAL,
                                    features=LinguisticFeatures.zeros())
        corpus.append((PaddedSequence(ids, n), PHM if i % 2 else NONPHM, verdict))
    return corpus


class TestTrainingGoldenValues:
    """Two epochs of minibatch training with dropout on (batch 7 over 20
    examples, so the last minibatch is partial), pinned to the loss trace
    and per-parameter sums that per-example training recorded. The batched
    path sums in another order, so the bound is 1e-9, not equality."""

    TRACE = {
        "phmd": [0.693144591507533, 0.6927719644256],
        "feataug": [0.6931839123480767, 0.6931547042063569],
        "frozen": [0.6931423311279556, 0.6927928799145198],
    }
    PARAM_SUMS = {
        "phmd": [0.02938737111180595, 0.06598021674886473, -0.0004071917409123782,
                 0.07370337980818097, -0.0012948754046902037, 0.1908141961006509,
                 0.0027368142237257035, 0.1257795800585061, 0.0017259389834890107],
        "feataug": [0.027238600963593526, 0.04093198542963452, -0.010841646109480161,
                    0.00472927044714693, 0.004147708101927767, 0.17915545668111582,
                    0.004313115569023266, 0.07921560725022017, -0.00026448542432252066,
                    0.3628563711605607, 0.0017268856941241274],
        "frozen": [0.014150958219182497, 0.06517431168211635, -0.000346353797998627,
                   0.07404872474150763, -0.0012336469395633188, 0.1919452313387691,
                   0.0030998867707445416, 0.12593040850806325, 0.0017261135174613423],
    }

    @pytest.mark.parametrize("one_example_passes", [False, True])
    @pytest.mark.parametrize("kind", ["phmd", "feataug", "frozen"])
    def test_trace_and_parameters(self, kind, one_example_passes, monkeypatch):
        if one_example_passes:
            monkeypatch.setattr(phm, "PASS_BYTES", 1)
        table = random_table([f"w{i}" for i in range(9)], 5, seed=22)
        config = ModelConfig(max_sequence_length=8, filters=4, batch_size=7,
                             trainable_embeddings=kind != "frozen")
        corpus = _golden_corpus()
        if kind == "feataug":
            model = build_feataug(table, config, seed=23)
        else:
            model = build_phmd(table, config, seed=23)
            corpus = [item[:2] for item in corpus]
        trace = train(model, corpus, epochs=2, seed=24)
        assert trace == pytest.approx(self.TRACE[kind], abs=1e-9)
        sums = [float(p.value.sum()) for p in model.all_parameters()]
        assert sums == pytest.approx(self.PARAM_SUMS[kind], abs=1e-9)
        assert model.forward_count == 2 * len(corpus)


def _batch_of(kind, size, seed=0):
    """A randomised model with every dropout rate above zero, and a batch."""
    rng = np.random.default_rng(seed)
    table = table_for(7, 4, seed=seed)
    config = small_config(dropout_rates=(0.2, 0.4, 0.5),
                          feataug_dropout_rates=(0.3, 0.1, 0.6))
    build = build_feataug if kind == "feataug" else build_phmd
    model = build(table, config, seed=seed + 1)
    for param in model.all_parameters():
        param.value[:] = rng.uniform(-1.0, 1.0, size=param.value.shape)
    ids = rng.integers(0, len(table.vocab), size=(size, 8))
    targets = rng.integers(0, 2, size=size)
    if kind == "feataug":
        return model, (ids, rng.uniform(0.0, 1.0, (size, model.feature_length))), targets
    return model, ids, targets


def _example(kind, inputs, i):
    return (inputs[0][i], inputs[1][i]) if kind == "feataug" else inputs[i]


class TestBatchedPath:
    @pytest.mark.parametrize("pass_size", [None, 2])
    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_batch_equals_single_examples_in_train_mode(self, kind, pass_size):
        model, inputs, targets = _batch_of(kind, 5)
        if pass_size is not None:
            model._pass_size = pass_size            # passes of 2, 2 and 1 examples
        batch_loss = model.loss_and_grad(inputs, targets, train=True,
                                         rng=np.random.default_rng(3), grad_scale=0.2)
        batch_grads = [p.grad.copy() for p in model.all_parameters()]

        rng = np.random.default_rng(3)
        model.zero_grad()
        single_loss = 0.0
        for i in range(5):
            single_loss += model.loss_and_grad(_example(kind, inputs, i), int(targets[i]),
                                               train=True, rng=rng, grad_scale=0.2,
                                               accumulate=True)
        assert batch_loss == pytest.approx(single_loss, abs=1e-12)
        for param, grad in zip(model.all_parameters(), batch_grads):
            np.testing.assert_allclose(grad, param.grad, rtol=0, atol=1e-12,
                                       err_msg=param.name)

    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_batch_predict_equals_single_examples(self, kind):
        model, inputs, _ = _batch_of(kind, 6, seed=4)
        probs = model.predict_proba(inputs)
        assert probs.shape == (6,)
        assert model.forward_count == 6
        singles = [model.predict_proba(_example(kind, inputs, i)) for i in range(6)]
        assert all(isinstance(p, float) for p in singles)
        np.testing.assert_allclose(probs, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["phmd", "feataug"])
    def test_gradient_check_on_a_batch(self, kind):
        guard = 1e-4
        for seed in range(200):
            model, inputs, targets = _batch_of(kind, 3, seed=seed)
            model.dense_w.value *= 0.02       # keep the sigmoid out of its clamp
            model.dense_b.value[:] = 0.0
            relu_margin, pool_gap = model.activation_margins(inputs)
            if relu_margin >= guard and pool_gap >= guard:
                break
        else:
            raise AssertionError("no safe point found")
        assert nn.gradient_check(model, inputs, targets, epsilon=1e-4) < 1e-5

    def test_frozen_embedding_gets_no_gradient(self):
        table = table_for(5, 4)
        model = build_phmd(table, small_config(trainable_embeddings=False), seed=1)
        ids = np.array([[2, 3, 4, 0, 0, 0, 0, 0], [5, 6, 2, 3, 0, 0, 0, 0]])
        model.loss_and_grad(ids, [1, 0])
        assert not model.embedding.grad.any()
        assert model.dense_w.grad.any()

    def test_target_count_must_match_batch(self):
        model, inputs, _ = _batch_of("phmd", 3)
        with pytest.raises(ValueError, match="targets"):
            model.loss_and_grad(inputs, [1, 0])


class TestTrainChecks:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_parameter_named(self):
        model = build_phmd(table_for(4, 4), small_config(), seed=1)
        with pytest.raises(FloatingPointError, match="parameter 'embedding'"):
            train(model, _toy_corpus(), epochs=1, seed=5, lr=float("inf"))

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            small_config(learning_rate=lr)
