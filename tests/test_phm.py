import ast
import gc
import hashlib
import json
import math
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from figphm import neuralnet as nn
from figphm import phm
from figphm.cli import main as cli_main
from figphm.corpus import NONPHM, PHM, build_vocab, pad
from figphm.embeddings import random_table
from figphm.errors import DataError
from figphm.figurative import (FIGURATIVE, LITERAL, TAGSET, FigurativeVerdict,
                               LinguisticFeatures, extract_features, feature_row,
                               feature_row_length)
from figphm.phm import (FeatAugModel, ModelConfig, build_feataug, build_phmd,
                        load_model, pipeline_predict, predict, save_model, train)
from figphm.synthetic import separable_corpus
from test_corpus import _calls_by_function


def small_config(**overrides):
    base = dict(max_sequence_length=8, filters=6, epochs=3, batch_size=16)
    base.update(overrides)
    return ModelConfig(**base)


def table_for(n_words, dim, seed=0):
    return random_table([f"w{i}" for i in range(n_words)], dim, seed=seed)


def seq_of(ids, max_len):
    return list(ids) + [0] * (max_len - len(ids))


def no_features():
    return extract_features([], None, [], set())


def make_verdict(label, score=0.9):
    return FigurativeVerdict(literal_score=score, label=label, features=no_features())


def predict_one(model, seq, verdict=None, doc_id=""):
    return predict(model, [seq], None if verdict is None else [verdict], [doc_id])[0]


class TestBuildPhmd:
    def test_parameter_count_closed_form(self):
        table = table_for(5, 50)  # |V| = 7 with reserved rows
        model = build_phmd(table, ModelConfig(max_sequence_length=50), seed=0)
        vocab_size = 7
        conv = (3 + 4 + 5) * 50 * 100 + 300
        dense = (48 // 2 + 47 // 2 + 46 // 2) * 100 + 1
        assert sum(p.value.size for p in model.all_parameters()) == \
            vocab_size * 50 + conv + dense

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

    def test_models_share_no_memory_with_the_table_or_each_other(self):
        """Each builder copies the table once: training one model leaves the
        table and a sibling model built from it bitwise unchanged."""
        table = table_for(4, 4)
        trained = build_phmd(table, small_config(), seed=1)
        other = build_feataug(table, small_config(), seed=1)
        arrays = [table.matrix] + [p.value for model in (trained, other)
                                   for p in model.all_parameters()]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        assert trained.vocab is not table.vocab and other.vocab is not table.vocab
        table_before = table.matrix.tobytes()
        other_before = [p.value.tobytes() for p in other.all_parameters()]
        embedding_before = trained.embedding.value.copy()
        train(trained, _toy_corpus(), epochs=1, seed=0)
        assert not np.array_equal(trained.embedding.value, embedding_before)
        assert table.matrix.tobytes() == table_before
        assert [p.value.tobytes() for p in other.all_parameters()] == other_before


class TestPredictPhmd:
    def test_probability_in_open_interval(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        pred = predict_one(model, seq_of([2, 3, 4], 8), doc_id="d1")
        assert 0.0 < pred.probability < 1.0
        assert pred.doc_id == "d1"

    def test_eval_deterministic(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        seq = seq_of([2, 3, 4, 5], 8)
        assert predict_one(model, seq).probability == \
            predict_one(model, seq).probability

    def test_threshold_at_half(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        model.dense_w.value[:] = 0.0
        model.dense_b.value[:] = math.log(0.49 / 0.51)
        pred = predict_one(model, seq_of([2], 8))
        assert pred.probability == pytest.approx(0.49, abs=1e-12)
        assert pred.label == NONPHM
        model.dense_b.value[:] = 0.0
        assert predict_one(model, seq_of([2], 8)).label == PHM  # 0.5 is PHM


class TestPipelinePredict:
    def test_figurative_bypasses_model(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        phmd_pred = predict_one(model, seq_of([2], 8), doc_id="d9")
        before = model.forward_count
        [pred] = pipeline_predict([FIGURATIVE], [phmd_pred])
        assert model.forward_count == before
        assert pred.doc_id == "d9"
        assert pred.label == NONPHM
        assert pred.probability == 0.0
        assert pred.figurative_label == FIGURATIVE

    def test_literal_delegates(self):
        model = build_phmd(table_for(5, 4), small_config(), seed=1)
        model.dense_w.value[:] = 0.0
        for bias, expected in ((2.0, PHM), (-2.0, NONPHM)):
            model.dense_b.value[:] = bias
            phmd_pred = predict_one(model, seq_of([2], 8))
            [pred] = pipeline_predict([LITERAL], [phmd_pred])
            assert pred.label == expected
            assert pred.probability == phmd_pred.probability
            assert pred.figurative_label == LITERAL


class TestFeatAug:
    def test_feature_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than right kernel"):
            small_config(right_kernel_width=40)

    def test_feature_length_mismatch_at_predict(self):
        model = build_feataug(table_for(4, 4), small_config(), seed=0)
        with pytest.raises(ValueError, match="feature vector"):
            predict_one(model, seq_of([2], 8), np.zeros(7))

    def test_eval_deterministic(self):
        model = build_feataug(table_for(4, 4), small_config(), seed=0)
        verdict = make_verdict(LITERAL, 0.7)
        seq = seq_of([2, 3], 8)
        a = predict_one(model, seq, verdict)
        b = predict_one(model, seq, verdict)
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
        p_aug = predict_one(feataug, seq, verdict).probability
        p_base = predict_one(phmd, seq).probability
        assert abs(p_aug - p_base) < 1e-12

    def test_verdict_feature_vector_layout(self):
        verdict = make_verdict(FIGURATIVE, 0.12)
        vec = feature_row(verdict, include_score=True)
        assert vec.shape == (feature_row_length(True),)
        assert vec[0] == 1.0
        assert vec[-1] == pytest.approx(0.12)
        vec2 = feature_row(make_verdict(LITERAL), include_score=False)
        assert vec2.shape == (feature_row_length(False),)
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

    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_examples_in_tuple_sort_order(self, build):
        """One lexsort orders the examples as a sort on the tuples (ids,
        target, feature row) does; the rows repeat so that ties occur."""
        model = build(table_for(4, 4), small_config(), seed=1)
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 3, size=(6, 8))[rng.integers(0, 6, size=40)]
        rows = rng.integers(0, 3, size=(40, model.feature_length or 1)) / 2.0
        targets = rng.integers(0, 2, size=40)
        corpus = [(i, PHM if t else NONPHM, r) for i, t, r in zip(ids, targets, rows)]
        expected = sorted(zip(map(tuple, ids), targets, map(tuple, rows)),
                          key=lambda e: e if build is build_feataug else e[:2])
        got_ids, got_targets, got_rows = phm._training_arrays(model, corpus)
        assert [tuple(i) for i in got_ids] == [e[0] for e in expected]
        assert got_targets.tolist() == [float(e[1]) for e in expected]
        if build is build_feataug:
            assert [tuple(r) for r in got_rows] == [e[2] for e in expected]
        else:
            assert got_rows is None

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
        expected = predict_one(model, seq).probability
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        assert loaded.kind == "phmd"
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert predict_one(loaded, seq).probability == expected

    def test_feataug_round_trip(self, tmp_path):
        table = table_for(5, 4)
        model = build_feataug(table, small_config(), seed=2)
        verdict = make_verdict(LITERAL, 0.6)
        seq = seq_of([2, 4], 8)
        expected = predict_one(model, seq, verdict).probability
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt")
        assert isinstance(loaded, FeatAugModel)
        assert loaded.feature_length == model.feature_length
        assert predict_one(loaded, seq, verdict).probability == expected

    def test_load_adopts_the_stored_arrays(self, tmp_path):
        """At V=20k, d=50 the load's tracemalloc peak is the stored arrays,
        their gradients and the vocabulary, with no second copy of the
        embedding (a load that copied it peaked at 3.26x the file size)."""
        path = tmp_path / "m.ckpt"
        save_model(build_phmd(table_for(20000, 50), ModelConfig()), path)
        tracemalloc.start()
        try:
            load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * path.stat().st_size

    def test_load_allocates_no_gradient(self, tmp_path):
        """Gradients are allocated on first use, so the load's peak is the
        stored arrays and the vocabulary: 1.25x the file size at V=20k,
        d=50, against 2.23x when every gradient was allocated at build."""
        path = tmp_path / "m.ckpt"
        save_model(build_phmd(table_for(20000, 50), ModelConfig()), path)
        tracemalloc.start()
        try:
            model = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(p._grad is None for p in model.all_parameters())
        assert peak <= 1.4 * path.stat().st_size


# JSON values for manifest fields. Sizes are tiny or too large for numpy to
# allocate at all, so no example asks for a large but possible model.
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                         st.sampled_from([2**60, 2**63, 10**20, 10**400]),
                         st.floats(), st.text(max_size=4))
_JSON = st.recursive(_JSON_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_DELETE = "<delete>"
_FIELD_VALUE = st.one_of(st.just(_DELETE), st.sampled_from([2**60, 10**400, float("nan")]),
                         _JSON)
_MANIFEST_KEYS = ["kind", "config", "vocab", "feature_length", "version", "shapes",
                  "param_names", "extra"]
_CONFIG_KEYS = [f.name for f in fields(ModelConfig)] + ["extra"]
_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _checkpoint(path, build):
    """A tiny model's checkpoint at ``path``: (manifest, array bytes)."""
    save_model(build(table_for(3, 2), small_config(max_sequence_length=6, filters=2)), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    return json.loads(raw[8:8 + header_len]), raw[8 + header_len:]


def _write_checkpoint(path, manifest, data):
    header = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header + data)


def _edit(owner, edits):
    for key, value in edits.items():
        if value == _DELETE:
            owner.pop(key, None)
        else:
            owner[key] = value


class TestFuzzLoadModel:
    """A tiny model's checkpoint with manifest fields replaced or deleted, or
    with its array bytes changed: ``load_model`` returns a model or raises
    ``DataError``, nothing else."""

    @_FUZZ
    @given(build=st.sampled_from([build_phmd, build_feataug]),
           config_edits=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _FIELD_VALUE,
                                        max_size=3),
           manifest_edits=st.dictionaries(st.sampled_from(_MANIFEST_KEYS), _FIELD_VALUE,
                                          max_size=2))
    def test_manifest_fields(self, tmp_path, build, config_edits, manifest_edits):
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build)
        _edit(manifest["config"], config_edits)
        _edit(manifest, manifest_edits)
        _write_checkpoint(path, manifest, data)
        try:
            load_model(path)
        except DataError:
            pass

    @_FUZZ
    @given(build=st.sampled_from([build_phmd, build_feataug]),
           floats=st.lists(st.tuples(st.integers(0, 10**6), st.floats()), max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 200)), extra=st.binary(max_size=16),
           shapes=st.one_of(st.none(), st.lists(st.lists(st.integers(0, 9), max_size=3),
                                                max_size=8)))
    def test_array_bytes(self, tmp_path, build, floats, cut, extra, shapes):
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build)
        data = bytearray(data)
        for index, value in floats:
            start = 8 * (index % (len(data) // 8))
            data[start:start + 8] = struct.pack("<d", value)
        if cut is not None:
            data = data[:cut] + extra
        if shapes is not None:
            manifest["shapes"] = shapes
        _write_checkpoint(path, manifest, bytes(data))
        try:
            load_model(path)
        except DataError:
            pass

    @pytest.mark.parametrize("edits", [
        {"learning_rate": 10**400}, {"init_bound": 10**400},
        {"max_sequence_length": 2**60, "pool": 9}], ids=["rate", "bound", "exabytes"])
    def test_config_numbers_out_of_range(self, tmp_path, edits):
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build_phmd)
        manifest["config"].update(edits)
        _write_checkpoint(path, manifest, data)
        with pytest.raises(DataError, match="bad checkpoint manifest"):
            load_model(path)


    @pytest.mark.parametrize("build, edit", [
        (build_phmd, {"filters": 2.0}), (build_phmd, {"max_sequence_length": 6.0}),
        (build_phmd, {"pool": 2.0}), (build_phmd, {"kernel_widths": [3.0, 4, 5]}),
        (build_feataug, {"right_kernel_width": 2.0}), (build_feataug, "feature_length")],
        ids=["filters", "length", "pool", "kernels", "right", "feature_length"])
    def test_float_counts_rejected(self, tmp_path, build, edit):
        """A count stored as a float equals the int in every shape check, but
        no array can be sized or sliced with it."""
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build)
        if edit == "feature_length":
            manifest["feature_length"] = float(manifest["feature_length"])
        else:
            manifest["config"].update(edit)
        _write_checkpoint(path, manifest, data)
        with pytest.raises(DataError, match="bad checkpoint manifest"):
            load_model(path)


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
                                    features=no_features())
        corpus.append((ids, PHM if i % 2 else NONPHM, verdict))
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


class TestPredictionGoldenValues:
    """Predictions of a randomised PHMD and FeatAug model on 8 documents,
    with the +Pipeline rows, recorded from the one-document-at-a-time
    predictors before prediction became one batched call."""

    PHMD = [("d0", 0.03669252013392629, NONPHM, None),
            ("d1", 0.8673270316621957, PHM, None),
            ("d2", 0.9919794883349299, PHM, None),
            ("d3", 0.972708385459902, PHM, None),
            ("d4", 0.957225980393895, PHM, None),
            ("d5", 0.6131388089043137, PHM, None),
            ("d6", 0.46211844507056715, NONPHM, None),
            ("d7", 0.16366897275972464, NONPHM, None)]
    PIPELINE = [("d0", 0.0, NONPHM, FIGURATIVE),
                ("d1", 0.8673270316621957, PHM, LITERAL),
                ("d2", 0.9919794883349299, PHM, LITERAL),
                ("d3", 0.0, NONPHM, FIGURATIVE),
                ("d4", 0.957225980393895, PHM, LITERAL),
                ("d5", 0.6131388089043137, PHM, LITERAL),
                ("d6", 0.0, NONPHM, FIGURATIVE),
                ("d7", 0.16366897275972464, NONPHM, LITERAL)]
    FEATAUG = [("d0", 0.8013681716879394, PHM, FIGURATIVE),
               ("d1", 0.9250290359284155, PHM, LITERAL),
               ("d2", 0.04907075541771632, NONPHM, LITERAL),
               ("d3", 0.00023372859705876196, NONPHM, FIGURATIVE),
               ("d4", 0.07023445851989374, NONPHM, LITERAL),
               ("d5", 0.3821345775323184, NONPHM, LITERAL),
               ("d6", 0.006091580780448542, NONPHM, FIGURATIVE),
               ("d7", 0.011638902727895431, NONPHM, LITERAL)]
    DOC_IDS = [f"d{i}" for i in range(8)]

    @staticmethod
    def _verdicts():
        rng = np.random.default_rng(31)
        n_tags = len(TAGSET)
        return [FigurativeVerdict(literal_score=float(rng.uniform()),
                                  label=FIGURATIVE if i % 3 == 0 else LITERAL,
                                  features=LinguisticFeatures(
                                      i % 2, rng.uniform(size=n_tags),
                                      rng.uniform(size=n_tags), i % 2,
                                      float(rng.uniform())))
                for i in range(8)]

    @staticmethod
    def _check(predictions, expected):
        assert [(p.doc_id, p.label, p.figurative_label) for p in predictions] == \
            [(doc_id, label, fig) for doc_id, _, label, fig in expected]
        assert all(type(p.probability) is float for p in predictions)
        np.testing.assert_allclose([p.probability for p in predictions],
                                   [prob for _, prob, _, _ in expected], rtol=0, atol=1e-12)

    @pytest.fixture
    def proba_calls(self, monkeypatch):
        calls = []
        for cls in (phm.PhmdModel, phm.FeatAugModel):
            def counting(model, inputs, real=cls.predict_proba):
                calls.append(model.kind)
                return real(model, inputs)
            monkeypatch.setattr(cls, "predict_proba", counting)
        return calls

    def test_phmd_and_pipeline(self, proba_calls):
        model, ids, _ = _batch_of("phmd", 8, seed=4)
        predictions = predict(model, ids, doc_ids=self.DOC_IDS)
        self._check(predictions, self.PHMD)
        before = model.forward_count
        pipeline = pipeline_predict([v.label for v in self._verdicts()], predictions)
        assert model.forward_count == before
        self._check(pipeline, self.PIPELINE)
        assert proba_calls == ["phmd"]

    def test_feataug(self, proba_calls):
        model, _, _ = _batch_of("feataug", 8, seed=4)
        _, ids, _ = _batch_of("phmd", 8, seed=4)
        self._check(predict(model, ids, self._verdicts(), self.DOC_IDS), self.FEATAUG)
        assert proba_calls == ["feataug"]

    def test_passes_of_one_example(self):
        model, ids, _ = _batch_of("phmd", 8, seed=4)
        model._pass_size = 1
        self._check(predict(model, ids, doc_ids=self.DOC_IDS), self.PHMD)

    def test_feataug_requires_verdicts(self):
        model, (ids, _), _ = _batch_of("feataug", 8, seed=4)
        with pytest.raises(ValueError, match="verdict per document"):
            predict(model, ids)


def test_only_predict_calls_predict_proba():
    """Every prediction in the package goes through ``phm.predict``: no other
    function calls a model's ``predict_proba``."""
    package = Path(__file__).resolve().parent.parent / "src" / "figphm"
    found = []
    for source in sorted(package.glob("*.py")):
        for function, call in _calls_by_function(ast.parse(source.read_text("utf-8"))):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "predict_proba" \
                    and (source.stem, function) != ("phm", "predict"):
                found.append(f"{source.name}:{call.lineno} in {function}")
    assert not found, "predict_proba called outside phm.predict: " + ", ".join(found)


class TestTrainChecks:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_parameter_named(self):
        model = build_phmd(table_for(4, 4), small_config(), seed=1)
        with pytest.raises(FloatingPointError, match="parameter 'embedding'"):
            train(model, _toy_corpus(), epochs=1, seed=5, lr=float("inf"))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_training_leaves_the_model_its_table(self):
        """An infinite lr fails after the first step. The model keeps its own
        table array at full shape, without a gradient, and the rows no
        example holds (1 and 6-9: the corpus holds 0 and 2-5) stay as they
        were; a step over the whole table made them NaN."""
        model = build_phmd(table_for(8, 4), small_config(), seed=1)
        table = model.embedding.value
        before = table.copy()
        with pytest.raises(FloatingPointError, match="parameter 'embedding'"):
            train(model, _toy_corpus(), epochs=1, seed=5, lr=float("inf"))
        assert model.embedding.value is table and table.shape == (10, 4)
        assert model.embedding._grad is None
        unheld = [1, 6, 7, 8, 9]
        assert table[unheld].tobytes() == before[unheld].tobytes()
        assert not np.isfinite(table[[0, 2, 3, 4, 5]]).all()

    def test_failed_write_back_leaves_the_model_its_table(self):
        """Training steps a copy of the rows, so it completes on a read-only
        table; the write-back then raises, with the model's own array back
        in place and no embedding gradient left."""
        model = build_phmd(table_for(8, 4), small_config(), seed=1)
        table = model.embedding.value
        table.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            train(model, _toy_corpus(), epochs=1, seed=5)
        assert model.embedding.value is table and table.shape == (10, 4)
        assert model.embedding._grad is None

    @pytest.mark.parametrize("bad", [10, -11, -1])
    def test_id_outside_the_table_changes_nothing(self, bad):
        """-1 raises too: numpy would wrap it onto row 9, which the same
        example holds, and train the two as separate rows."""
        model = build_phmd(table_for(8, 4), small_config(), seed=1)
        table = model.embedding.value
        before = [p.value.tobytes() for p in model.all_parameters()]
        corpus = _toy_corpus() + [(seq_of([2, bad, 9], 8), PHM)]
        with pytest.raises(IndexError, match=f"^index {bad} is out of bounds for axis 0 "
                                             f"with size 10$"):
            train(model, corpus, epochs=1, seed=5)
        assert model.embedding.value is table
        assert [p.value.tobytes() for p in model.all_parameters()] == before
        assert model.forward_count == 0

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            small_config(learning_rate=lr)

    @pytest.mark.parametrize("bound", [-0.1, float("nan"), float("inf")])
    def test_config_init_bound_must_be_finite_and_non_negative(self, bound):
        with pytest.raises(ValueError, match="init bound"):
            small_config(init_bound=bound)


class TestTrainUnusedRows:
    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_row_no_minibatch_uses_is_bitwise_unchanged(self, build):
        """Rows 6-9 of the table appear in no training example: Adam leaves
        them bitwise as they were, -0.0 included."""
        model = build(table_for(8, 4, seed=2), small_config(), seed=1)
        model.embedding.value[7] = -0.0
        model.embedding.value[8, ::2] = -0.0
        before = model.embedding.value.copy()
        corpus = _toy_corpus()
        if build is build_feataug:
            corpus = [item + (make_verdict(LITERAL),) for item in corpus]
        train(model, corpus, epochs=3, batch=7, seed=5)
        after = model.embedding.value
        assert after[6:].tobytes() == before[6:].tobytes()
        assert np.signbit(after[7]).all()
        assert not np.array_equal(after[2:6], before[2:6])


class TestTrainDigest:
    """Two successive ``train`` calls on one model, pinned bit for bit to a
    SHA-256 over both loss traces and every parameter's bytes after each
    call. The digests were recorded when ``train`` stepped the model's whole
    table on the rows minibatches had used. The table has 16 rows; examples
    hold rows 0-11 only, rows 12 and 13 hold -0.0 entries (as does the used
    row 3), and 20 examples in minibatches of 7 leave a partial last one."""

    SHA256 = {
        ("phmd", False):
            "99736652fb209e99a7ffaa05a1c7bd73be19564cbb8131ebf4a32c2699af8c11",
        ("phmd", True):
            "3fa11df3695baeb8707b2e9527ed489e75932f2c74ce1a74d57b4e8866bb9f3c",
        ("feataug", False):
            "d49b56e384bf5e6f709e74fa1d697d7e11ef1a09926ce8262e7abba9ea73379f",
        ("feataug", True):
            "827eb7e52fa35f6c956cb13bdb91cca2c39884d35f334f47e9fc297246636bbb",
        ("frozen", False):
            "ccb5b25f2141e6344ad77e82db3da66e6fcfcfdf6a0421a57484911e2e5d3a5a",
        ("frozen", True):
            "2863ffaa867f447ac20901920332c957253b6d08062be7273d2e8da8890819e4",
    }

    @staticmethod
    def _corpus(kind):
        rng = np.random.default_rng(51)
        corpus = []
        for i in range(20):
            n = int(rng.integers(3, 9))
            ids = seq_of(rng.integers(1, 12, size=n).tolist(), 8)
            item = (ids, PHM if i % 2 else NONPHM)
            if kind == "feataug":
                item += (make_verdict(FIGURATIVE if i % 3 == 0 else LITERAL,
                                      float(rng.uniform())),)
            corpus.append(item)
        return corpus

    @pytest.mark.parametrize("one_example_passes", [False, True])
    @pytest.mark.parametrize("kind", ["phmd", "feataug", "frozen"])
    def test_two_calls_match_the_recorded_digest(self, kind, one_example_passes, monkeypatch):
        if one_example_passes:
            monkeypatch.setattr(phm, "PASS_BYTES", 1)
        table = random_table([f"w{i}" for i in range(14)], 5, seed=52)
        table.matrix[3, 1] = -0.0
        table.matrix[12] = -0.0
        table.matrix[13, ::2] = -0.0
        config = ModelConfig(max_sequence_length=8, filters=4, batch_size=7,
                             trainable_embeddings=kind != "frozen")
        build = build_feataug if kind == "feataug" else build_phmd
        model = build(table, config, seed=53)
        embedding = model.embedding.value
        digest = hashlib.sha256()
        for seed in (54, 55):
            trace = train(model, self._corpus(kind), epochs=2, seed=seed)
            digest.update(np.array(trace).tobytes())
            for param in model.all_parameters():
                digest.update(param.value.tobytes())
        assert model.embedding.value is embedding
        assert embedding[12:].tobytes() == table.matrix[12:].tobytes()
        assert digest.hexdigest() == self.SHA256[kind, one_example_passes]


def _desk_pass(build, n=16):
    """A model at desk shape (T=16, d=20, F=100, widths 3/4/5, pool 2) and
    ``n`` examples, by default one training pass's worth."""
    model = build(table_for(500, 20, seed=1), ModelConfig(max_sequence_length=16), seed=3)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, len(model.vocab), size=(n, 16))
    targets = rng.integers(0, 2, size=n).astype(float)
    if build is build_feataug:
        return model, (ids, rng.random((n, model.feature_length))), targets
    return model, ids, targets


class TestEvalPasses:
    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_loss_peak_is_predict_probas(self, build):
        """``loss`` runs in ``predict_proba``'s passes. As one pass over 64
        desk-shape examples its tracemalloc peak was 3.97x (PHMD) and 3.51x
        (FeatAug) predict_proba's on the same batch."""
        model, inputs, targets = _desk_pass(build, 64)
        calls = (lambda: model.predict_proba(inputs), lambda: model.loss(inputs, targets))
        peaks = []
        for call in calls:
            call()                                  # warms numpy's own caches
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("n", [1, 5, 16])
    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_loss_is_the_summed_bce_of_predict_proba(self, build, n):
        model, inputs, targets = _desk_pass(build, n)
        probs = model.predict_proba(inputs)
        assert model.loss(inputs, targets) == float(nn.bce_loss(probs, targets).sum())


class TestWorkspace:
    # tracemalloc peak of that pass before the workspace existed (numpy 2.4):
    # PHMD 1,893,392 B and FeatAug 3,106,288 B; in a warm workspace
    # 172,568 B and 207,112 B
    PASS_PEAK_WITHOUT_WORKSPACE = {"phmd": 1_893_392, "feataug": 3_106_288}

    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_warm_pass_allocates_a_tenth_of_a_pass_without_one(self, build):
        model, inputs, targets = _desk_pass(build)
        workspace = phm._Workspace()
        rng = np.random.default_rng(0)

        def one_pass():
            model.loss_and_grad(inputs, targets, train=True, rng=rng, accumulate=True,
                                workspace=workspace)
        one_pass()                                  # allocates buffers and gradients
        tracemalloc.start()
        try:
            one_pass()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PASS_PEAK_WITHOUT_WORKSPACE[model.kind] / 10

    @pytest.mark.parametrize("build", [build_phmd, build_feataug])
    def test_train_leaves_only_the_gradients(self, build):
        """The workspace (about 2 MB here) and the embedding's table of
        rows, gradient and Adam moments are freed when train returns: what
        stays is the other parameters' gradients."""
        def model_and_corpus():
            model, inputs, targets = _desk_pass(build)
            labels = [PHM if t else NONPHM for t in targets]
            if build is build_feataug:
                return model, list(zip(inputs[0], labels, inputs[1])) * 2
            return model, list(zip(inputs, labels)) * 2

        train(*model_and_corpus(), epochs=1, batch=32, seed=0)    # warms numpy's own caches
        model, corpus = model_and_corpus()
        attributes = set(vars(model))
        assert all(p._grad is None for p in model.all_parameters())
        tracemalloc.start()
        try:
            train(model, corpus, epochs=1, batch=32, seed=0)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.embedding._grad is None
        gradients = sum(p.grad.nbytes for p in model.all_parameters()[1:])
        assert set(vars(model)) == attributes
        assert gradients - 16_384 <= held <= gradients + 16_384


class TestTrainMemory:
    """tracemalloc peak of one PHMD ``train`` call at V=20k, d=50, T=50 (one
    epoch), as a multiple of the table's bytes. When Adam stepped the whole
    table it was 8.80x at full row coverage and 4.83x when the examples
    held 5% of the rows; a table of the rows the examples hold reads 5.79x
    and 1.82x."""

    @pytest.mark.parametrize("coverage, bound", [(1.0, 7.0), (0.05, 2.5)])
    def test_peak_follows_the_rows_the_examples_hold(self, coverage, bound):
        table = table_for(20_000 - 2, 50, seed=1)
        model = build_phmd(table, ModelConfig(), seed=2)
        vocab_size = table.matrix.shape[0]
        held = np.random.default_rng(3).permutation(vocab_size)[:round(coverage * vocab_size)]
        n = -(-held.size // 50)
        corpus = [(row, PHM if i % 2 else NONPHM)
                  for i, row in enumerate(np.resize(held, (n, 50)))]
        gc.collect()
        tracemalloc.start()
        try:
            train(model, corpus, epochs=1, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * table.matrix.nbytes
        assert model.embedding._grad is None


class TestLoadModelMessages:
    """Every ``load_model`` error starts with the checkpoint's path."""

    @pytest.mark.parametrize("manifest_edits, config_edits, message", [
        ({"kind": "cnn"}, {}, "unknown model kind 'cnn'"),
        ({}, {"kernel_widths": [3, 4], "dropout_rates": [0.2, 0.3],
              "feataug_dropout_rates": [0.3, 0.1]}, "checkpoint has 9 arrays, model expects 7"),
        ({}, {"pool": 1}, r"shape mismatch for dense_w: \(1, 8\) stored, \(1, 18\)"),
    ], ids=["kind", "count", "shape"])
    def test_message_names_the_path(self, tmp_path, manifest_edits, config_edits, message):
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build_phmd)
        _edit(manifest["config"], config_edits)
        _edit(manifest, manifest_edits)
        _write_checkpoint(path, manifest, data)
        with pytest.raises(DataError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("stored", [feature_row_length(True) + 1,
                                        feature_row_length(False), "29", None],
                             ids=["same_shapes", "no_score", "string", "null"])
    def test_feature_length_must_match_the_config(self, tmp_path, stored):
        """The stored feature length must be the integer the config implies,
        even where the pooled shapes could not tell the two apart (29 and 30
        both pool to 14 windows)."""
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build_feataug)
        assert manifest["feature_length"] == feature_row_length(True)
        manifest["feature_length"] = stored
        _write_checkpoint(path, manifest, data)
        with pytest.raises(DataError, match="bad checkpoint manifest") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    # ids: pool size, with (s) or without (ns) the score feature, builder
    @pytest.mark.parametrize("build", [build_phmd, build_feataug], ids=["phmd", "aug"])
    @pytest.mark.parametrize("include_score", [True, False], ids=["s", "ns"])
    @pytest.mark.parametrize("overrides", [
        {}, {"pool": 1, "kernel_widths": (2,), "dropout_rates": (0.1,),
             "feataug_dropout_rates": (0.0,)},
        {"pool": 3, "right_kernel_width": 3}], ids=["p2", "p1", "p3"])
    def test_shapes_from_the_config_are_the_built_shapes(self, overrides, include_score, build):
        config = small_config(include_score_feature=include_score, **overrides)
        model = build(table_for(5, 3), config)
        feature_length = None if build is build_phmd else feature_row_length(include_score)
        assert model.feature_length == feature_length
        assert phm._parameter_shapes(config, 7, 3, feature_length) == [
            (p.name, p.value.shape) for p in model.all_parameters()]

    def test_large_config_is_rejected_before_allocating(self, tmp_path):
        """A manifest asking for 10**8 filters on a 5-row table is rejected
        from the shapes alone: the model is never built."""
        path = tmp_path / "m.ckpt"
        manifest, data = _checkpoint(path, build_phmd)
        manifest["config"]["filters"] = 10**8
        _write_checkpoint(path, manifest, data)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="shape mismatch for conv3_kernels"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert cli_main(["evaluate", "--model", str(path),
                         "--dataset", str(tmp_path / "none.tsv")]) == 2
