"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numeric expectations come from independent oracles computed inside the
tests (direct linear solves, central finite differences, hand counts) or
from designed synthetic corpora where the target effect holds by
construction.
"""

import functools
import time

import numpy as np

from figphm import neuralnet as nn
from figphm.corpus import (AnnotationPair, NONPHM, PHM, build_vocab,
                           cohen_kappa, pad)
from figphm.embeddings import (EmbeddingTable, OntologyGraph, random_table,
                               retrofit, retrofit_objective,
                               _in_vocab_neighborhoods)
from figphm.figurative import (FIGURATIVE, LITERAL, FigurativeVerdict, classify,
                               extract_features, lda_estimate)
from figphm.harness import (ExperimentReport, Metrics, compute_metrics,
                            load_config, run_experiment, stratified_kfold)
from figphm.phm import (ModelConfig, build_feataug, build_phmd, phm, pipeline_predict,
                        predict, train)
from figphm.synthetic import separable_corpus, write_planted_fixture

from conftest import activation_margins
from test_harness import _docs


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d} {name}: FAIL")
                raise
            print(f"[acceptance] criterion {number:02d} {name}: PASS")
            return result
        return wrapper
    return decorate


# -------------------------------------------------------------------------
# 1. gradient fidelity on both graphs

GRAD_GUARD = 1e-4


def _randomize(model, rng):
    """Redraw parameters at unit scale so that the minimum over the ~1200
    ReLU pre-activations clears the tie guard with useful probability (at
    training-init scale that minimum sits near 1e-5 and nearly every draw
    is unsafe). The head stays small to keep the sigmoid out of its clamp."""
    for param in model.all_parameters():
        param.value[:] = rng.uniform(-1.0, 1.0, size=param.value.shape)
    model.dense_w.value *= 0.02
    model.dense_b.value[:] = 0.0


def _safe_point(build, seed):
    """Model + input whose ReLU margins and active pool gaps clear the guard."""
    for attempt in range(200):
        model, inputs, target = build(seed * 1000 + attempt)
        relu_margin, pool_gap = activation_margins(model, inputs)
        if relu_margin >= GRAD_GUARD and pool_gap >= GRAD_GUARD:
            return model, inputs, target
    raise AssertionError("no safe point found (resampling exhausted)")


def _phmd_point(seed):
    rng = np.random.default_rng(seed)
    table = random_table([f"w{i}" for i in range(6)], 3, seed=seed)
    config = ModelConfig(max_sequence_length=7)
    model = build_phmd(table, config, seed=seed + 1)
    _randomize(model, rng)
    ids = rng.integers(0, len(table.vocab), size=7)
    return model, ids, int(rng.integers(0, 2))


def _feataug_point(seed):
    rng = np.random.default_rng(seed)
    table = random_table([f"w{i}" for i in range(6)], 3, seed=seed)
    config = ModelConfig(max_sequence_length=7)
    model = build_feataug(table, config, seed=seed + 1)
    _randomize(model, rng)
    ids = rng.integers(0, len(table.vocab), size=7)
    features = rng.uniform(0.0, 1.0, size=model.feature_length)
    return model, (ids, features), int(rng.integers(0, 2))


@criterion(1, "gradient fidelity")
def test_gradient_fidelity():
    start = time.monotonic()
    worst = 0.0
    for point in range(10):
        for build in (_phmd_point, _feataug_point):
            model, inputs, target = _safe_point(build, point)
            err = nn.gradient_check(model, inputs, target, epsilon=1e-4)
            worst = max(worst, err)
            assert err < 1e-5, f"{type(model).__name__} point {point}: {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"
    print(f"  (20 safe points, worst relative error {worst:.2e}, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 2. retrofit vs direct linear solve

def _direct_retrofit_solve(table, graph, alpha=1.0):
    """Solve the stationarity system (alpha + 1) q_i = alpha q0_i + mean of
    neighbors, treating never-updated words as constants."""
    hoods = _in_vocab_neighborhoods(table, graph)
    rows = sorted(hoods)
    pos = {row: i for i, row in enumerate(rows)}
    n, dim = len(rows), table.dim
    a_mat = np.zeros((n, n))
    b_mat = np.zeros((n, dim))
    for row in rows:
        i = pos[row]
        neighbors = hoods[row]
        beta = 1.0 / len(neighbors)
        a_mat[i, i] = alpha + 1.0
        b_mat[i] = alpha * table.matrix[row]
        for j in neighbors:
            if j in pos:
                a_mat[i, pos[j]] -= beta
            else:
                b_mat[i] += beta * table.matrix[j]
    solution = np.linalg.solve(a_mat, b_mat)
    out = table.matrix.copy()
    for row in rows:
        out[row] = solution[pos[row]]
    return out


@criterion(2, "retrofit fixed point + monotone objective")
def test_retrofit_matches_direct_solve():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    for trial in range(10):
        n_words = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 4))
        words = [f"w{i}" for i in range(n_words)]
        vocab = {"<pad>": 0, "<unk>": 1, **{w: i + 2 for i, w in enumerate(words)}}
        matrix = np.vstack([np.zeros((2, dim)), rng.normal(0, 1, (n_words, dim))])
        table = EmbeddingTable(vocab=vocab, matrix=matrix)
        graph = OntologyGraph()
        for _ in range(int(rng.integers(1, 2 * n_words))):
            a, b = rng.choice(words, size=2, replace=False)
            graph.add_edge(a, b)

        solved = _direct_retrofit_solve(table, graph)
        iterated = retrofit(table, graph, iterations=100)
        assert np.abs(iterated.matrix - solved).max() < 1e-6

        energies = [retrofit_objective(table, retrofit(table, graph, iterations=k), graph)
                    for k in range(8)]
        assert all(energies[i + 1] <= energies[i] + 1e-12 for i in range(7))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"retrofit checks took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 3. figurative threshold semantics

@criterion(3, "figurative threshold semantics")
def test_threshold_semantics():
    rng = np.random.default_rng(30)
    scores = rng.uniform(0.0, 1.0, size=1000).tolist() + [0.2, 0.0, 1.0, 0.19999]
    for score in scores:
        expected = FIGURATIVE if score < 0.2 else LITERAL
        assert classify(score, 0.2) == expected


# -------------------------------------------------------------------------
# 4. pipeline bypass

@criterion(4, "pipeline bypass")
def test_pipeline_bypass():
    table = random_table([f"w{i}" for i in range(10)], 4, seed=40)
    model = build_phmd(table, ModelConfig(max_sequence_length=6), seed=41)
    rng = np.random.default_rng(42)
    ids, verdicts = [], []
    for i in range(50):
        ids.append(rng.integers(0, len(table.vocab), size=6).tolist())
        label = FIGURATIVE if i % 2 == 0 else LITERAL
        verdicts.append(FigurativeVerdict(literal_score=0.05 if label == FIGURATIVE else 0.9,
                                          label=label,
                                          features=extract_features([], None, [], set())))

    phmd = predict(model, ids)
    before = model.forward_count
    pipeline = pipeline_predict([v.label for v in verdicts], phmd)
    assert model.forward_count == before, "classifier was invoked on bypass"
    for verdict, expected, label in zip(verdicts, phm(phmd), phm(pipeline), strict=True):
        if verdict.label == FIGURATIVE:
            assert label == NONPHM
        else:
            assert label == expected


# -------------------------------------------------------------------------
# 5. overfit smoke on a separable corpus

@criterion(5, "separable-corpus overfit")
def test_overfit_smoke():
    start = time.monotonic()
    docs = separable_corpus(200, seed=50)
    vocab = build_vocab(docs)
    max_len = 12
    table = random_table(sorted(vocab, key=vocab.get), 20, seed=51)
    model = build_phmd(table, ModelConfig(max_sequence_length=max_len), seed=52)
    corpus = [(pad(d.tokens, vocab, max_len), d.label) for d in docs]
    train(model, corpus, epochs=35, batch=128, seed=53)
    labels = phm(predict(model, [ids for ids, _ in corpus]))
    correct = sum(1 for label, (_, gold) in zip(labels, corpus) if label == gold)
    elapsed = time.monotonic() - start
    assert correct / len(corpus) >= 0.95, f"train accuracy {correct / len(corpus):.3f}"
    assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"
    print(f"  (train accuracy {correct / len(corpus):.3f} in {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 6. synthetic delta-F direction

PLANTED_CONFIG = """\
[experiment]
dataset = dataset.tsv
folds = 3
seed = 42

[model]
max_sequence_length = 16
epochs = 25
batch = 64

[figurative]
embedding = fig_embeddings.txt
keywords = keywords.txt
threshold = 0.2
pipeline_noise = 0.25

[embedding rand20]
source = random
dim = 20
seed = 1
"""


@criterion(6, "synthetic delta-F ordering")
def test_synthetic_delta_f_direction(tmp_path):
    start = time.monotonic()
    feataug_deltas = []
    noised_pipeline_deltas = []
    for seed in range(5):
        fixture_dir = tmp_path / f"gen{seed}"
        write_planted_fixture(fixture_dir, seed=seed, n_docs=240)
        (fixture_dir / "cfg.ini").write_text(PLANTED_CONFIG, encoding="utf-8")
        report = run_experiment(load_config(fixture_dir / "cfg.ini"))
        feataug_deltas.append(report.delta_f("feataug"))
        noised_pipeline_deltas.append(report.delta_f("pipeline"))
    mean_feataug = sum(feataug_deltas) / len(feataug_deltas)
    mean_pipeline = sum(noised_pipeline_deltas) / len(noised_pipeline_deltas)
    elapsed = time.monotonic() - start
    assert mean_feataug > 0.0, f"mean dF(feataug) = {mean_feataug:.4f}"
    assert mean_pipeline < mean_feataug, \
        f"dF ordering violated: pipeline {mean_pipeline:.4f} vs feataug {mean_feataug:.4f}"
    assert elapsed < 600.0, f"delta-F sweep took {elapsed:.1f}s"
    print(f"  (mean dF feataug {mean_feataug:+.4f}, noised pipeline "
          f"{mean_pipeline:+.4f}, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 7. metrics / kappa oracles

@criterion(7, "metrics and kappa oracles")
def test_metric_and_kappa_oracles():
    # hand-computed confusion: TP=3 FP=1 FN=2
    preds = [PHM, PHM, PHM, PHM, NONPHM, NONPHM, NONPHM]
    golds = [PHM, PHM, PHM, NONPHM, PHM, PHM, NONPHM]
    metrics = compute_metrics(preds, golds)
    assert abs(metrics.precision - 0.75) < 1e-9
    assert abs(metrics.recall - 0.6) < 1e-9
    assert abs(metrics.f_score - (2 * 0.75 * 0.6) / (0.75 + 0.6)) < 1e-9

    # hand-computed kappa: p_o=0.75, p_e=0.5 -> 0.5; and the -1 extreme
    pairs = [AnnotationPair(str(i), a, b) for i, (a, b) in enumerate(
        [("literal", "literal"), ("literal", "figurative"),
         ("figurative", "figurative"), ("figurative", "figurative")])]
    assert abs(cohen_kappa(pairs) - 0.5) < 1e-9
    flipped = [AnnotationPair("1", "literal", "figurative"),
               AnnotationPair("2", "figurative", "literal")]
    assert abs(cohen_kappa(flipped) - (-1.0)) < 1e-9

    # F invariant over every row of a generated report
    rng = np.random.default_rng(70)
    report_rows = [Metrics(*(int(v) for v in rng.integers(0, 30, size=4)))
                   for _ in range(200)]
    for m in report_rows:
        p, r = m.precision, m.recall
        expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
        assert abs(m.f_score - expected) < 1e-9


# -------------------------------------------------------------------------
# 8. fold partition properties

@criterion(8, "stratified fold partitions")
def test_fold_partition_properties():
    rng = np.random.default_rng(80)
    diseases = ("cancer", "stroke", "depression")
    for _ in range(200):
        spec = [(d, label, int(rng.integers(1, 12)))
                for d in rng.choice(diseases, size=int(rng.integers(1, 4)), replace=False)
                for label in (PHM, NONPHM)]
        docs = _docs(spec)
        k = int(rng.integers(2, min(10, len(docs)) + 1))
        seed = int(rng.integers(0, 1000))
        folds = stratified_kfold(docs, k, seed)

        ids = [d.id for fold in folds for d in fold]
        assert len(ids) == len(docs) and set(ids) == {d.id for d in docs}
        for disease, label, count in spec:
            per_fold = [sum(1 for d in fold if d.disease == disease and d.label == label)
                        for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == count
        again = stratified_kfold(docs, k, seed)
        assert [[d.id for d in fold] for fold in folds] == \
            [[d.id for d in fold] for fold in again]


# -------------------------------------------------------------------------
# 9. LDA estimator recovery

@criterion(9, "LDA planted-topic recovery")
def test_lda_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(90)
    literal_vocab = [f"lit{i}" for i in range(30)]
    figurative_vocab = [f"fig{i}" for i in range(30)]
    documents, seeds, planted = [], [], []
    for i in range(50):
        is_literal = i % 2 == 0
        pool = literal_vocab if is_literal else figurative_vocab
        documents.append([pool[rng.integers(len(pool))]
                          for _ in range(int(rng.integers(6, 12)))])
        seeds.append(0.9 if is_literal else 0.1)
        planted.append(0 if is_literal else 1)

    estimate = lda_estimate(documents, seeds, iterations=200, seed=91)
    recovered = 0
    for dist, topic in zip(estimate.doc_dist, planted):
        assert abs(sum(dist) - 1.0) <= 1e-9
        if dist[topic] > 0.8:
            recovered += 1
    for pair in estimate.word_dist.values():
        assert abs(sum(pair) - 1.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert recovered / len(documents) >= 0.9, f"only {recovered}/50 recovered"
    assert elapsed < 30.0, f"LDA run took {elapsed:.1f}s"
    print(f"  ({recovered}/50 documents above 0.8 posterior, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 10. end-to-end reproducibility

REPRO_CONFIG = """\
[experiment]
dataset = dataset.tsv
folds = 2
seed = 99

[model]
max_sequence_length = 16
epochs = 2
batch = 32

[figurative]
embedding = fig_embeddings.txt
keywords = keywords.txt

[embedding rand8]
source = random
dim = 8
seed = 5
"""


@criterion(10, "byte-identical reproducibility")
def test_end_to_end_reproducibility(tmp_path):
    fixture_dir = tmp_path / "fixture"
    write_planted_fixture(fixture_dir, seed=3, n_docs=60)
    (fixture_dir / "cfg.ini").write_text(REPRO_CONFIG, encoding="utf-8")
    config = load_config(fixture_dir / "cfg.ini")
    run_experiment(config, out_dir=tmp_path / "run1")
    run_experiment(config, out_dir=tmp_path / "run2")
    first = (tmp_path / "run1" / "report.tsv").read_bytes()
    second = (tmp_path / "run2" / "report.tsv").read_bytes()
    assert first == second, "structured reports differ between identical runs"
    assert (tmp_path / "run1" / "report.txt").read_bytes() == \
        (tmp_path / "run2" / "report.txt").read_bytes()
    # the parsed report round-trips and its delta-F values are exact diffs
    report = ExperimentReport.from_structured(first.decode("utf-8"))
    for approach in report.approaches:
        for emb in report.embeddings:
            assert report.delta_f(approach, emb) == \
                report.overall[(approach, emb)].f_score \
                - report.overall[("phmd", emb)].f_score
