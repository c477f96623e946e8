import ast
import json
import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from figphm.cli import main as cli_main
from figphm.corpus import Document, FIGURATIVE, LITERAL, NONPHM, PHM, build_vocab, pad
from figphm.errors import ConfigError, DataError
from figphm.figurative import FigurativeDetector
from figphm.harness import (ExperimentReport, Metrics, compute_metrics,
                            derive_seed, evaluate_figurative, evaluate_model,
                            load_config, load_documents, load_figurative_gold,
                            parse_config_sections, run_experiment, stratified_kfold)
from figphm.phm import ModelConfig, PhmdModel, build_feataug, build_phmd, save_model
from figphm.synthetic import write_planted_fixture

from conftest import make_table
from test_corpus import _calls_by_function


class TestComputeMetrics:
    def test_all_correct(self):
        metrics = compute_metrics([PHM, NONPHM], [PHM, NONPHM])
        assert (metrics.precision, metrics.recall, metrics.f_score) == (1.0, 1.0, 1.0)

    def test_hand_computed(self):
        # TP=3 FP=1 FN=2 TN=1: P=0.75 R=0.6 F=2*0.45/1.35
        preds = [PHM, PHM, PHM, PHM, NONPHM, NONPHM, NONPHM]
        golds = [PHM, PHM, PHM, NONPHM, PHM, PHM, NONPHM]
        metrics = compute_metrics(preds, golds)
        assert metrics.tp == 3 and metrics.fp == 1 and metrics.fn == 2
        assert metrics.precision == pytest.approx(0.75, abs=1e-12)
        assert metrics.recall == pytest.approx(0.6, abs=1e-12)
        assert metrics.f_score == pytest.approx(2 * 0.45 / 1.35, abs=1e-12)

    def test_degenerate_zero_convention(self):
        metrics = compute_metrics([NONPHM, NONPHM], [NONPHM, NONPHM])
        assert metrics.precision == 0.0 and metrics.recall == 0.0 and metrics.f_score == 0.0
        assert "no_positive_predictions" in metrics.flags()
        assert "no_positive_golds" in metrics.flags()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([PHM], [PHM, PHM])

    def test_empty(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])
        with pytest.raises(ValueError):
            compute_metrics(np.array([], dtype=str), np.array([], dtype=str))

    @given(st.lists(st.tuples(st.sampled_from([PHM, NONPHM, FIGURATIVE, LITERAL]),
                              st.sampled_from([PHM, NONPHM, FIGURATIVE, LITERAL])),
                    min_size=1, max_size=30),
           st.sampled_from([PHM, FIGURATIVE]))
    def test_counts_equal_a_scalar_count(self, pairs, positive_class):
        """Each count is the number of (prediction, gold) pairs in its cell,
        counted one pair at a time."""
        predictions, golds = map(list, zip(*pairs))
        hit = [(p == positive_class, g == positive_class) for p, g in pairs]
        expected = Metrics(hit.count((True, True)), hit.count((True, False)),
                           hit.count((False, True)), hit.count((False, False)))
        assert compute_metrics(predictions, golds, positive_class) == expected
        assert compute_metrics(np.array(predictions), np.array(golds),
                               positive_class) == expected

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_f_invariant(self, tp, fp, fn, tn):
        metrics = Metrics(tp, fp, fn, tn)
        p, r = metrics.precision, metrics.recall
        expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
        assert metrics.f_score == pytest.approx(expected, abs=1e-12)


def _docs(spec):
    """spec: list of (disease, label, count)."""
    docs = []
    for disease, label, count in spec:
        for i in range(count):
            token = f"{disease[:3]}{i}"
            docs.append(Document(f"{disease}-{label}-{i}", disease, token,
                                 [token], label))
    return docs


class TestStratifiedKfold:
    def test_single_stratum_even_split(self):
        docs = _docs([("cancer", PHM, 100)])
        folds = stratified_kfold(docs, 10, seed=0)
        assert [len(f) for f in folds] == [10] * 10

    def test_stratum_of_fifteen_across_ten_folds(self):
        docs = _docs([("cancer", PHM, 15)])
        folds = stratified_kfold(docs, 10, seed=1)
        counts = sorted(len(f) for f in folds)
        assert set(counts) <= {1, 2}
        assert sum(counts) == 15

    def test_disjoint_and_covering(self):
        docs = _docs([("cancer", PHM, 13), ("cancer", NONPHM, 22),
                      ("stroke", PHM, 9), ("stroke", NONPHM, 17)])
        folds = stratified_kfold(docs, 5, seed=2)
        ids = [d.id for fold in folds for d in fold]
        assert len(ids) == len(docs)
        assert set(ids) == {d.id for d in docs}

    def test_within_stratum_balance(self):
        docs = _docs([("cancer", PHM, 13), ("depression", NONPHM, 29)])
        folds = stratified_kfold(docs, 4, seed=3)
        for disease, label, count in (("cancer", PHM, 13), ("depression", NONPHM, 29)):
            per_fold = [sum(1 for d in fold if d.disease == disease and d.label == label)
                        for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == count

    def test_deterministic(self):
        docs = _docs([("cancer", PHM, 20), ("cancer", NONPHM, 20)])
        a = stratified_kfold(docs, 4, seed=9)
        b = stratified_kfold(docs, 4, seed=9)
        assert [[d.id for d in fold] for fold in a] == [[d.id for d in fold] for fold in b]

    def test_k_validation(self):
        docs = _docs([("cancer", PHM, 3)])
        with pytest.raises(ValueError):
            stratified_kfold(docs, 4, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(docs, 1, seed=0)


class TestConfigParsing:
    def test_sections_and_comments(self):
        text = "# top\n[alpha]\nx = 1\n\n[beta b]\ny = two words\n"
        sections = parse_config_sections(text)
        assert sections == [("alpha", {"x": "1"}), ("beta b", {"y": "two words"})]

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config_sections("x = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_sections("[a]\nnonsense\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_sections("[a]\nx = 1\nx = 2\n")


def write_min_dataset(path, n=12):
    # mix of literal-context, figurative-context, and keyword-free texts
    texts = ["doctor cough extra{i}", "market cough extra{i}", "plain filler extra{i}"]
    rows = []
    for i in range(n):
        disease = "cancer" if i % 2 == 0 else "stroke"
        label = PHM if i % 4 < 2 else NONPHM
        rows.append(f"d{i}\t{disease}\t{texts[i % 3].format(i=i)}\t{label}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_min_figfiles(tmp_path):
    (tmp_path / "fig_vec.txt").write_text(
        "cough 1.0 0.0\ndoctor 0.9 0.1\nmarket 0.0 1.0\n", encoding="utf-8")
    (tmp_path / "kw.txt").write_text("cough\n", encoding="utf-8")


MIN_CONFIG = """\
[experiment]
dataset = data.tsv
folds = 2
seed = 7

[model]
max_sequence_length = 6
filters = 4
epochs = 1
batch = 8

[figurative]
embedding = fig_vec.txt
keywords = kw.txt
k = 1

[embedding tiny]
source = random
dim = 4
seed = 3
"""


class TestLoadConfig:
    def test_full_parse_with_relative_paths(self, tmp_path):
        write_min_dataset(tmp_path / "data.tsv")
        write_min_figfiles(tmp_path)
        (tmp_path / "cfg.ini").write_text(MIN_CONFIG, encoding="utf-8")
        config = load_config(tmp_path / "cfg.ini")
        assert config.dataset == (tmp_path / "data.tsv").resolve()
        assert config.folds == 2 and config.seed == 7
        assert config.model.filters == 4
        assert config.model.kernel_widths == (3, 4, 5)  # default preserved
        assert [s.name for s in config.embeddings] == ["tiny"]
        assert config.figurative.threshold == 0.2

    def test_missing_referenced_file(self, tmp_path):
        (tmp_path / "cfg.ini").write_text(MIN_CONFIG, encoding="utf-8")
        with pytest.raises(ConfigError, match="missing file"):
            load_config(tmp_path / "cfg.ini")

    def test_requires_embedding_section(self, tmp_path):
        write_min_dataset(tmp_path / "data.tsv")
        write_min_figfiles(tmp_path)
        text = MIN_CONFIG.split("[embedding tiny]")[0]
        (tmp_path / "cfg.ini").write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="embedding"):
            load_config(tmp_path / "cfg.ini")

    def test_bad_number(self, tmp_path):
        write_min_dataset(tmp_path / "data.tsv")
        write_min_figfiles(tmp_path)
        (tmp_path / "cfg.ini").write_text(
            MIN_CONFIG.replace("folds = 2", "folds = two"), encoding="utf-8")
        with pytest.raises(ConfigError, match="expected integer"):
            load_config(tmp_path / "cfg.ini")

    def test_folds_bound(self, tmp_path):
        write_min_dataset(tmp_path / "data.tsv")
        write_min_figfiles(tmp_path)
        (tmp_path / "cfg.ini").write_text(
            MIN_CONFIG.replace("folds = 2", "folds = 1"), encoding="utf-8")
        with pytest.raises(ConfigError, match="folds"):
            load_config(tmp_path / "cfg.ini")

    def test_unknown_approach(self, tmp_path):
        write_min_dataset(tmp_path / "data.tsv")
        write_min_figfiles(tmp_path)
        (tmp_path / "cfg.ini").write_text(
            MIN_CONFIG.replace("seed = 7", "seed = 7\napproaches = phmd,magic"),
            encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown approach"):
            load_config(tmp_path / "cfg.ini")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        for _, values in parse_config_sections(text):
            for key in ("dataset", "embedding", "keywords", "path", "ontology"):
                if key in values:
                    (tmp_path / values[key]).touch()
        (tmp_path / "cfg.ini").write_text(text, encoding="utf-8")
        config = load_config(tmp_path / "cfg.ini")
        assert [s.name for s in config.embeddings] == ["rand", "glove", "glove+mesh"]
        assert config.model.dropout_rates == (0.2, 0.3, 0.5)


class TestReportRoundTrip:
    def _report(self):
        return ExperimentReport(
            approaches=["phmd", "pipeline", "feataug"],
            embeddings=["e1", "e2"],
            overall={
                ("phmd", "e1"): Metrics(3, 1, 2, 4), ("phmd", "e2"): Metrics(4, 2, 1, 3),
                ("pipeline", "e1"): Metrics(2, 1, 3, 4), ("pipeline", "e2"): Metrics(3, 1, 2, 4),
                ("feataug", "e1"): Metrics(4, 1, 1, 4), ("feataug", "e2"): Metrics(5, 1, 0, 4),
            },
            per_disease={
                (a, e, "cancer"): Metrics(2, 1, 1, 2)
                for a in ("phmd", "pipeline", "feataug") for e in ("e1", "e2")
            },
            diseases=["cancer"], seed=11, folds=2)

    def test_structured_round_trip(self):
        report = self._report()
        text = report.to_structured()
        again = ExperimentReport.from_structured(text)
        assert again.to_structured() == text
        assert again.to_tables() == report.to_tables()

    def test_delta_f_exact(self):
        report = self._report()
        for approach in ("pipeline", "feataug"):
            for emb in ("e1", "e2"):
                expected = report.overall[(approach, emb)].f_score \
                    - report.overall[("phmd", emb)].f_score
                assert report.delta_f(approach, emb) == expected
            assert report.delta_f(approach) == \
                report.average(approach)[2] - report.average("phmd")[2]

    def test_structured_delta_recomputable(self):
        lines = [l for l in self._report().to_structured().splitlines()
                 if l and not l.startswith("#")]
        rows = [l.split("\t") for l in lines]
        f_of = {(r[0], r[1]): float(r[5]) for r in rows if r[2] == "overall"}
        for r in rows:
            if r[2] == "overall":
                recomputed = f_of[(r[0], r[1])] - f_of[("phmd", r[1])]
                assert abs(float(r[6]) - recomputed) < 2e-6


def _experiment_config(tmp_path, extra_experiment="", approaches="all", epochs=1):
    write_min_dataset(tmp_path / "data.tsv", n=12)
    write_min_figfiles(tmp_path)
    text = MIN_CONFIG.replace("epochs = 1", f"epochs = {epochs}")
    text = text.replace("seed = 7", f"seed = 7\napproaches = {approaches}"
                        + extra_experiment)
    (tmp_path / "cfg.ini").write_text(text, encoding="utf-8")
    return load_config(tmp_path / "cfg.ini")


NOISY_GATE_CONFIG = """\
[experiment]
dataset = dataset.tsv
folds = 3
seed = 42

[model]
max_sequence_length = 16
epochs = 2
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


class TestRunExperiment:
    def test_smoke_with_report_invariants(self, tmp_path):
        config = _experiment_config(tmp_path)
        report = run_experiment(config, out_dir=tmp_path / "out")
        for approach in report.approaches:
            metrics = report.overall[(approach, "tiny")]
            # micro counts cover the corpus
            assert metrics.tp + metrics.fp + metrics.fn + metrics.tn == 12
        assert (tmp_path / "out" / "report.tsv").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        dumps = list((tmp_path / "out" / "predictions").glob("*.tsv"))
        assert len(dumps) == 3

    def test_pipeline_dump_shows_nonphm_for_figurative(self, tmp_path):
        config = _experiment_config(tmp_path)
        run_experiment(config, out_dir=tmp_path / "out")
        dump = (tmp_path / "out" / "predictions" / "tiny__pipeline.tsv").read_text()
        figurative_rows = 0
        for line in dump.splitlines():
            _, prob, label, fig = line.split("\t")
            if fig == FIGURATIVE:
                figurative_rows += 1
                assert label == NONPHM and float(prob) == 0.0
        assert figurative_rows > 0  # the fixture plants figurative contexts

    def test_phmd_only_approach(self, tmp_path):
        config = _experiment_config(tmp_path, approaches="phmd")
        report = run_experiment(config)
        assert report.approaches == ["phmd"]

    def test_parallel_jobs_match_sequential(self, tmp_path):
        config = _experiment_config(tmp_path)
        sequential = run_experiment(config, out_dir=tmp_path / "a", jobs=1)
        parallel = run_experiment(config, out_dir=tmp_path / "b", jobs=2)
        assert sequential.to_structured() == parallel.to_structured()
        assert (tmp_path / "a" / "report.tsv").read_bytes() == \
            (tmp_path / "b" / "report.tsv").read_bytes()

    def test_pool_workers_share_blas_threads(self, monkeypatch):
        from figphm.harness import BLAS_THREAD_VARIABLES, _cell_pool
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        with _cell_pool(2) as pool:
            seen = [pool.submit(os.getenv, name).result(timeout=120)
                    for name in BLAS_THREAD_VARIABLES]
        assert seen == [str(max(1, (os.cpu_count() or 1) // 2))] * len(seen)
        assert not any(name in os.environ for name in BLAS_THREAD_VARIABLES)

    def test_pipeline_reuses_phmd_forward(self, tmp_path, monkeypatch):
        import figphm.harness as harness_mod
        config = _experiment_config(tmp_path, approaches="pipeline")
        calls, batch_sizes = [], []
        real_predict = harness_mod.predict
        real_proba = PhmdModel.predict_proba

        def counting_predict(model, ids, verdicts=None):
            if model.kind == "phmd":
                calls.extend(map(tuple, ids))
            return real_predict(model, ids, verdicts)

        def counting_proba(model, inputs):
            batch_sizes.append(len(inputs))
            return real_proba(model, inputs)
        monkeypatch.setattr(harness_mod, "predict", counting_predict)
        monkeypatch.setattr(PhmdModel, "predict_proba", counting_proba)
        run_experiment(config, out_dir=tmp_path / "out", jobs=1)
        # one embedding, so every doc is a test doc in exactly one cell
        documents = load_documents(config.dataset)
        vocab = build_vocab(documents)
        rows_of_docs = [tuple(pad(d.tokens, vocab, config.model.max_sequence_length))
                        for d in documents]
        assert len(set(rows_of_docs)) == 12     # so each row names one document
        assert sorted(calls) == sorted(rows_of_docs)
        # one PHMD forward per test doc, in one batch per cell
        assert len(batch_sizes) == config.folds and sum(batch_sizes) == 12

        def rows(approach):
            dump = tmp_path / "out" / "predictions" / f"tiny__{approach}.tsv"
            return {r[0]: r[1:] for r in
                    (line.split("\t") for line in dump.read_text().splitlines())}
        phmd, pipeline = rows("phmd"), rows("pipeline")
        # a position no cell stored would dump as nan
        assert len(phmd) == len(pipeline) == 12
        assert not any(np.isnan(float(r[0])) for r in [*phmd.values(), *pipeline.values()])
        literal = [d for d, (_, _, fig) in pipeline.items() if fig == LITERAL]
        assert literal  # the fixture gates some docs through to the classifier
        for doc_id in literal:
            assert pipeline[doc_id][:2] == phmd[doc_id][:2]

    def test_dump_figurative_columns_under_noisy_gate(self, tmp_path, capsys):
        """Each dump's fourth column names what steered its approach: the
        flipped gate label for +Pipeline, the detector's own verdict label
        (as ``fig-score`` prints it) for +FeatAug, and ``-`` for PHMD."""
        paths = write_planted_fixture(tmp_path, seed=3, n_docs=24)
        (tmp_path / "cfg.ini").write_text(NOISY_GATE_CONFIG, encoding="utf-8")
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "verdicts.tsv")]) == 0
        verdict = {doc_id: label for doc_id, _, label in
                   (line.split("\t") for line in
                    (tmp_path / "verdicts.tsv").read_text(encoding="utf-8").splitlines())}
        doc_ids = [line.split("\t")[0] for line in
                   paths["dataset"].read_text(encoding="utf-8").splitlines()]
        # the gate's noise: one draw per document, in dataset order
        draws = np.random.default_rng(derive_seed(42, "pipeline-noise")).random(len(doc_ids))
        flipped = {LITERAL: FIGURATIVE, FIGURATIVE: LITERAL}
        gate = {doc_id: flipped[verdict[doc_id]] if draw < 0.25 else verdict[doc_id]
                for doc_id, draw in zip(doc_ids, draws)}
        assert gate != verdict and set(gate.values()) == {LITERAL, FIGURATIVE}

        assert cli_main(["experiment", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "run"), "--jobs", "1"]) == 0

        def rows(approach):
            dump = tmp_path / "run" / "predictions" / f"rand20__{approach}.tsv"
            return {r[0]: r[1:] for r in (line.split("\t") for line in
                                          dump.read_text(encoding="utf-8").splitlines())}
        phmd, pipeline, feataug = rows("phmd"), rows("pipeline"), rows("feataug")
        assert {d: fig for d, (_, _, fig) in phmd.items()} == dict.fromkeys(doc_ids, "-")
        assert {d: fig for d, (_, _, fig) in pipeline.items()} == gate
        assert {d: fig for d, (_, _, fig) in feataug.items()} == verdict
        for doc_id in doc_ids:
            expected = ["0.000000", NONPHM] if gate[doc_id] == FIGURATIVE else phmd[doc_id][:2]
            assert pipeline[doc_id][:2] == expected

    def test_cell_failure_names_coordinate(self, tmp_path, monkeypatch):
        config = _experiment_config(tmp_path)
        import figphm.harness as harness_mod

        def boom(*args):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(harness_mod, "_run_cell", boom)
        with pytest.raises(RuntimeError, match=r"embedding=tiny, fold=0\): synthetic failure"):
            run_experiment(config)


def _planted_detector():
    table = make_table({
        "cough": [1.0, 0.0], "hack": [0.9, 0.1], "doctor": [0.95, 0.05],
        "market": [0.0, 1.0], "drop": [0.05, 0.95],
    })
    return FigurativeDetector(table, {"cough"}, health_lexicon={"doctor"}, k=2)


class TestEvaluateFigurative:
    def _labeled(self):
        rows = [
            ("f1", "doctor cough", LITERAL),       # literal score ~1     -> TN
            ("f2", "market cough", FIGURATIVE),    # low score            -> TP
            ("f3", "market drop cough", LITERAL),  # low score            -> FP
            ("f4", "doctor hack cough", FIGURATIVE),  # high score        -> FN
            ("f5", "nothing here", LITERAL),       # keyword-free, 0.5    -> TN
            ("f6", "drop cough", FIGURATIVE),      # low score            -> TP
        ]
        return [(Document(i, "other", t, t.split(), NONPHM), g) for i, t, g in rows]

    def test_exact_confusion_counts(self):
        results = evaluate_figurative(self._labeled(), _planted_detector())
        metrics = results["score"]
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (2, 1, 1, 2)

    def test_all_literal_degenerate_flagged(self):
        labeled = [(Document("a", "other", "doctor cough",
                             ["doctor", "cough"], NONPHM), LITERAL)]
        metrics = evaluate_figurative(labeled, _planted_detector())["score"]
        assert metrics.f_score == 0.0
        assert metrics.flags()

    def test_lda_mode_reported(self):
        results = evaluate_figurative(self._labeled(), _planted_detector(),
                                      use_lda=True, lda_iterations=40, lda_seed=1)
        assert set(results) == {"score", "score+lda"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_figurative([], _planted_detector())


class TestLoadFigurativeGold:
    def test_load(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("g1\tother\tsome text\tfigurative\n", encoding="utf-8")
        labeled = load_figurative_gold(path)
        assert labeled[0][1] == FIGURATIVE

    def test_bad_usage_label(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("g1\tother\tsome text\tPHM\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown usage label"):
            load_figurative_gold(path)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


class TestCli:
    def test_kappa(self, tmp_path, capsys):
        path = tmp_path / "ann.tsv"
        path.write_text("t1\tliteral\tliteral\nt2\tfigurative\tfigurative\n",
                        encoding="utf-8")
        assert cli_main(["kappa", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cohen_kappa: 1.0000" in out

    def test_kappa_missing_file_exit_2(self, tmp_path, capsys):
        assert cli_main(["kappa", str(tmp_path / "none.tsv")]) == 2

    def test_kappa_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["kappa", str(empty)]) == 2

    def test_retrofit_cli(self, tmp_path, capsys):
        (tmp_path / "vec.txt").write_text("a 1.0\nb 3.0\n", encoding="utf-8")
        (tmp_path / "lex.txt").write_text("a b\n", encoding="utf-8")
        code = cli_main(["retrofit", "--embeddings", str(tmp_path / "vec.txt"),
                         "--ontology", str(tmp_path / "lex.txt"),
                         "--iterations", "100",
                         "--out", str(tmp_path / "out.txt")])
        assert code == 0
        text = (tmp_path / "out.txt").read_text()
        assert "a 1.666667" in text and "b 2.333333" in text

    def test_experiment_and_report_cli(self, tmp_path, capsys):
        _experiment_config(tmp_path)
        code = cli_main(["experiment", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "run")])
        assert code == 0
        assert "Average across embedding initialisations" in capsys.readouterr().out
        code = cli_main(["report", str(tmp_path / "run" / "report.tsv")])
        assert code == 0
        assert "PHMD" in capsys.readouterr().out

    def test_experiment_repeated_document_id_exit_2(self, tmp_path, capsys, monkeypatch):
        import figphm.harness as harness_mod
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "40"]) == 0
        dataset = tmp_path / "dataset.tsv"
        row = next(r for r in dataset.read_text(encoding="utf-8").splitlines()
                   if r.startswith("p0004\t"))
        _, disease, _, label = row.split("\t")
        with dataset.open("a", encoding="utf-8") as handle:
            handle.write(f"p0004\t{disease}\tfill01 fill02 lit003\t"
                         f"{'NonPHM' if label == 'PHM' else 'PHM'}\n")
        monkeypatch.setattr(harness_mod, "train", None)     # fails before any training
        assert cli_main(["experiment", "--config", str(tmp_path / "experiment.ini"),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "line 41: document id 'p0004' already used on line 5" in err

    @pytest.mark.parametrize("command", ["experiment", "train"])
    @pytest.mark.parametrize("edit, key", [
        (("dim = 20", "dim = 1000000000000000"), "[embedding rand20a] dim"),
        (("epochs = 1", "epochs = 1\nfilters = 100000000000"), "[model] filters"),
        (("max_sequence_length = 16", "max_sequence_length = 1000000000000000"),
         "[model] max_sequence_length"),
    ], ids=["dim", "filters", "max_sequence_length"])
    def test_config_beyond_memory_exit_1_before_allocating(self, tmp_path, capsys, edit,
                                                           key, command):
        """A config whose tables, padded ids or parameters would need more
        than the machine's physical memory is a config error naming its
        section and key, raised before anything of that size exists."""
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "24", "--seed", "3"]) == 0
        config = tmp_path / "experiment.ini"
        text = config.read_text(encoding="utf-8").replace("epochs = 25", "epochs = 1")
        config.write_text(text.replace(*edit, 1), encoding="utf-8")
        capsys.readouterr()
        argv = {"experiment": ["--out", str(tmp_path / "run")],
                "train": ["--embedding", "rand20a", "--out", str(tmp_path / "m.ckpt")]}
        tracemalloc.start()
        try:
            code = cli_main([command, "--config", str(config), *argv[command]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("config error: ") and key in err and "physical memory" in err
        assert peak < 16 << 20
        assert not (tmp_path / "run").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command, jobs, cell", [
        ("experiment", "1", "embedding=rand20a, fold=0"),
        ("experiment", "2", "embedding=rand20a, fold=0"),
        ("train", None, "embedding=rand20a, full dataset"),
    ], ids=["experiment_jobs_1", "experiment_jobs_2", "train"])
    def test_diverging_lr_exit_1_without_numpy_warning(self, tmp_path, capfd, command, jobs,
                                                       cell):
        """A step size that the schema accepts but that sends training to
        non-finite values is a config error naming ``[model] lr``, the cell
        and the epoch. No numpy warning is printed, by this process or by a
        pool worker."""
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "24", "--seed", "3"]) == 0
        config = tmp_path / "experiment.ini"
        text = config.read_text(encoding="utf-8").replace("epochs = 25", "epochs = 2")
        config.write_text(text.replace("[model]", "[model]\nlr = 1e300", 1), encoding="utf-8")
        capfd.readouterr()
        argv = {"experiment": ["--out", str(tmp_path / "run"), "--jobs", str(jobs)],
                "train": ["--embedding", "rand20a", "--out", str(tmp_path / "m.ckpt")]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main([command, "--config", str(config), *argv[command]])
        err = capfd.readouterr().err
        assert code == 1, err
        assert err == (f"config error: [model] lr = 1e+300: training diverged ({cell}): "
                       f"non-finite training loss in epoch 2\n")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_experiment_leaves_no_directory_it_made(self, tmp_path, capsys, jobs):
        """A run that fails after the early check that ``--out`` is writable
        leaves none of the directories that check made, and keeps every
        directory and file that was there before."""
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "24", "--seed", "3"]) == 0
        config = tmp_path / "experiment.ini"
        text = config.read_text(encoding="utf-8").replace("epochs = 25", "epochs = 2")
        config.write_text(text.replace("[model]", "[model]\nlr = 1e300", 1), encoding="utf-8")
        kept = tmp_path / "kept"
        (kept / "predictions").mkdir(parents=True)
        (kept / "notes.txt").write_text("mine\n", encoding="utf-8")
        (tmp_path / "empty").mkdir()
        for out in (tmp_path / "new" / "deeper" / "run", kept, tmp_path / "empty"):
            assert cli_main(["experiment", "--config", str(config), "--out", str(out),
                             "--jobs", jobs]) == 1
        assert "training diverged" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert sorted(p.name for p in kept.iterdir()) == ["notes.txt", "predictions"]
        assert not any((kept / "predictions").iterdir())
        assert (kept / "notes.txt").read_text(encoding="utf-8") == "mine\n"
        assert (tmp_path / "empty").is_dir() and not any((tmp_path / "empty").iterdir())

    def test_experiment_bad_config_exit_1(self, tmp_path, capsys):
        (tmp_path / "cfg.ini").write_text("[experiment]\nfolds = 2\n", encoding="utf-8")
        assert cli_main(["experiment", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "run")]) == 1

    @pytest.mark.parametrize("edit", [
        ("[model]", "[modle]"),
        ("epochs = 1", "epoch = 1"),
        ("[embedding tiny]", "[embedding a]\nsource = random\ndim = 4\n[embedding a]"),
        ("[embedding tiny]", "[embedding f]\nsource = file\n[embedding tiny]"),
        ("[embedding tiny]", "[embedding r]\nsource = retrofit\npath = fig_vec.txt\n"
                             "[embedding tiny]"),
        ("max_sequence_length = 6", "max_sequence_length = 4"),
        ("filters = 4", "filters = 4\ndropout = 0.5,0.5"),
        ("[embedding tiny]", "[embedding r]\nsource = retrofit\npath = fig_vec.txt\n"
                             "ontology = kw.txt\nbeta_mode = flat\n[embedding tiny]"),
        ("[embedding tiny]", "[embedding g]\nsource = file\npath = fig_vec.txt\n"
                             "format = xml\n[embedding tiny]"),
        ("folds = 2", "folds = 13"),
        ("k = 1", "k = 1\nuse_lda = true"),
        ("k = 1", "k = 0"),
        ("[embedding tiny]", "[embedding r]\nsource = retrofit\npath = fig_vec.txt\n"
                             "ontology = kw.txt\niterations = -1\n[embedding tiny]"),
        ("[embedding tiny]", "[embedding r]\nsource = retrofit\npath = fig_vec.txt\n"
                             "ontology = kw.txt\nalpha = 0\n[embedding tiny]"),
        ("batch = 8", "batch = 8\nlr = -1"),
        ("batch = 8", "batch = 8\nlr = nan"),
        ("seed = 7", "seed = 7\njobs = 0"),
        ("k = 1", "k = 1\nlda_iterations = 0"),
        ("dataset = data.tsv", "dataset = data\0.tsv"),
        ("seed = 7", "seed = -1"),
        ("seed = 3", "seed = -3"),
    ], ids=["unknown_section", "unknown_key", "duplicate_embedding", "file_without_path",
            "retrofit_without_ontology", "sequence_too_short", "dropout_count",
            "beta_mode_flat", "format_xml", "folds_above_docs", "use_lda",
            "k_zero", "iterations_negative", "alpha_zero", "lr_negative", "lr_nan",
            "jobs_zero", "lda_iterations_zero", "nul_in_path", "seed_negative",
            "embedding_seed_negative"])
    def test_experiment_rejects_bad_config_exit_1(self, tmp_path, capsys, edit):
        write_min_dataset(tmp_path / "data.tsv", n=12)
        write_min_figfiles(tmp_path)
        (tmp_path / "cfg.ini").write_text(MIN_CONFIG.replace(*edit), encoding="utf-8")
        assert cli_main(["experiment", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "run")]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_config_path_in_a_symlink_loop_exit_1(self, tmp_path, capsys):
        _experiment_config(tmp_path)
        (tmp_path / "loop").symlink_to("loop")
        config = (tmp_path / "cfg.ini").read_text(encoding="utf-8")
        (tmp_path / "cfg.ini").write_text(config.replace("data.tsv", "loop"),
                                          encoding="utf-8")
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini")]) == 1
        assert "bad path 'loop'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["retrofit", "--embeddings", "fig_vec.txt", "--ontology", "kw.txt",
         "--iterations", "-1", "--out", "out.txt"],
        ["retrofit", "--embeddings", "fig_vec.txt", "--ontology", "kw.txt",
         "--alpha", "0", "--out", "out.txt"],
        ["experiment", "--config", "cfg.ini", "--out", "run", "--jobs", "0"],
        ["experiment", "--config", "cfg.ini", "--out", "run", "--jobs", "-1"],
        ["experiment", "--config", "cfg.ini", "--out", "run", "--seed", "-5"],
        ["synth", "--out", "fix", "--docs", "0"],
        ["synth", "--out", "fix", "--docs", "-5"],
    ], ids=["retrofit_iterations_negative", "retrofit_alpha_zero", "jobs_zero",
            "jobs_negative", "seed_negative", "synth_docs_zero", "synth_docs_negative"])
    def test_bad_argument_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        _experiment_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "fix").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "invalid_utf8"])
    @pytest.mark.parametrize("argv, code", [
        (["kappa", "bad"], 2),
        (["retrofit", "--embeddings", "bad", "--ontology", "kw.txt", "--out", "o.txt"], 2),
        (["retrofit", "--embeddings", "fig_vec.txt", "--ontology", "bad", "--out", "o.txt"], 2),
        (["fig-score", "--config", "cfg.ini", "--dataset", "bad"], 2),
        (["fig-eval", "--config", "cfg.ini", "--gold", "bad"], 2),
        (["evaluate", "--model", "bad", "--dataset", "data.tsv"], 2),
        (["report", "bad"], 2),
        (["experiment", "--config", "bad", "--out", "run"], 1),
    ], ids=["kappa", "retrofit_embeddings", "retrofit_ontology", "fig_score_dataset",
            "fig_eval_gold", "evaluate_model", "report", "experiment_config"])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, monkeypatch, argv, code,
                                        kind):
        _experiment_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        if kind == "directory":
            (tmp_path / "bad").mkdir()
        elif kind == "invalid_utf8":
            (tmp_path / "bad").write_bytes(b"d1\tcancer\tcaf\xe9\tPHM\n")
        assert cli_main(argv) == code
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, out", [
        (["synth", "--out", "data.tsv"], "data.tsv"),
        (["fig-score", "--config", "cfg.ini", "--out", "missing/v.tsv"], "missing/v.tsv"),
        (["experiment", "--config", "cfg.ini", "--out", "data.tsv/run"], "data.tsv/run"),
        (["train", "--config", "cfg.ini", "--embedding", "tiny", "--out", "missing/m.ckpt"],
         "missing/m.ckpt"),
        (["evaluate", "--model", "m.ckpt", "--dataset", "data.tsv", "--out", "missing/p.tsv"],
         "missing/p.tsv"),
        (["retrofit", "--embeddings", "fig_vec.txt", "--ontology", "kw.txt",
          "--out", "missing/o.txt"], "missing/o.txt"),
    ], ids=["synth_out_is_a_file", "fig_score", "experiment_out_under_a_file", "train",
            "evaluate", "retrofit"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, argv, out):
        import figphm.harness as harness_mod
        _experiment_config(tmp_path)
        save_model(build_phmd(make_table({"cough": [0.1, 0.2]}),
                              ModelConfig(max_sequence_length=6, filters=2), seed=0),
                   tmp_path / "m.ckpt")
        monkeypatch.chdir(tmp_path)
        if argv[0] == "experiment":     # fails before any training
            monkeypatch.setattr(harness_mod, "train", None)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write ") and out in err

    @pytest.mark.parametrize("kind", ["directory", "invalid_utf8"])
    @pytest.mark.parametrize("name", ["data.tsv", "fig_vec.txt", "kw.txt"])
    def test_unreadable_file_named_by_config_exit_2(self, tmp_path, capsys, kind, name):
        _experiment_config(tmp_path)
        (tmp_path / name).unlink()
        if kind == "directory":
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(b"caf\xe9 1.0\n")
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("# seed=11 folds=2", "# seed=x folds=3"),
        ("# seed=11 folds=2", "# seed=11"),
        ("# seed=11 folds=2", "# seed=11 folds"),
        ("\toverall\t", "\teverywhere\t"),
        ("phmd\te1\toverall", "bert\te1\toverall"),
        ("phmd\te1\toverall", "phmd\te1\tdisease:other"),
        ("phmd\te1\tdisease:cancer", "phmd\te1\tdisease:other"),
        ("phmd\t", "pipeline\t"),
        ("phmd\te1\tdisease:cancer", "phmd\te1\toverall\t0.000000\t0.000000\t0.000000\t"
                                      "0.000000\t0\t0\t9\t15\t-\nphmd\te1\tdisease:cancer"),
    ], ids=["seed_not_an_integer", "folds_missing", "folds_without_value",
            "unknown_scope", "unknown_approach", "overall_row_missing",
            "disease_row_missing", "phmd_missing", "row_repeated"])
    def test_report_malformed_exit_2(self, tmp_path, capsys, edit):
        text = TestReportRoundTrip()._report().to_structured()
        assert edit[0] in text
        (tmp_path / "bad.tsv").write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
        assert cli_main(["report", str(tmp_path / "bad.tsv")]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", ["x\t1\t1\t1", "-1\t1\t1\t1", "1\t1\t1\t\u00b2"])
    def test_report_bad_counts(self, counts):
        fields = ["phmd", "e", "overall", "0", "0", "0", "0", *counts.split("\t"), "-"]
        with pytest.raises(DataError, match="bad report counts"):
            ExperimentReport.from_structured("\t".join(fields) + "\n")

    def test_train_evaluate_cli(self, tmp_path, capsys):
        _experiment_config(tmp_path)
        code = cli_main(["train", "--config", str(tmp_path / "cfg.ini"),
                         "--embedding", "tiny",
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 0
        code = cli_main(["evaluate", "--model", str(tmp_path / "m.ckpt"),
                         "--dataset", str(tmp_path / "data.tsv"),
                         "--out", str(tmp_path / "preds.tsv")])
        assert code == 0
        assert (tmp_path / "preds.tsv").read_text().count("\n") == 12

    def test_evaluate_feataug_without_config_exit_1(self, tmp_path, capsys):
        """The CLI names the missing ``--config`` before it predicts; the
        library's ``predict`` refuses a FeatAug model without verdicts."""
        _experiment_config(tmp_path)
        model = build_feataug(make_table({"cough": [0.1, 0.2]}),
                              ModelConfig(max_sequence_length=6, filters=2), seed=0)
        save_model(model, tmp_path / "m.ckpt")
        assert cli_main(["evaluate", "--model", str(tmp_path / "m.ckpt"),
                         "--dataset", str(tmp_path / "data.tsv"),
                         "--out", str(tmp_path / "preds.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--config" in err
        assert not (tmp_path / "preds.tsv").exists()
        with pytest.raises(ValueError, match="feature row per document"):
            evaluate_model(model, load_documents(tmp_path / "data.tsv"))

    def test_runtime_failure_without_a_message_names_its_type(self, capsys, monkeypatch):
        import figphm.cli as cli_mod

        def boom(args):
            raise MemoryError()
        monkeypatch.setitem(cli_mod._COMMANDS, "report", boom)
        assert cli_main(["report", "report.tsv"]) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("damage", [
        "no_shapes", "bad_shapes", "unknown_config_key", "config_not_a_dict",
        "zero_arrays", "trailing_bytes", "not_a_dict", "no_kind", "no_config",
        "no_vocab", "no_feature_length", "nan_dense_b",
    ])
    def test_evaluate_malformed_checkpoint_exit_2(self, tmp_path, capsys, damage):
        _experiment_config(tmp_path)
        table = make_table({"cough": [0.1, 0.2], "doctor": [0.3, 0.4]})
        build = build_feataug if damage == "no_feature_length" else build_phmd
        save_model(build(table, ModelConfig(max_sequence_length=6, filters=2), seed=0),
                   tmp_path / "good.ckpt")
        raw = (tmp_path / "good.ckpt").read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        manifest = json.loads(raw[8:8 + header_len])
        data = raw[8 + header_len:]
        if damage == "no_shapes":
            del manifest["shapes"]
        elif damage == "bad_shapes":
            manifest["shapes"][0] = ["4", 2]
        elif damage == "unknown_config_key":
            manifest["config"]["bogus"] = 1
        elif damage == "config_not_a_dict":
            manifest["config"] = 5
        elif damage == "zero_arrays":
            manifest["shapes"], data = [], b""
        elif damage == "trailing_bytes":
            data += bytes(8)
        elif damage == "not_a_dict":
            manifest = [manifest]
        elif damage == "nan_dense_b":  # the last array
            data = data[:-8] + struct.pack("<d", float("nan"))
        else:
            del manifest[damage.removeprefix("no_")]
        header = json.dumps(manifest).encode("utf-8")
        (tmp_path / "bad.ckpt").write_bytes(struct.pack("<Q", len(header)) + header + data)
        for name, expected in (("good.ckpt", 0), ("bad.ckpt", 2)):
            assert cli_main(["evaluate", "--model", str(tmp_path / name),
                             "--dataset", str(tmp_path / "data.tsv"),
                             "--config", str(tmp_path / "cfg.ini")]) == expected
        assert "error:" in capsys.readouterr().err

    def test_fig_score_and_eval_cli(self, tmp_path, capsys):
        _experiment_config(tmp_path)
        code = cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "verdicts.tsv")])
        assert code == 0
        assert (tmp_path / "verdicts.tsv").exists()
        (tmp_path / "gold.tsv").write_text(
            "g1\tother\tdoctor cough\tliteral\ng2\tother\tmarket cough\tfigurative\n",
            encoding="utf-8")
        code = cli_main(["fig-eval", "--config", str(tmp_path / "cfg.ini"),
                         "--gold", str(tmp_path / "gold.tsv")])
        assert code == 0
        assert "score:" in capsys.readouterr().out

    def test_fig_score_stdout_matches_out_file(self, tmp_path, capsys):
        _experiment_config(tmp_path)
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini")]) == 0
        stdout = capsys.readouterr().out
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini"),
                         "--out", str(tmp_path / "verdicts.tsv")]) == 0
        assert (tmp_path / "verdicts.tsv").read_text(encoding="utf-8") == stdout
        assert stdout.count("\n") == 12 and stdout.startswith("d0\t")

    @pytest.mark.parametrize("argv", [
        ["fig-score", "--config", "cfg.ini"],
        ["fig-score", "--config", "cfg.ini", "--dataset", "data.tsv"],
        ["experiment", "--config", "cfg.ini", "--out", "run"],
        ["train", "--config", "cfg.ini", "--embedding", "tiny", "--out", "m2.ckpt"],
        ["evaluate", "--model", "m.ckpt", "--dataset", "data.tsv"],
    ], ids=["fig_score", "fig_score_dataset", "experiment", "train", "evaluate"])
    def test_empty_dataset_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        _experiment_config(tmp_path)
        save_model(build_phmd(make_table({"cough": [0.1, 0.2]}),
                              ModelConfig(max_sequence_length=6, filters=2), seed=0),
                   tmp_path / "m.ckpt")
        (tmp_path / "data.tsv").write_text("", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"data error: dataset \S*data\.tsv is empty\n", captured.err)

    def test_synth_cli(self, tmp_path, capsys):
        assert cli_main(["synth", "--out", str(tmp_path / "fix"), "--docs", "40",
                         "--seed", "1"]) == 0
        assert (tmp_path / "fix" / "dataset.tsv").exists()
        assert (tmp_path / "fix" / "experiment.ini").exists()


def test_only_the_loaders_call_load_dataset():
    """Every dataset in the package is read by ``harness.load_documents``,
    which rejects an empty one, or by ``load_figurative_gold``."""
    allowed = {("harness", "load_documents"), ("harness", "load_figurative_gold")}
    package = Path(__file__).resolve().parent.parent / "src" / "figphm"
    found = []
    for source in sorted(package.glob("*.py")):
        for function, call in _calls_by_function(ast.parse(source.read_text("utf-8"))):
            name = call.func.id if isinstance(call.func, ast.Name) else \
                getattr(call.func, "attr", None)
            if name == "load_dataset" and (source.stem, function) not in allowed:
                found.append(f"{source.name}:{call.lineno} in {function}")
    assert not found, "load_dataset called outside the loaders: " + ", ".join(found)


class TestWritePlantedFixture:
    def test_files_written_and_loadable(self, tmp_path):
        paths = write_planted_fixture(tmp_path, seed=0, n_docs=40)
        from figphm.corpus import load_dataset
        docs = load_dataset(paths["dataset"])
        assert len(docs) == 40
        labels = {d.label for d in docs}
        assert labels == {PHM, NONPHM}
