import numpy as np
import pytest
from hypothesis import given, strategies as st

from figphm import figurative
from figphm.corpus import Document, FIGURATIVE, LITERAL
from figphm.figurative import (FigurativeDetector, LinguisticFeatures,
                               LiteralRepresentation, TAGSET,
                               build_literal_representation, classify,
                               default_health_lexicon, extract_features,
                               lda_estimate, literal_usage_score, load_word_list,
                               mark_symptoms, pos_tag)

from figphm.synthetic import planted_corpus

from conftest import make_table
from scalar_reference import (lda_loop, literal_usage_score_loop,
                              nearest_neighbors_loop)


class TestPosTag:
    def test_lexicon_fixture(self):
        assert pos_tag(["i", "have", "a", "cough"]) == ["PRON", "VERB", "DET", "NOUN"]

    def test_punctuation(self):
        assert pos_tag(["!"]) == ["PUNCT"]

    def test_unknown_fallback(self):
        assert pos_tag(["zzzqx"]) == ["X"]

    def test_suffix_rules(self):
        assert pos_tag(["quickly", "walking", "happiness", "famous"]) == \
            ["ADV", "VERB", "NOUN", "ADJ"]

    def test_numbers_and_sentinels(self):
        assert pos_tag(["42", "3.5", "<url>"]) == ["NUM", "NUM", "X"]

    def test_every_tag_in_tagset(self):
        tags = pos_tag(["i", "run", "big", "now", "the", "on", "7", "and",
                        "up", ",", "qqq"])
        assert all(t in TAGSET for t in tags)


class TestLiteralRepresentation:
    def test_one_dimensional_oracle(self, tiny_table):
        rep = build_literal_representation(tiny_table, "a", 1)
        assert rep.related_words == ["b"]
        assert rep.keyword == "a"

    def test_oov_keyword(self, tiny_table):
        with pytest.raises(KeyError, match="zzz"):
            build_literal_representation(tiny_table, "zzz", 3)

    def test_query_not_in_own_representation(self, tiny_table):
        rep = build_literal_representation(tiny_table, "a", 3)
        assert "a" not in rep.related_words
        assert len(rep.related_words) == 2  # only b and c exist


class TestLiteralUsageScore:
    def test_identical_vectors_score_one(self):
        table = make_table({"kw": [0.0, 1.0], "u": [1.0, 0.0], "r": [2.0, 0.0]})
        rep = LiteralRepresentation("kw", ["r"])
        assert literal_usage_score(["u"], rep, table) == pytest.approx(1.0)

    def test_all_negative_cosines_clamp_to_zero(self):
        table = make_table({"kw": [0.0, 1.0], "u": [1.0, 0.0], "r": [-1.0, 0.0]})
        rep = LiteralRepresentation("kw", ["r"])
        assert literal_usage_score(["u"], rep, table) == 0.0

    def test_hand_computed_half(self):
        # pairs (u, r1) and (u, r2): cosines 1 and 0, mean 0.5
        table = make_table({"kw": [0.0, 1.0], "u": [1.0, 0.0],
                            "r1": [1.0, 0.0], "r2": [0.0, 1.0]})
        rep = LiteralRepresentation("kw", ["r1", "r2"])
        assert literal_usage_score(["u"], rep, table) == pytest.approx(0.5)

    def test_no_content_words_gives_half(self):
        table = make_table({"kw": [1.0], "r": [1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        assert literal_usage_score(["kw", "oov", "<user>"], rep, table) == 0.5

    def test_keyword_excluded_by_default_included_on_request(self):
        table = make_table({"kw": [1.0, 0.0], "r": [1.0, 0.0], "u": [0.0, 1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        without = literal_usage_score(["kw", "u"], rep, table)
        with_target = literal_usage_score(["kw", "u"], rep, table, include_target=True)
        assert without == 0.0
        assert with_target == pytest.approx(0.5)

    def test_token_order_irrelevant(self):
        rng = np.random.default_rng(0)
        table = make_table({w: rng.normal(0, 1, 3).tolist()
                            for w in ["kw", "x", "y", "z", "r1", "r2"]})
        rep = LiteralRepresentation("kw", ["r1", "r2"])
        a = literal_usage_score(["x", "y", "z"], rep, table)
        b = literal_usage_score(["z", "x", "y"], rep, table)
        assert a == pytest.approx(b, abs=1e-12)

    def test_scale_invariance_of_rows(self):
        table = make_table({"kw": [1.0, 1.0], "u": [1.0, 0.5], "r": [0.5, 1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        base = literal_usage_score(["u"], rep, table)
        table.matrix[table.vocab["u"]] *= 17.0
        assert literal_usage_score(["u"], rep, table) == pytest.approx(base, abs=1e-12)


class TestClassify:
    def test_threshold_fixture(self):
        assert classify(0.19, 0.2) == FIGURATIVE

    def test_boundary_not_strictly_below(self):
        assert classify(0.20, 0.2) == LITERAL

    def test_top_score(self):
        assert classify(1.0, 0.2) == LITERAL

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(1.5, 0.2)
        with pytest.raises(ValueError):
            classify(0.5, 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    def test_monotone_in_score(self, score, threshold):
        label = classify(score, threshold)
        assert label == (FIGURATIVE if score < threshold else LITERAL)


class TestExtractFeatures:
    LEXICON = {"cough", "fever"}

    def test_subordinate_and_neighbors(self):
        tokens = ["because", "i", "cough"]
        feats = extract_features(tokens, 2, pos_tag(tokens), self.LEXICON)
        assert feats.has_subordinate_clause == 1
        assert feats.left_pos[TAGSET.index("PRON")] == 1.0
        assert feats.left_pos.sum() == 1.0
        assert feats.right_pos.sum() == 0.0  # target is last token

    def test_target_at_start_has_zero_left_block(self):
        tokens = ["cough", "today"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats.left_pos.sum() == 0.0
        assert feats.right_pos.sum() == 1.0

    def test_health_counts_exclude_target(self):
        tokens = ["cough", "is", "here"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats.health_word_presence == 0
        assert feats.health_word_count_norm == 0.0
        tokens = ["cough", "and", "fever"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats.health_word_presence == 1
        assert feats.health_word_count_norm == pytest.approx(1 / 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            extract_features(["a"], 3, ["X"], set())

    def test_tag_length_mismatch(self):
        with pytest.raises(ValueError):
            extract_features(["a", "b"], 0, ["X"], set())

    def test_vector_layout(self):
        feats = extract_features(["because", "cough"], 1,
                                 pos_tag(["because", "cough"]), self.LEXICON)
        vec = feats.to_vector()
        assert vec.shape == (LinguisticFeatures.vector_length(),)
        assert vec[0] == 1.0  # subordinate bit leads


class TestLdaEstimate:
    def test_planted_topics_recovered(self):
        # disjoint vocabularies; docs long enough that the smoothed posterior
        # (n_dk + alpha) / (n_d + 2 alpha) can actually exceed 0.9
        docs = [["alpha", "beta", "gamma", "alpha", "beta", "gamma", "alpha", "beta"],
                ["omega", "psi", "chi", "omega", "psi", "chi", "omega", "psi"]]
        est = lda_estimate(docs, [0.99, 0.01], iterations=200, seed=7)
        assert est.doc_dist[0][0] > 0.9
        assert est.doc_dist[1][0] < 0.1
        assert est.word_dist["alpha"][0] > 0.8
        assert est.word_dist["omega"][1] > 0.8

    def test_deterministic(self):
        docs = [["a", "b"], ["c", "d"], ["a", "c"]]
        seeds = [0.8, 0.3, 0.5]
        est1 = lda_estimate(docs, seeds, iterations=60, seed=3)
        est2 = lda_estimate(docs, seeds, iterations=60, seed=3)
        assert est1.doc_dist == est2.doc_dist
        assert est1.word_dist == est2.word_dist

    def test_single_document(self):
        est = lda_estimate([["x", "y", "x"]], [0.5], iterations=20, seed=1)
        assert sum(est.doc_dist[0]) == pytest.approx(1.0, abs=1e-9)

    def test_distributions_normalized(self):
        docs = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]]
        est = lda_estimate(docs, [0.9, 0.5, 0.1], iterations=50, seed=2)
        for pair in est.doc_dist:
            assert sum(pair) == pytest.approx(1.0, abs=1e-9)
            assert min(pair) >= 0.0
        for pair in est.word_dist.values():
            assert sum(pair) == pytest.approx(1.0, abs=1e-9)
            assert min(pair) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lda_estimate([], [], iterations=10, seed=0)
        with pytest.raises(ValueError):
            lda_estimate([["a"]], [0.5, 0.5], iterations=10, seed=0)
        with pytest.raises(ValueError):
            lda_estimate([["a"]], [0.5], iterations=0, seed=0)


class TestFigurativeDetector:
    def _detector(self):
        table = make_table({
            "cough": [1.0, 0.0], "hack": [0.9, 0.1], "doctor": [0.95, 0.05],
            "market": [0.0, 1.0], "drop": [0.05, 0.95],
        })
        return FigurativeDetector(table, {"cough"}, health_lexicon={"doctor"}, k=2)

    def test_literal_context_scores_high(self):
        det = self._detector()
        doc = Document("1", "other", "", ["doctor", "cough"], "PHM")
        mark_symptoms([doc], det.keywords)
        verdict = det.verdict(doc)
        assert verdict.label == LITERAL
        assert verdict.literal_score > 0.8

    def test_figurative_context_scores_low(self):
        det = self._detector()
        doc = Document("2", "other", "", ["market", "drop", "cough"], "NonPHM")
        mark_symptoms([doc], det.keywords)
        verdict = det.verdict(doc)
        assert verdict.label == FIGURATIVE
        assert verdict.literal_score < 0.2

    def test_document_without_keyword_is_uninformative_literal(self):
        det = self._detector()
        doc = Document("3", "other", "", ["market", "drop"], "NonPHM")
        verdict = det.verdict(doc)
        assert verdict.literal_score == 0.5
        assert verdict.label == LITERAL

    def test_max_over_occurrences(self):
        det = self._detector()
        doc = Document("4", "other", "", ["cough", "doctor", "cough"], "PHM")
        mark_symptoms([doc], det.keywords)
        assert len(doc.symptom_indices) == 2
        verdict = det.verdict(doc)
        assert verdict.label == LITERAL

    def test_verdict_respects_threshold_invariant(self):
        det = self._detector()
        for tokens in (["doctor", "cough"], ["market", "cough"], ["drop"]):
            doc = Document("x", "other", "", tokens, "PHM")
            mark_symptoms([doc], det.keywords)
            verdict = det.verdict(doc)
            assert (verdict.label == FIGURATIVE) == (verdict.literal_score < det.threshold)

    def test_verdicts_marks_symptoms_first(self):
        det = self._detector()
        docs = [Document("5", "other", "", ["market", "drop", "cough"], "NonPHM"),
                Document("6", "other", "", ["doctor", "cough", "cough"], "PHM")]
        verdicts = det.verdicts(docs)
        assert [d.symptom_indices for d in docs] == [[2], [1, 2]]
        for verdict, doc in zip(verdicts, docs, strict=True):
            expected = det.verdict(doc)
            assert (verdict.literal_score, verdict.label) == \
                (expected.literal_score, expected.label)
            assert np.array_equal(verdict.features.to_vector(), expected.features.to_vector())


class TestArrayPathsMatchLoops:
    """The product score agrees with the pairwise loop to 1e-12, the
    detector's labels are the loop detector's, and the block-draw sampler
    is bitwise the per-token sampler."""

    @pytest.mark.parametrize("include_target", [False, True])
    def test_scores_on_planted_corpus(self, include_target):
        docs, table, keywords = planted_corpus(n_docs=120, seed=5)
        for keyword in sorted(keywords):
            rep = build_literal_representation(table, keyword, 10)
            for doc in docs:
                got = literal_usage_score(doc.tokens, rep, table, include_target)
                want = literal_usage_score_loop(doc.tokens, rep, table, include_target)
                assert abs(got - want) <= 1e-12

    def test_score_edge_rows(self):
        # a zero-norm content row and a zero-norm related row count as 0;
        # repeated tokens weigh twice; related words outside the table drop
        table = make_table({"kw": [1.0, 0.0, 0.0], "u": [0.3, -0.2, 0.9],
                            "zero": [0.0, 0.0, 0.0], "r1": [1.0, 2.0, -3.0],
                            "r2": [0.0, 0.0, 0.0], "r3": [-0.1, 0.4, 0.2]})
        rep = LiteralRepresentation("kw", ["r1", "r2", "gone", "r3"])
        for tokens in (["u", "zero", "u", "kw", "<url>"], ["zero"], ["u"], ["kw", "r3"]):
            got = literal_usage_score(tokens, rep, table)
            assert abs(got - literal_usage_score_loop(tokens, rep, table)) <= 1e-12
        gone = LiteralRepresentation("kw", ["gone"])
        assert literal_usage_score(["u"], gone, table) == 0.5

    def test_detector_matches_loop_detector(self, monkeypatch):
        docs, table, keywords = planted_corpus(n_docs=200, seed=9)
        fast = FigurativeDetector(table, keywords, health_lexicon=set()).verdicts(docs)
        monkeypatch.setattr(figurative, "nearest_neighbors", nearest_neighbors_loop)
        monkeypatch.setattr(figurative, "literal_usage_score", literal_usage_score_loop)
        slow_detector = FigurativeDetector(table, keywords, health_lexicon=set())
        slow = slow_detector.verdicts(docs)
        assert [v.label for v in fast] == [v.label for v in slow]
        assert max(abs(a.literal_score - b.literal_score) for a, b in zip(fast, slow)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 41])
    def test_lda_bitwise(self, seed):
        docs, _, _ = planted_corpus(n_docs=90, seed=seed)
        tokens = [doc.tokens for doc in docs]
        scores = np.random.default_rng(seed).random(len(docs)).tolist()
        est = lda_estimate(tokens, scores, iterations=9, seed=seed + 1)
        word_dist, doc_dist = lda_loop(tokens, scores, 9, seed + 1)
        assert est.doc_dist == doc_dist
        assert est.word_dist == word_dist
        assert list(est.word_dist) == list(word_dist)


class TestWordLists:
    def test_load_word_list_with_comments(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\ncough\nFEVER\n\n", encoding="utf-8")
        assert load_word_list(path) == {"cough", "fever"}

    def test_default_health_lexicon_bundled(self):
        lexicon = default_health_lexicon()
        assert "cough" in lexicon
        assert len(lexicon) >= 90
