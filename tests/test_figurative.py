import ast
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from figphm import embeddings, figurative
from figphm.cli import main as cli_main
from figphm.corpus import Document, FIGURATIVE, LITERAL
from figphm.embeddings import UnitRows
from figphm.figurative import (FigurativeDetector, FigurativeVerdict,
                               LiteralRepresentation, TAGSET,
                               build_literal_representation, classify,
                               default_health_lexicon, extract_features,
                               feature_row_length, feature_rows, lda_estimate,
                               literal_usage_score, load_word_list,
                               mark_symptoms, pos_tag)

from figphm.synthetic import planted_corpus

from conftest import make_table
from test_harness import MIN_CONFIG
from test_corpus import _calls_by_function
from scalar_reference import (feature_row_loop, lda_loop, literal_usage_score_loop,
                              literal_usage_score_per_call, nearest_neighbors_loop,
                              pos_tag_loop)


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


# Words the tagging rules treat differently: lexicon entries, sentinels,
# numbers, punctuation, and words that end in (or are too short for) a suffix.
_TAGGER_WORDS = sorted(figurative._TAG_LEXICON) + [
    "<pad>", "<unk>", "<url>", "<user>", "12", "3.5", "1,000", "50%", "4th", ".", "...",
    "?!", "", "ly", "fly", "ably", "able", "going", "sing", "nation", "ion", "ic", "tic",
    "normal", "quickly", "walked", "é", "Éclair", "ＡＢ", "２", "hope-less", "12ly"]


class TestPosTagMatchesLoop:
    def test_fig_prep_vocabulary(self):
        """The V=50k benchmark corpus's word shapes, each document tagged twice."""
        words = (["cough", "fever", "chill", "wheeze"] + [f"lit{i:03d}" for i in range(300)]
                 + [f"fig{i:03d}" for i in range(300)] + [f"fill{i:02d}" for i in range(30)]
                 + [f"t{i:05d}" for i in range(0, 49_366, 7)])
        docs, _, _ = planted_corpus(n_docs=200, seed=3)
        for tokens in [words, _TAGGER_WORDS] + [doc.tokens for doc in docs] * 2:
            assert pos_tag(tokens) == pos_tag_loop(tokens)

    @given(st.lists(st.one_of(st.sampled_from(_TAGGER_WORDS), st.text(max_size=7)),
                    max_size=12))
    def test_token_lists(self, tokens):
        assert pos_tag(tokens) == pos_tag_loop(tokens)

    def test_cache_is_bounded(self):
        assert figurative._token_tag.cache_info().maxsize is not None


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
        assert literal_usage_score(["u"], rep, UnitRows(table)) == pytest.approx(1.0)

    def test_all_negative_cosines_clamp_to_zero(self):
        table = make_table({"kw": [0.0, 1.0], "u": [1.0, 0.0], "r": [-1.0, 0.0]})
        rep = LiteralRepresentation("kw", ["r"])
        assert literal_usage_score(["u"], rep, UnitRows(table)) == 0.0

    def test_hand_computed_half(self):
        # pairs (u, r1) and (u, r2): cosines 1 and 0, mean 0.5
        table = make_table({"kw": [0.0, 1.0], "u": [1.0, 0.0],
                            "r1": [1.0, 0.0], "r2": [0.0, 1.0]})
        rep = LiteralRepresentation("kw", ["r1", "r2"])
        assert literal_usage_score(["u"], rep, UnitRows(table)) == pytest.approx(0.5)

    def test_no_content_words_gives_half(self):
        table = make_table({"kw": [1.0], "r": [1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        assert literal_usage_score(["kw", "oov", "<user>"], rep, UnitRows(table)) == 0.5

    def test_keyword_excluded_by_default_included_on_request(self):
        table = make_table({"kw": [1.0, 0.0], "r": [1.0, 0.0], "u": [0.0, 1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        without = literal_usage_score(["kw", "u"], rep, UnitRows(table))
        with_target = literal_usage_score(["kw", "u"], rep, UnitRows(table), include_target=True)
        assert without == 0.0
        assert with_target == pytest.approx(0.5)

    def test_token_order_irrelevant(self):
        rng = np.random.default_rng(0)
        table = make_table({w: rng.normal(0, 1, 3).tolist()
                            for w in ["kw", "x", "y", "z", "r1", "r2"]})
        rep = LiteralRepresentation("kw", ["r1", "r2"])
        a = literal_usage_score(["x", "y", "z"], rep, UnitRows(table))
        b = literal_usage_score(["z", "x", "y"], rep, UnitRows(table))
        assert a == pytest.approx(b, abs=1e-12)

    def test_scale_invariance_of_rows(self):
        table = make_table({"kw": [1.0, 1.0], "u": [1.0, 0.5], "r": [0.5, 1.0]})
        rep = LiteralRepresentation("kw", ["r"])
        base = literal_usage_score(["u"], rep, UnitRows(table))
        table.matrix[table.vocab["u"]] *= 17.0
        assert literal_usage_score(["u"], rep, UnitRows(table)) == pytest.approx(base, abs=1e-12)


# A unit row whose self-dot through ``@`` rounds to 1.0000000000000002, and a
# row far from it.
_ROUNDS_UP = [0.213272, 0.458993, 0.08725]
_FAR = [-0.458993, 0.213272, 0.0]


class TestScoreCappedAtOne:
    """A document whose only content word is the keyword's one related word
    scores its unit row's self-dot, which can round above 1."""

    def _table(self):
        return make_table({"cough": _ROUNDS_UP, "near": _ROUNDS_UP, "far": _FAR})

    def test_the_self_dot_rounds_above_one(self):
        unit = UnitRows(self._table()).rows([3])
        assert float((unit @ unit.T)[0, 0]) > 1.0

    def test_verdict_is_literal_with_score_one(self):
        det = FigurativeDetector(self._table(), {"cough"}, k=1)
        assert det.representations["cough"].related_words == ["near"]
        verdict = det.verdict(Document("d", "other", "cough near", ["cough", "near"], "PHM"))
        assert verdict.literal_score == 1.0
        assert verdict.label == LITERAL

    def test_fig_score_exits_0(self, tmp_path, capsys):
        (tmp_path / "data.tsv").write_text("d0\tother\tcough near\tPHM\n", encoding="utf-8")
        (tmp_path / "fig_vec.txt").write_text(
            "".join(f"{word} " + " ".join(map(str, row)) + "\n" for word, row in
                    [("cough", _ROUNDS_UP), ("near", _ROUNDS_UP), ("far", _FAR)]),
            encoding="utf-8")
        (tmp_path / "kw.txt").write_text("cough\n", encoding="utf-8")
        (tmp_path / "cfg.ini").write_text(MIN_CONFIG, encoding="utf-8")
        assert cli_main(["fig-score", "--config", str(tmp_path / "cfg.ini")]) == 0
        assert capsys.readouterr().out == "d0\t1.000000\tliteral\n"


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
    """The block is the subordinate bit, the left and right tag one-hots,
    then the health-word presence and share."""

    LEXICON = {"cough", "fever"}
    LEFT = slice(1, 1 + len(TAGSET))
    RIGHT = slice(1 + len(TAGSET), 1 + 2 * len(TAGSET))

    def test_subordinate_and_neighbors(self):
        tokens = ["because", "i", "cough"]
        feats = extract_features(tokens, 2, pos_tag(tokens), self.LEXICON)
        assert feats.shape == (3 + 2 * len(TAGSET),) and feats.dtype == np.float64
        assert feats[0] == 1.0
        assert feats[self.LEFT][TAGSET.index("PRON")] == 1.0
        assert feats[self.LEFT].sum() == 1.0
        assert feats[self.RIGHT].sum() == 0.0  # target is last token

    def test_target_at_start_has_zero_left_block(self):
        tokens = ["cough", "today"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats[self.LEFT].sum() == 0.0
        assert feats[self.RIGHT].sum() == 1.0

    def test_health_counts_exclude_target(self):
        tokens = ["cough", "is", "here"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats[-2:].tolist() == [0.0, 0.0]
        tokens = ["cough", "and", "fever"]
        feats = extract_features(tokens, 0, pos_tag(tokens), self.LEXICON)
        assert feats[-2] == 1.0
        assert feats[-1] == pytest.approx(1 / 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            extract_features(["a"], 3, ["X"], set())

    def test_tag_length_mismatch(self):
        with pytest.raises(ValueError):
            extract_features(["a", "b"], 0, ["X"], set())

    def test_vector_layout(self):
        feats = extract_features(["because", "cough"], 1,
                                 pos_tag(["because", "cough"]), self.LEXICON)
        vec = feature_rows([FigurativeVerdict(0.5, LITERAL, feats)])[0]
        assert vec.shape == (feature_row_length(),)
        assert vec[1] == 1.0  # subordinate bit follows the figurative bit


class TestFeatureRows:
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([FIGURATIVE, LITERAL]),
                              st.lists(st.floats(-1e3, 1e3), min_size=27, max_size=27)),
                    max_size=6),
           st.booleans())
    def test_rows_are_the_per_verdict_rows(self, parts, include_score):
        """Bitwise the rows framed one verdict at a time, -0.0 included."""
        verdicts = [FigurativeVerdict(score, label, np.array(block))
                    for score, label, block in parts]
        rows = feature_rows(verdicts, include_score)
        assert rows.shape == (len(verdicts), feature_row_length(include_score))
        assert rows.dtype == np.float64
        assert rows.tobytes() == b"".join(feature_row_loop(v, include_score).tobytes()
                                          for v in verdicts)


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

    def test_missing_keywords_logged_in_one_warning(self, caplog):
        table = self._detector().table
        with caplog.at_level(logging.WARNING, logger="figphm.figurative"):
            FigurativeDetector(table, {"cough"}, health_lexicon={"doctor"}, k=2)
            assert caplog.records == []
            det = FigurativeDetector(table, {"cough", "sneeze", "ache"},
                                     health_lexicon={"doctor"}, k=2)
        [record] = caplog.records
        assert record.levelno == logging.WARNING and record.name == "figphm.figurative"
        assert record.getMessage() == \
            "2 keyword(s) not in the similarity table, never scored: ache, sneeze"
        assert list(det.representations) == ["cough"]

    def test_missing_keyword_leaves_fig_score_stdout_alone(self, tmp_path, capsys, caplog):
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "24", "--seed", "3"]) == 0
        config = str(tmp_path / "experiment.ini")
        capsys.readouterr()
        assert cli_main(["fig-score", "--config", config]) == 0
        before = capsys.readouterr().out
        with (tmp_path / "keywords.txt").open("a", encoding="utf-8") as handle:
            handle.write("zzzmissing\n")
        with caplog.at_level(logging.WARNING, logger="figphm.figurative"):
            assert cli_main(["fig-score", "--config", config]) == 0
        assert capsys.readouterr().out == before
        assert [r.getMessage() for r in caplog.records] == \
            ["1 keyword(s) not in the similarity table, never scored: zzzmissing"]

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

    def test_each_distinct_keyword_is_scored_once(self, monkeypatch):
        """``cough`` three times and ``fever`` once make two scores; the
        verdict is still the maximum over all four occurrences, with the
        features of the first."""
        table = make_table({
            "cough": [1.0, 0.0], "fever": [0.6, 0.4], "hack": [0.9, 0.1],
            "doctor": [0.95, 0.05], "market": [0.0, 1.0], "drop": [0.05, 0.95],
        })
        det = FigurativeDetector(table, {"cough", "fever"}, health_lexicon={"doctor"}, k=2)
        tokens = ["market", "cough", "doctor", "cough", "fever", "drop", "cough"]
        occurrences = [literal_usage_score(tokens, det.representations[t], det.unit)
                       for t in tokens if t in det.keywords]
        assert len(occurrences) == 4 and len(set(occurrences)) == 2
        score = max(occurrences)
        expected = FigurativeVerdict(score, classify(score, det.threshold),
                                     extract_features(tokens, 1, pos_tag(tokens), {"doctor"}))
        calls = []

        def counting(tokens, rep, *args, **kwargs):
            calls.append(rep.keyword)
            return literal_usage_score(tokens, rep, *args, **kwargs)
        monkeypatch.setattr(figurative, "literal_usage_score", counting)
        verdict = det.verdict(Document("10", "other", "", tokens, "PHM"))
        assert calls == ["cough", "fever"]
        assert (verdict.literal_score, verdict.label) == (expected.literal_score, expected.label)
        assert np.array_equal(verdict.features, expected.features)

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
        for verdict, doc in zip(verdicts, docs, strict=True):
            expected = det.verdict(doc)
            assert (verdict.literal_score, verdict.label) == \
                (expected.literal_score, expected.label)
            assert np.array_equal(verdict.features, expected.features)

    def test_verdict_depends_only_on_detector_and_document(self):
        """Another detector's ``verdicts`` on the same document, with other
        keywords, leaves this detector's verdict unchanged."""
        det = self._detector()
        other = FigurativeDetector(det.table, {"drop"}, health_lexicon={"doctor"}, k=2)
        doc = Document("7", "other", "", ["market", "drop", "cough"], "NonPHM")
        before = det.verdict(doc)
        other.verdicts([doc])
        after = det.verdict(doc)
        assert (after.literal_score, after.label) == (before.literal_score, before.label)
        assert np.array_equal(after.features, before.features)

    def test_verdicts_leave_symptom_indices_alone(self):
        det = self._detector()
        docs = [Document("8", "other", "", ["market", "drop", "cough"], "NonPHM",
                         symptom_indices=[0]),
                Document("9", "other", "", ["doctor", "cough"], "PHM")]
        det.verdicts(docs)
        assert [d.symptom_indices for d in docs] == [[0], []]


def test_only_mark_symptoms_touches_symptom_indices():
    """The detector finds keyword positions itself: nothing in the package
    reads ``symptom_indices``, and only ``mark_symptoms`` assigns it."""
    package = Path(__file__).resolve().parent.parent / "src" / "figphm"
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text("utf-8"))
        for function, node in _calls_by_function(tree, kind=ast.Attribute):
            if node.attr == "symptom_indices" and not (
                    isinstance(node.ctx, ast.Store)
                    and (source.stem, function) == ("figurative", "mark_symptoms")):
                found.append(f"{source.name}:{node.lineno} in {function}")
    assert not found, "symptom_indices used outside mark_symptoms: " + ", ".join(found)


class TestArrayPathsMatchLoops:
    """The product score agrees with the pairwise loop to 1e-12, the
    detector's labels are the loop detector's, and the block-draw sampler
    is bitwise the per-token sampler."""

    @pytest.mark.parametrize("include_target", [False, True])
    def test_scores_on_planted_corpus(self, include_target):
        docs, table, keywords = planted_corpus(n_docs=120, seed=5)
        unit = UnitRows(table)
        for keyword in sorted(keywords):
            rep = build_literal_representation(table, keyword, 10)
            for doc in docs:
                got = literal_usage_score(doc.tokens, rep, unit, include_target)
                want = literal_usage_score_loop(doc.tokens, rep, table, include_target)
                assert abs(got - want) <= 1e-12

    def test_score_edge_rows(self):
        # a zero-norm content row and a zero-norm related row count as 0;
        # repeated tokens weigh twice; related words outside the table drop
        table = make_table({"kw": [1.0, 0.0, 0.0], "u": [0.3, -0.2, 0.9],
                            "zero": [0.0, 0.0, 0.0], "r1": [1.0, 2.0, -3.0],
                            "r2": [0.0, 0.0, 0.0], "r3": [-0.1, 0.4, 0.2]})
        rep = LiteralRepresentation("kw", ["r1", "r2", "gone", "r3"])
        unit = UnitRows(table)
        for tokens in (["u", "zero", "u", "kw", "<url>"], ["zero"], ["u"], ["kw", "r3"]):
            got = literal_usage_score(tokens, rep, unit)
            assert abs(got - literal_usage_score_loop(tokens, rep, table)) <= 1e-12
        gone = LiteralRepresentation("kw", ["gone"])
        assert literal_usage_score(["u"], gone, unit) == 0.5

    @pytest.mark.parametrize("include_target", [False, True])
    def test_scores_bitwise_per_call_form_on_planted_corpus(self, include_target):
        docs, table, keywords = planted_corpus(n_docs=120, seed=5)
        unit = UnitRows(table)      # shared, as a detector shares it
        for keyword in sorted(keywords):
            rep = build_literal_representation(table, keyword, 10)
            for doc in docs:
                got = literal_usage_score(doc.tokens, rep, unit, include_target)
                want = literal_usage_score_per_call(doc.tokens, rep, table, include_target)
                assert got.hex() == want.hex()

    def test_score_edge_rows_bitwise_per_call_form(self):
        """Zero rows, repeated tokens, OOV words and related words outside
        the table give the per-call form's bits."""
        table = make_table({"kw": [1.0, 0.0, 0.0], "u": [0.3, -0.2, 0.9],
                            "zero": [0.0, 0.0, 0.0], "r1": [1.0, 2.0, -3.0],
                            "r2": [0.0, 0.0, 0.0], "r3": [-0.1, 0.4, 0.2]})
        reps = [LiteralRepresentation("kw", ["r1", "r2", "gone", "r3"]),
                LiteralRepresentation("kw", ["r3", "r3", "zero", "u"]),
                LiteralRepresentation("kw", ["gone"])]
        unit = UnitRows(table)
        for rep in reps:
            for tokens in (["u", "zero", "u", "kw", "<url>"], ["zero"], ["u"], ["kw", "r3"],
                           ["oov", "u", "oov", "r1", "r1"], ["kw", "oov"], []):
                for include_target in (False, True):
                    got = literal_usage_score(tokens, rep, unit, include_target)
                    want = literal_usage_score_per_call(tokens, rep, table, include_target)
                    assert got.hex() == want.hex(), (rep.related_words, tokens)

    def test_detector_matches_loop_detector(self, monkeypatch):
        docs, table, keywords = planted_corpus(n_docs=200, seed=9)
        fast = FigurativeDetector(table, keywords, health_lexicon=set()).verdicts(docs)
        monkeypatch.setattr(figurative, "nearest_neighbors",
                            lambda table, words, k: [nearest_neighbors_loop(table, w, k)
                                                     for w in words])
        monkeypatch.setattr(figurative, "literal_usage_score",
                            lambda tokens, rep, unit, include_target=False:
                            literal_usage_score_loop(tokens, rep, unit.table, include_target))
        slow_detector = FigurativeDetector(table, keywords, health_lexicon=set())
        slow = slow_detector.verdicts(docs)
        assert [v.label for v in fast] == [v.label for v in slow]
        assert max(abs(a.literal_score - b.literal_score) for a, b in zip(fast, slow)) <= 1e-12

    def test_verdicts_fill_document_rows_in_one_call(self, monkeypatch):
        """``verdicts`` normalises every document row in its first call and
        gives the bytes of one ``verdict`` at a time."""
        docs, table, keywords = planted_corpus(n_docs=120, seed=5)
        one_by_one = FigurativeDetector(table, keywords)
        want = [one_by_one.verdict(doc) for doc in docs]
        normalised, unit_rows = [], embeddings._unit_rows

        def counting(matrix):
            normalised.append(len(matrix))
            return unit_rows(matrix)
        monkeypatch.setattr(embeddings, "_unit_rows", counting)
        det = FigurativeDetector(table, keywords)
        got = det.verdicts(docs)
        vocab = table.vocab
        assert normalised[0] == len({vocab[t] for doc in docs for t in doc.tokens if t in vocab})
        assert sum(normalised) == len(det.unit._filled)      # each row once
        assert [(v.literal_score.hex(), v.label, v.features.tobytes()) for v in got] == \
            [(v.literal_score.hex(), v.label, v.features.tobytes()) for v in want]

    def test_kept_related_block_scores_bitwise(self):
        """The block a representation keeps gives the scores of a block
        gathered afresh, and is gathered again for other unit rows, of the
        same table or another, or for another word list."""
        docs, table, keywords = planted_corpus(n_docs=120, seed=7)
        words = table.words()[2:]
        other = UnitRows(make_table(dict(zip(words, table.matrix[:1:-1]))))
        unit = UnitRows(table)
        for keyword in sorted(keywords):
            rep = build_literal_representation(table, keyword, 10)
            block = rep.unit_rows(unit)
            for doc in docs:
                fresh = LiteralRepresentation(keyword, list(rep.related_words))
                assert literal_usage_score(doc.tokens, rep, unit) == \
                    literal_usage_score(doc.tokens, fresh, UnitRows(table))
            assert rep.unit_rows(unit) is block
            again = rep.unit_rows(UnitRows(table))
            assert again is not block and again.tobytes() == block.tobytes()
            tokens = docs[0].tokens
            assert literal_usage_score(tokens, rep, other) == literal_usage_score(
                tokens, LiteralRepresentation(keyword, list(rep.related_words)), other)
            rep.related_words = rep.related_words[:3]
            assert literal_usage_score(tokens, rep, unit) == literal_usage_score(
                tokens, LiteralRepresentation(keyword, rep.related_words[:3]), UnitRows(table))

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
