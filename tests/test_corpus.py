import ast
import contextlib
import io
import json
import struct
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from figphm.cli import cmd_report
from figphm.corpus import (AnnotationPair, Document, PAD_INDEX, UNK_INDEX,
                           build_vocab, cohen_kappa, load_annotations,
                           load_dataset, pad, read_lines, read_tsv, save_dataset,
                           tokenize)
from figphm.embeddings import load_ontology, load_table
from figphm.errors import ConfigError, DataError
from figphm.figurative import load_word_list
from figphm.harness import load_config, load_figurative_gold
from figphm.neuralnet import CHECKPOINT_VERSION, load_checkpoint


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("I have a cough!") == ["i", "have", "a", "cough", "!"]

    def test_url_and_mention_sentinels(self):
        assert tokenize("@bob see https://x.y") == ["<user>", "see", "<url>"]

    def test_hashtag_stripped(self):
        assert tokenize("#flu season") == ["flu", "season"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_www_url(self):
        assert tokenize("go to www.example.com now") == ["go", "to", "<url>", "now"]

    def test_bare_hash_kept_as_punctuation(self):
        assert tokenize("a # b") == ["a", "#", "b"]

    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestLoadDataset:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("t1\tcancer\tI was diagnosed today\tPHM\n", encoding="utf-8")
        docs = load_dataset(path)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.id == "t1"
        assert doc.disease == "cancer"
        assert doc.label == "PHM"
        assert doc.tokens == ["i", "was", "diagnosed", "today"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t1\tcancer\tno label column\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1.*expected 4 fields"):
            load_dataset(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t1\tcancer\ttext\tMaybe\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown label"):
            load_dataset(path)

    def test_unknown_disease(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t1\tgout\ttext\tPHM\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown disease"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.tsv")

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("t1\tcancer\tfirst text\tPHM\nt2\tother\tfine\tPHM\n\n"
                        "t1\tstroke\tsecond text\tNonPHM\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"data\.tsv: line 4: document id 't1' "
                                            r"already used on line 1"):
            load_dataset(path)

    def test_garbled_rows_dropped(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("t1\tother\t   \tPHM\nt2\tother\tfine text\tNonPHM\n",
                        encoding="utf-8")
        docs = load_dataset(path)
        assert [d.id for d in docs] == ["t2"]

    def test_round_trip(self, tmp_path):
        docs = [
            Document("a1", "stroke", "she had a stroke", tokenize("she had a stroke"), "PHM"),
            Document("a2", "other", "metaphorical stroke of luck",
                     tokenize("metaphorical stroke of luck"), "NonPHM"),
        ]
        path = tmp_path / "round.tsv"
        save_dataset(docs, path)
        loaded = load_dataset(path)
        assert [(d.id, d.disease, d.raw_text, d.label, d.tokens) for d in loaded] \
            == [(d.id, d.disease, d.raw_text, d.label, d.tokens) for d in docs]


class TestPad:
    VOCAB = {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "c": 4}

    def test_padding(self):
        assert pad(["a", "b", "c"], self.VOCAB, 5) == [2, 3, 4, 0, 0]

    def test_truncation(self):
        assert pad(["a"] * 7, self.VOCAB, 5) == [2] * 5

    def test_unknown_token(self):
        assert pad(["a", "zzz"], self.VOCAB, 3) == [2, UNK_INDEX, PAD_INDEX]

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            pad(["a"], self.VOCAB, 0)

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov", "??"]), max_size=12),
           st.integers(min_value=1, max_value=8))
    def test_ids_always_in_range(self, tokens, max_len):
        ids = pad(tokens, self.VOCAB, max_len)
        assert len(ids) == max_len
        assert all(0 <= i < len(self.VOCAB) for i in ids)
        kept = min(len(tokens), max_len)
        assert PAD_INDEX not in ids[:kept] and ids[kept:] == [PAD_INDEX] * (max_len - kept)


class TestBuildVocab:
    def test_reserved_indices(self):
        docs = [Document("1", "other", "b a b", ["b", "a", "b"], "PHM")]
        vocab = build_vocab(docs)
        assert vocab["<pad>"] == PAD_INDEX
        assert vocab["<unk>"] == UNK_INDEX
        # frequency order, ties alphabetical
        assert vocab["b"] == 2 and vocab["a"] == 3

    def test_deterministic(self):
        docs = [Document("1", "other", "x y z", ["x", "y", "z"], "PHM")]
        assert build_vocab(docs) == build_vocab(list(docs))


def _pairs(labels_a, labels_b):
    return [AnnotationPair(str(i), a, b)
            for i, (a, b) in enumerate(zip(labels_a, labels_b))]


class TestCohenKappa:
    def test_perfect_agreement_exactly_one(self):
        pairs = _pairs(["literal", "figurative"], ["literal", "figurative"])
        assert cohen_kappa(pairs) == 1.0

    def test_hand_computed_half(self):
        # p_o = 3/4; marginals a: (1/2, 1/2), b: (1/4, 3/4)
        # p_e = 1/2*1/4 + 1/2*3/4 = 1/2; kappa = (3/4 - 1/2) / (1 - 1/2) = 1/2
        pairs = _pairs(["literal", "literal", "figurative", "figurative"],
                       ["literal", "figurative", "figurative", "figurative"])
        assert cohen_kappa(pairs) == pytest.approx(0.5, abs=1e-12)

    def test_hand_computed_minus_one(self):
        # p_o = 0; both marginals (1/2, 1/2) so p_e = 1/2; kappa = -1
        pairs = _pairs(["literal", "figurative"], ["figurative", "literal"])
        assert cohen_kappa(pairs) == pytest.approx(-1.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            cohen_kappa([])

    @given(st.lists(st.tuples(st.sampled_from(["literal", "figurative"]),
                              st.sampled_from(["literal", "figurative"])),
                    min_size=1, max_size=30))
    def test_rater_symmetry_and_bound(self, raw):
        pairs = _pairs([a for a, _ in raw], [b for _, b in raw])
        swapped = _pairs([b for _, b in raw], [a for a, _ in raw])
        try:
            kappa = cohen_kappa(pairs)
        except ValueError:
            return  # degenerate marginals: same on the swap
        assert cohen_kappa(swapped) == pytest.approx(kappa, abs=1e-12)
        assert kappa <= 1.0 + 1e-12

    @given(st.permutations(range(6)))
    def test_pair_order_irrelevant(self, order):
        labels_a = ["literal", "literal", "figurative", "literal", "figurative", "figurative"]
        labels_b = ["figurative", "literal", "figurative", "literal", "literal", "figurative"]
        base = cohen_kappa(_pairs(labels_a, labels_b))
        shuffled = cohen_kappa(_pairs([labels_a[i] for i in order],
                                      [labels_b[i] for i in order]))
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestLoadAnnotations:
    def test_load(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("t1\tfigurative\tliteral\nt2\tliteral\tliteral\n",
                        encoding="utf-8")
        pairs = load_annotations(path)
        assert len(pairs) == 2
        assert pairs[0].label_a == "figurative"

    def test_bad_label(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("t1\tfigurative\tmeh\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown label"):
            load_annotations(path)


class TestReadLines:
    def test_numbers_every_line_and_skips_empty_ones(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("a\n\n b \r\nlast", encoding="utf-8")
        assert list(read_lines(path, "thing")) == [(1, "a"), (3, " b "), (4, "last")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="thing not found: .*nope.txt"):
            list(read_lines(tmp_path / "nope.txt", "thing"))

    def test_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read thing"):
            list(read_lines(tmp_path, "thing"))

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("ok\ncaf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError, match="thing .*latin1.txt is not valid UTF-8"):
            list(read_lines(path, "thing"))

    def test_read_tsv_counts_fields(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("a\tb\n\nc\n", encoding="utf-8")
        rows = read_tsv(path, 2, "thing")
        assert next(rows) == (1, ["a", "b"])
        with pytest.raises(DataError, match="line 3: expected 2 fields, got 1"):
            next(rows)


def _report(path):
    with contextlib.redirect_stdout(io.StringIO()):
        return cmd_report(Namespace(report=path))


# Every loader of a text input, called on one path. The config loader raises
# ConfigError (exit 1), every other loader DataError (exit 2).
TEXT_LOADERS = {
    "dataset": (load_dataset, DataError),
    "annotations": (load_annotations, DataError),
    "figurative_gold": (load_figurative_gold, DataError),
    "glove_table": (lambda path: load_table(path, "glove_text"), DataError),
    "word2vec_table": (lambda path: load_table(path, "word2vec_text"), DataError),
    "ontology": (load_ontology, DataError),
    "word_list": (load_word_list, DataError),
    "config": (load_config, ConfigError),
    "report": (_report, DataError),
}


def _bad_input(kind, path):
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid_utf8":
        path.write_bytes(b"t1\tother\tcaf\xe9 \xff\tPHM\n")
    return path


class TestReadingContract:
    @pytest.mark.parametrize("kind", ["missing", "directory", "invalid_utf8"])
    @pytest.mark.parametrize("loader", TEXT_LOADERS)
    def test_unreadable_input_is_a_data_or_config_error(self, tmp_path, loader, kind):
        load, error = TEXT_LOADERS[loader]
        with pytest.raises(error):
            load(_bad_input(kind, tmp_path / "input"))


# Lines that make arbitrary text look like each input format (TSV rows,
# vector rows, config sections and keys, report headers), so the fuzzer
# reaches the row parsers and not only the decoder.
_WORDS = ["0", "1", "-1", "2.5", "1e999", "inf", "nan", "PHM", "NonPHM", "cancer", "other",
          "literal", "figurative", "phmd", "feataug", "overall", "disease:other",
          "average", "random", "file", "retrofit", "true", "3,4", "0.5,0.5", "\u00e9", "\x00"]
_KEYS = ["dataset", "folds", "seed", "jobs", "approaches", "kernels", "dropout", "lr",
         "epochs", "filters", "source", "dim", "path", "ontology", "alpha", "iterations",
         "embedding", "keywords", "threshold", "k", "use_lda", "lda_iterations"]
_HEADERS = ["[experiment]", "[model]", "[figurative]", "[embedding e]", "# seed=1 folds=2",
            "# seed=x", "# approach\tembedding"]
_WORD = st.one_of(st.sampled_from(_WORDS), st.text(max_size=4))
_LINE = st.one_of(
    st.sampled_from(_HEADERS),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _WORD),
    st.lists(st.one_of(_WORD, st.sampled_from(["\t", " "])), max_size=14).map("".join))
_TEXTS = st.lists(_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8"))
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _manifest(shapes):
    return json.dumps({"version": CHECKPOINT_VERSION, "shapes": shapes}).encode("utf-8")


class TestFuzzLoaders:
    @pytest.mark.parametrize("loader", TEXT_LOADERS)
    @FUZZ
    @given(data=st.one_of(st.binary(max_size=120), _TEXTS))
    def test_only_data_or_config_errors_escape(self, tmp_path, loader, data):
        load, error = TEXT_LOADERS[loader]
        path = tmp_path / "input"
        path.write_bytes(data)
        try:
            load(path)
        except error:
            pass

    @FUZZ
    @given(header=st.one_of(st.binary(max_size=40), _TEXTS,
                            st.integers(0, 5000).map(lambda n: b"[" * n),
                            st.lists(st.lists(st.integers(0, 2**70), max_size=70),
                                     max_size=3).map(_manifest)),
           body=st.binary(max_size=64))
    def test_checkpoint_bytes(self, tmp_path, header, body):
        path = tmp_path / "model.ckpt"
        for raw in (struct.pack("<Q", len(header)) + header + body, body):
            path.write_bytes(raw)
            try:
                load_checkpoint(path)
            except DataError:
                pass

    def test_checkpoint_edge_cases(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for header in (b"[" * 5000, _manifest([[0, 2**70]]), _manifest([[0] * 70])):
            path.write_bytes(struct.pack("<Q", len(header)) + header)
            with pytest.raises(DataError):
                load_checkpoint(path)
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path)


def test_only_read_lines_opens_text_inputs():
    """No function in the package but ``corpus.read_lines`` opens a file for
    reading text; ``neuralnet.load_checkpoint`` reads its binary checkpoint."""
    allowed = {("corpus", "read_lines"), ("neuralnet", "load_checkpoint")}
    package = Path(__file__).resolve().parent.parent / "src" / "figphm"
    found = []
    for source in sorted(package.glob("*.py")):
        for function, call in _calls_by_function(ast.parse(source.read_text("utf-8"))):
            if _reads_a_file(call) and (source.stem, function) not in allowed:
                found.append(f"{source.name}:{call.lineno} in {function}")
    assert not found, "files opened for reading outside corpus.read_lines: " + ", ".join(found)


def _calls_by_function(tree, function="<module>", kind=ast.Call):
    """(enclosing function's name, node) for every ``kind`` node in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else function
        if isinstance(node, kind):
            yield function, node
        yield from _calls_by_function(node, name, kind)


def _reads_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    if name == "read_text":
        return True
    if name != "open":
        return False
    # open(file, mode) takes the mode second; Path.open(mode) takes it first
    position = 1 if isinstance(func, ast.Name) else 0
    modes = ([kw.value for kw in call.keywords if kw.arg == "mode"]
             + call.args[position:position + 1])
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return not any(flag in str(mode) for flag in "wax+")
