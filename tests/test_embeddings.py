import ast
import ctypes
import math
import mmap
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from figphm.cli import main as cli_main
from figphm.corpus import PAD_INDEX, PAD_TOKEN, UNK_TOKEN
from figphm import embeddings
from figphm.embeddings import (_BLOCK_ROWS, BETA_MODES, EmbeddingTable, OntologyGraph,
                               UnitRows, _fields, _loadtxt_block, _unit_rows, cosine,
                               load_ontology, load_table, nearest_neighbors, project_table,
                               random_table, retrofit, retrofit_objective, save_table)
from figphm.errors import DataError
from figphm.synthetic import planted_corpus

from conftest import make_table
from test_corpus import _calls_by_function
from scalar_reference import (load_table_rows, nearest_neighbors_loop, project_table_loop,
                              retrofit_loop)


class TestLoadTable:
    def test_glove_text(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n", encoding="utf-8")
        table = load_table(path, "glove_text")
        assert len(table.vocab) == 4  # 2 words + reserved
        assert table.dim == 2
        assert table.matrix[PAD_INDEX].tolist() == [0.0, 0.0]
        assert table.vector("cat").tolist() == [1.0, 0.0]

    def test_word2vec_header_equivalence(self, tmp_path):
        glove = tmp_path / "g.txt"
        glove.write_text("cat 1.0 0.0\ndog 0.0 1.0\n", encoding="utf-8")
        w2v = tmp_path / "w.txt"
        w2v.write_text("2 2\ncat 1.0 0.0\ndog 0.0 1.0\n", encoding="utf-8")
        a = load_table(glove, "glove_text")
        b = load_table(w2v, "word2vec_text")
        assert a.vocab == b.vocab
        assert np.array_equal(a.matrix, b.matrix)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: expected 2 dims"):
            load_table(path, "glove_text")

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 zero\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            load_table(path, "glove_text")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"cat 1.0 0.0\n\n<pad> 1.0 inf\ncat {value} 0.0\n"
                        f"dog 0.5 {value}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"vec\.txt: line 5: non-finite value"):
            load_table(path, "glove_text")

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0\ncat 2.0\n", encoding="utf-8")
        table = load_table(path, "glove_text")
        assert table.vector("cat").tolist() == [1.0]
        assert table.n_duplicates == 1

    def test_prefix_strip(self, tmp_path):
        path = tmp_path / "nb.txt"
        path.write_text("/c/en/cat 1.0 0.0\n", encoding="utf-8")
        table = load_table(path, "glove_text", strip_prefix="/c/en/")
        assert "cat" in table.vocab

    def test_round_trip_six_decimals(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("cat 0.123456 -1.5\ndog 2.0 0.000001\n", encoding="utf-8")
        table = load_table(src, "glove_text")
        out = tmp_path / "out.txt"
        save_table(table, out)
        again = load_table(out, "glove_text")
        assert again.vocab == table.vocab
        assert np.allclose(again.matrix, table.matrix, atol=5e-7)

    def test_transient_memory_bounded_by_matrix_size(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [[f"{v:.6f}" for v in row] for row in rng.uniform(-1.0, 1.0, (2000, 50))]
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"w{i} " + " ".join(row) + "\n"
                                for i, row in enumerate(rows)), encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # rows held as lists of Python floats peaked near 6x the matrix
        assert peak < 4 * table.matrix.nbytes
        np.testing.assert_array_equal(table.matrix[2:], [[float(v) for v in row]
                                                         for row in rows])


# Value text that float() and numpy may read differently: separators, signs,
# special names, underscores, non-ASCII digits and whitespace, comment and
# quote characters.
_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(width=32).map(lambda v: f"{v:.6f}"),
    st.sampled_from(["1_0", "２", "١.5", "#", "1#2", '"1"', "nan", "-nan", "Infinity",
                     "+inf", "1e999", "-1e-999", "0x10", "1d5", ".", "1.", "+.5", "-0", "1e"]),
    st.text(alphabet="0123456789.eE+-_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0　#\"'n",
            min_size=1, max_size=6),
)


# The multi-block cases below put duplicates, bad values and dimension
# changes on either side of a block boundary.
BLOCK = _BLOCK_ROWS


def _rows(n, dim=2):
    return [f"w{i} " + " ".join(f"{i + j / 8:.6f}" for j in range(dim)) for i in range(n)]


def _with(lines, changes):
    """Replace 1-based line numbers with new line text."""
    lines = list(lines)
    for lineno, text in changes.items():
        lines[lineno - 1] = text
    return "".join(line + "\n" for line in lines)


def _load_both(path, format="glove_text", strip_prefix=None):
    """The table or the DataError message, from load_table and from the
    float()-per-value reference."""
    outcomes = []
    for loader in (load_table, load_table_rows):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcomes.append(loader(path, format, strip_prefix=strip_prefix))
        except DataError as exc:
            outcomes.append(str(exc))
    return outcomes


def _assert_same_table(got, want):
    assert got.vocab == want.vocab
    assert list(got.vocab) == list(want.vocab)
    assert got.n_duplicates == want.n_duplicates
    assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
    assert np.array_equal(got.matrix.view(np.uint64), want.matrix.view(np.uint64))


# name -> (file content, format, strip_prefix, the DataError message or None
# for a table); messages were recorded from the float()-per-value parser.
LOAD_CASES = {
    "irregular spaces": (" cat  1.0 2.0 \n  dog 3.0   4.0  \n   \nbird 5.0 6.0\n",
                         "glove_text", None, None),
    "tab at a value's edge": ("cat 1.0\t 2.0\ndog \t3.0 4.0\t\n", "glove_text", None, None),
    "tab inside a value": ("cat 1.0\t2.0\n", "glove_text", None,
                           "line 1: non-numeric value "
                           "(could not convert string to float: '1.0\\t2.0')"),
    "tab in a word": ("cat\t1.0 2.0\n", "glove_text", None, None),
    "underscore and full-width digits": ("cat 1_0 ２.５\ndog ١ -3\n",
                                         "glove_text", None, None),
    "hash inside a value": ("cat 1.0#3 2.0\n", "glove_text", None,
                            "line 1: non-numeric value "
                            "(could not convert string to float: '1.0#3')"),
    "hash as a value": ("cat 1.0 2.0\ndog # 2.0\n", "glove_text", None,
                        "line 2: non-numeric value (could not convert string to float: '#')"),
    "hash in a word": ("#cat 1.0 2.0\nc#t 3 4\n", "glove_text", None, None),
    "quoted value": ('cat "1.0" 2.0\n', "glove_text", None,
                     "line 1: non-numeric value "
                     "(could not convert string to float: '\"1.0\"')"),
    "unicode spaces around values": ("cat 　1.0 2.0 \ndog \x0b3\x0c 4\n",
                                     "glove_text", None, None),
    "separator control character": ("cat \x1c1.0 2.0\n", "glove_text", None,
                                    "line 1: non-numeric value "
                                    "(could not convert string to float: '\\x1c1.0')"),
    "crlf": (b"cat 1.0 2.0\r\ndog 3.0 4.0\r\n", "glove_text", None, None),
    "word2vec header": ("2 2\ncat 1 2\ndog 3 4\n", "word2vec_text", None, None),
    "bad word2vec header": ("2 2 2\ncat 1 2\n", "word2vec_text", None,
                            "line 1: expected 'count dim' header"),
    "word2vec header not on line 1": ("\n2 2\ncat 1 2\n", "word2vec_text", None,
                                      "line 3: expected 1 dims, got 2"),
    "strip_prefix": ("/c/en/cat 1 2\n/c/fr/chat 3 4\n/c/en/ 5 6\n/c/en/cat 7 8\n",
                     "glove_text", "/c/en/", None),
    "reserved tokens and duplicates": ("<pad> 1 1\ncat 1 2\n<unk> 3 3\ncat nan inf\ndog 0 -0\n",
                                       "glove_text", None, None),
    "empty file": ("", "glove_text", None, "no embedding rows found"),
    "blank lines only": ("\n\n   \n", "glove_text", None, "no embedding rows found"),
    "word2vec header only": ("3 2\n", "word2vec_text", None, "no embedding rows found"),
    "glove file of one header-like row": ("3 2\n", "glove_text", None, None),
    "word without values": ("cat\ndog 1\n", "glove_text", None,
                            "line 1: row has no vector values"),
    "dimension change": ("cat 1 2\ndog 1\n", "glove_text", None,
                         "line 2: expected 2 dims, got 1"),
    "bad value before a dimension change": ("cat 1 2\ndog x 2\nbird 1 2 3\n", "glove_text",
                                            None, "line 2: non-numeric value "
                                            "(could not convert string to float: 'x')"),
    "non-finite value before a bad value": ("cat inf 2\ndog x 2\n", "glove_text", None,
                                            "line 2: non-numeric value "
                                            "(could not convert string to float: 'x')"),
    "non-finite value before a dimension change": ("cat inf 2\ndog 1\n", "glove_text", None,
                                                   "line 2: expected 2 dims, got 1"),
    "overflow": ("cat 1 2\ndog 1e999 1\n", "glove_text", None, "line 2: non-finite value"),
    "squared norm overflows": ("cat 1 2\ndog 1e200 1\nbird 1e155 0\n", "glove_text", None,
                               "line 2: row norm overflows"),
    "squared norm just finite": ("cat 1e153 -1e153\n", "glove_text", None, None),
    "squared norm overflows before a non-finite value": ("cat 1 2\ndog 1e200 1\nbird inf 0\n",
                                                         "glove_text", None,
                                                         "line 2: row norm overflows"),
    "non-finite value before an overflowing norm": ("cat nan 2\ndog 1e200 1\n", "glove_text",
                                                    None, "line 1: non-finite value"),
    "one full block": (_with(_rows(BLOCK), {}), "glove_text", None, None),
    "two full blocks and one row": (_with(_rows(2 * BLOCK + 1), {}), "glove_text", None, None),
    "duplicates across blocks": (
        _with(_rows(BLOCK + 900), {3: "<unk> 9 9", BLOCK: "<pad> 1 1", BLOCK + 1: "w10 5 5",
                                   BLOCK + 500: "w4500 7 7", BLOCK + 600: "w4500 8 8"}),
        "glove_text", None, None),
    "irregular spaces in the second block": (
        _with(_rows(BLOCK + 50), {BLOCK + 7: "  w7x  1.5   2.5 "}), "glove_text", None, None),
    "underscore in the second block": (
        _with(_rows(BLOCK + 50), {BLOCK + 9: "w9x 1_5 2"}), "glove_text", None, None),
    "inf and nan in the last block": (
        _with(_rows(BLOCK + 300), {BLOCK + 100: "w5 nan inf", BLOCK + 200: "w4296x 1 inf",
                                   BLOCK + 250: "w4346x nan 1"}),
        "glove_text", None, f"line {BLOCK + 200}: non-finite value"),
    "bad value after the first block": (
        _with(_rows(BLOCK + 300), {BLOCK + 4: "w4100 1.0 x"}), "glove_text", None,
        f"line {BLOCK + 4}: non-numeric value (could not convert string to float: 'x')"),
    "dimension change on a block's first line": (
        _with(_rows(BLOCK + 300), {BLOCK + 1: "w4097 1 2 3"}), "glove_text", None,
        f"line {BLOCK + 1}: expected 2 dims, got 3"),
    "bad value then a dimension change in one block": (
        _with(_rows(BLOCK + 300), {BLOCK + 104: "w4200 y 1", BLOCK + 204: "w4300 1"}),
        "glove_text", None,
        f"line {BLOCK + 104}: non-numeric value (could not convert string to float: 'y')"),
    "word without values alone in the last block": (
        _with(_rows(BLOCK + 1), {BLOCK + 1: "w4097"}), "glove_text", None,
        f"line {BLOCK + 1}: expected 2 dims, got 0"),
    "bad value on a block's last line then a dimension change": (
        _with(_rows(BLOCK + 300), {BLOCK: "w4096 1 z", BLOCK + 1: "w4097 1"}),
        "glove_text", None,
        f"line {BLOCK}: non-numeric value (could not convert string to float: 'z')"),
}


class TestLoadTableMatchesRowParser:
    """The block parser gives the float()-per-value parser's table bitwise,
    or its DataError message word for word."""

    @pytest.mark.parametrize("case", LOAD_CASES)
    def test_case(self, tmp_path, case):
        content, format, strip_prefix, message = LOAD_CASES[case]
        path = tmp_path / "vec.txt"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        got, want = _load_both(path, format, strip_prefix)
        if message is not None:
            assert got == want == f"{path}: {message}"
        else:
            _assert_same_table(got, want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_planted_fixture_tables(self, tmp_path, seed):
        _, table, _ = planted_corpus(n_docs=60, seed=seed)
        path = tmp_path / "vec.txt"
        save_table(table, path)
        got, want = _load_both(path)
        _assert_same_table(got, want)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.lists(st.one_of(_VALUE, st.sampled_from(["cat", "<pad>", "w"])),
                                   min_size=1, max_size=4).map(" ".join), max_size=6),
           format=st.sampled_from(["glove_text", "word2vec_text"]))
    def test_generated_files(self, tmp_path, lines, format):
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        got, want = _load_both(path, format)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_table(got, want)


_SPACING = st.sampled_from([" ", " ", " ", "  "])  # mostly one space


class TestOverflowingRows:
    """A table whose values are finite but whose squared row norms overflow
    gave every cosine against those rows as NaN or 0.0. ``fig-score`` on it
    exited 3 ("literal representation is empty") when every positive entry
    was 1e300, and 0 with wrong verdicts when only the ``cough`` row's were
    1e154. Both now exit 2 and name the file's line."""

    @staticmethod
    def _fixture(tmp_path):
        assert cli_main(["synth", "--out", str(tmp_path), "--docs", "24", "--seed", "3"]) == 0
        return tmp_path / "fig_embeddings.txt"

    @staticmethod
    def _rewrite(path, big, only=None):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            word, *values = line.split(" ")
            if only in (None, word):
                lines[i] = " ".join([word] + [big if float(v) > 0 else v for v in values])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return next(i + 1 for i, line in enumerate(lines) if big in line)

    @pytest.mark.parametrize("big, only", [("1e300", None), ("1e154", "cough")],
                             ids=["every_positive_entry", "cough_row"])
    def test_fig_score_exits_2_naming_the_line(self, tmp_path, capsys, big, only):
        path = self._fixture(tmp_path)
        capsys.readouterr()
        lineno = self._rewrite(path, big, only)
        assert cli_main(["fig-score", "--config", str(tmp_path / "experiment.ini")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {lineno}: row norm overflows" in err


class TestBlockParse:
    @settings(max_examples=400, deadline=None)
    @given(dim=st.integers(1, 3),
           rows=st.lists(st.tuples(st.sampled_from(["", " "]), st.lists(_VALUE, max_size=4),
                                   _SPACING, st.sampled_from(["", " "])),
                         min_size=1, max_size=5))
    def test_numpy_reads_only_what_float_reads(self, dim, rows):
        """Whenever the block parses, it equals the row-by-row float() parse."""
        texts = [lead + sep.join(values) + trail for lead, values, sep, trail in rows]
        got = _loadtxt_block(texts, dim)
        if got is None:
            return
        fields = [_fields(text) for text in texts]
        assert all(len(row) == dim for row in fields)
        want = np.array([[float(v) for v in row] for row in fields])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_plain_rows_take_the_numpy_path(self):
        texts = [" ".join(f"{v:.6f}" for v in row)
                 for row in np.random.default_rng(0).uniform(-1, 1, (50, 7))]
        got = _loadtxt_block(texts, 7)
        assert got is not None
        assert np.array_equal(got, [[float(v) for v in text.split(" ")] for text in texts])

    @pytest.mark.parametrize("text", ["1_0 2", "２ 2", "1 \x1c2", "1\x1f 2", "1  2",
                                      " 1 2", "1 2 ", "1", "1 2 3", "1 #2", '1 "2"', ""])
    def test_left_to_float(self, text):
        assert _loadtxt_block(["0 0", text], 2) is None


class TestRandomTable:
    def test_deterministic(self):
        a = random_table(["x", "y"], 4, seed=9)
        b = random_table(["x", "y"], 4, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            random_table(["x"], 0, seed=1)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            random_table([], 3, seed=1)

    def test_repeated_word_keeps_its_first_row(self):
        repeated = random_table(["x", "x", "y"], 2, 0)
        plain = random_table(["x", "y"], 2, 0)
        assert repeated.vocab == plain.vocab == {PAD_TOKEN: 0, UNK_TOKEN: 1, "x": 2, "y": 3}
        assert np.array_equal(repeated.matrix, plain.matrix)

    def test_pad_row_zero(self):
        table = random_table(["x", "y"], 3, seed=2)
        assert np.array_equal(table.matrix[PAD_INDEX], np.zeros(3))

    def test_sample_mean_matches_uniform_range(self):
        # mean of U(-0.25, 0.25) is 0; standard error over 1e5 draws ~ 5e-4
        table = random_table([f"w{i}" for i in range(2000)], 50, seed=3)
        sample = table.matrix[2:]
        assert sample.size == 100000
        assert -0.01 <= sample.mean() <= 0.01
        assert np.abs(sample).max() <= 0.25


class TestCosine:
    def test_self_similarity(self):
        x = np.array([0.3, -2.0, 1.1])
        assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))


class TestNearestNeighbors:
    def test_one_dimensional_ranking(self, tiny_table):
        # all 1-D cosines are +-1: b ties at 1.0, c at -1.0
        assert nearest_neighbors(tiny_table, "a", 1) == [("b", pytest.approx(1.0))]

    def test_query_excluded(self, tiny_table):
        names = [w for w, _ in nearest_neighbors(tiny_table, "a", 10)]
        assert "a" not in names
        assert PAD_TOKEN not in names and UNK_TOKEN not in names

    def test_k_too_large_returns_all(self, tiny_table):
        assert len(nearest_neighbors(tiny_table, "a", 99)) == 2

    def test_unknown_word(self, tiny_table):
        with pytest.raises(KeyError):
            nearest_neighbors(tiny_table, "zzz", 1)

    def test_tie_broken_lexicographically(self):
        table = make_table({"q": [3.0, 0.0], "m": [1.0, 0.0], "b": [2.0, 0.0]})
        got = nearest_neighbors(table, "q", 2)
        assert [w for w, _ in got] == ["b", "m"]

    def test_sorted_non_increasing_no_duplicates(self):
        rng = np.random.default_rng(5)
        table = make_table({f"w{i}": rng.normal(0, 1, 4).tolist() for i in range(12)})
        got = nearest_neighbors(table, "w0", 11)
        sims = [s for _, s in got]
        assert sims == sorted(sims, reverse=True)
        assert len({w for w, _ in got}) == len(got)


class TestNearestNeighborsMatchLoop:
    """The mat-vec search returns the loop's list and scores exactly."""

    @pytest.mark.parametrize("k", [1, 10, 64, 10_000])
    def test_planted_table(self, k):
        table = planted_corpus(n_docs=20, seed=3)[1]
        for word in ("cough", "wheeze", "lit000", "fig117", "fill05"):
            assert nearest_neighbors(table, word, k) == nearest_neighbors_loop(table, word, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9, 20])
    def test_exact_ties(self, k):
        # duplicate rows tie exactly; the zero row and orthogonal rows tie at 0
        table = make_table({"q": [1.0, 2.0, 0.0], "e": [1.0, 2.0, 0.0], "b": [1.0, 2.0, 0.0],
                            "d": [1.0, 2.0, 0.0], "z": [0.0, 0.0, 0.0], "o": [0.0, 0.0, 5.0],
                            "a": [0.0, 0.0, -1.0], "n": [-1.0, -2.0, 0.0],
                            "m": [2.0, 1.0, 0.0]})
        got = nearest_neighbors(table, "q", k)
        assert got == nearest_neighbors_loop(table, "q", k)
        assert [w for w, _ in got][:3] == ["b", "d", "e"][:k]

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_all_zero_query(self, k):
        rng = np.random.default_rng(8)
        vectors = {f"w{i}": rng.normal(0, 1, 4).tolist() for i in range(30)}
        vectors["w7"] = [0.0] * 4
        table = make_table(vectors)
        got = nearest_neighbors(table, "w7", k)
        assert got == nearest_neighbors_loop(table, "w7", k)
        assert all(score == 0.0 for _, score in got)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"t{i:03d}" for i in range(int(rng.integers(3, 300)))]
        vectors = rng.normal(0, 1, (len(words), int(rng.integers(1, 9))))
        table = make_table({w: v.tolist() for w, v in zip(words, vectors)})
        for word in rng.choice(words, size=3):
            for k in (1, 5, len(words) - 1, len(words) + 5):
                assert nearest_neighbors(table, word, k) == \
                    nearest_neighbors_loop(table, word, k)


def _schedule_graph():
    """A d=3 table and a graph with a hub of degree 18, a chain of nine
    ascending rows (nine levels), an isolated head, a word whose only
    neighbours are out of vocabulary, and edges to a reserved token."""
    rng = np.random.default_rng(21)
    words = ([f"chain{i}" for i in range(9)] + ["hub"] + [f"leaf{i:02d}" for i in range(18)]
             + ["iso", "orphan", "lone", "x", "y"])
    table = make_table({w: v.tolist() for w, v in zip(words, rng.normal(0, 1, (len(words), 3)))})
    graph = OntologyGraph()
    for i in range(8):
        graph.add_edge(f"chain{i}", f"chain{i + 1}")
    for i in range(18):
        graph.add_edge("hub", f"leaf{i:02d}")
    graph.add_edge("leaf03", "chain4")
    graph.add_edge("leaf07", "leaf08")
    graph.add_edge("x", "y")
    graph.add_edge("x", "hub")
    graph.edges.setdefault("iso", set())
    graph.add_edge("orphan", "ghost")
    graph.add_edge("ghost", "phantom")
    graph.add_edge("lone", UNK_TOKEN)
    return table, graph


class TestRetrofitMatchesLoop:
    """The level-scheduled sweep is bitwise the ascending row-by-row sweep."""

    @pytest.mark.parametrize("beta_mode", ["inverse_degree", "uniform"])
    @pytest.mark.parametrize("iterations", [0, 1, 10])
    def test_hub_chain_isolated_and_oov(self, beta_mode, iterations):
        table, graph = _schedule_graph()
        out = retrofit(table, graph, iterations=iterations, beta_mode=beta_mode)
        assert np.array_equal(out.matrix, retrofit_loop(table, graph, iterations, 1.0, beta_mode))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_words = int(rng.integers(4, 60))
        dim = int(rng.integers(2, 7))
        words = [f"w{i}" for i in range(n_words)]
        table = make_table({w: v.tolist() for w, v in zip(words, rng.normal(0, 1, (n_words, dim)))})
        graph = OntologyGraph()
        for _ in range(int(rng.integers(1, 3 * n_words))):
            a, b = rng.choice(words + ["oov1", "oov2"], size=2, replace=False)
            graph.add_edge(a, b)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        for beta_mode in ("inverse_degree", "uniform"):
            out = retrofit(table, graph, iterations=7, alpha=alpha, beta_mode=beta_mode)
            assert np.array_equal(out.matrix,
                                  retrofit_loop(table, graph, 7, alpha, beta_mode))

    def test_one_sided_edges(self):
        # edges written straight into the dict need not be symmetric
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(8)]
        table = make_table({w: v.tolist() for w, v in zip(words, rng.normal(0, 1, (8, 2)))})
        graph = OntologyGraph(edges={"w5": {"w1", "w6"}, "w1": {"w6"}, "w6": {"w2"},
                                     "w2": {"w5"}, "w0": {"w3", "w4"}})
        out = retrofit(table, graph, iterations=5)
        assert np.array_equal(out.matrix, retrofit_loop(table, graph, 5))


def _assert_retrofit_is_the_loop(table, graph, iterations=3):
    for beta_mode in BETA_MODES:
        out = retrofit(table, graph, iterations=iterations, beta_mode=beta_mode)
        expected = retrofit_loop(table, graph, iterations, 1.0, beta_mode)
        assert out.matrix.tobytes() == expected.tobytes(), beta_mode


def _chain(n: int, descending: bool = False):
    """A table of n words and the chain w0 - w1 - ... between them, its edges
    added in ascending or descending row order."""
    rng = np.random.default_rng(n)
    words = [f"w{i}" for i in range(n)]
    table = make_table({w: v.tolist() for w, v in zip(words, rng.normal(0, 1, (n, 2)))})
    graph = OntologyGraph()
    for i in (range(n - 2, -1, -1) if descending else range(n - 1)):
        graph.add_edge(words[i], words[i + 1])
    return table, graph


_SCHEDULE_WORDS = [f"w{i}" for i in range(10)]


class TestSweepSchedule:
    """The edge-array schedule on graphs the ontology loader never writes."""

    def test_self_loop_in_one_sided_graph(self):
        # a self-loop stays among the row's neighbors but orders no update
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(6)]
        table = make_table({w: v.tolist() for w, v in zip(words, rng.normal(0, 1, (6, 3)))})
        graph = OntologyGraph(edges={"w3": {"w3", "w1"}, "w1": {"w1"}, "w4": {"w4", "w5", "w0"},
                                     "w5": {"w3"}})
        # rows 3 and 6 on level 0, 5 above 3, 7 above 5 and 6; 2 and 4 are no heads
        assert [rows.tolist() for rows, _ in embeddings._sweep_groups(table, graph)] == \
            [[3], [6], [5], [7]]
        _assert_retrofit_is_the_loop(table, graph)

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_chain_of_3000_levels(self, descending):
        table, graph = _chain(3000, descending)
        groups = embeddings._sweep_groups(table, graph)
        assert [rows.tolist() for rows, _ in groups] == [[row] for row in range(2, 3002)]
        _assert_retrofit_is_the_loop(table, graph, iterations=2)

    @pytest.mark.parametrize("edges", [
        {},
        {"w0": set(), "ghost": {"w1"}},
        {"w0": {"ghost", "phantom"}, "w1": {PAD_TOKEN, UNK_TOKEN}, UNK_TOKEN: {"w2"},
         PAD_TOKEN: {"w0"}, "ghost": {"phantom"}},
    ], ids=["empty", "oov_heads", "oov_and_reserved_neighbors"])
    def test_graph_without_in_vocabulary_edges(self, tiny_table, edges):
        graph = OntologyGraph(edges=edges)
        assert embeddings._sweep_groups(tiny_table, graph) == []
        assert retrofit(tiny_table, graph).matrix.tobytes() == tiny_table.matrix.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(edges=st.dictionaries(
        st.sampled_from(_SCHEDULE_WORDS + ["oov", PAD_TOKEN, UNK_TOKEN]),
        st.sets(st.sampled_from(_SCHEDULE_WORDS + ["oov", PAD_TOKEN, UNK_TOKEN]), max_size=5),
        max_size=12), dim=st.integers(2, 3), seed=st.integers(0, 2**16))
    def test_random_one_sided_graphs(self, edges, dim, seed):
        rng = np.random.default_rng(seed)
        table = make_table({w: v.tolist() for w, v in
                            zip(_SCHEDULE_WORDS, rng.normal(0, 1, (len(_SCHEDULE_WORDS), dim)))})
        _assert_retrofit_is_the_loop(table, OntologyGraph(edges=edges))

    def test_long_chain_levels_in_one_pass(self, monkeypatch):
        """A 20,000-row chain has 20,000 levels. Levels found in rounds (a
        frontier per level, or every edge relaxed until nothing changes)
        call an array search or reduction once per round; one pass calls
        each a fixed number of times."""
        table, graph = _chain(20_000)
        calls = {"n": 0}

        def counted(function):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                return function(*args, **kwargs)
            return wrapper
        for name in ("unique", "searchsorted", "isin", "nonzero", "flatnonzero", "where",
                     "sort", "argsort", "lexsort", "any", "all", "array_equal",
                     "count_nonzero"):
            monkeypatch.setattr(np, name, counted(getattr(np, name)))
        start = time.perf_counter()
        groups = embeddings._sweep_groups(table, graph)
        elapsed = time.perf_counter() - start
        monkeypatch.undo()
        assert len(groups) == 20_000
        assert calls["n"] < 50, calls
        assert elapsed < 1.5, f"schedule of a 20,000-row chain took {elapsed:.2f} s"


class TestLoadOntology:
    def test_head_neighbors(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("cough hack whoop\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.edges.get("cough", set()) == {"hack", "whoop"}
        assert graph.edges.get("hack", set()) == {"cough"}

    def test_duplicate_edges_collapse(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a b\na b\nb a\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.num_edges() == 1

    def test_isolated_node_and_blank_lines(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("alone\n\nx y\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.edges.get("alone", set()) == set()
        assert graph.num_edges() == 1

    def test_self_loop_dropped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a a b\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.edges.get("a", set()) == {"b"}


def _chain_graph():
    graph = OntologyGraph()
    graph.add_edge("a", "b")
    return graph


class TestRetrofit:
    def test_empty_graph_is_noop(self, tiny_table):
        out = retrofit(tiny_table, OntologyGraph(), iterations=10)
        assert np.array_equal(out.matrix, tiny_table.matrix)

    def test_zero_iterations_is_noop(self, tiny_table):
        out = retrofit(tiny_table, _chain_graph(), iterations=0)
        assert np.array_equal(out.matrix, tiny_table.matrix)

    def test_input_not_mutated(self, tiny_table):
        before = tiny_table.matrix.copy()
        retrofit(tiny_table, _chain_graph(), iterations=5)
        assert np.array_equal(tiny_table.matrix, before)

    def test_two_node_chain_matches_direct_solve(self):
        # stationarity: 2*q_a - q_b = 1, 2*q_b - q_a = 3  =>  q = (5/3, 7/3)
        table = make_table({"a": [1.0], "b": [3.0]})
        expected = np.linalg.solve(np.array([[2.0, -1.0], [-1.0, 2.0]]),
                                   np.array([1.0, 3.0]))
        out = retrofit(table, _chain_graph(), iterations=100, alpha=1.0)
        assert abs(out.vector("a")[0] - expected[0]) < 1e-6
        assert abs(out.vector("b")[0] - expected[1]) < 1e-6

    def test_word_outside_graph_unchanged(self, tiny_table):
        out = retrofit(tiny_table, _chain_graph(), iterations=50)
        assert np.array_equal(out.vector("c"), tiny_table.vector("c"))

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(6)]
        table = make_table({w: rng.normal(0, 1, 2).tolist() for w in words})
        graph = OntologyGraph()
        for _ in range(8):
            a, b = rng.choice(words, size=2, replace=False)
            graph.add_edge(a, b)
        values = [retrofit_objective(table, retrofit(table, graph, iterations=k), graph)
                  for k in range(6)]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_bad_arguments(self, tiny_table):
        with pytest.raises(ValueError):
            retrofit(tiny_table, _chain_graph(), iterations=-1)
        with pytest.raises(ValueError):
            retrofit(tiny_table, _chain_graph(), alpha=0.0)
        with pytest.raises(ValueError):
            retrofit(tiny_table, _chain_graph(), beta_mode="nope")


class TestProjectTable:
    def test_known_words_copied_missing_random(self):
        source = make_table({"cat": [1.0, 2.0]})
        out = project_table(source, [PAD_TOKEN, UNK_TOKEN, "cat", "new"], seed=4)
        assert out.vector("cat").tolist() == [1.0, 2.0]
        assert np.array_equal(out.matrix[PAD_INDEX], np.zeros(2))
        assert np.abs(out.vector("new")).max() <= 0.25
        again = project_table(source, [PAD_TOKEN, UNK_TOKEN, "cat", "new"], seed=4)
        assert np.array_equal(out.matrix, again.matrix)

    @pytest.mark.parametrize("n_source", [0, 40])
    def test_equals_the_row_by_row_loop(self, n_source):
        """One index for the known rows and one draw for the missing ones is
        bitwise a copy or draw per row, in vocabulary order."""
        source = random_table([f"w{i}" for i in range(0, 3 * n_source, 3)], 5, seed=1) \
            if n_source else EmbeddingTable(vocab={}, matrix=np.zeros((0, 5)))
        vocab = [UNK_TOKEN, PAD_TOKEN, UNK_TOKEN] + [f"w{i}" for i in range(100)] \
            + [UNK_TOKEN, "new"]
        out = project_table(source, vocab, seed=8)
        expected = project_table_loop(source, vocab, seed=8)
        assert out.vocab == expected.vocab
        assert out.matrix.tobytes() == expected.matrix.tobytes()

    def test_random_table_is_a_projection_of_nothing(self):
        words = [f"w{i}" for i in range(500)]
        empty = EmbeddingTable(vocab={}, matrix=np.zeros((0, 7)))
        assert random_table(words, 7, seed=3).matrix.tobytes() == \
            project_table_loop(empty, words, seed=3).matrix.tobytes()


def _scaled_table(n: int, dim: int, seed: int) -> EmbeddingTable:
    """Rows at norms from 1e-3 to 1e3, three of them zero."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    matrix[[0, 7, n - 1]] = 0.0
    return EmbeddingTable(vocab={f"w{i}": i for i in range(n)}, matrix=matrix)


class TestUnitRows:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 20, 50, 100, 300])
    def test_subset_rows_are_the_whole_tables_rows(self, dim):
        """A row's unit row does not depend on the rows normalised with it."""
        matrix = _scaled_table(60, dim, seed=dim).matrix
        whole = _unit_rows(matrix)
        rng = np.random.default_rng(dim)
        for size in (1, 2, 5, 17, 60):
            ids = rng.integers(0, 60, size=size)
            assert _unit_rows(matrix[ids]).tobytes() == whole[ids].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 50])
    def test_rows_bitwise_in_any_fill_order(self, dim):
        table = _scaled_table(600, dim, seed=dim + 1)
        rng = np.random.default_rng(dim)
        for _ in range(10):
            unit = UnitRows(table)
            for _ in range(8):
                ids = rng.integers(0, 600, size=int(rng.integers(0, 12))).tolist()
                got = unit.rows(ids)
                assert got.shape == (len(ids), dim)
                assert got.tobytes() == _unit_rows(table.matrix[ids]).tobytes()
            ids = rng.permutation(600).tolist()
            assert unit.rows(ids).tobytes() == _unit_rows(table.matrix[ids]).tobytes()

    def test_each_row_is_normalised_once(self, monkeypatch):
        """A call normalises the rows not asked for before, each once, and
        reads back the rest."""
        table = _scaled_table(600, 4, seed=0)
        normalised = []

        def counting(matrix):
            normalised.append(len(matrix))
            return _unit_rows(matrix)
        monkeypatch.setattr(embeddings, "_unit_rows", counting)
        unit = UnitRows(table)
        unit.rows([3, 5, 3])
        unit.rows([5, 255])
        unit.rows([])
        unit.rows([255, 3, 5])
        unit.rows([599, 5, 300, 599])
        assert normalised == [2, 1, 2]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs mincore")
    def test_only_the_pages_of_rows_asked_for_become_resident(self):
        """At least 4 MB, where numpy advises huge pages: 100 rows spread
        over the table make at most 2 pages each resident, not the table."""
        table = _scaled_table(20_000, 50, seed=3)
        unit = UnitRows(table)
        unit.rows(np.random.default_rng(3).permutation(20_000)[:100].tolist())
        start = unit._backing.ctypes.data // mmap.PAGESIZE * mmap.PAGESIZE
        length = unit._backing.ctypes.data + unit._backing.nbytes - start
        resident = (ctypes.c_ubyte * -(-length // mmap.PAGESIZE))()
        libc = ctypes.CDLL(None, use_errno=True)
        assert libc.mincore(ctypes.c_void_p(start), ctypes.c_size_t(length), resident) == 0
        assert sum(page & 1 for page in resident) <= 200

    def test_only_unit_rows_normalises(self):
        """``_unit_rows`` is the one normaliser, and only ``UnitRows`` calls it."""
        package = Path(embeddings.__file__).parent
        callers = []
        for source in sorted(package.glob("*.py")):
            tree = ast.parse(source.read_text("utf-8"))
            for function, node in _calls_by_function(tree):
                if "_unit_rows" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None)):
                    callers.append((source.stem, function))
        assert callers == [("embeddings", "fill")]
