import math
import tracemalloc

import numpy as np
import pytest

from figphm.corpus import PAD_INDEX, PAD_TOKEN, UNK_TOKEN
from figphm.embeddings import (OntologyGraph, cosine, load_ontology,
                               load_table, nearest_neighbors, project_table,
                               random_table, retrofit, retrofit_objective,
                               save_table)
from figphm.errors import DataError

from conftest import make_table


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


class TestLoadOntology:
    def test_head_neighbors(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("cough hack whoop\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.neighbors("cough") == {"hack", "whoop"}
        assert graph.neighbors("hack") == {"cough"}

    def test_duplicate_edges_collapse(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a b\na b\nb a\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.num_edges() == 1

    def test_isolated_node_and_blank_lines(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("alone\n\nx y\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.neighbors("alone") == set()
        assert graph.num_edges() == 1

    def test_self_loop_dropped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a a b\n", encoding="utf-8")
        graph = load_ontology(path)
        assert graph.neighbors("a") == {"b"}


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
