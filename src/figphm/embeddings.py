"""Dense word-embedding tables: loading, random init, similarity queries,
and graph-based retrofitting.

Tables always reserve row 0 for PAD (kept all-zero) and row 1 for UNK, so
they can be dropped row-for-row into the CNN embedding layer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import PAD_INDEX, PAD_TOKEN, UNK_INDEX, UNK_TOKEN, read_lines
from .errors import DataError

log = logging.getLogger(__name__)

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN)

# Kim-style uniform range for randomly initialised word vectors.
RANDOM_INIT_BOUND = 0.25

TABLE_FORMATS = ("glove_text", "word2vec_text")
BETA_MODES = ("inverse_degree", "uniform")

# Rows parsed per np.loadtxt call by load_table: the per-call cost is spread
# thin, and a block's text stays a small share of a large table's matrix.
_BLOCK_ROWS = 4096
# Characters np.loadtxt strips from around a value as whitespace; float() does not.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

# A candidate's mat-vec score may differ from its ``cosine`` in the last few
# bits; every word within this much of the k-th score is re-scored exactly.
NEIGHBOR_SLACK = 1e-9


@dataclass
class EmbeddingTable:
    """Vocabulary -> dense vector lookup backed by a |V| x d float64 matrix."""

    vocab: dict[str, int]
    matrix: np.ndarray
    n_duplicates: int = 0

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def vector(self, word: str) -> np.ndarray:
        index = self.vocab.get(word)
        if index is None:
            raise KeyError(f"word not in vocabulary: {word!r}")
        return self.matrix[index]

    def words(self) -> list[str]:
        """Vocabulary in row order, reserved tokens included."""
        return sorted(self.vocab, key=self.vocab.get)


@dataclass
class OntologyGraph:
    """Undirected adjacency over words; multiword terms use underscores."""

    edges: dict[str, set[str]] = field(default_factory=dict)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        self.edges.setdefault(a, set()).add(b)
        self.edges.setdefault(b, set()).add(a)

    def num_edges(self) -> int:
        return sum(len(n) for n in self.edges.values()) // 2


def _new_table(words: list[str], dim: int) -> tuple[dict[str, int], np.ndarray]:
    """The reserved rows, then one row per distinct word in first-seen order."""
    vocab = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for word in dict.fromkeys(words):
        vocab[word] = len(vocab)
    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    return vocab, matrix


def load_table(path: str | Path, format: str = "glove_text",
               strip_prefix: str | None = None) -> EmbeddingTable:
    """Load a text embedding file.

    ``word2vec_text`` starts with a ``count dim`` header line; ``glove_text``
    has none (Numberbatch ships in this layout, pass ``strip_prefix="/c/en/"``
    to drop its language prefix). Duplicate words keep the first occurrence.
    A non-finite value (``inf``, ``nan``, or a number that overflows) is a
    data error.

    Fields are separated by runs of spaces. Words are read line by line;
    values are parsed ``_BLOCK_ROWS`` rows at a time (see ``_parse_block``).
    """
    if format not in TABLE_FORMATS:
        raise ValueError(f"unknown embedding format: {format!r}")

    vocab = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    kept_lines: list[int] = []  # line number of each matrix row after the reserved ones
    blocks: list[np.ndarray] = []
    linenos: list[int] = []
    texts: list[str] = []
    dropped: list[int] = []  # positions in the block of duplicate and reserved words
    n_duplicates = 0
    dim = 0
    for lineno, line in read_lines(path, "embedding file"):
        if line[0] == " ":
            line = line.lstrip(" ")
            if not line:
                continue
        word, _, text = line.partition(" ")
        if format == "word2vec_text" and lineno == 1:
            if len(_fields(text)) != 1:
                raise DataError(f"{path}: line 1: expected 'count dim' header")
            continue
        if strip_prefix and word.startswith(strip_prefix):
            word = word[len(strip_prefix):]
        if not dim:
            dim = len(_fields(text))
            if not dim:
                raise DataError(f"{path}: line {lineno}: row has no vector values")
        if word in vocab:
            n_duplicates += 1
            dropped.append(len(texts))
        else:
            vocab[word] = len(vocab)
            kept_lines.append(lineno)
        linenos.append(lineno)
        texts.append(text)
        if len(texts) == _BLOCK_ROWS:
            blocks.append(_parse_block(path, dim, linenos, texts, dropped))
            linenos, texts, dropped = [], [], []

    if not dim:
        raise DataError(f"{path}: no embedding rows found")
    if texts:
        blocks.append(_parse_block(path, dim, linenos, texts, dropped))
    del linenos, texts
    if n_duplicates:
        log.warning("%s: %d duplicate word(s) ignored, first occurrence kept", path, n_duplicates)

    matrix = np.concatenate([np.zeros((len(RESERVED_TOKENS), dim)), *blocks])
    del blocks
    if not np.isfinite(matrix).all():
        bad = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
        raise DataError(f"{path}: line {kept_lines[bad - len(RESERVED_TOKENS)]}: "
                        f"non-finite value")
    return EmbeddingTable(vocab=vocab, matrix=matrix, n_duplicates=n_duplicates)


def _fields(text: str) -> list[str]:
    return [p for p in text.split(" ") if p]


def _parse_block(path: str | Path, dim: int, linenos: list[int], texts: list[str],
                 dropped: list[int]) -> np.ndarray:
    """The ``dim`` values of each row of one block, without the ``dropped``
    positions; ``texts`` holds each row's line after its word.

    A block ``np.loadtxt`` rejects is parsed again row by row: its first row
    with the wrong number of values or a value ``float()`` rejects is a
    ``DataError`` naming that line. ``float()`` also accepts forms numpy does
    not (``1_0``, non-ASCII digits), so it alone decides what a valid value is.
    """
    values = _loadtxt_block(texts, dim)
    if values is None:
        rows = []
        for lineno, text in zip(linenos, texts):
            row = _fields(text)
            if len(row) != dim:
                raise DataError(f"{path}: line {lineno}: expected {dim} dims, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: non-numeric value ({exc})") from None
        values = np.array(rows)
    return np.delete(values, dropped, axis=0) if dropped else values


def _loadtxt_block(texts: list[str], dim: int) -> np.ndarray | None:
    """The rows' values from one ``np.loadtxt`` call, or None unless numpy
    reads exactly ``dim`` values from every row.

    Whatever numpy reads here ``float()`` reads too, to the same double: both
    use Python's string-to-double routine. numpy rejects the empty field that
    a run of spaces leaves, and ``comments=None`` and ``quotechar=None`` keep
    it from cutting a value at ``#`` or ``"``. It does strip the separators
    U+001C-U+001F around a value, which ``float()`` rejects, so a block that
    holds one is left to ``float()``, and so is one with an empty row, which
    numpy would skip.
    """
    joined = "".join(texts)
    if "" in texts or any(ch in joined for ch in _NUMPY_ONLY_SPACE):
        return None
    del joined
    try:
        values = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None,
                            quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(texts), dim) else None


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Serialize to glove_text at 6 decimal places; reserved rows are skipped."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for word in table.words():
            if word in RESERVED_TOKENS:
                continue
            row = table.matrix[table.vocab[word]]
            handle.write(word + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def random_table(vocab: list[str], dim: int, seed: int) -> EmbeddingTable:
    """Uniform[-0.25, 0.25] vectors for every word, deterministic per seed:
    ``project_table`` from an empty table of width ``dim``.

    The PAD row stays all-zero; UNK gets a random row like any other word.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not vocab:
        raise ValueError("random_table requires a non-empty vocabulary")
    return project_table(EmbeddingTable(vocab={}, matrix=np.zeros((0, dim))), vocab, seed)


def project_table(table: EmbeddingTable, vocab: list[str], seed: int) -> EmbeddingTable:
    """Re-key a table onto a target vocabulary (typically the corpus vocab).

    Words present in the source keep their vectors; missing words (UNK
    included) draw uniform[-0.25, 0.25] rows from a generator seeded once,
    in vocabulary order, so the result is deterministic. The known rows are
    copied with one index and the missing ones drawn in one call, which is
    bitwise a draw per row.
    """
    words = [w for w in vocab if w not in RESERVED_TOKENS]
    target_vocab, matrix = _new_table(words, table.dim)
    # target and source row of every word after the reserved two (-1: missing)
    index = np.fromiter(target_vocab.values(), dtype=np.intp)[2:]
    source = np.fromiter((table.vocab.get(word, -1) for word in target_vocab), dtype=np.intp)[2:]
    known = source >= 0
    matrix[index[known]] = table.matrix[source[known]]
    missing = np.concatenate(([UNK_INDEX], index[~known]))
    rng = np.random.default_rng(seed)
    matrix[missing] = rng.uniform(-RANDOM_INIT_BOUND, RANDOM_INIT_BOUND,
                                  size=(len(missing), table.dim))
    return EmbeddingTable(vocab=target_vocab, matrix=matrix)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; all-zero vectors (PAD rows) compare as 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = np.linalg.norm(u)
    norm_v = np.linalg.norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return float(np.dot(u, v) / (norm_u * norm_v))


def nearest_neighbors(table: EmbeddingTable, word: str, k: int) -> list[tuple[str, float]]:
    """The k most cosine-similar words to ``word``.

    The query itself and the reserved rows never appear. Ties are broken by
    ascending word order; asking for more neighbors than exist returns the
    full ranked list. One mat-vec ranks every word; the candidates within
    ``NEIGHBOR_SLACK`` of the k-th score are then scored with ``cosine``, so
    the result is exactly that of ranking every word by ``cosine``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if word not in table.vocab:
        raise KeyError(f"word not in vocabulary: {word!r}")
    query = table.vector(word)
    words = list(table.vocab)
    rows = np.fromiter(table.vocab.values(), dtype=np.intp, count=len(words))
    norms = row_norms(table.matrix) * np.linalg.norm(query)
    scores = np.divide(table.matrix @ query, norms, out=np.zeros(len(norms)),
                       where=norms != 0.0)[rows]
    excluded = [words.index(w) for w in {word, *RESERVED_TOKENS} if w in table.vocab]
    scores[excluded] = -np.inf
    if k < len(words) - len(excluded):
        kth = -np.partition(-scores, k - 1)[k - 1]
        positions = np.flatnonzero(scores >= kth - NEIGHBOR_SLACK)
    else:
        positions = np.flatnonzero(scores > -np.inf)
    scored = [(words[p], cosine(query, table.matrix[rows[p]])) for p in positions]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without a temporary the size of ``matrix``."""
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def load_ontology(path: str | Path) -> OntologyGraph:
    """Read a lexicon file: one line per head word, ``head n1 n2 ...``.

    Edges are undirected and deduplicated; self-loops are dropped; a line
    with a single token contributes an isolated node.
    """
    graph = OntologyGraph()
    for _, line in read_lines(path, "ontology file"):
        words = line.lower().split()
        if not words:
            continue
        head = words[0]
        graph.edges.setdefault(head, set())
        for neighbor in words[1:]:
            graph.add_edge(head, neighbor)
    return graph


def retrofit(table: EmbeddingTable, graph: OntologyGraph, iterations: int = 10,
             alpha: float = 1.0, beta_mode: str = "inverse_degree") -> EmbeddingTable:
    """Pull word vectors toward their ontology neighbors.

    Runs Gauss-Seidel sweeps (ascending row index) of

        q_i <- (alpha * q0_i + sum_j beta_ij * q_j) / (alpha + sum_j beta_ij)

    over words that have at least one in-vocabulary neighbor, where q0 is the
    original vector and beta_ij is 1/|N(i)| (``inverse_degree``) or 1
    (``uniform``). Ontology words outside the vocabulary are ignored. The
    input table is not mutated.

    Each sweep updates whole levels of rows at once (see ``_sweep_groups``)
    and sums each row's neighbors one at a time in ascending row order, so
    it gives bitwise the row-by-row sweep for tables of two or more columns.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta_mode not in BETA_MODES:
        raise ValueError(f"unknown beta_mode: {beta_mode!r}")

    original = table.matrix
    matrix = original.copy()
    groups = []
    for rows, neighbor_rows in _sweep_groups(_in_vocab_neighborhoods(table, graph)):
        degree = len(neighbor_rows)
        beta = 1.0 / degree if beta_mode == "inverse_degree" else 1.0
        groups.append((rows, neighbor_rows, alpha * original[rows], beta,
                       alpha + beta * degree))

    for _ in range(iterations):
        for rows, neighbor_rows, head, beta, denominator in groups:
            neighbor_sum = matrix[neighbor_rows[0]]
            for column in neighbor_rows[1:]:
                neighbor_sum += matrix[column]
            matrix[rows] = (head + beta * neighbor_sum) / denominator
    return EmbeddingTable(vocab=dict(table.vocab), matrix=matrix)


def _sweep_groups(neighborhoods: dict[int, list[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Level schedule of one ascending Gauss-Seidel sweep.

    A row's level is one more than the highest level among the lower rows it
    shares an edge with (0 if none), so rows on one level share no edge and
    updating a level at once reads exactly what the ascending sweep reads:
    lower neighbors already updated, higher ones not yet. Each level is split
    by degree; a group is (rows, a degree x len(rows) matrix of their sorted
    neighbor rows), and the groups come in ascending level order.
    """
    lower: dict[int, list[int]] = {index: [] for index in neighborhoods}
    for index, neighbor_rows in neighborhoods.items():
        for j in neighbor_rows:
            if j < index:
                lower[index].append(j)
            elif j in lower:  # a one-sided edge still orders the two updates
                lower[j].append(index)
    level: dict[int, int] = {}
    members: dict[tuple[int, int], list[int]] = {}
    for index in sorted(neighborhoods):
        level[index] = 1 + max((level[j] for j in lower[index] if j in level), default=-1)
        members.setdefault((level[index], len(neighborhoods[index])), []).append(index)
    return [(np.array(rows), np.array([neighborhoods[i] for i in rows]).T.copy())
            for _, rows in sorted(members.items())]


def retrofit_objective(original: EmbeddingTable, current: EmbeddingTable,
                       graph: OntologyGraph, alpha: float = 1.0,
                       beta_mode: str = "inverse_degree") -> float:
    """Quadratic energy that each retrofit sweep coordinate-minimizes.

    Written with symmetric edge weights (node terms absorb the degree
    scaling), so every exact coordinate update can only lower it:

        sum_i w_i * ||q_i - q0_i||^2 + sum_{i~j} ||q_i - q_j||^2

    with w_i = alpha * deg(i) for ``inverse_degree`` and w_i = alpha for
    ``uniform``; sums run over the in-vocabulary induced subgraph.
    """
    neighborhoods = _in_vocab_neighborhoods(original, graph)
    total = 0.0
    for index, neighbor_rows in neighborhoods.items():
        weight = alpha * len(neighbor_rows) if beta_mode == "inverse_degree" else alpha
        diff = current.matrix[index] - original.matrix[index]
        total += weight * float(np.dot(diff, diff))
        for j in neighbor_rows:
            if j > index:  # count each undirected edge once
                gap = current.matrix[index] - current.matrix[j]
                total += float(np.dot(gap, gap))
    return total


def _in_vocab_neighborhoods(table: EmbeddingTable, graph: OntologyGraph) -> dict[int, list[int]]:
    """Row index -> sorted neighbor row indices, restricted to the vocabulary."""
    neighborhoods: dict[int, list[int]] = {}
    for word, neighbors in graph.edges.items():
        index = table.vocab.get(word)
        if index is None or word in RESERVED_TOKENS:
            continue
        rows = sorted(table.vocab[n] for n in neighbors
                      if n in table.vocab and n not in RESERVED_TOKENS)
        if rows:
            neighborhoods[index] = rows
    return neighborhoods
