"""Loop forms of the array code in figphm, kept as the reference that the
equality tests compare against.

Each function walks rows, word pairs or tokens one at a time with the
arithmetic the array code must reproduce: ``retrofit_loop`` and
``lda_loop`` must match bitwise, ``nearest_neighbors_loop`` must give the
same list and scores, and ``literal_usage_score_loop`` must agree to 1e-12.
``literal_usage_score_per_call`` normalises a document's content rows and
the related rows afresh on every call; the score must match it bitwise.
``load_table_rows`` parses every value with ``float()`` and sums each row's
squares one at a time; the block parser must give the same table, bitwise,
and the same ``DataError`` message.
``pos_tag_loop`` applies the tagging rules to every token, repeats included;
the cached tagger must give the same tags. ``project_table_loop`` copies or
draws one row at a time; ``project_table`` and ``random_table`` must match it
bitwise. ``feature_row_loop`` frames one verdict at a time;
``feature_rows`` must match it bitwise.

``maxpool1d_backward`` then ``relu_backward`` is the training pass's old
pool/ReLU backward, which compared the activations again on every pass; the
forward-recorded route must give the same bytes. ``dense_backward_matmul``
is the head's backward with the input gradient as a K=1 GEMM; the one-unit
product must give equal values. ``sigmoid_boolean_mask`` is the logistic
function as two masked halves; the branch-free ``sigmoid`` must give the same
bytes.
"""

from __future__ import annotations

import numpy as np

from figphm.corpus import PAD_TOKEN, SENTINEL_TOKENS, UNK_TOKEN, read_lines
from figphm.embeddings import (RANDOM_INIT_BOUND, RESERVED_TOKENS, EmbeddingTable,
                               _in_vocab_neighborhoods, _new_table, cosine, row_norms)
from figphm.errors import DataError
from figphm.figurative import (_TAG_LEXICON, FIGURATIVE, LDA_ALPHA_DOC, LDA_BETA_WORD,
                               LDA_TOPIC_FIGURATIVE, LDA_TOPIC_LITERAL, _is_numeric,
                               _suffix_tag)


def load_table_rows(path, format="glove_text", strip_prefix=None):
    """One ``float()`` per value, one row at a time."""
    rows = []
    seen = set()
    n_duplicates = 0
    dim = None
    for lineno, line in read_lines(path, "embedding file"):
        parts = [p for p in line.split(" ") if p]
        if not parts:
            continue
        if format == "word2vec_text" and lineno == 1:
            if len(parts) != 2:
                raise DataError(f"{path}: line 1: expected 'count dim' header")
            continue
        word, values = parts[0], parts[1:]
        if strip_prefix and word.startswith(strip_prefix):
            word = word[len(strip_prefix):]
        if dim is None:
            dim = len(values)
            if dim < 1:
                raise DataError(f"{path}: line {lineno}: row has no vector values")
        if len(values) != dim:
            raise DataError(f"{path}: line {lineno}: expected {dim} dims, got {len(values)}")
        try:
            vector = np.array([float(v) for v in values])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric value ({exc})") from None
        if word in seen or word in RESERVED_TOKENS:
            n_duplicates += 1
            continue
        seen.add(word)
        rows.append((lineno, word, vector))

    if dim is None:
        raise DataError(f"{path}: no embedding rows found")
    vocab, matrix = _new_table([w for _, w, _ in rows], dim)
    for _, word, vector in rows:
        matrix[vocab[word]] = vector
    for lineno, _, vector in rows:
        if not np.isfinite(vector).all():
            raise DataError(f"{path}: line {lineno}: non-finite value")
        if not np.isfinite(sum(value * value for value in vector.tolist())):
            raise DataError(f"{path}: line {lineno}: row norm overflows")
    return EmbeddingTable(vocab=vocab, matrix=matrix, n_duplicates=n_duplicates)


def project_table_loop(table, vocab, seed):
    """A known word's row is copied; PAD stays zero; UNK and every missing
    word draw their own row from one generator, in vocabulary order."""
    words = [w for w in vocab if w not in RESERVED_TOKENS]
    target_vocab, matrix = _new_table(words, table.dim)
    rng = np.random.default_rng(seed)
    for word, index in target_vocab.items():
        if word == PAD_TOKEN:
            continue
        if word != UNK_TOKEN and word in table.vocab:
            matrix[index] = table.matrix[table.vocab[word]]
        else:
            matrix[index] = rng.uniform(-RANDOM_INIT_BOUND, RANDOM_INIT_BOUND, size=table.dim)
    return EmbeddingTable(vocab=target_vocab, matrix=matrix)


def pos_tag_loop(tokens):
    tags = []
    for token in tokens:
        if token in SENTINEL_TOKENS:
            tags.append("X")
        elif token in _TAG_LEXICON:
            tags.append(_TAG_LEXICON[token])
        elif _is_numeric(token):
            tags.append("NUM")
        elif not any(ch.isalnum() for ch in token):
            tags.append("PUNCT")
        else:
            tags.append(_suffix_tag(token))
    return tags


def nearest_neighbors_loop(table, word, k):
    query = table.vector(word)
    scored = [(other, cosine(query, table.matrix[index]))
              for other, index in table.vocab.items()
              if other != word and other not in RESERVED_TOKENS]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def retrofit_loop(table, graph, iterations=10, alpha=1.0, beta_mode="inverse_degree"):
    """Gauss-Seidel in ascending row order; returns the new matrix."""
    original = table.matrix
    matrix = original.copy()
    neighborhoods = _in_vocab_neighborhoods(table, graph)
    for _ in range(iterations):
        for index in sorted(neighborhoods):
            neighbor_rows = neighborhoods[index]
            degree = len(neighbor_rows)
            beta = 1.0 / degree if beta_mode == "inverse_degree" else 1.0
            neighbor_sum = matrix[neighbor_rows].sum(axis=0)
            matrix[index] = (alpha * original[index] + beta * neighbor_sum) / (alpha + beta * degree)
    return matrix


def literal_usage_score_loop(tokens, rep, table, include_target=False):
    content = [t for t in tokens
               if t not in SENTINEL_TOKENS
               and (include_target or t != rep.keyword)
               and t in table.vocab]
    if not content:
        return 0.5
    rep_vectors = [table.vector(w) for w in rep.related_words if w in table.vocab]
    if not rep_vectors:
        return 0.5
    total = 0.0
    for token in content:
        vec = table.vector(token)
        for rep_vec in rep_vectors:
            total += max(0.0, cosine(vec, rep_vec))
    return total / (len(content) * len(rep_vectors))


def literal_usage_score_per_call(tokens, rep, table, include_target=False):
    vocab = table.vocab
    content = [vocab[t] for t in tokens
               if t not in SENTINEL_TOKENS
               and (include_target or t != rep.keyword)
               and t in vocab]
    related = [vocab[w] for w in rep.related_words if w in vocab]
    if not content or not related:
        return 0.5
    cosines = _normalised(table.matrix[content]) @ _normalised(table.matrix[related]).T
    return float(np.maximum(cosines, 0.0).mean())


def _normalised(matrix):
    norms = row_norms(matrix)[:, None]
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms != 0.0)


def lda_loop(documents, seed_scores, iterations, seed):
    """Returns (word_dist, doc_dist) as ``lda_estimate`` lays them out."""
    rng = np.random.default_rng(seed)
    vocab: dict[str, int] = {}
    doc_words = []
    for doc in documents:
        doc_words.append([vocab.setdefault(token, len(vocab)) for token in doc])

    n_docs, n_words, n_topics = len(doc_words), len(vocab), 2
    doc_topic = np.zeros((n_docs, n_topics))
    topic_word = np.zeros((n_topics, n_words))
    topic_total = np.zeros(n_topics)
    assignments = []
    for d, ids in enumerate(doc_words):
        z = np.where(rng.random(len(ids)) < seed_scores[d],
                     LDA_TOPIC_LITERAL, LDA_TOPIC_FIGURATIVE)
        assignments.append(z)
        for w, k in zip(ids, z):
            doc_topic[d, k] += 1
            topic_word[k, w] += 1
            topic_total[k] += 1

    burn_in = iterations // 2
    doc_sum = np.zeros_like(doc_topic)
    word_sum = np.zeros_like(topic_word)
    n_samples = 0
    for sweep in range(iterations):
        for d, ids in enumerate(doc_words):
            z = assignments[d]
            for n, w in enumerate(ids):
                k = z[n]
                doc_topic[d, k] -= 1
                topic_word[k, w] -= 1
                topic_total[k] -= 1
                p = ((doc_topic[d] + LDA_ALPHA_DOC)
                     * (topic_word[:, w] + LDA_BETA_WORD)
                     / (topic_total + LDA_BETA_WORD * n_words))
                k = LDA_TOPIC_LITERAL if rng.random() < p[0] / (p[0] + p[1]) \
                    else LDA_TOPIC_FIGURATIVE
                z[n] = k
                doc_topic[d, k] += 1
                topic_word[k, w] += 1
                topic_total[k] += 1
        if sweep >= burn_in:
            doc_sum += (doc_topic + LDA_ALPHA_DOC) / (doc_topic.sum(axis=1, keepdims=True)
                                                      + n_topics * LDA_ALPHA_DOC)
            word_sum += (topic_word + LDA_BETA_WORD) / (topic_word.sum(axis=0, keepdims=True)
                                                        + n_topics * LDA_BETA_WORD)
            n_samples += 1

    doc_mean = doc_sum / n_samples
    word_mean = word_sum / n_samples
    word_dist = {word: (float(word_mean[LDA_TOPIC_LITERAL, idx]),
                        float(word_mean[LDA_TOPIC_FIGURATIVE, idx]))
                 for word, idx in vocab.items()}
    doc_dist = [(float(doc_mean[d, LDA_TOPIC_LITERAL]),
                 float(doc_mean[d, LDA_TOPIC_FIGURATIVE])) for d in range(n_docs)]
    return word_dist, doc_dist


def feature_row_loop(verdict, include_score=True):
    """One verdict's FeatAug row: the figurative bit, the linguistic block,
    then the literal score if included."""
    return np.concatenate(([float(verdict.label == FIGURATIVE)], verdict.features,
                           [verdict.literal_score] if include_score else []))


def maxpool1d_backward(dout, x, pool):
    """Routes each window's gradient to its argmax (first index on ties),
    found by comparison: entry i wins if no earlier entry won and it is at
    least the maximum of the entries after it."""
    n_windows = x.shape[-2] // pool
    covered = n_windows * pool
    view = x[..., :covered, :].reshape(x.shape[:-2] + (n_windows, pool, x.shape[-1]))
    dx = np.zeros_like(x)
    dwindows = dx[..., :covered, :].reshape(view.shape)   # a view of dx
    unrouted = np.ones(dout.shape, dtype=bool)
    for i in range(pool - 1):
        rest = view[..., i + 1, :] if i + 2 == pool else view[..., i + 1:, :].max(axis=-2)
        wins = (view[..., i, :] >= rest) & unrouted
        np.multiply(dout, wins, out=dwindows[..., i, :])
        unrouted &= ~wins
    np.multiply(dout, unrouted, out=dwindows[..., pool - 1, :])
    return dx


def relu_backward(dout, x):
    return np.multiply(dout, x > 0.0)


def dense_backward_matmul(dout, x, weights, out):
    """dense_backward with the input gradient as the GEMM dout @ W."""
    dout = dout * out * (1.0 - out)
    flat_dout = dout.reshape(-1, weights.shape[0])
    dweights = flat_dout.T @ x.reshape(-1, weights.shape[1])
    return np.matmul(dout, weights), dweights, flat_dout.sum(axis=0)


def sigmoid_boolean_mask(x):
    """1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x)) elsewhere, each half
    written through a boolean mask."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
