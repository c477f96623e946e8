"""Loop forms of the array code in figphm, kept as the reference that the
equality tests compare against.

Each function walks rows, word pairs or tokens one at a time with the
arithmetic the array code must reproduce: ``retrofit_loop`` and
``lda_loop`` must match bitwise, ``nearest_neighbors_loop`` must give the
same list and scores, and ``literal_usage_score_loop`` must agree to 1e-12.
"""

from __future__ import annotations

import numpy as np

from figphm.corpus import SENTINEL_TOKENS
from figphm.embeddings import RESERVED_TOKENS, _in_vocab_neighborhoods, cosine
from figphm.figurative import (LDA_ALPHA_DOC, LDA_BETA_WORD, LDA_TOPIC_FIGURATIVE,
                               LDA_TOPIC_LITERAL)


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
