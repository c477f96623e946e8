"""Synthetic corpora for desk-scale experiments and acceptance checks.

Two generators:

* ``separable_corpus`` plants a marker token that decides the class, so a
  working classifier must be able to overfit it.
* ``planted_corpus`` builds documents where the positive class requires a
  symptom word in a literal context. Figurative documents contain the same
  symptom words and fillers, differing only in context words drawn from a
  large pool, and a matching embedding table places literal-context words
  near the symptom cluster. Context types mostly appear once, so the text
  classifier alone generalizes poorly while the similarity-based figurative
  signal stays clean.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import NONPHM, PAD_TOKEN, PHM, UNK_TOKEN, Document, save_dataset, write_atomically
from .embeddings import EmbeddingTable, save_table

SYMPTOM_WORDS = ("cough", "fever", "chill", "wheeze")
_DISEASES = ("cancer", "depression", "stroke")


def separable_corpus(n_docs: int = 200, seed: int = 0, marker: str = "feverish",
                     filler_types: int = 40) -> list[Document]:
    """Documents whose label is PHM exactly when the marker token appears."""
    rng = np.random.default_rng(seed)
    fillers = [f"word{i:02d}" for i in range(filler_types)]
    docs = []
    for i in range(n_docs):
        label = PHM if i % 2 == 0 else NONPHM
        length = int(rng.integers(4, 9))
        tokens = [fillers[rng.integers(len(fillers))] for _ in range(length)]
        if label == PHM:
            tokens.insert(int(rng.integers(len(tokens) + 1)), marker)
        docs.append(Document(id=f"s{i:04d}", disease=_DISEASES[i % len(_DISEASES)],
                             raw_text=" ".join(tokens), tokens=tokens, label=label))
    return docs


def planted_corpus(n_docs: int = 240, seed: int = 0, context_types: int = 300,
                   dim: int = 8):
    """Corpus + detector embedding table where PHM = symptom AND literal context.

    Returns (documents, table, keywords). 45% of documents are literal
    symptom uses (PHM), 30% figurative symptom uses, 25% symptom-free; the
    last group mixes context words from both pools.
    """
    rng = np.random.default_rng(seed)
    lit_words = [f"lit{i:03d}" for i in range(context_types)]
    fig_words = [f"fig{i:03d}" for i in range(context_types)]
    fillers = [f"fill{i:02d}" for i in range(30)]

    table = _context_table(lit_words, fig_words, fillers, dim, rng)

    docs = []
    for i in range(n_docs):
        slot = i % 20
        if slot < 9:
            kind = "literal"
        elif slot < 15:
            kind = "figurative"
        else:
            kind = "nosym"
        tokens = [fillers[rng.integers(len(fillers))]
                  for _ in range(int(rng.integers(2, 5)))]
        n_context = int(rng.integers(3, 6))
        if kind == "literal":
            tokens += [lit_words[rng.integers(len(lit_words))] for _ in range(n_context)]
            tokens.append(SYMPTOM_WORDS[int(rng.integers(len(SYMPTOM_WORDS)))])
        elif kind == "figurative":
            tokens += [fig_words[rng.integers(len(fig_words))] for _ in range(n_context)]
            tokens.append(SYMPTOM_WORDS[int(rng.integers(len(SYMPTOM_WORDS)))])
        else:
            pool = lit_words + fig_words
            tokens += [pool[rng.integers(len(pool))] for _ in range(n_context)]
        rng.shuffle(tokens)
        docs.append(Document(
            id=f"p{i:04d}",
            disease=_DISEASES[i % len(_DISEASES)],
            raw_text=" ".join(tokens),
            tokens=tokens,
            label=PHM if kind == "literal" else NONPHM,
        ))
    return docs, table, set(SYMPTOM_WORDS)


def _context_table(lit_words, fig_words, fillers, dim, rng) -> EmbeddingTable:
    """Symptoms and literal-context words cluster along one axis, figurative
    context along a second, fillers along a third."""
    def around(axis: int, spread: float) -> np.ndarray:
        vec = rng.normal(0.0, spread, size=dim)
        vec[axis] += 1.0
        return vec / np.linalg.norm(vec)

    vocab = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    rows = [np.zeros(dim), np.zeros(dim)]
    for word in SYMPTOM_WORDS:
        vocab[word] = len(rows)
        rows.append(around(0, 0.05))
    for word in lit_words:
        vocab[word] = len(rows)
        rows.append(around(0, 0.25))
    for word in fig_words:
        vocab[word] = len(rows)
        rows.append(around(1, 0.25))
    for word in fillers:
        vocab[word] = len(rows)
        rows.append(around(2, 0.25))
    return EmbeddingTable(vocab=vocab, matrix=np.vstack(rows))


def write_planted_fixture(out_dir: str | Path, seed: int = 0, n_docs: int = 240,
                          **corpus_kwargs) -> dict[str, Path]:
    """Write dataset/embedding/keyword files for a planted-corpus experiment."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs, table, keywords = planted_corpus(n_docs=n_docs, seed=seed, **corpus_kwargs)
    paths = {
        "dataset": out_dir / "dataset.tsv",
        "embeddings": out_dir / "fig_embeddings.txt",
        "keywords": out_dir / "keywords.txt",
    }
    save_dataset(docs, paths["dataset"])
    save_table(table, paths["embeddings"])
    with write_atomically(paths["keywords"]) as handle:
        handle.write("\n".join(sorted(keywords)) + "\n")
    return paths
