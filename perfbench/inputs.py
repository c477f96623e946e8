"""Seeded input generators. The same seed always gives the same inputs, and
the program under test sees only what these functions produce."""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

SYMPTOMS = ("cough", "fever", "chill", "wheeze")
DISEASES = ("cancer", "depression", "stroke")
PAD_ID = 0
FIRST_WORD_ID = 2          # rows 0 and 1 are PAD and UNK in every figphm table


def rng_for(seed: int, *labels) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    digest = hashlib.sha256(":".join(map(str, (seed,) + labels)).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def zipf_sequences(rng: np.random.Generator, n: int, vocab_size: int,
                   seq_len: int = 50, lengths: tuple[int, int] = (5, 30),
                   exponent: float = 1.1) -> np.ndarray:
    """(n, seq_len) token ids: Zipf-distributed word ranks over the table's
    word rows, true lengths uniform in ``lengths``, PAD after the end."""
    ranks = np.arange(1, vocab_size - FIRST_WORD_ID + 1, dtype=np.float64)
    weights = ranks ** -exponent
    ids = FIRST_WORD_ID + rng.choice(ranks.size, size=(n, seq_len), p=weights / weights.sum())
    true_len = rng.integers(lengths[0], lengths[1] + 1, size=n)
    ids[np.arange(seq_len)[None, :] >= true_len[:, None]] = PAD_ID
    return ids


def _unit_rows(rng: np.random.Generator, n: int, dim: int, axis: int | None,
               spread: float) -> np.ndarray:
    """Unit rows around a coordinate axis; ``spread`` is the expected norm of
    the noise, so cluster tightness does not depend on ``dim``."""
    rows = rng.normal(0.0, spread / np.sqrt(dim), size=(n, dim))
    if axis is not None:
        rows[:, axis] += 1.0
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def write_fig_inputs(out_dir: Path, seed: int, vocab_size: int, n_docs: int,
                     n_ontology_heads: int, dim: int = 50) -> dict[str, Path]:
    """Planted detector corpus at realistic vocabulary.

    Symptom keywords and literal-context words cluster on one axis,
    figurative-context words on a second and filler words on a third; the
    rest of the ``vocab_size`` rows are random unit vectors. Documents
    follow the planted scheme: 45% literal symptom uses (PHM), 30%
    figurative uses, 25% symptom-free. The ontology links random pairs of
    the random rows only, so retrofitting leaves the planted clusters alone.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, "fig-prep")
    lit = [f"lit{i:03d}" for i in range(300)]
    fig = [f"fig{i:03d}" for i in range(300)]
    fill = [f"fill{i:02d}" for i in range(30)]
    n_random = vocab_size - FIRST_WORD_ID - len(SYMPTOMS) - len(lit) - len(fig) - len(fill)
    background = [f"t{i:05d}" for i in range(n_random)]
    words = list(SYMPTOMS) + lit + fig + fill + background
    matrix = np.vstack([
        _unit_rows(rng, len(SYMPTOMS), dim, 0, 0.15),
        _unit_rows(rng, len(lit), dim, 0, 0.7),
        _unit_rows(rng, len(fig), dim, 1, 0.7),
        _unit_rows(rng, len(fill), dim, 2, 0.7),
        _unit_rows(rng, n_random, dim, None, 1.0),
    ])
    buffer = io.StringIO()
    np.savetxt(buffer, matrix, fmt="%.6f")
    paths = {name: out_dir / file for name, file in (
        ("embeddings", "vectors.txt"), ("ontology", "ontology.txt"),
        ("keywords", "keywords.txt"), ("dataset", "dataset.tsv"))}
    with paths["embeddings"].open("w", encoding="utf-8") as handle:
        for word, row in zip(words, buffer.getvalue().splitlines()):
            handle.write(f"{word} {row}\n")

    heads = rng.choice(n_random, size=min(n_ontology_heads, n_random), replace=False)
    with paths["ontology"].open("w", encoding="utf-8") as handle:
        for head in heads:
            neighbors = rng.choice(n_random, size=int(rng.integers(1, 5)), replace=False)
            handle.write(" ".join(background[i] for i in (head, *neighbors)) + "\n")

    paths["keywords"].write_text("\n".join(SYMPTOMS) + "\n", encoding="utf-8")
    with paths["dataset"].open("w", encoding="utf-8") as handle:
        for i in range(n_docs):
            slot = i % 20
            tokens = [fill[j] for j in rng.integers(len(fill), size=int(rng.integers(2, 5)))]
            n_context = int(rng.integers(3, 6))
            if slot < 15:
                pool = lit if slot < 9 else fig
                tokens += [pool[j] for j in rng.integers(len(pool), size=n_context)]
                tokens.append(SYMPTOMS[int(rng.integers(len(SYMPTOMS)))])
            else:
                pool = lit + fig
                tokens += [pool[j] for j in rng.integers(len(pool), size=n_context)]
            rng.shuffle(tokens)
            label = "PHM" if slot < 9 else "NonPHM"
            handle.write(f"f{i:05d}\t{DISEASES[i % 3]}\t{' '.join(tokens)}\t{label}\n")
    return paths


def planted_kind(tokens, label: str) -> str | None:
    """The usage a planted document was built with: literal for PHM symptom
    documents, figurative for NonPHM ones, None when no symptom is present."""
    if not any(t in SYMPTOMS for t in tokens):
        return None
    return "literal" if label == "PHM" else "figurative"
