"""Figurative vs literal usage detection for symptom words.

Unsupervised: a symptom keyword's "literal usage representation" is its
nearest-neighbor set in embedding space; a sentence scores high when its
content words sit close to that set. Scores below the threshold are called
figurative. An optional two-topic Gibbs sampler refines per-word and
per-document literal/figurative distributions from the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import FIGURATIVE, LITERAL, SENTINEL_TOKENS, Document, read_lines
# ``cosine`` is looked up here by name by perfbench/spans.py.
from .embeddings import EmbeddingTable, cosine, nearest_neighbors, row_norms  # noqa: F401

# 12-tag universal part-of-speech set; order fixes the one-hot layout.
TAGSET = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP",
          "NUM", "CONJ", "PRT", "PUNCT", "X")
_TAG_INDEX = {tag: i for i, tag in enumerate(TAGSET)}

SUBORDINATORS = frozenset({
    "because", "although", "since", "while", "if", "that", "which", "who",
    "whom", "whose", "when", "where", "unless", "until", "though", "whereas",
    "after", "before", "as",
})

DEFAULT_THRESHOLD = 0.2
DEFAULT_RELATED_WORDS = 10

# Hand lexicon for the rule tagger; suffix rules cover the rest.
_TAG_LEXICON = {
    "i": "PRON", "me": "PRON", "my": "PRON", "mine": "PRON", "myself": "PRON",
    "you": "PRON", "your": "PRON", "yours": "PRON", "yourself": "PRON",
    "he": "PRON", "him": "PRON", "his": "PRON", "she": "PRON", "her": "PRON",
    "hers": "PRON", "it": "PRON", "its": "PRON", "we": "PRON", "us": "PRON",
    "our": "PRON", "ours": "PRON", "they": "PRON", "them": "PRON",
    "their": "PRON", "theirs": "PRON", "who": "PRON", "whom": "PRON",
    "whose": "PRON", "which": "PRON", "what": "PRON", "someone": "PRON",
    "something": "PRON", "anyone": "PRON", "everyone": "PRON", "nobody": "PRON",
    "a": "DET", "an": "DET", "the": "DET", "this": "DET", "that": "DET",
    "these": "DET", "those": "DET", "some": "DET", "any": "DET", "no": "DET",
    "every": "DET", "each": "DET", "all": "DET", "both": "DET", "such": "DET",
    "another": "DET", "other": "DET",
    "am": "VERB", "is": "VERB", "are": "VERB", "was": "VERB", "were": "VERB",
    "be": "VERB", "been": "VERB", "being": "VERB", "have": "VERB",
    "has": "VERB", "had": "VERB", "having": "VERB", "do": "VERB",
    "does": "VERB", "did": "VERB", "doing": "VERB", "done": "VERB",
    "will": "VERB", "would": "VERB", "can": "VERB", "could": "VERB",
    "shall": "VERB", "should": "VERB", "may": "VERB", "might": "VERB",
    "must": "VERB", "go": "VERB", "goes": "VERB", "went": "VERB",
    "gone": "VERB", "get": "VERB", "gets": "VERB", "got": "VERB",
    "feel": "VERB", "feels": "VERB", "felt": "VERB", "think": "VERB",
    "know": "VERB", "say": "VERB", "says": "VERB", "said": "VERB",
    "see": "VERB", "saw": "VERB", "take": "VERB", "took": "VERB",
    "make": "VERB", "made": "VERB", "need": "VERB", "needs": "VERB",
    "want": "VERB", "wants": "VERB", "catch": "VERB", "caught": "VERB",
    "in": "ADP", "on": "ADP", "at": "ADP", "by": "ADP", "for": "ADP",
    "with": "ADP", "from": "ADP", "to": "ADP", "of": "ADP", "about": "ADP",
    "into": "ADP", "over": "ADP", "under": "ADP", "between": "ADP",
    "through": "ADP", "during": "ADP", "against": "ADP", "without": "ADP",
    "within": "ADP", "near": "ADP", "across": "ADP", "off": "ADP",
    "and": "CONJ", "or": "CONJ", "but": "CONJ", "nor": "CONJ", "yet": "CONJ",
    "because": "CONJ", "although": "CONJ", "though": "CONJ", "while": "CONJ",
    "if": "CONJ", "since": "CONJ", "unless": "CONJ", "until": "CONJ",
    "whereas": "CONJ", "as": "CONJ",
    "not": "ADV", "very": "ADV", "too": "ADV", "so": "ADV", "now": "ADV",
    "then": "ADV", "here": "ADV", "there": "ADV", "when": "ADV",
    "where": "ADV", "why": "ADV", "how": "ADV", "never": "ADV",
    "always": "ADV", "often": "ADV", "again": "ADV", "just": "ADV",
    "still": "ADV", "already": "ADV", "soon": "ADV", "really": "ADV",
    "quite": "ADV", "almost": "ADV", "maybe": "ADV",
    "up": "PRT", "down": "PRT", "out": "PRT",
    "one": "NUM", "two": "NUM", "three": "NUM", "four": "NUM", "five": "NUM",
    "six": "NUM", "seven": "NUM", "eight": "NUM", "nine": "NUM", "ten": "NUM",
    "cough": "NOUN", "fever": "NOUN", "flu": "NOUN", "cold": "NOUN",
    "headache": "NOUN", "pain": "NOUN", "cancer": "NOUN", "stroke": "NOUN",
    "depression": "NOUN", "heart": "NOUN", "attack": "NOUN", "breath": "NOUN",
    "doctor": "NOUN", "hospital": "NOUN", "health": "NOUN", "disease": "NOUN",
    "symptom": "NOUN", "symptoms": "NOUN", "lungs": "NOUN", "blood": "NOUN",
    "man": "NOUN", "woman": "NOUN", "people": "NOUN", "day": "NOUN",
    "night": "NOUN", "morning": "NOUN", "week": "NOUN", "year": "NOUN",
    "time": "NOUN", "thing": "NOUN", "life": "NOUN", "home": "NOUN",
    "sick": "ADJ", "ill": "ADJ", "bad": "ADJ", "good": "ADJ", "new": "ADJ",
    "old": "ADJ", "sore": "ADJ", "severe": "ADJ", "chronic": "ADJ",
}

_SUFFIX_RULES = (
    ("ly", "ADV"),
    ("ing", "VERB"),
    ("ed", "VERB"),
    ("tion", "NOUN"),
    ("sion", "NOUN"),
    ("ness", "NOUN"),
    ("ment", "NOUN"),
    ("ity", "NOUN"),
    ("ous", "ADJ"),
    ("ful", "ADJ"),
    ("ive", "ADJ"),
    ("able", "ADJ"),
    ("ible", "ADJ"),
    ("ish", "ADJ"),
    ("less", "ADJ"),
    ("ic", "ADJ"),
    ("al", "ADJ"),
)

Tagger = Callable[[Sequence[str]], list[str]]


def pos_tag(tokens: Sequence[str]) -> list[str]:
    """Rule tagger over the 12-tag universal set: lexicon first, then digit,
    punctuation and suffix rules; unknown words fall back to X."""
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


def _is_numeric(token: str) -> bool:
    return any(ch.isdigit() for ch in token) and all(
        ch.isdigit() or ch in ".,%" for ch in token)


def _suffix_tag(token: str) -> str:
    if len(token) > 3:
        for suffix, tag in _SUFFIX_RULES:
            if token.endswith(suffix) and len(token) > len(suffix) + 1:
                return tag
    return "X"


@dataclass
class LiteralRepresentation:
    """A keyword's nearest-neighbor words, standing in for its literal context."""

    keyword: str
    related_words: list[str]


@dataclass
class LinguisticFeatures:
    has_subordinate_clause: int
    left_pos: np.ndarray   # one-hot over TAGSET for the token before the target
    right_pos: np.ndarray  # one-hot for the token after
    health_word_presence: int
    health_word_count_norm: float

    def to_vector(self) -> np.ndarray:
        return np.concatenate((
            [float(self.has_subordinate_clause)],
            self.left_pos,
            self.right_pos,
            [float(self.health_word_presence), self.health_word_count_norm],
        ))

    @staticmethod
    def vector_length() -> int:
        return 3 + 2 * len(TAGSET)

    @staticmethod
    def zeros() -> "LinguisticFeatures":
        return LinguisticFeatures(0, np.zeros(len(TAGSET)), np.zeros(len(TAGSET)), 0, 0.0)


@dataclass
class FigurativeVerdict:
    """Outcome for one document: literal score in [0, 1] (1 = literal),
    threshold label, and the feature block used by downstream models."""

    literal_score: float
    label: str
    features: LinguisticFeatures


@dataclass
class LdaEstimate:
    word_dist: dict[str, tuple[float, float]]  # word -> (p_literal, p_figurative)
    doc_dist: list[tuple[float, float]]        # per document


def build_literal_representation(table: EmbeddingTable, keyword: str,
                                 k: int = DEFAULT_RELATED_WORDS) -> LiteralRepresentation:
    """The k words most similar to the keyword (the keyword itself excluded)."""
    if keyword not in table.vocab:
        raise KeyError(f"keyword not in embedding vocabulary: {keyword!r}")
    neighbors = nearest_neighbors(table, keyword, k)
    return LiteralRepresentation(keyword=keyword, related_words=[w for w, _ in neighbors])


def literal_usage_score(tokens: Sequence[str], rep: LiteralRepresentation,
                        table: EmbeddingTable, include_target: bool = False) -> float:
    """Mean clamped cosine between sentence content words and the literal
    usage representation.

    Content words exclude the target keyword (unless ``include_target``),
    sentinels, and anything outside the table's vocabulary. Negative cosines
    clamp to 0 so the score stays in [0, 1] with 0 meaning figurative; a
    zero vector's cosines are 0. With no surviving content word the score is
    0.5 (uninformative).
    """
    if not rep.related_words:
        raise ValueError("literal representation is empty")
    vocab = table.vocab
    content = [vocab[t] for t in tokens
               if t not in SENTINEL_TOKENS
               and (include_target or t != rep.keyword)
               and t in vocab]
    related = [vocab[w] for w in rep.related_words if w in vocab]
    if not content or not related:
        return 0.5
    cosines = _unit_rows(table.matrix[content]) @ _unit_rows(table.matrix[related]).T
    return float(np.maximum(cosines, 0.0).mean())


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = row_norms(matrix)[:, None]
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms != 0.0)


def classify(score: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Figurative iff the literal score falls strictly below the threshold."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return FIGURATIVE if score < threshold else LITERAL


def extract_features(tokens: Sequence[str], target_index: int | None,
                     tags: Sequence[str], health_lexicon: set[str]) -> LinguisticFeatures:
    """Subordinate-clause bit, neighbor POS one-hots, and health-word stats.

    ``target_index=None`` means no symptom occurrence: the neighbor blocks
    stay zero but the sentence-level bits are still computed.
    """
    if len(tags) != len(tokens):
        raise ValueError(f"got {len(tags)} tags for {len(tokens)} tokens")
    if target_index is not None and not 0 <= target_index < len(tokens):
        raise IndexError(f"target_index {target_index} out of range for {len(tokens)} tokens")

    has_sub = int(any(t in SUBORDINATORS for t in tokens))
    left = np.zeros(len(TAGSET))
    right = np.zeros(len(TAGSET))
    if target_index is not None:
        if target_index > 0:
            left[_TAG_INDEX[tags[target_index - 1]]] = 1.0
        if target_index < len(tokens) - 1:
            right[_TAG_INDEX[tags[target_index + 1]]] = 1.0

    health_count = sum(1 for i, t in enumerate(tokens)
                       if i != target_index and t in health_lexicon)
    count_norm = health_count / len(tokens) if tokens else 0.0
    return LinguisticFeatures(
        has_subordinate_clause=has_sub,
        left_pos=left,
        right_pos=right,
        health_word_presence=int(health_count > 0),
        health_word_count_norm=count_norm,
    )


LDA_TOPIC_LITERAL = 0
LDA_TOPIC_FIGURATIVE = 1
LDA_ALPHA_DOC = 0.5
LDA_BETA_WORD = 0.1


def lda_estimate(documents: Sequence[Sequence[str]], seed_scores: Sequence[float],
                 iterations: int = 200, seed: int = 0) -> LdaEstimate:
    """Two-topic collapsed Gibbs sampler over literal/figurative assignments.

    Token topics start from the seed scores (topic literal with probability
    ``seed_scores[d]``); after a burn-in of the first half of the sweeps, the
    per-document and per-word distributions are posterior means over the
    remaining sweeps. Deterministic for a fixed seed.
    """
    if not documents:
        raise ValueError("lda_estimate requires a non-empty corpus")
    if len(seed_scores) != len(documents):
        raise ValueError(f"got {len(seed_scores)} seed scores for {len(documents)} documents")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    rng = np.random.default_rng(seed)
    vocab: dict[str, int] = {}
    doc_words = [[vocab.setdefault(token, len(vocab)) for token in doc] for doc in documents]

    # Counts live in Python lists: each token's update is a handful of scalar
    # operations, which cost less on ints and floats than on numpy elements.
    # The arithmetic and its order are those of the array formula
    # p = (n_dk + alpha) * (n_kw + beta) / (n_k + beta * V).
    n_docs, n_words, n_tokens = len(doc_words), len(vocab), sum(map(len, doc_words))
    n_topics = 2
    doc_topic = [[0, 0] for _ in range(n_docs)]
    topic_word = [[0] * n_words for _ in range(n_topics)]
    topic_total = [0, 0]
    assignments: list[list[int]] = []

    for d, ids in enumerate(doc_words):
        z = np.where(rng.random(len(ids)) < seed_scores[d],
                     LDA_TOPIC_LITERAL, LDA_TOPIC_FIGURATIVE).tolist()
        assignments.append(z)
        for w, k in zip(ids, z):
            doc_topic[d][k] += 1
            topic_word[k][w] += 1
            topic_total[k] += 1

    burn_in = iterations // 2
    doc_sum = np.zeros((n_docs, n_topics))
    word_sum = np.zeros((n_topics, n_words))
    n_samples = 0
    word_prior = LDA_BETA_WORD * n_words
    literal_word, figurative_word = topic_word

    for sweep in range(iterations):
        # one draw per token, in token order: the generator advances exactly
        # as it would with one rng.random() call per token
        draws = iter(rng.random(n_tokens).tolist())
        for ids, z, counts in zip(doc_words, assignments, doc_topic):
            for n, w in enumerate(ids):
                k = z[n]
                counts[k] -= 1
                topic_word[k][w] -= 1
                topic_total[k] -= 1

                p_literal = ((counts[0] + LDA_ALPHA_DOC) * (literal_word[w] + LDA_BETA_WORD)
                             / (topic_total[0] + word_prior))
                p_figurative = ((counts[1] + LDA_ALPHA_DOC)
                                * (figurative_word[w] + LDA_BETA_WORD)
                                / (topic_total[1] + word_prior))
                k = LDA_TOPIC_LITERAL if next(draws) < p_literal / (p_literal + p_figurative) \
                    else LDA_TOPIC_FIGURATIVE

                z[n] = k
                counts[k] += 1
                topic_word[k][w] += 1
                topic_total[k] += 1
        if sweep >= burn_in:
            doc_counts = np.array(doc_topic, dtype=np.float64)
            word_counts = np.array(topic_word, dtype=np.float64)
            doc_sum += (doc_counts + LDA_ALPHA_DOC) / (doc_counts.sum(axis=1, keepdims=True)
                                                       + n_topics * LDA_ALPHA_DOC)
            word_sum += (word_counts + LDA_BETA_WORD) / (word_counts.sum(axis=0, keepdims=True)
                                                         + n_topics * LDA_BETA_WORD)
            n_samples += 1

    doc_mean = doc_sum / n_samples
    word_mean = word_sum / n_samples
    word_dist = {word: (float(word_mean[LDA_TOPIC_LITERAL, idx]),
                        float(word_mean[LDA_TOPIC_FIGURATIVE, idx]))
                 for word, idx in vocab.items()}
    doc_dist = [(float(doc_mean[d, LDA_TOPIC_LITERAL]),
                 float(doc_mean[d, LDA_TOPIC_FIGURATIVE])) for d in range(n_docs)]
    return LdaEstimate(word_dist=word_dist, doc_dist=doc_dist)


def load_word_list(path: str | Path) -> set[str]:
    """One lowercase term per line; ``#`` starts a comment line."""
    lines = (line.strip() for _, line in read_lines(path, "word list"))
    return {line.lower() for line in lines if line and not line.startswith("#")}


def default_health_lexicon() -> set[str]:
    """The starter symptom/illness lexicon bundled with the package."""
    return load_word_list(Path(__file__).parent / "data" / "health_lexicon.txt")


def mark_symptoms(documents: Sequence[Document], keywords: set[str]) -> None:
    """Fill each document's symptom_indices with keyword token positions."""
    for doc in documents:
        doc.symptom_indices = [i for i, t in enumerate(doc.tokens) if t in keywords]


class FigurativeDetector:
    """Bundles the similarity table, keyword representations, and feature
    extraction into a per-document verdict function.

    Documents with several keyword occurrences get the maximum occurrence
    score (one literal use is enough); features come from the first
    occurrence. Documents with no keyword at all score 0.5 and come out
    literal, leaving the decision to the downstream classifier.
    """

    def __init__(self, table: EmbeddingTable, keywords: set[str],
                 health_lexicon: set[str] | None = None,
                 k: int = DEFAULT_RELATED_WORDS,
                 threshold: float = DEFAULT_THRESHOLD,
                 tagger: Tagger = pos_tag,
                 include_target: bool = False):
        self.table = table
        self.keywords = set(keywords)
        self.health_lexicon = health_lexicon if health_lexicon is not None \
            else default_health_lexicon()
        self.k = k
        self.threshold = threshold
        self.tagger = tagger
        self.include_target = include_target
        self.representations = {
            kw: build_literal_representation(table, kw, k)
            for kw in sorted(self.keywords) if kw in table.vocab
        }

    def verdict(self, doc: Document) -> FigurativeVerdict:
        occurrences = [(i, doc.tokens[i]) for i in doc.symptom_indices] \
            if doc.symptom_indices else \
            [(i, t) for i, t in enumerate(doc.tokens) if t in self.representations]

        scores = []
        for _, keyword in occurrences:
            rep = self.representations.get(keyword)
            if rep is not None:
                scores.append(literal_usage_score(doc.tokens, rep, self.table,
                                                  include_target=self.include_target))
        score = max(scores) if scores else 0.5

        tags = self.tagger(doc.tokens)
        target_index = occurrences[0][0] if occurrences else None
        if doc.tokens:
            features = extract_features(doc.tokens, target_index, tags, self.health_lexicon)
        else:
            features = LinguisticFeatures.zeros()
        return FigurativeVerdict(literal_score=score,
                                 label=classify(score, self.threshold),
                                 features=features)

    def verdicts(self, documents: Sequence[Document]) -> list[FigurativeVerdict]:
        """Mark each document's keyword positions, then give its verdict."""
        mark_symptoms(documents, self.keywords)
        return [self.verdict(doc) for doc in documents]


def format_verdicts(documents: Sequence[Document],
                    verdicts: Sequence[FigurativeVerdict]) -> str:
    """Audit TSV text, one ``doc_id, literal score, label`` row per document."""
    return "".join(f"{doc.id}\t{verdict.literal_score:.6f}\t{verdict.label}\n"
                   for doc, verdict in zip(documents, verdicts))
