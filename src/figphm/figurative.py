"""Figurative vs literal usage detection for symptom words.

Unsupervised: a symptom keyword's "literal usage representation" is its
nearest-neighbor set in embedding space; a sentence scores high when its
content words sit close to that set. Scores below the threshold are called
figurative. An optional two-topic Gibbs sampler refines per-word and
per-document literal/figurative distributions from the scores.

A detector normalises each row of its table once, on the row's first use
(``embeddings.UnitRows``). Every score reads those kept unit rows, and rows
no document uses are never normalised.

A verdict carries the linguistic block of ``extract_features`` as one
array; ``feature_rows`` frames a run's blocks with the figurative bit and the
score into the (N, n) rows the FeatAug branch reads.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import FIGURATIVE, LITERAL, SENTINEL_TOKENS, Document, read_lines
# ``cosine`` is looked up here by name by perfbench/spans.py.
from .embeddings import EmbeddingTable, UnitRows, cosine, nearest_neighbors  # noqa: F401

log = logging.getLogger(__name__)

# 12-tag universal part-of-speech set; order fixes the one-hot layout.
TAGSET = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP",
          "NUM", "CONJ", "PRT", "PUNCT", "X")
_TAG_INDEX = {tag: i for i, tag in enumerate(TAGSET)}
_FEATURES = 3 + 2 * len(TAGSET)     # the length of extract_features' block

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

def pos_tag(tokens: Sequence[str]) -> list[str]:
    """Rule tagger over the 12-tag universal set: lexicon first, then digit,
    punctuation and suffix rules; unknown words fall back to X."""
    return list(map(_token_tag, tokens))


@functools.lru_cache(maxsize=1 << 16)
def _token_tag(token: str) -> str:
    """The tag of one token; a token's tag does not depend on its context."""
    if token in SENTINEL_TOKENS:
        return "X"
    if token in _TAG_LEXICON:
        return _TAG_LEXICON[token]
    if _is_numeric(token):
        return "NUM"
    if not any(ch.isalnum() for ch in token):
        return "PUNCT"
    return _suffix_tag(token)


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
    # (unit rows, related words, their rows in it) from the last unit_rows call
    _block: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def unit_rows(self, unit: UnitRows) -> np.ndarray:
        """The unit rows of the related words in ``unit``'s vocabulary,
        gathered once per ``UnitRows`` and kept."""
        words = tuple(self.related_words)
        block = self._block
        if block is None or block[0] is not unit or block[1] != words:
            related = [unit.vocab[w] for w in words if w in unit.vocab]
            block = self._block = (unit, words, unit.rows(related))
        return block[2]


@dataclass(eq=False)
class FigurativeVerdict:
    """Outcome for one document: literal score in [0, 1] (1 = literal),
    threshold label, and its ``extract_features`` block."""

    literal_score: float
    label: str
    features: np.ndarray


def feature_rows(verdicts: Sequence[FigurativeVerdict], include_score: bool = True) -> np.ndarray:
    """The FeatAug feature branch's input, one (N, n) row per verdict: the
    figurative bit, the linguistic block, then the literal score if included."""
    width = feature_row_length(include_score)     # the score is the last entry
    return np.array([[v.label == FIGURATIVE, *v.features, v.literal_score][:width]
                     for v in verdicts], dtype=np.float64).reshape(-1, width)


def feature_row_length(include_score: bool = True) -> int:
    """The length of every ``feature_rows`` row."""
    return 1 + _FEATURES + int(include_score)


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
                        unit: UnitRows, include_target: bool = False) -> float:
    """Mean clamped cosine between sentence content words and the literal
    usage representation, read from ``unit``, the similarity table's unit
    rows.

    Content words exclude the target keyword (unless ``include_target``),
    sentinels, and anything outside the table's vocabulary. Negative cosines
    clamp to 0 so the score stays in [0, 1] with 0 meaning figurative; a
    zero vector's cosines are 0. With no surviving content word the score is
    0.5 (uninformative).
    """
    if not rep.related_words:
        raise ValueError("literal representation is empty")
    vocab = unit.vocab
    content = [vocab[t] for t in tokens
               if t not in SENTINEL_TOKENS
               and (include_target or t != rep.keyword)
               and t in vocab]
    related = rep.unit_rows(unit)
    if not content or len(related) == 0:
        return 0.5
    cosines = unit.rows(content) @ related.T
    np.maximum(cosines, 0.0, out=cosines)
    # bitwise cosines.mean(): the same pairwise sum over the same count; a
    # unit row's self-dot can round to just above 1, so the mean is capped
    return min(float(np.add.reduce(cosines, axis=None)) / cosines.size, 1.0)


def classify(score: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Figurative iff the literal score falls strictly below the threshold."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return FIGURATIVE if score < threshold else LITERAL


def extract_features(tokens: Sequence[str], target_index: int | None,
                     tags: Sequence[str], health_lexicon: set[str]) -> np.ndarray:
    """The linguistic block: the subordinate-clause bit, the one-hot tags
    (over TAGSET) of the tokens before and after the target, then the
    presence and share of health words other than the target.

    ``target_index=None`` means no symptom occurrence: the tag blocks stay
    zero but the sentence-level entries are still computed.
    """
    if len(tags) != len(tokens):
        raise ValueError(f"got {len(tags)} tags for {len(tokens)} tokens")
    if target_index is not None and not 0 <= target_index < len(tokens):
        raise IndexError(f"target_index {target_index} out of range for {len(tokens)} tokens")

    features = np.zeros(_FEATURES)
    features[0] = not SUBORDINATORS.isdisjoint(tokens)
    if target_index is not None:
        if target_index > 0:
            features[1 + _TAG_INDEX[tags[target_index - 1]]] = 1.0
        if target_index < len(tokens) - 1:
            features[1 + len(TAGSET) + _TAG_INDEX[tags[target_index + 1]]] = 1.0

    health_count = len([t for t in tokens if t in health_lexicon])
    if target_index is not None and tokens[target_index] in health_lexicon:
        health_count -= 1
    features[-2] = health_count > 0
    features[-1] = health_count / len(tokens) if tokens else 0.0
    return features


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
    """Fill each document's symptom_indices with keyword token positions.
    A standalone helper: the detector finds the positions itself."""
    for doc in documents:
        doc.symptom_indices = [i for i, t in enumerate(doc.tokens) if t in keywords]


class FigurativeDetector:
    """Bundles the similarity table, keyword representations, and feature
    extraction into a per-document verdict function.

    Documents with several keyword occurrences get the maximum score over
    their distinct keywords (one literal use is enough); features come from
    the first occurrence. Documents with no keyword at all score 0.5 and
    come out literal, leaving the decision to the downstream classifier.
    """

    def __init__(self, table: EmbeddingTable, keywords: set[str],
                 health_lexicon: set[str] | None = None,
                 k: int = DEFAULT_RELATED_WORDS,
                 threshold: float = DEFAULT_THRESHOLD,
                 include_target: bool = False):
        self.table = table
        self.keywords = set(keywords)
        self.health_lexicon = health_lexicon if health_lexicon is not None \
            else default_health_lexicon()
        self.k = k
        self.threshold = threshold
        self.tagger = pos_tag
        self.include_target = include_target
        self.unit = UnitRows(table)
        present = sorted(self.keywords & table.vocab.keys())
        missing = sorted(self.keywords.difference(present))
        if missing:
            log.warning("%d keyword(s) not in the similarity table, never scored: %s",
                        len(missing), ", ".join(missing))
        # one ranking of the table for all the keywords
        self.representations = {
            kw: LiteralRepresentation(keyword=kw, related_words=[w for w, _ in neighbors])
            for kw, neighbors in zip(present, nearest_neighbors(table, present, k))}

    def verdict(self, doc: Document) -> FigurativeVerdict:
        """The verdict on ``doc``'s tokens; keyword positions are found here,
        never read from the document."""
        tokens = doc.tokens
        positions = [i for i, t in enumerate(tokens) if t in self.keywords]
        # a keyword's score does not depend on where it occurs: score each once
        scores = [literal_usage_score(tokens, self.representations[keyword], self.unit,
                                      include_target=self.include_target)
                  for keyword in dict.fromkeys(tokens[i] for i in positions)
                  if keyword in self.representations]
        score = max(scores) if scores else 0.5
        features = extract_features(tokens, positions[0] if positions else None,
                                    self.tagger(tokens), self.health_lexicon)
        return FigurativeVerdict(score, classify(score, self.threshold), features)

    def verdicts(self, documents: Sequence[Document]) -> list[FigurativeVerdict]:
        """Each document's verdict, in order; the documents are not changed.
        The rows of every word they hold are normalised first, in one call,
        instead of a call for each document that brings a new word."""
        vocab = self.unit.vocab
        self.unit.fill([vocab[t] for doc in documents for t in doc.tokens if t in vocab])
        return [self.verdict(doc) for doc in documents]


def format_verdicts(documents: Sequence[Document],
                    verdicts: Sequence[FigurativeVerdict]) -> str:
    """Audit TSV text, one ``doc_id, literal score, label`` row per document."""
    return "".join(f"{doc.id}\t{verdict.literal_score:.6f}\t{verdict.label}\n"
                   for doc, verdict in zip(documents, verdicts))
