"""Text-input reading, datasets, tweet-style tokenization, padding, annotator agreement.

Datasets are 4-column TSV files (id, disease, text, label) so that fixtures
are reproducible without any network access. Tokenization is a deterministic
rule cascade; the same input always yields the same token stream.
"""

from __future__ import annotations

import io
import os
import re
import secrets
import stat
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .errors import DataError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
URL_TOKEN = "<url>"
USER_TOKEN = "<user>"
PAD_INDEX = 0
UNK_INDEX = 1

SENTINEL_TOKENS = frozenset({PAD_TOKEN, UNK_TOKEN, URL_TOKEN, USER_TOKEN})

PHM = "PHM"
NONPHM = "NonPHM"
LABELS = (PHM, NONPHM)

DISEASES = (
    "alzheimers",
    "heart_attack",
    "parkinsons",
    "cancer",
    "depression",
    "stroke",
    "other",
)

FIGURATIVE = "figurative"
LITERAL = "literal"
FIG_LABELS = (FIGURATIVE, LITERAL)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(?=\w)")
# Sentinels are atomic; otherwise words are \w+ runs and every remaining
# non-space character becomes its own token.
_TOKEN_RE = re.compile(r"<(?:url|user|pad|unk)>|\w+|[^\w\s]")


@dataclass
class Document:
    """One labeled short text with its illness tag.

    ``symptom_indices`` holds token positions of target symptom keywords;
    it is empty until a keyword list is applied (see figurative.mark_symptoms).
    """

    id: str
    disease: str
    raw_text: str
    tokens: list[str]
    label: str
    symptom_indices: list[int] = field(default_factory=list)


@dataclass
class AnnotationPair:
    item_id: str
    label_a: str
    label_b: str


def tokenize(raw_text: str) -> list[str]:
    """Lowercase, replace URLs/@-mentions with sentinels, strip ``#`` from
    hashtags, and split punctuation into separate tokens."""
    text = raw_text.lower()
    text = _URL_RE.sub(f" {URL_TOKEN} ", text)
    text = _MENTION_RE.sub(f" {USER_TOKEN} ", text)
    text = _HASHTAG_RE.sub("", text)
    return _TOKEN_RE.findall(text)


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its newline) for each non-empty line
    of a UTF-8 file; unreadable or undecodable files raise DataError naming
    ``what``. Decoding runs in chunks, so a decoding error names no line."""
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not valid UTF-8 ({exc.reason})") from None


@contextmanager
def write_atomically(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on a new sibling file that replaces ``path`` only once the
    block completes, so a failed or interrupted write leaves the old file
    (or none) and no partial one. ``mode`` is ``"w"`` (UTF-8 text) or
    ``"wb"``. A symlink's target is the file replaced, and the replaced
    file's permission bits carry over to the new one. An error names
    ``path``.

    Where no sibling can replace the file, it is written in place as by
    ``open``: a path that exists but is not a regular file (a FIFO,
    ``/dev/null``), or a file whose directory the user may not add to."""
    target = Path(os.path.realpath(path))
    status = None
    with suppress(OSError):
        status = os.stat(target)
    temp = None
    try:
        if status and not stat.S_ISREG(status.st_mode):
            raw = open(target, "wb")
        else:
            temp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
            try:
                raw = open(temp, "xb")
            except PermissionError:
                if not status:
                    raise
                temp = None
                raw = open(target, "wb")
        with raw if "b" in mode else io.TextIOWrapper(raw, encoding="utf-8") as handle:
            if temp and status:
                os.fchmod(raw.fileno(), stat.S_IMODE(status.st_mode))
            yield handle
        if temp:
            os.replace(temp, target)
    except BaseException as exc:
        if temp:
            with suppress(OSError):
                temp.unlink()
        if isinstance(exc, OSError) and exc.filename in (str(temp), str(target)):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def read_tsv(path: str | Path, n_fields: int, what: str) -> Iterator[tuple[int, list[str]]]:
    """``read_lines`` split on tabs; every row must have ``n_fields`` fields."""
    for lineno, line in read_lines(path, what):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataError(f"{path}: line {lineno}: expected {n_fields} fields, "
                            f"got {len(fields)}")
        yield lineno, fields


def load_dataset(path: str | Path, labels: tuple[str, ...] = LABELS,
                 label_name: str = "label", what: str = "dataset file") -> list[Document]:
    """Load a 4-column TSV dataset (id, disease, text, label in ``labels``).

    Rows whose text tokenizes to nothing are dropped (garbled-text filter).
    A document id may appear on one line only.
    """
    documents = []
    id_lines: dict[str, int] = {}
    for lineno, (doc_id, disease, text, label) in read_tsv(path, 4, what):
        if doc_id in id_lines:
            raise DataError(f"{path}: line {lineno}: document id {doc_id!r} "
                            f"already used on line {id_lines[doc_id]}")
        id_lines[doc_id] = lineno
        if disease not in DISEASES:
            raise DataError(f"{path}: line {lineno}: unknown disease {disease!r}")
        if label not in labels:
            raise DataError(f"{path}: line {lineno}: unknown {label_name} {label!r}")
        tokens = tokenize(text)
        if tokens:
            documents.append(Document(doc_id, disease, text, tokens, label))
    return documents


def save_dataset(documents: list[Document], path: str | Path) -> None:
    """Write documents back to the 4-column TSV layout.

    Tabs and newlines inside the raw text are flattened to single spaces so
    the row stays well-formed.
    """
    with write_atomically(path) as handle:
        for doc in documents:
            text = re.sub(r"[\t\n\r]+", " ", doc.raw_text)
            handle.write(f"{doc.id}\t{doc.disease}\t{text}\t{doc.label}\n")


def build_vocab(documents: list[Document]) -> dict[str, int]:
    """Build a word -> index map over the corpus with reserved PAD=0, UNK=1.

    Words are ordered by descending frequency, ties broken alphabetically,
    so the map is deterministic for a given corpus.
    """
    freq: dict[str, int] = {}
    for doc in documents:
        for token in doc.tokens:
            freq[token] = freq.get(token, 0) + 1
    words = sorted((w for w in freq if w not in SENTINEL_TOKENS), key=lambda w: (-freq[w], w))
    vocab = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for word in words:
        vocab[word] = len(vocab)
    return vocab


def pad(tokens: list[str], vocab: dict[str, int], max_len: int) -> list[int]:
    """The CNN's id row: map tokens to ids, truncate to ``max_len`` and fill
    the tail with PAD."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.get(token, UNK_INDEX) for token in tokens[:max_len]]
    return ids + [PAD_INDEX] * (max_len - len(ids))


def load_annotations(path: str | Path) -> list[AnnotationPair]:
    """Load an annotation TSV (item_id, label_a, label_b) for agreement stats."""
    pairs = []
    for lineno, (item_id, label_a, label_b) in read_tsv(path, 3, "annotation file"):
        for label in (label_a, label_b):
            if label not in FIG_LABELS:
                raise DataError(f"{path}: line {lineno}: unknown label {label!r}")
        pairs.append(AnnotationPair(item_id, label_a, label_b))
    return pairs


def cohen_kappa(pairs: list[AnnotationPair]) -> float:
    """Chance-corrected inter-annotator agreement.

    kappa = (p_o - p_e) / (1 - p_e), where p_o is the observed agreement
    fraction and p_e the expected chance agreement from the two raters'
    label marginals. Perfect observed agreement returns exactly 1.0.
    """
    if not pairs:
        raise ValueError("cohen_kappa requires at least one annotation pair")
    n = len(pairs)
    agree = sum(1 for p in pairs if p.label_a == p.label_b)
    p_o = agree / n
    if p_o == 1.0:
        return 1.0
    labels = sorted({p.label_a for p in pairs} | {p.label_b for p in pairs})
    p_e = 0.0
    for label in labels:
        marginal_a = sum(1 for p in pairs if p.label_a == label) / n
        marginal_b = sum(1 for p in pairs if p.label_b == label) / n
        p_e += marginal_a * marginal_b
    if p_e == 1.0:
        raise ValueError("degenerate marginals: chance agreement is 1 but observed is not")
    return (p_o - p_e) / (1.0 - p_e)
