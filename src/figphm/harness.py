"""Experiment harness: declarative configs, stratified cross-validation,
metrics, the embedding-sweep experiment, and report files.

Counts are micro-averaged over folds for each embedding initialisation and
then macro-averaged across initialisations; re-running with the same config
and seed reproduces the structured report byte for byte.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from .corpus import (DISEASES, FIG_LABELS, FIGURATIVE, LITERAL, NONPHM, PHM,
                     Document, PaddedSequence, build_vocab, load_dataset, pad,
                     read_lines)
from .embeddings import (BETA_MODES, TABLE_FORMATS, EmbeddingTable, load_ontology,
                         load_table, project_table, random_table, retrofit)
from .errors import ConfigError, DataError
from .figurative import (FigurativeDetector, FigurativeVerdict, lda_estimate,
                         load_word_list, mark_symptoms)
from .phm import (ModelConfig, Prediction, build_feataug, build_phmd,
                  feataug_predict, predict_phmd, train)

APPROACHES = ("phmd", "pipeline", "feataug")
APPROACH_DISPLAY = {"phmd": "PHMD", "pipeline": "+Pipeline", "feataug": "+FeatAug"}

STRUCTURED_HEADER = ("# approach\tembedding\tscope\tprecision\trecall\tf_score\t"
                     "delta_f\ttp\tfp\tfn\ttn\tflags")


def derive_seed(*parts) -> int:
    """Stable cross-platform seed from arbitrary labels."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class Metrics:
    """Confusion counts with derived precision/recall/F for one positive class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def support(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def flags(self) -> list[str]:
        out = []
        if self.tp + self.fp == 0:
            out.append("no_positive_predictions")
        if self.tp + self.fn == 0:
            out.append("no_positive_golds")
        return out

    def __add__(self, other: "Metrics") -> "Metrics":
        return Metrics(self.tp + other.tp, self.fp + other.fp,
                       self.fn + other.fn, self.tn + other.tn)


def compute_metrics(predictions, golds, positive_class: str = PHM) -> Metrics:
    """Confusion counts of predicted vs gold labels.

    Accepts label strings or Prediction objects. Undefined precision/recall
    fall back to 0 by convention; the degenerate case is flagged in reports.
    """
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("compute_metrics requires at least one example")
    tp = fp = fn = tn = 0
    for pred, gold in zip(predictions, golds):
        label = pred.label if isinstance(pred, Prediction) else pred
        if label == positive_class:
            if gold == positive_class:
                tp += 1
            else:
                fp += 1
        elif gold == positive_class:
            fn += 1
        else:
            tn += 1
    return Metrics(tp, fp, fn, tn)


# ---------------------------------------------------------------------------
# configuration

# embedding source -> the path fields it requires
EMBEDDING_SOURCES = {"random": (), "file": ("path",), "retrofit": ("path", "ontology")}


@dataclass
class EmbeddingSpec:
    """One word-embedding initialisation: random, loaded, or retrofitted."""

    name: str
    source: str                       # a key of EMBEDDING_SOURCES
    dim: int = 0
    seed: int | None = None
    path: Path | None = None
    format: str = "glove_text"
    strip_prefix: str | None = None
    ontology: Path | None = None
    iterations: int = 10
    alpha: float = 1.0
    beta_mode: str = "inverse_degree"


@dataclass
class FigurativeConfig:
    embedding: Path | None = None
    embedding_format: str = "glove_text"
    strip_prefix: str | None = None
    keywords: Path | None = None
    health_lexicon: Path | None = None
    k: int = 10
    threshold: float = 0.2
    use_lda: bool = False
    lda_iterations: int = 200
    include_target: bool = False
    pipeline_noise: float = 0.0


@dataclass
class ExperimentConfig:
    dataset: Path
    embeddings: list[EmbeddingSpec]
    figurative: FigurativeConfig = field(default_factory=FigurativeConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    folds: int = 10
    seed: int = 42
    approaches: tuple[str, ...] = APPROACHES
    jobs: int = 1

    def needs_detector(self) -> bool:
        return "pipeline" in self.approaches or "feataug" in self.approaches

    def validate(self) -> None:
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.figurative.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), "
                              f"got {self.figurative.threshold}")
        if not self.embeddings:
            raise ConfigError("at least one [embedding NAME] section is required")
        for approach in self.approaches:
            if approach not in APPROACHES:
                raise ConfigError(f"unknown approach {approach!r}")
        if not 0.0 <= self.figurative.pipeline_noise < 1.0:
            raise ConfigError("pipeline_noise must lie in [0, 1)")
        if self.figurative.lda_iterations < 1:
            raise ConfigError(f"[figurative] lda_iterations must be >= 1, "
                              f"got {self.figurative.lda_iterations}")
        if self.figurative.k < 1:
            raise ConfigError(f"[figurative] k must be >= 1, got {self.figurative.k}")
        for spec in self.embeddings:
            check_retrofit_settings(spec.iterations, spec.alpha, f"[embedding {spec.name}] ")
            if spec.seed is not None and spec.seed < 0:
                raise ConfigError(f"[embedding {spec.name}] seed must be >= 0, got {spec.seed}")
        missing = [str(p) for p in self._referenced_files() if not Path(p).exists()]
        if missing:
            raise ConfigError("missing file(s): " + ", ".join(missing))

    def _referenced_files(self) -> list[Path]:
        files = [self.dataset]
        if self.needs_detector():
            for key in ("embedding", "keywords"):
                if getattr(self.figurative, key) is None:
                    raise ConfigError(f"[figurative] {key} is required for the "
                                      f"pipeline/feataug approaches")
            files += [self.figurative.embedding, self.figurative.keywords]
            if self.figurative.health_lexicon is not None:
                files.append(self.figurative.health_lexicon)
        for spec in self.embeddings:
            if spec.source == "random" and spec.dim < 1:
                raise ConfigError(f"[embedding {spec.name}] random source needs dim >= 1")
            for key in EMBEDDING_SOURCES[spec.source]:
                if getattr(spec, key) is None:
                    raise ConfigError(f"[embedding {spec.name}] source = {spec.source} "
                                      f"needs {key}")
                files.append(getattr(spec, key))
        return files


def check_retrofit_settings(iterations: int, alpha: float, where: str = "") -> None:
    """The bounds on retrofitting settings, for configs and the CLI alike."""
    if iterations < 0:
        raise ConfigError(f"{where}iterations must be >= 0, got {iterations}")
    if not alpha > 0.0:
        raise ConfigError(f"{where}alpha must be > 0, got {alpha}")


def parse_config_sections(lines: str | Iterable[tuple[int, str]],
                          origin: str = "<config>") -> list[tuple[str, dict[str, str]]]:
    """Flat declarative format: ``[section]`` headers and ``key = value``
    lines; ``#`` lines are comments. Section order is preserved. ``lines`` is
    the text or the (line number, line) pairs of ``read_lines``."""
    if isinstance(lines, str):
        lines = enumerate(lines.splitlines(), start=1)
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip(), current))
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{origin}: line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ConfigError(f"{origin}: line {lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return sections


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# value kind -> (converter from the raw string, what an error says was expected)
_KINDS = {
    "int": (int, "integer"), "float": (float, "number"), "str": (str, "text"),
    "bool": (lambda raw: _BOOLS[raw.lower()], "boolean"),
    "ints": (lambda raw: tuple(map(int, raw.split(","))), "comma-separated integers"),
    "floats": (lambda raw: tuple(map(float, raw.split(","))), "comma-separated numbers"),
}

# section -> key -> value kind: a key of _KINDS, "path" (resolved against the
# config file's directory), or a closed set of allowed strings. Absent or
# empty keys keep the dataclass default.
_SCHEMA = {
    "experiment": {"dataset": "path", "folds": "int", "seed": "int", "approaches": "str",
                   "jobs": "int"},
    "model": {"max_sequence_length": "int", "filters": "int", "kernels": "ints",
              "pool": "int", "dropout": "floats", "feataug_dropout": "floats",
              "right_kernel": "int", "include_score_feature": "bool",
              "trainable_embeddings": "bool", "epochs": "int", "batch": "int",
              "lr": "float"},
    "figurative": {"embedding": "path", "embedding_format": TABLE_FORMATS,
                   "strip_prefix": "str", "keywords": "path", "health_lexicon": "path",
                   "k": "int", "threshold": "float", "use_lda": "bool",
                   "lda_iterations": "int", "include_target": "bool",
                   "pipeline_noise": "float"},
    "embedding": {"source": tuple(EMBEDDING_SOURCES), "dim": "int", "seed": "int",
                  "path": "path", "format": TABLE_FORMATS, "strip_prefix": "str",
                  "ontology": "path", "iterations": "int", "alpha": "float",
                  "beta_mode": BETA_MODES},
}
# config keys whose dataclass field is named differently
_FIELD_NAMES = {"kernels": "kernel_widths", "dropout": "dropout_rates",
                "feataug_dropout": "feataug_dropout_rates",
                "right_kernel": "right_kernel_width", "batch": "batch_size",
                "lr": "learning_rate"}


def _read_section(where: str, kind: str, values: dict[str, str], base: Path) -> dict:
    """Convert one section's raw strings into dataclass keyword arguments."""
    fields = {}
    for key, raw in values.items():
        value_kind = _SCHEMA[kind].get(key)
        if value_kind is None:
            raise ConfigError(f"{where} unknown key {key!r}")
        if raw == "":
            continue
        if isinstance(value_kind, tuple):
            if raw not in value_kind:
                raise ConfigError(f"{where} {key}: must be one of "
                                  f"{'/'.join(value_kind)}, got {raw!r}")
            value = raw
        elif value_kind == "path":
            try:
                value = Path(raw) if Path(raw).is_absolute() else (base / raw).resolve()
            except (OSError, RuntimeError, ValueError) as exc:  # NUL byte, symlink loop
                raise ConfigError(f"{where} {key}: bad path {raw!r} ({exc})") from None
        else:
            convert, expected = _KINDS[value_kind]
            try:
                value = convert(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"{where} {key}: expected {expected}, "
                                  f"got {raw!r}") from None
        fields[_FIELD_NAMES.get(key, key)] = value
    return fields


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file against ``_SCHEMA``.

    Unknown sections and keys, and repeated sections, are errors. Relative
    paths are resolved against the config file's directory.
    """
    path = Path(path)
    try:
        parsed = parse_config_sections(read_lines(path, "config file"), str(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    sections: dict[tuple[str, str], dict] = {}
    for name, values in parsed:
        kind, _, label = name.partition(" ")
        label = label.strip().strip('"')
        where = f"{path}: [{name}]"
        if kind not in _SCHEMA or (kind == "embedding") != bool(label):
            raise ConfigError(f"{where} unknown section; expected [experiment], [model], "
                              f"[figurative] or [embedding NAME]")
        if (kind, label) in sections:
            raise ConfigError(f"{where} duplicate section")
        sections[(kind, label)] = fields = _read_section(where, kind, values, path.parent)
        if kind == "embedding" and "source" not in fields:
            raise ConfigError(f"{where} source is required")
    experiment = sections.get(("experiment", ""), {})
    if "dataset" not in experiment:
        raise ConfigError(f"{path}: [experiment] dataset is required")
    approaches = experiment.pop("approaches", "all")
    if approaches != "all":
        experiment["approaches"] = tuple(a.strip() for a in approaches.split(","))
    try:
        model = ModelConfig(**sections.get(("model", ""), {}))
    except ValueError as exc:
        raise ConfigError(f"{path}: [model] {exc}") from None
    config = ExperimentConfig(
        embeddings=[EmbeddingSpec(name=label, **fields)
                    for (kind, label), fields in sections.items() if kind == "embedding"],
        figurative=FigurativeConfig(**sections.get(("figurative", ""), {})),
        model=model, **experiment)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# cross-validation

def stratified_kfold(corpus: list[Document], k: int, seed: int) -> list[list[Document]]:
    """Partition into k folds balanced within every (disease, label) stratum.

    Within each stratum, fold counts differ by at most one; stratum starting
    offsets rotate so overall fold sizes stay even. Deterministic per seed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(corpus):
        raise ValueError(f"k={k} exceeds corpus size {len(corpus)}")
    strata: dict[tuple[str, str], list[int]] = {}
    for index, doc in enumerate(corpus):
        strata.setdefault((doc.disease, doc.label), []).append(index)
    rng = np.random.default_rng(seed)
    folds: list[list[Document]] = [[] for _ in range(k)]
    offset = 0
    for key in sorted(strata):
        indices = np.array(strata[key])
        order = rng.permutation(len(indices))
        for j, position in enumerate(order):
            folds[(offset + j) % k].append(corpus[indices[position]])
        offset = (offset + len(indices)) % k
    return folds


def build_spec_table(spec: EmbeddingSpec, vocab: list[str], run_seed: int) -> EmbeddingTable:
    """Materialize one embedding initialisation over the corpus vocabulary."""
    if spec.source == "random":
        seed = spec.seed if spec.seed is not None else derive_seed(run_seed, spec.name)
        return random_table(vocab, spec.dim, seed)
    table = load_table(spec.path, spec.format, strip_prefix=spec.strip_prefix)
    if spec.source == "retrofit":
        graph = load_ontology(spec.ontology)
        table = retrofit(table, graph, iterations=spec.iterations,
                         alpha=spec.alpha, beta_mode=spec.beta_mode)
    return project_table(table, vocab, derive_seed(run_seed, spec.name, "project"))


def build_detector(config: ExperimentConfig) -> FigurativeDetector:
    fig = config.figurative
    table = load_table(fig.embedding, fig.embedding_format, strip_prefix=fig.strip_prefix)
    keywords = load_word_list(fig.keywords)
    lexicon = load_word_list(fig.health_lexicon) if fig.health_lexicon else None
    return FigurativeDetector(
        table, keywords, health_lexicon=lexicon, k=fig.k, threshold=fig.threshold,
        include_target=fig.include_target)


# ---------------------------------------------------------------------------
# experiment

@dataclass
class ExperimentReport:
    """Micro-per-embedding and macro-averaged results for each approach."""

    approaches: list[str]
    embeddings: list[str]
    overall: dict[tuple[str, str], Metrics]
    per_disease: dict[tuple[str, str, str], Metrics]
    diseases: list[str]
    seed: int = 0
    folds: int = 0

    def average(self, approach: str) -> tuple[float, float, float]:
        """Arithmetic mean of per-embedding precision/recall/F."""
        rows = [self.overall[(approach, emb)] for emb in self.embeddings]
        return (sum(m.precision for m in rows) / len(rows),
                sum(m.recall for m in rows) / len(rows),
                sum(m.f_score for m in rows) / len(rows))

    def delta_f(self, approach: str, embedding: str | None = None) -> float:
        if embedding is None:
            return self.average(approach)[2] - self.average("phmd")[2]
        return (self.overall[(approach, embedding)].f_score
                - self.overall[("phmd", embedding)].f_score)

    def disease_average_f(self, approach: str, disease: str) -> float:
        rows = [self.per_disease[(approach, emb, disease)] for emb in self.embeddings]
        return sum(m.f_score for m in rows) / len(rows)

    def to_structured(self) -> str:
        lines = ["# figphm experiment report",
                 f"# seed={self.seed} folds={self.folds}",
                 STRUCTURED_HEADER]
        for approach in self.approaches:
            for emb in self.embeddings:
                metrics = self.overall[(approach, emb)]
                lines.append(_structured_row(approach, emb, "overall", metrics,
                                             self.delta_f(approach, emb)))
                for disease in self.diseases:
                    key = (approach, emb, disease)
                    if key in self.per_disease:
                        lines.append(_structured_row(
                            approach, emb, f"disease:{disease}",
                            self.per_disease[key], None))
        for approach in self.approaches:
            p, r, f = self.average(approach)
            lines.append("\t".join([
                approach, "all", "average",
                f"{p:.6f}", f"{r:.6f}", f"{f:.6f}", f"{self.delta_f(approach):.6f}",
                "-", "-", "-", "-", "-",
            ]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_structured(cls, text: str) -> "ExperimentReport":
        """Parse ``to_structured`` output. A malformed line, or rows that do
        not cover every approach x embedding (x disease), raise DataError."""
        approaches: list[str] = []
        embeddings: list[str] = []
        diseases: list[str] = []
        overall: dict[tuple[str, str], Metrics] = {}
        per_disease: dict[tuple[str, str, str], Metrics] = {}
        seed = folds = 0
        for line in text.splitlines():
            if line.startswith("# seed="):
                try:
                    parts = dict(p.split("=") for p in line[2:].split())
                    seed, folds = int(parts["seed"]), int(parts["folds"])
                except (KeyError, ValueError):
                    raise DataError(f"bad report header: {line!r}") from None
                continue
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 12:
                raise DataError(f"bad report row: {line!r}")
            approach, emb, scope = fields[0], fields[1], fields[2]
            if scope == "average":
                continue
            if approach not in APPROACH_DISPLAY:
                raise DataError(f"unknown report approach {approach!r}")
            counts = fields[7:11]
            if not all(v.isascii() and v.isdigit() for v in counts):
                raise DataError(f"bad report counts: {line!r}")
            metrics = Metrics(*map(int, counts))
            if approach not in approaches:
                approaches.append(approach)
            if scope == "overall":
                if emb not in embeddings:
                    embeddings.append(emb)
                overall[(approach, emb)] = metrics
            elif scope.startswith("disease:"):
                disease = scope.split(":", 1)[1]
                if disease not in diseases:
                    diseases.append(disease)
                per_disease[(approach, emb, disease)] = metrics
            else:
                raise DataError(f"unknown report scope {scope!r}")
        if "phmd" not in approaches:
            raise DataError("report has no phmd rows")
        if (set(overall) != set(product(approaches, embeddings))
                or set(per_disease) != set(product(approaches, embeddings, diseases))):
            raise DataError("report rows do not cover every approach, embedding "
                            "and disease")
        return cls(approaches=approaches, embeddings=embeddings, overall=overall,
                   per_disease=per_disease, diseases=diseases, seed=seed, folds=folds)

    def to_tables(self) -> str:
        """Human-readable aligned tables; values shown as percentages."""
        out = []
        name_width = max([len(e) for e in self.embeddings] + [12])
        out.append("== Performance by embedding initialisation ==")
        out.append(f"{'Embedding':<{name_width}}  {'Approach':<10}  "
                   f"{'P':>7}  {'R':>7}  {'F':>7}")
        for emb in self.embeddings:
            for approach in self.approaches:
                m = self.overall[(approach, emb)]
                out.append(f"{emb:<{name_width}}  "
                           f"{APPROACH_DISPLAY[approach]:<10}  "
                           f"{100 * m.precision:>7.2f}  {100 * m.recall:>7.2f}  "
                           f"{100 * m.f_score:>7.2f}")
        out.append("")
        out.append("== Average across embedding initialisations ==")
        out.append(f"{'Approach':<10}  {'P':>7}  {'R':>7}  {'F':>7}  {'dF':>7}")
        for approach in self.approaches:
            p, r, f = self.average(approach)
            delta = "" if approach == "phmd" else f"{100 * self.delta_f(approach):>+7.2f}"
            out.append(f"{APPROACH_DISPLAY[approach]:<10}  {100 * p:>7.2f}  "
                       f"{100 * r:>7.2f}  {100 * f:>7.2f}  {delta:>7}")
        disease_approaches = [a for a in ("phmd", "feataug") if a in self.approaches]
        if self.diseases and disease_approaches:
            out.append("")
            out.append("== Per-disease F (macro across embeddings) ==")
            header = f"{'Disease':<14}" + "".join(
                f"  {APPROACH_DISPLAY[a]:>9}" for a in disease_approaches)
            out.append(header)
            for disease in self.diseases:
                row = f"{disease:<14}"
                for approach in disease_approaches:
                    row += f"  {100 * self.disease_average_f(approach, disease):>9.2f}"
                out.append(row)
        flagged = sorted({flag for m in self.overall.values() for flag in m.flags()})
        if flagged:
            out.append("")
            out.append("note: degenerate metrics present (" + ", ".join(flagged)
                       + "); undefined P/R reported as 0")
        return "\n".join(out) + "\n"


def _structured_row(approach, emb, scope, metrics: Metrics, delta_f) -> str:
    flags = ",".join(metrics.flags()) or "-"
    delta = f"{delta_f:.6f}" if delta_f is not None else "-"
    return "\t".join([
        approach, emb, scope,
        f"{metrics.precision:.6f}", f"{metrics.recall:.6f}", f"{metrics.f_score:.6f}",
        delta, str(metrics.tp), str(metrics.fp), str(metrics.fn), str(metrics.tn),
        flags,
    ])


def _cell_payload(config, spec_index, fold_index, table, fold_docs, sequences,
                  verdicts, gate_labels):
    spec = config.embeddings[spec_index]
    train_docs = [d for j, docs in enumerate(fold_docs) if j != fold_index
                  for d in docs]
    test_docs = fold_docs[fold_index]
    return {
        "spec_index": spec_index,
        "spec_name": spec.name,
        "fold_index": fold_index,
        "vocab": table.vocab,
        "matrix": table.matrix,
        "model_config": config.model,
        "approaches": config.approaches,
        "cell_seed": derive_seed(config.seed, spec.name, fold_index),
        "train": [(sequences[d.id].token_ids, d.label, verdicts.get(d.id))
                  for d in train_docs],
        "test": [(d.id, sequences[d.id].token_ids, verdicts.get(d.id),
                  gate_labels.get(d.id)) for d in test_docs],
    }


def _run_cell(payload: dict) -> dict:
    """Train the models for one (embedding, fold) cell and predict the test
    split; returns per-approach prediction rows."""
    config: ModelConfig = payload["model_config"]
    table = EmbeddingTable(vocab=payload["vocab"], matrix=payload["matrix"])
    approaches = payload["approaches"]
    cell_seed = payload["cell_seed"]

    # PHMD training reads (sequence, label) and ignores the verdict.
    corpus = [(PaddedSequence(ids, len(ids)), label, verdict)
              for ids, label, verdict in payload["train"]]
    phmd = build_phmd(table, config, seed=cell_seed)
    train(phmd, corpus, seed=derive_seed(cell_seed, "train-phmd"))

    feataug = None
    if "feataug" in approaches:
        feataug = build_feataug(table, config, seed=derive_seed(cell_seed, "init-feataug"))
        train(feataug, corpus, seed=derive_seed(cell_seed, "train-feataug"))

    results: dict[str, list] = {approach: [] for approach in approaches}
    for doc_id, ids, verdict, gate_label in payload["test"]:
        seq = PaddedSequence(ids, len(ids))
        pred = predict_phmd(phmd, seq, doc_id)
        results["phmd"].append((doc_id, pred.probability, pred.label, None))
        if "pipeline" in approaches:  # literal docs reuse the PHMD prediction
            results["pipeline"].append(
                (doc_id, 0.0, NONPHM, FIGURATIVE) if gate_label == FIGURATIVE
                else (doc_id, pred.probability, pred.label, gate_label))
        if "feataug" in approaches:
            pred = feataug_predict(feataug, seq, verdict, doc_id)
            results["feataug"].append((doc_id, pred.probability, pred.label,
                                       pred.figurative_label))
    return {"spec_index": payload["spec_index"], "fold_index": payload["fold_index"],
            "predictions": results}


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   jobs: int | None = None) -> ExperimentReport:
    """Full sweep: every embedding initialisation x fold trains the selected
    approaches, micro-averages fold counts, and macro-averages across
    initialisations. PHMD always runs as the baseline for delta-F.

    With ``out_dir`` set, writes report.tsv, report.txt, and per-approach
    prediction dumps.
    """
    if jobs is not None:
        config = replace(config, jobs=jobs)
    config.validate()
    if config.figurative.use_lda:
        raise ConfigError("[figurative] use_lda is read only by fig-eval; "
                          "experiment does not use the LDA posterior")
    approaches = tuple(a for a in APPROACHES if a in set(config.approaches) | {"phmd"})
    config = replace(config, approaches=approaches)

    documents = load_dataset(config.dataset)
    if not documents:
        raise DataError(f"dataset {config.dataset} is empty")
    if config.folds > len(documents):
        raise ConfigError(f"folds = {config.folds} exceeds the {len(documents)} "
                          f"documents in {config.dataset}")
    vocab = build_vocab(documents)
    vocab_list = sorted(vocab, key=vocab.get)
    sequences = {d.id: pad(d.tokens, vocab, config.model.max_sequence_length)
                 for d in documents}

    verdicts: dict[str, FigurativeVerdict] = {}
    gate_labels: dict[str, str] = {}
    if config.needs_detector():
        detector = build_detector(config)
        mark_symptoms(documents, detector.keywords)
        verdicts = {d.id: detector.verdict(d) for d in documents}
        flip = _noise_flips(config, [d.id for d in documents])
        gate_labels = {doc_id: _flip_label(v.label) if flip[doc_id] else v.label
                       for doc_id, v in verdicts.items()}

    fold_docs = stratified_kfold(documents, config.folds, config.seed)
    tables = [build_spec_table(spec, vocab_list, config.seed)
              for spec in config.embeddings]
    payloads = [
        _cell_payload(config, spec_index, fold_index, tables[spec_index],
                      fold_docs, sequences, verdicts, gate_labels)
        for spec_index in range(len(config.embeddings))
        for fold_index in range(config.folds)
    ]

    cells = []
    with _cell_pool(config.jobs) if config.jobs > 1 else nullcontext() as pool:
        futures = [None if pool is None else pool.submit(_run_cell, p) for p in payloads]
        for payload, future in zip(payloads, futures):
            try:
                cells.append(_run_cell(payload) if future is None else future.result())
            except Exception as exc:
                raise RuntimeError(
                    f"experiment cell failed (embedding={payload['spec_name']}, "
                    f"fold={payload['fold_index']}): {exc}") from exc

    return _assemble_report(config, documents, cells, out_dir)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _cell_pool(jobs: int):
    """A pool of ``jobs`` spawned workers that share the cores between their
    BLAS libraries: each worker reads cpu_count // jobs BLAS threads from the
    environment when its BLAS loads. Workers with a full BLAS thread pool
    each oversubscribe the cores; 2 of them on 2 cores took the synth
    experiment from 8 s (one process) to 23-28 s."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES,
                                    str(max(1, (os.cpu_count() or 1) // jobs))))
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _noise_flips(config: ExperimentConfig, doc_ids: list[str]) -> dict[str, bool]:
    """Optional degradation of the pipeline gate channel (robustness probes)."""
    rate = config.figurative.pipeline_noise
    if rate <= 0.0:
        return {doc_id: False for doc_id in doc_ids}
    rng = np.random.default_rng(derive_seed(config.seed, "pipeline-noise"))
    draws = rng.random(len(doc_ids))
    return {doc_id: bool(draw < rate) for doc_id, draw in zip(doc_ids, draws)}


def _flip_label(label: str) -> str:
    return FIG_LABELS[1 - FIG_LABELS.index(label)]


def _assemble_report(config, documents, cells, out_dir) -> ExperimentReport:
    disease_of = {d.id: d.disease for d in documents}
    gold_of = {d.id: d.label for d in documents}
    embeddings = [spec.name for spec in config.embeddings]
    diseases = [d for d in DISEASES if d in set(disease_of.values())]

    cells.sort(key=lambda c: (c["spec_index"], c["fold_index"]))
    rows: dict[tuple[str, str], list] = {}
    for cell in cells:
        emb = embeddings[cell["spec_index"]]
        for approach, preds in cell["predictions"].items():
            rows.setdefault((approach, emb), []).extend(preds)

    overall = {}
    per_disease = {}
    for (approach, emb), preds in rows.items():
        labels = [p[2] for p in preds]
        golds = [gold_of[p[0]] for p in preds]
        overall[(approach, emb)] = compute_metrics(labels, golds)
        for disease in diseases:
            pairs = [(p[2], gold_of[p[0]]) for p in preds
                     if disease_of[p[0]] == disease]
            if pairs:
                per_disease[(approach, emb, disease)] = compute_metrics(
                    [a for a, _ in pairs], [b for _, b in pairs])

    report = ExperimentReport(
        approaches=list(config.approaches), embeddings=embeddings,
        overall=overall, per_disease=per_disease, diseases=diseases,
        seed=config.seed, folds=config.folds)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.tsv").write_text(report.to_structured(), encoding="utf-8")
        (out_dir / "report.txt").write_text(report.to_tables(), encoding="utf-8")
        dump_dir = out_dir / "predictions"
        dump_dir.mkdir(exist_ok=True)
        for (approach, emb), preds in sorted(rows.items()):
            safe = "".join(ch if ch.isalnum() else "_" for ch in emb)
            (dump_dir / f"{safe}__{approach}.tsv").write_text(
                format_predictions(sorted(preds)), encoding="utf-8")
    return report


def format_predictions(rows) -> str:
    """Prediction dump text, one ``doc_id, probability, label, figurative
    label or -`` row per (doc_id, probability, label, figurative_label)."""
    return "".join(f"{doc_id}\t{prob:.6f}\t{label}\t{figurative_label or '-'}\n"
                   for doc_id, prob, label, figurative_label in rows)


# ---------------------------------------------------------------------------
# single-model training / evaluation (CLI entry points)

def train_full(config: ExperimentConfig, approach: str, embedding_name: str):
    """Train one model of the given approach on the whole dataset using the
    named embedding initialisation; returns (model, loss trace)."""
    if approach not in ("phmd", "feataug"):
        raise ConfigError(f"trainable approaches are phmd/feataug, got {approach!r}")
    spec = next((s for s in config.embeddings if s.name == embedding_name), None)
    if spec is None:
        raise ConfigError(f"no [embedding {embedding_name}] section in config")
    documents = load_dataset(config.dataset)
    if not documents:
        raise DataError(f"dataset {config.dataset} is empty")
    vocab = build_vocab(documents)
    vocab_list = sorted(vocab, key=vocab.get)
    table = build_spec_table(spec, vocab_list, config.seed)
    sequences = [pad(d.tokens, vocab, config.model.max_sequence_length)
                 for d in documents]
    seed = derive_seed(config.seed, spec.name, "full")
    if approach == "phmd":
        model = build_phmd(table, config.model, seed=seed)
        corpus = list(zip(sequences, [d.label for d in documents]))
    else:
        detector = build_detector(config)
        mark_symptoms(documents, detector.keywords)
        verdicts = [detector.verdict(d) for d in documents]
        model = build_feataug(table, config.model, seed=seed)
        corpus = list(zip(sequences, [d.label for d in documents], verdicts))
    trace = train(model, corpus, seed=derive_seed(seed, "train"))
    return model, trace


def evaluate_model(model, documents: list[Document],
                   detector: FigurativeDetector | None = None):
    """Predict every document with a trained model; returns (Metrics, rows)
    where rows are (doc_id, probability, label, figurative_label)."""
    vocab = model.vocab
    max_len = model.config.max_sequence_length
    if model.kind == "feataug":
        if detector is None:
            raise ConfigError("evaluating a feataug checkpoint requires the "
                              "figurative detector configuration")
        mark_symptoms(documents, detector.keywords)
    rows = []
    for doc in documents:
        seq = pad(doc.tokens, vocab, max_len)
        if model.kind == "feataug":
            pred = feataug_predict(model, seq, detector.verdict(doc), doc.id)
        else:
            pred = predict_phmd(model, seq, doc.id)
        rows.append((doc.id, pred.probability, pred.label, pred.figurative_label))
    metrics = compute_metrics([r[2] for r in rows], [d.label for d in documents])
    return metrics, rows


# ---------------------------------------------------------------------------
# figurative-detector evaluation

def load_figurative_gold(path: str | Path) -> list[tuple[Document, str]]:
    """4-column TSV (id, disease, text, figurative|literal) with gold usage
    labels; the PHM label field of each Document is a placeholder."""
    return [(replace(doc, label=NONPHM), doc.label)
            for doc in load_dataset(path, FIG_LABELS, "usage label", "gold file")]


def evaluate_figurative(labeled: list[tuple[Document, str]],
                        detector: FigurativeDetector,
                        use_lda: bool = False, lda_iterations: int = 200,
                        lda_seed: int = 0) -> dict[str, Metrics]:
    """Score the detector against gold figurative/literal labels.

    Always reports the score-only mode; with ``use_lda`` also reports the
    Gibbs-refined mode, where a document is figurative when its posterior
    figurative mass exceeds the literal mass. ``figurative`` is the positive
    class.
    """
    if not labeled:
        raise ValueError("evaluate_figurative requires labeled examples")
    docs = [doc for doc, _ in labeled]
    golds = [gold for _, gold in labeled]
    mark_symptoms(docs, detector.keywords)
    verdicts = [detector.verdict(doc) for doc in docs]
    results = {"score": compute_metrics([v.label for v in verdicts], golds,
                                        positive_class=FIGURATIVE)}
    if use_lda:
        estimate = lda_estimate([doc.tokens for doc in docs],
                                [v.literal_score for v in verdicts],
                                iterations=lda_iterations, seed=lda_seed)
        lda_labels = [FIGURATIVE if p_fig > p_lit else LITERAL
                      for p_lit, p_fig in estimate.doc_dist]
        results["score+lda"] = compute_metrics(lda_labels, golds,
                                               positive_class=FIGURATIVE)
    return results
