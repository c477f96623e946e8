"""The three benchmark workloads. Each is a closed loop: one client calls the
library and waits for the result, single-process, BLAS threads at default.

A workload has ``setup(work_dir, seed, params)``, which does every piece of
construction before the first measured call, and ``run_pass(state, index)``,
which runs one measured pass and returns a ``Pass``. Correctness checks run
after the timed region of a pass.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from inputs import planted_kind, rng_for, write_fig_inputs, zipf_sequences

# The seed code reaches 1.0 on fig-prep and about 0.99 on the desk fixture.
MIN_PLANTED_AGREEMENT = 0.95
EMBEDDING_DIM = 50          # paper-shape d


@dataclass
class Pass:
    pass_s: float                     # wall seconds of the pass's timed work
    fit_us: list[float]               # samples, per item of the fitting work
    read_us: list[float]              # samples, per item of the read path
    summary: dict[str, float]         # figures named in ROADMAP terms, printed only
    checks: list[tuple[str, bool]]
    planted_agreement: float = 0.0
    retrofit_sweeps: int = 0
    lda_token_updates: int = 0
    models: list = field(default_factory=list)   # models kept across passes


def cli(args: list) -> tuple[int, str]:
    """``figphm.cli.main`` in-process; returns (exit code, captured stderr)."""
    from figphm import cli as figphm_cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = figphm_cli.main([str(a) for a in args])
    return code, err.getvalue()


def planted_agreement(kinds: list[str | None], labels: list[str]) -> float:
    """Share of symptom documents whose verdict matches the planted usage."""
    pairs = [(k, v) for k, v in zip(kinds, labels) if k is not None]
    return sum(k == v for k, v in pairs) / len(pairs) if pairs else 0.0


# ---------------------------------------------------------------------------
# desk-sweep

@dataclass
class DeskState:
    params: dict
    config: Path
    fixture: Path
    example_epochs: int               # examples x epochs trained per sweep
    kinds: list[str | None]
    doc_ids: list[str]
    reports: list[str] = field(default_factory=list)


class DeskSweep:
    """``figphm experiment`` on the fixture and config ``figphm synth`` writes;
    the read path is ``figphm fig-score`` on the same fixture."""

    name = "desk-sweep"
    min_passes = 2      # the second sweep checks byte-identical reports
    scales = {"full": {"docs": 120, "read_repeats": 10},
              "tiny": {"docs": 24, "read_repeats": 1}}

    def setup(self, work: Path, seed: int, params: dict) -> DeskState:
        from figphm import harness, load_dataset
        fixture = work / "desk"
        code, err = cli(["synth", "--out", fixture, "--seed", seed, "--docs", params["docs"]])
        if code != 0:
            raise RuntimeError(f"figphm synth exited {code}: {err}")
        config = harness.load_config(fixture / "experiment.ini")
        docs = load_dataset(config.dataset)
        # PHMD and FeatAug each train on (folds - 1) / folds of the corpus in
        # every cell; the pipeline approach reuses the PHMD model.
        example_epochs = (len(config.embeddings) * 2 * config.model.epochs
                          * (config.folds - 1) * len(docs))
        return DeskState(params=params, config=fixture / "experiment.ini", fixture=fixture,
                         example_epochs=example_epochs,
                         kinds=[planted_kind(d.tokens, d.label) for d in docs],
                         doc_ids=[d.id for d in docs])

    def run_pass(self, state: DeskState, index: int) -> Pass:
        out = state.fixture / f"run{index}"
        t0 = perf_counter()
        code, _ = cli(["experiment", "--config", state.config, "--out", out, "--jobs", 1])
        sweep_s = perf_counter() - t0

        verdict_path = state.fixture / f"verdicts{index}.tsv"
        score_times, score_codes = [], []
        for _ in range(state.params["read_repeats"]):
            t0 = perf_counter()
            score_codes.append(cli(["fig-score", "--config", state.config,
                                    "--out", verdict_path])[0])
            score_times.append(perf_counter() - t0)

        report_path = out / "report.tsv"
        state.reports.append(report_path.read_text(encoding="utf-8")
                             if report_path.exists() else "")
        rows = verdict_path.read_text(encoding="utf-8").splitlines() \
            if verdict_path.exists() else []
        verdicts = dict(row.split("\t")[::2] for row in rows)
        checks = [("experiment exit code 0", code == 0)]
        checks += desk_report_checks(state.reports)
        checks.append(("fig-score wrote one verdict per document",
                       set(score_codes) == {0} and len(rows) == len(state.doc_ids)))
        n_docs = len(state.doc_ids)
        return Pass(pass_s=sweep_s, fit_us=[1e6 * sweep_s / state.example_epochs],
                    read_us=[1e6 * t / n_docs for t in score_times],
                    summary={"sweep_s": sweep_s}, checks=checks,
                    planted_agreement=planted_agreement(
                        state.kinds, [verdicts.get(i, "") for i in state.doc_ids]))


def desk_report_checks(reports: list[str]) -> list[tuple[str, bool]]:
    """Checks on the newest ``report.tsv`` of a run, given the earlier ones."""
    from figphm import ExperimentReport
    from figphm.errors import DataError
    text = reports[-1]
    try:
        report = ExperimentReport.from_structured(text)
        round_trip = bool(report.embeddings) and report.to_structured() == text
        delta_f = report.delta_f("feataug") if round_trip else math.nan
    except (DataError, KeyError, ValueError, ZeroDivisionError):
        round_trip, delta_f = False, math.nan
    checks = [("report.tsv round-trips through from_structured", round_trip),
              ("FeatAug delta F > 0", delta_f > 0.0)]
    if len(reports) > 1:
        checks.append(("report.tsv byte-identical to the first sweep", text == reports[0]))
    return checks


# ---------------------------------------------------------------------------
# paper-train

@dataclass
class PaperState:
    params: dict
    seed: int
    trainable: list                   # [PHMD, FeatAug] with trainable embeddings
    frozen: object                    # PHMD with frozen embeddings, same table
    phmd_corpus: list
    feataug_corpus: list
    held_out: list


class PaperTrain:
    """Kim-2014-shaped training at V=50k: PHMD and FeatAug with trainable
    embeddings, PHMD with frozen ones, then eval-mode ``predict_proba``."""

    name = "paper-train"
    min_passes = 1
    scales = {"full": {"vocab": 50_000, "train": 128, "held_out": 256, "predict_chunk": 32},
              "tiny": {"vocab": 2_000, "train": 8, "held_out": 8, "predict_chunk": 4}}

    def setup(self, work: Path, seed: int, params: dict) -> PaperState:
        from figphm import embeddings, phm
        config = phm.ModelConfig()      # T=50, F=100, widths 3/4/5, pool 2, batch 128
        words = [f"w{i}" for i in range(params["vocab"] - 2)]
        table = embeddings.random_table(words, EMBEDDING_DIM,
                                        seed=int(rng_for(seed, "table").integers(2**31)))
        init = rng_for(seed, "init").integers(2**31, size=3)
        phmd = phm.build_phmd(table, config, seed=int(init[0]))
        feataug = phm.build_feataug(table, config, seed=int(init[1]))
        frozen = phm.build_phmd(table, replace(config, trainable_embeddings=False),
                                seed=int(init[2]))

        rng = rng_for(seed, "examples")
        n = params["train"]
        ids = zipf_sequences(rng, n + params["held_out"], params["vocab"],
                             seq_len=config.max_sequence_length)
        labels = ["PHM" if bit else "NonPHM" for bit in rng.integers(2, size=n)]
        features = rng.random((n, feataug.feature_length))
        return PaperState(
            params=params, seed=seed, trainable=[phmd, feataug], frozen=frozen,
            phmd_corpus=list(zip(ids[:n], labels)),
            feataug_corpus=list(zip(ids[:n], labels, features)),
            held_out=list(ids[n:]))

    def run_pass(self, state: PaperState, index: int) -> Pass:
        from figphm import phm
        n = len(state.phmd_corpus)
        seeds = rng_for(state.seed, "train", index).integers(2**31, size=3)
        t0 = perf_counter()
        traces, fit_us = [], []
        for model, corpus, seed in zip(state.trainable, (state.phmd_corpus, state.feataug_corpus),
                                       seeds):
            t = perf_counter()
            traces.append(phm.train(model, corpus, epochs=1, seed=int(seed)))
            fit_us.append(1e6 * (perf_counter() - t) / n)
        t1 = perf_counter()
        traces.append(phm.train(state.frozen, state.phmd_corpus, epochs=1, seed=int(seeds[2])))
        t2 = perf_counter()
        phmd = state.trainable[0]
        probs, read_us = [], []
        chunk = state.params["predict_chunk"]
        for start in range(0, len(state.held_out), chunk):
            t = perf_counter()
            probs += [phmd.predict_proba(ids) for ids in state.held_out[start:start + chunk]]
            read_us.append(1e6 * (perf_counter() - t) / len(state.held_out[start:start + chunk]))
        t3 = perf_counter()

        checks = [(f"finite loss trace of length 1 ({name})",
                   len(trace) == 1 and all(math.isfinite(v) for v in trace))
                  for name, trace in zip(("phmd", "feataug", "frozen"), traces)]
        checks.append(("held-out probabilities in [0, 1]",
                       all(0.0 <= p <= 1.0 for p in probs)))
        return Pass(pass_s=t3 - t0, fit_us=fit_us, read_us=read_us,
                    summary={"train_ms_per_ex": 1e3 * (t1 - t0) / (2 * n),
                             "train_frozen_ms_per_ex": 1e3 * (t2 - t1) / n,
                             "predict_ms_per_ex": 1e3 * (t3 - t2) / len(probs)},
                    checks=checks, models=[*state.trainable, state.frozen])


# ---------------------------------------------------------------------------
# fig-prep

@dataclass
class FigState:
    params: dict
    seed: int
    paths: dict
    keywords: set
    docs: list
    kinds: list


class FigPrep:
    """The steps before classification at V=50k: load, retrofit, detector
    build (nearest-neighbour search per keyword), verdicts, Gibbs LDA."""

    name = "fig-prep"
    min_passes = 1
    scales = {"full": {"vocab": 50_000, "docs": 1500, "ontology_heads": 10_000,
                       "retrofit_sweeps": 10, "lda_sweeps": 16, "verdict_chunk": 100},
              "tiny": {"vocab": 3_000, "docs": 100, "ontology_heads": 300,
                       "retrofit_sweeps": 2, "lda_sweeps": 2, "verdict_chunk": 25}}

    def setup(self, work: Path, seed: int, params: dict) -> FigState:
        from figphm import load_dataset
        from figphm.figurative import load_word_list
        paths = write_fig_inputs(work / "fig", seed, params["vocab"], params["docs"],
                                 params["ontology_heads"])
        docs = load_dataset(paths["dataset"])
        return FigState(params=params, seed=seed, paths=paths,
                        keywords=load_word_list(paths["keywords"]), docs=docs,
                        kinds=[planted_kind(d.tokens, d.label) for d in docs])

    def run_pass(self, state: FigState, index: int) -> Pass:
        from figphm import embeddings, figurative
        p = state.params
        t0 = perf_counter()
        table = embeddings.load_table(state.paths["embeddings"])
        graph = embeddings.load_ontology(state.paths["ontology"])
        fitted = embeddings.retrofit(table, graph, iterations=p["retrofit_sweeps"])
        detector = figurative.FigurativeDetector(fitted, state.keywords)
        t1 = perf_counter()
        figurative.mark_symptoms(state.docs, detector.keywords)
        verdicts, read_us = [], []
        chunk = p["verdict_chunk"]
        for start in range(0, len(state.docs), chunk):
            t = perf_counter()
            verdicts += [detector.verdict(doc) for doc in state.docs[start:start + chunk]]
            read_us.append(1e6 * (perf_counter() - t) / len(state.docs[start:start + chunk]))
        t2 = perf_counter()
        tokens = [doc.tokens for doc in state.docs]
        estimate = figurative.lda_estimate(
            tokens, [v.literal_score for v in verdicts], iterations=p["lda_sweeps"],
            seed=int(rng_for(state.seed, "lda", index).integers(2**31)))
        t3 = perf_counter()

        before = embeddings.retrofit_objective(table, table, graph)
        after = embeddings.retrofit_objective(table, fitted, graph)
        agreement = planted_agreement(state.kinds, [v.label for v in verdicts])
        checks = [
            ("retrofit objective not higher after retrofitting", after <= before),
            ("every LDA doc_dist row sums to 1",
             len(estimate.doc_dist) == len(state.docs)
             and all(abs(a + b - 1.0) < 1e-9 for a, b in estimate.doc_dist)),
            (f"planted agreement >= {MIN_PLANTED_AGREEMENT}",
             agreement >= MIN_PLANTED_AGREEMENT),
        ]
        token_updates = p["lda_sweeps"] * sum(len(t) for t in tokens)
        detector_ms = 1e3 * (t2 - t1) / len(state.docs)
        return Pass(pass_s=t3 - t0, fit_us=[1e6 * (t3 - t2) / token_updates],
                    read_us=read_us,
                    summary={"prep_s": t3 - t0, "detector_ms_per_doc": detector_ms},
                    checks=checks, planted_agreement=agreement,
                    retrofit_sweeps=p["retrofit_sweeps"], lda_token_updates=token_updates)


WORKLOADS = {w.name: w for w in (DeskSweep(), PaperTrain(), FigPrep())}
