"""Command-line interface.

Each processing stage is independently invokable: ``kappa``, ``retrofit``,
``fig-score``, ``fig-eval``, ``train``, ``evaluate``, ``experiment``,
``report``, plus ``synth`` to generate a ready-to-run synthetic experiment.

Exit codes: 0 success, 1 config error, 2 data error (an unwritable output
included), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus, embeddings, figurative, harness, phm, synthetic
from .errors import ConfigError, DataError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    nothing of a call, so every in-process ``main`` shares it."""
    parser = argparse.ArgumentParser(prog="figphm",
                                     description="Personal health mention detection "
                                                 "with figurative-usage awareness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="inter-annotator agreement from an annotation TSV")
    p.add_argument("annotations", type=Path)

    p = sub.add_parser("retrofit", help="retrofit an embedding file to an ontology")
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--format", choices=embeddings.TABLE_FORMATS,
                   default="glove_text")
    p.add_argument("--ontology", type=Path, required=True)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta-mode", choices=embeddings.BETA_MODES,
                   default="inverse_degree")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("fig-score", help="literal-usage verdicts for a dataset")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--dataset", type=Path, help="override the config dataset")
    p.add_argument("--out", type=Path, help="verdict TSV (default: stdout)")

    p = sub.add_parser("fig-eval", help="evaluate the figurative detector "
                                        "against gold usage labels")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--gold", type=Path, required=True)

    p = sub.add_parser("train", help="train one model on the full dataset")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--approach", choices=("phmd", "feataug"), default="phmd")
    p.add_argument("--embedding", required=True, help="embedding spec name")
    p.add_argument("--out", type=Path, required=True, help="checkpoint path")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--config", type=Path,
                   help="config with [figurative] settings (feataug checkpoints)")
    p.add_argument("--out", type=Path, help="prediction dump TSV")

    p = sub.add_parser("experiment", help="full cross-validated embedding sweep")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="report directory")
    p.add_argument("--jobs", type=int, help="parallel (embedding, fold) cells")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--approach", choices=("phmd", "pipeline", "feataug", "all"),
                   help="override the config approaches")

    p = sub.add_parser("report", help="render tables from a structured report")
    p.add_argument("report", type=Path)

    p = sub.add_parser("synth", help="write a synthetic planted-corpus experiment")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--docs", type=int, default=240)

    return parser


def cmd_kappa(args) -> int:
    pairs = corpus.load_annotations(args.annotations)
    if not pairs:
        raise DataError(f"no annotation pairs in {args.annotations}")
    agree = sum(1 for p in pairs if p.label_a == p.label_b)
    print(f"pairs: {len(pairs)}")
    print(f"observed agreement: {agree / len(pairs):.4f}")
    print(f"cohen_kappa: {corpus.cohen_kappa(pairs):.4f}")
    return 0


def cmd_retrofit(args) -> int:
    harness.check_retrofit_settings(args.iterations, args.alpha, where="retrofit --")
    table = embeddings.load_table(args.embeddings, args.format)
    graph = embeddings.load_ontology(args.ontology)
    result = embeddings.retrofit(table, graph, iterations=args.iterations,
                                 alpha=args.alpha, beta_mode=args.beta_mode)
    embeddings.save_table(result, args.out)
    print(f"retrofitted {len(table.vocab) - 2} vectors "
          f"({graph.num_edges()} ontology edges) -> {args.out}")
    return 0


def cmd_fig_score(args) -> int:
    config = harness.load_config(args.config)
    detector = harness.build_detector(config)
    documents = harness.load_documents(args.dataset if args.dataset else config.dataset)
    verdicts = detector.verdicts(documents)
    text = figurative.format_verdicts(documents, verdicts)
    if args.out:
        with corpus.write_atomically(args.out) as handle:
            handle.write(text)
        print(f"wrote {len(verdicts)} verdicts -> {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_fig_eval(args) -> int:
    config = harness.load_config(args.config)
    detector = harness.build_detector(config)
    documents = harness.load_figurative_gold(args.gold)
    if not documents:
        raise DataError(f"no labeled examples in {args.gold}")
    results = harness.evaluate_figurative(
        documents, detector, use_lda=config.figurative.use_lda,
        lda_iterations=config.figurative.lda_iterations,
        lda_seed=harness.derive_seed(config.seed, "fig-eval-lda"))
    for mode, metrics in results.items():
        flags = " [" + ",".join(metrics.flags()) + "]" if metrics.flags() else ""
        print(f"{mode}: {metrics.summary()}{flags}")
    return 0


def cmd_train(args) -> int:
    config = harness.load_config(args.config)
    model, trace = harness.train_full(config, args.approach, args.embedding)
    phm.save_model(model, args.out)
    print(f"trained {args.approach} ({args.embedding}) for {len(trace)} epochs, "
          f"final loss {trace[-1]:.4f} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = phm.load_model(args.model)
    documents = harness.load_documents(args.dataset)
    detector = None
    if model.kind == "feataug":
        if not args.config:
            raise ConfigError("--config is required to evaluate a feataug checkpoint")
        detector = harness.build_detector(harness.load_config(args.config))
    metrics, dump = harness.evaluate_model(model, documents, detector)
    if args.out:
        with corpus.write_atomically(args.out) as handle:
            handle.write(dump)
    print(metrics.summary())
    return 0


def cmd_experiment(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.approach:
        approaches = harness.APPROACHES if args.approach == "all" else (args.approach,)
        config = replace(config, approaches=approaches)
    report = harness.run_experiment(config, out_dir=args.out, jobs=args.jobs)
    print(report.to_tables(), end="")
    print(f"report files in {args.out}")
    return 0


def cmd_report(args) -> int:
    report = harness.ExperimentReport.from_structured(
        "\n".join(line for _, line in corpus.read_lines(args.report, "report file")))
    print(report.to_tables(), end="")
    return 0


def cmd_synth(args) -> int:
    if args.docs < 1:
        raise ConfigError(f"synth --docs must be >= 1, got {args.docs}")
    paths = synthetic.write_planted_fixture(args.out, seed=args.seed, n_docs=args.docs)
    config_path = Path(args.out) / "experiment.ini"
    with corpus.write_atomically(config_path) as handle:
        handle.write(_SYNTH_CONFIG)
    print(f"wrote {paths['dataset'].name}, {paths['embeddings'].name}, "
          f"{paths['keywords'].name}, {config_path.name} in {args.out}")
    print(f"run: figphm experiment --config {config_path} --out {Path(args.out) / 'run'}")
    return 0


_SYNTH_CONFIG = """\
# synthetic planted-corpus experiment (desk scale)
[experiment]
dataset = dataset.tsv
folds = 3
seed = 42

[model]
max_sequence_length = 16
epochs = 25
batch = 64

[figurative]
embedding = fig_embeddings.txt
keywords = keywords.txt
threshold = 0.2

[embedding rand20a]
source = random
dim = 20
seed = 1

[embedding rand20b]
source = random
dim = 20
seed = 2
"""

_COMMANDS = {
    "kappa": cmd_kappa,
    "retrofit": cmd_retrofit,
    "fig-score": cmd_fig_score,
    "fig-eval": cmd_fig_eval,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
    "report": cmd_report,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return _COMMANDS[args.command](args)
        except OSError as exc:
            # Inputs are read through corpus.read_lines and load_checkpoint,
            # which raise DataError, so a file error here is an output's.
            if exc.filename is None:
                raise
            raise DataError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # a bare exception such as MemoryError() has an empty message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
