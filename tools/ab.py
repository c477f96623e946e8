"""In-process A/B of one timed path between two git revisions.

Unpacks ``src`` of each revision into a temporary directory and imports it
as its own package (``figphm_parent``, ``figphm_change``), so both sides run
in one process, on one heap and one set of BLAS threads. The sides take
turns chunk by chunk, the side that runs first alternating from chunk to
chunk, so a slow spell of the host falls on both sides of most pairs. The
tool prints each side's median time per item, then the median and IQR of
the per-chunk change/parent ratios and the number of chunks the change won.

Modes:

- ``train``: one chunk builds a PHMD and a FeatAug model at desk shape
  (T=16, d=20, F=100, widths 3/4/5, pool 2, 80 examples, batch 64, 25
  epochs) and times ``train`` on both; 20 chunks after one warm-up chunk
  per side.
- ``verdict``: ``FigurativeDetector.verdict`` per document on
  ``perfbench/inputs.write_fig_inputs`` at fig-prep's shape (V=50k, d=50,
  1,500 documents; the table retrofitted for 10 sweeps over a 10k-head
  ontology). A round builds a fresh detector per side, untimed, then times
  its 15 chunks of 100 documents; 8 rounds after one warm-up round. Nothing
  the verdicts read is written.
- ``retrofit``: one chunk times ``embeddings.retrofit(table, graph,
  iterations=10)`` on the same inputs' table and ontology, which each side
  loads once, untimed; 40 chunks after one warm-up chunk per side.

Both sides run from the same inputs and seeds, so they must give the same
bytes: the trained parameters, every verdict's score, label and features,
or the retrofitted matrix. The tool exits 1 if any chunk's bytes differ.
Run from the repository root::

    python3 tools/ab.py verdict --parent HEAD~1 --change HEAD

A result is evidence, not the benchmark: a gain is claimed only from
``tools/bench_pairs.py``. An A/A run (``--parent HEAD --change HEAD``) shows
the noise. Three per mode on a 2-vCPU x86_64 host (float64, OpenBLAS
0.3.31, numpy 2.4.6) read:

- ``train``: median ratio 1.005, 1.006 and 1.034 (widest IQR
  0.916-1.331), change lower in 9, 8 and 6 of 20.
- ``verdict``: median ratio 0.999, 1.010 and 1.003 (widest IQR
  0.967-1.062), change lower in 61, 53 and 58 of 120.
- ``retrofit``: median ratio 0.993, 1.010 and 1.026 (widest IQR
  0.904-1.069), change lower in 21, 20 and 15 of 40.

So a median ratio within about 0.99-1.04 (``train``), 0.99-1.01
(``verdict``) or 0.99-1.03 (``retrofit``) is noise. For scale, ``verdict``
between the per-call normalisation and the per-detector unit rows read
0.666 and 0.680, change lower in 96 and 105 of 120; ``retrofit`` between
the dict-built and the edge-array level schedule read 0.632 and 0.571,
change lower in 40 and 40 of 40.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def load_package(repo: Path, rev: str, side: str, work: Path):
    """``src/figphm`` at ``rev``, imported as the package ``figphm_<side>``."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    root = work / side
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    package = root / "src" / "figphm"
    name = f"figphm_{side}"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TrainSide:
    """One revision's desk-shape models and corpora, built from fixed seeds."""

    rounds, chunks, items = 20, 1, "run"
    EPOCHS = 25                 # the desk config's
    DOCS = 80                   # the training share of a 120-document, 3-fold cell
    SEQ_LEN = 16
    DIM = 20
    VOCAB = 600

    def __init__(self, package, work: Path):
        self.package = package
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(self.VOCAB - 2)]
        self.table = package.random_table(words, self.DIM, seed=1)
        self.config = package.ModelConfig(max_sequence_length=self.SEQ_LEN)
        ids = rng.integers(0, self.VOCAB, size=(self.DOCS, self.SEQ_LEN))
        labels = ["PHM" if bit else "NonPHM" for bit in rng.integers(2, size=self.DOCS)]
        width = package.figurative.feature_row_length(self.config.include_score_feature)
        features = rng.random((self.DOCS, width))
        self.corpora = (list(zip(ids, labels)), list(zip(ids, labels, features)))

    def start_round(self) -> None:
        pass

    def run_chunk(self, chunk: int) -> tuple[float, int, bytes]:
        """Seconds in ``train`` for PHMD then FeatAug, one run, and both
        models' parameters afterwards."""
        models = (self.package.build_phmd(self.table, self.config, seed=2),
                  self.package.build_feataug(self.table, self.config, seed=3))
        start = time.perf_counter()
        for model, corpus in zip(models, self.corpora):
            self.package.train(model, corpus, epochs=self.EPOCHS, batch=64, seed=4)
        elapsed = time.perf_counter() - start
        return elapsed, 1, b"".join(param.value.tobytes() for model in models
                                     for param in model.all_parameters())


class VerdictSide:
    """One revision's fig-prep detector inputs: the retrofitted V=50k table,
    the keywords and the documents."""

    rounds, chunks, items = 8, 15, "document"
    CHUNK = 100
    INPUT_SEED = 701
    VOCAB, DOCS, ONTOLOGY_HEADS, RETROFIT_SWEEPS = 50_000, 1500, 10_000, 10

    def __init__(self, package, work: Path):
        self.package = package
        paths = fig_inputs(work)
        embeddings = package.embeddings
        table = embeddings.load_table(paths["embeddings"])
        graph = embeddings.load_ontology(paths["ontology"])
        self.table = embeddings.retrofit(table, graph, iterations=self.RETROFIT_SWEEPS)
        self.keywords = package.figurative.load_word_list(paths["keywords"])
        self.docs = package.load_dataset(paths["dataset"])
        self.detector = None

    def start_round(self) -> None:
        self.detector = self.package.FigurativeDetector(self.table, self.keywords)

    def run_chunk(self, chunk: int) -> tuple[float, int, bytes]:
        """Seconds for the verdicts of the chunk's documents, their count,
        and each verdict's score, label and features."""
        docs = self.docs[chunk * self.CHUNK:(chunk + 1) * self.CHUNK]
        verdict = self.detector.verdict
        start = time.perf_counter()
        verdicts = [verdict(doc) for doc in docs]
        elapsed = time.perf_counter() - start
        return elapsed, len(docs), b"".join(
            np.float64(v.literal_score).tobytes() + v.label.encode() + v.features.tobytes()
            for v in verdicts)


class RetrofitSide:
    """One revision's fig-prep retrofit inputs: the V=50k table and the
    10k-head ontology, loaded once."""

    rounds, chunks, items = 40, 1, "run"

    def __init__(self, package, work: Path):
        self.embeddings = package.embeddings
        paths = fig_inputs(work)
        self.table = self.embeddings.load_table(paths["embeddings"])
        self.graph = self.embeddings.load_ontology(paths["ontology"])

    def start_round(self) -> None:
        pass

    def run_chunk(self, chunk: int) -> tuple[float, int, bytes]:
        """Seconds in one ``retrofit`` of fig-prep's sweep count, one run,
        and the retrofitted matrix."""
        start = time.perf_counter()
        fitted = self.embeddings.retrofit(self.table, self.graph,
                                          iterations=VerdictSide.RETROFIT_SWEEPS)
        elapsed = time.perf_counter() - start
        return elapsed, 1, fitted.matrix.tobytes()


MODES = {"train": TrainSide, "verdict": VerdictSide, "retrofit": RetrofitSide}


def fig_inputs(work: Path) -> dict[str, Path]:
    """fig-prep's input files, written once per run by the benchmark's own
    generator."""
    out = work / "fig"
    if not out.exists():
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        inputs.write_fig_inputs(out, VerdictSide.INPUT_SEED, VerdictSide.VOCAB,
                                VerdictSide.DOCS, VerdictSide.ONTOLOGY_HEADS)
    return {"embeddings": out / "vectors.txt", "ontology": out / "ontology.txt",
            "keywords": out / "keywords.txt", "dataset": out / "dataset.tsv"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=sorted(MODES), help="the timed path")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    mode = MODES[args.mode]
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    ratios, per_item, mismatches = [], {side: [] for side in SIDES}, 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        sides = {side: mode(load_package(repo, rev, side, Path(work)), Path(work))
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        for round_ in range(mode.rounds + 1):       # round 0 warms up, not counted
            for side in sides.values():
                side.start_round()
            for chunk in range(mode.chunks):
                seconds, outputs = {}, {}
                first = SIDES if (round_ * mode.chunks + chunk) % 2 == 0 else SIDES[::-1]
                for name in first:
                    seconds[name], count, outputs[name] = sides[name].run_chunk(chunk)
                    if round_:
                        per_item[name].append(seconds[name] / count)
                mismatches += outputs["parent"] != outputs["change"]
                digest.update(outputs["change"])
                if round_:
                    ratios.append(seconds["change"] / seconds["parent"])
    scale, unit = (1e6, "us") if mode.items == "document" else (1.0, "s")
    for name in SIDES:
        print(f"{name}: median {scale * statistics.median(per_item[name]):.4g} {unit} "
              f"per {mode.items}")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    lower = sum(ratio < 1.0 for ratio in ratios)
    print(f"change/parent over {len(ratios)} chunks: median {median:.4f}, "
          f"IQR {q1:.4f}-{q3:.4f}, change lower in {lower}/{len(ratios)}")
    if mismatches:
        print(f"error: the sides' outputs differ in {mismatches} chunk(s)", file=sys.stderr)
        return 1
    print(f"outputs identical on both sides (sha256 {digest.hexdigest()[:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
