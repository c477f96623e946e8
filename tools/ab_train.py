"""In-process A/B of desk-shape training between two git revisions.

Unpacks ``src`` of each revision into a temporary directory and imports it
as its own package (``figphm_parent``, ``figphm_change``), so both sides run
in one process, on one heap and one set of BLAS threads. A run builds a PHMD
and a FeatAug model at desk shape (T=16, d=20, F=100, widths 3/4/5, pool 2,
80 examples, batch 64, 25 epochs) and times ``train`` on both. After one
warm-up run per side come 20 pairs of runs, the side that runs first
alternating from pair to pair, and the tool prints each pair's
change/parent ratio, then their minimum and median.

Both sides train from the same seeds, so they must end with the same
parameters: the tool exits 1 if the SHA-256 digests of the trained
parameters differ. Run from the repository root::

    python3 tools/ab_train.py --parent HEAD~1 --change HEAD
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
PAIRS = 20
EPOCHS = 25                 # the desk config's
DOCS = 80                   # the training share of a 120-document, 3-fold cell
SEQ_LEN = 16
DIM = 20
VOCAB = 600


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


class Side:
    """One revision's models and corpora, built from fixed seeds."""

    def __init__(self, package):
        self.package = package
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(VOCAB - 2)]
        self.table = package.random_table(words, DIM, seed=1)
        self.config = package.ModelConfig(max_sequence_length=SEQ_LEN)
        ids = rng.integers(0, VOCAB, size=(DOCS, SEQ_LEN))
        labels = ["PHM" if bit else "NonPHM" for bit in rng.integers(2, size=DOCS)]
        width = package.figurative.feature_row_length(self.config.include_score_feature)
        features = rng.random((DOCS, width))
        self.corpora = (list(zip(ids, labels)), list(zip(ids, labels, features)))

    def run(self) -> tuple[float, str]:
        """Seconds in ``train`` for PHMD then FeatAug, and the digest of
        both models' parameters afterwards."""
        models = (self.package.build_phmd(self.table, self.config, seed=2),
                  self.package.build_feataug(self.table, self.config, seed=3))
        start = time.perf_counter()
        for model, corpus in zip(models, self.corpora):
            self.package.train(model, corpus, epochs=EPOCHS, batch=64, seed=4)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for model in models:
            for param in model.all_parameters():
                digest.update(param.value.tobytes())
        return elapsed, digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="ab-train-") as work:
        sides = {side: Side(load_package(repo, rev, side, Path(work)))
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        for side in sides.values():
            side.run()                                  # warm-up, not counted
        ratios, digests = [], set()
        for i in range(PAIRS):
            seconds = {}
            for name in (SIDES if i % 2 == 0 else SIDES[::-1]):
                seconds[name], digest = sides[name].run()
                digests.add(digest)
            ratios.append(seconds["change"] / seconds["parent"])
            print(f"pair {i}: parent {seconds['parent']:.4f} s, change "
                  f"{seconds['change']:.4f} s, ratio {ratios[-1]:.4f}", flush=True)
    lower = sum(ratio < 1.0 for ratio in ratios)
    print(f"change/parent over {PAIRS} pairs: min {min(ratios):.4f}, "
          f"median {statistics.median(ratios):.4f}, change lower in {lower}/{PAIRS}")
    if len(digests) != 1:
        print("error: the sides' trained parameters differ", file=sys.stderr)
        return 1
    print(f"trained parameters identical on both sides (sha256 {digests.pop()[:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
