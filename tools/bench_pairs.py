"""Interleaved parent/change benchmark pairs, written as ``BENCH_<pr>.json``.

Builds each side's tree from a git revision (``src``, ``tests``,
``perfbench``, ``BENCHMARK.json``, ``pyproject.toml`` and ``README.md``) and
runs ``perfbench/run.py --trace 0`` in pairs: one seed per pair, every
workload in turn within a pair, the side that runs first alternating from
pair to pair (parent first in even pairs). Every run gets a fresh copy of
its tree in a new directory, and runs go one process at a time. After the
pairs come the Tier-1 runs, interleaved the same way, each in a fresh copy.

There are 10 pairs with seeds ``100 * pr + 1`` on, each run measures for the
parent's ``BENCHMARK.json`` ``run_seconds`` at full scale, and each side gets
3 Tier-1 runs. The JSON is rewritten after every pair, so an interrupted run
keeps what it measured; notes are added by editing it. Run from the
repository root::

    python3 tools/bench_pairs.py --parent c3146c8 --change HEAD --pr 18

For every end-to-end metric the summary gives each side's median and
quartiles, the ratio of the medians, how many pairs the change won, and the
median and quartiles of the per-pair change/parent ratios (``pair_ratio``).
A pair shares its seed and its moment on the host, so its ratio cancels much
of the drift that widens each side's own spread.

Each metric also gets the benchmark's ``verdict``, which the tool prints at
the end:

- ``claim_met``: the change is better in at least 9 of 10 pairs, and its
  median is past the parent's by more than the parent's IQR. A claimed gain
  must read so. On a metric whose parent runs split into two modes, a 0.80x
  cut does not.
- ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound, as a share of the
  parent's median.
- ``unresolved``: neither.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

TREE = ("src", "tests", "perfbench", "BENCHMARK.json", "pyproject.toml", "README.md")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
RUN_TIMEOUT_S = 900
PAIRS = 10
TIER1_RUNS = 3
CLAIM_SHARE = 0.9           # of the pairs that a claimed gain must win
SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


class Tree:
    """One side's files at a revision, unpacked into a new directory per run."""

    def __init__(self, repo: Path, rev: str, work: Path):
        self.rev = git(repo, "rev-parse", "--short", rev).decode().strip()
        self.archive = git(repo, "archive", "--format=tar", rev, *TREE)
        self.work = work

    def fresh_copy(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix=f"{self.rev}-", dir=self.work))
        with tarfile.open(fileobj=io.BytesIO(self.archive)) as tar:
            tar.extractall(path, filter="data")
        return path


def run_in_copy(tree: Tree, cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    path = tree.fresh_copy()
    try:
        return subprocess.run(cmd, cwd=path, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def bench_run(tree: Tree, workload: str, seed: int) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run: its result JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_in_copy(tree, cmd, env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.rev} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tier1_run(tree: Tree) -> str:
    """The summary line pytest prints last, such as ``594 passed in 53.98s``."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = run_in_copy(tree, TIER1, env)
    lines = proc.stdout.strip().splitlines()
    return lines[-1].strip("= ") if lines else f"no output (exit {proc.returncode})"


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in runs]}


def summarise(spec: dict, seeds: list[int], results: dict) -> dict:
    """One workload's entry of ``final_tree`` from each side's run results."""
    entry = {"seeds": seeds,
             "first_in_pair": [SIDES[i % 2] for i in range(len(seeds))],
             "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
             "failed_over_attempted": {
                 side: f"{sum(r['failed'] for r in results[side])}/"
                       f"{sum(r['attempted'] for r in results[side])}" for side in SIDES},
             "metrics": {}}
    if len(seeds) < 2:
        return entry
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        lower = metric["better"] == "lower"
        better = sum(1 for p, c in zip(runs["parent"], runs["change"])
                     if (c < p if lower else c > p))
        entry["metrics"][name] = {
            "bound": metric["bound"], "unit": metric["unit"],
            **{side: quartiles(runs[side]) for side in SIDES},
            "ratio": round(statistics.median(runs["change"])
                           / statistics.median(runs["parent"]), 4),
            f"change_{'lower' if lower else 'higher'}": f"{better}/{len(seeds)}",
            "pair_ratio": pair_ratio(runs),
            "verdict": verdict(runs, lower, metric["bound"], better)}
    return entry


def verdict(runs: dict, lower: bool, bound: float, better: int) -> str:
    """The benchmark's reading of one metric (see the module docstring);
    ``better`` counts the pairs the change won."""
    q1, parent, q3 = statistics.quantiles(runs["parent"], n=4, method="inclusive")
    change = statistics.median(runs["change"])
    gain = parent - change if lower else change - parent
    if better >= CLAIM_SHARE * len(runs["parent"]) and gain > q3 - q1:
        return "claim_met"
    if -gain > bound * parent:
        return "worse_than_bound"
    return "unresolved"


def pair_ratio(runs: dict) -> dict:
    """Median, quartiles and IQR of the per-pair change/parent ratios."""
    summary = quartiles([c / p for p, c in zip(runs["parent"], runs["change"], strict=True)])
    summary["iqr"] = round(summary["q3"] - summary["q1"], 4)
    return summary


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"{os.cpu_count()} vCPU {platform.machine()}, {blas.get('name', '?')} "
            f"{blas.get('version', '?')}, numpy {np.__version__}, "
            f"Python {platform.python_version()}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pr", type=int, required=True,
                        help="names BENCH_<pr>.json and sets the seeds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    out = repo / f"BENCH_{args.pr}.json"
    seeds = list(range(100 * args.pr + 1, 100 * args.pr + 1 + PAIRS))
    spec = json.loads(git(repo, "show", f"{args.parent}:BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {"parent": Tree(repo, args.parent, Path(work)),
                 "change": Tree(repo, args.change, Path(work))}
        record = {
            "change": "; ".join(git(repo, "log", "--reverse", "--format=%s",
                                    f"{args.parent}..{args.change}").decode().splitlines()),
            "parent_commit": trees["parent"].rev,
            "change_commit": trees["change"].rev,
            "command": "python3 perfbench/run.py --workload <w> --seed <s> --trace 0, "
                       f"run_seconds {spec['run_seconds']}",
            "method": f"interleaved pairs made by tools/bench_pairs.py, one seed per pair "
                      f"({seeds[0]}-{seeds[-1]}), each run from a fresh copy of its tree "
                      f"({', '.join(TREE)}) in a new directory, one process at a time, the "
                      f"side that runs first alternating from pair to pair (parent first in "
                      f"even pairs), the workloads in turn within a pair; quartiles are "
                      f"statistics.quantiles(method='inclusive'); ratio = change median / "
                      f"parent median; pair_ratio = median and quartiles of the per-pair "
                      f"change/parent ratios, iqr = q3 - q1",
            "hardware": environment(),
            "claim": None,
            "final_tree": {},
        }
        results = {w: {side: [] for side in SIDES} for w in workloads}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    start = time.monotonic()
                    result = bench_run(trees[side], workload, seed)
                    results[workload][side].append(result)
                    print(f"pair {i} seed {seed} {workload} {side}: "
                          f"pass_s {result['metrics']['pass_s']['value']:.4f} "
                          f"({time.monotonic() - start:.0f} s)", file=sys.stderr, flush=True)
            record["final_tree"] = {w: summarise(spec, seeds[:i + 1], results[w])
                                    for w in workloads}
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

        tier1 = {side: [] for side in SIDES}
        for i in range(TIER1_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                tier1[side].append(tier1_run(trees[side]))
                print(f"tier-1 run {i} {side}: {tier1[side][-1]}", file=sys.stderr,
                      flush=True)
        record["tier1"] = {
            "command": "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]]),
            "runs": f"{TIER1_RUNS} per side, interleaved (parent first in even runs), "
                    f"after the benchmark pairs, each in a fresh copy of its tree; "
                    f"wall_s is the time pytest reports"}
        for side in SIDES:
            wall = [float(m.group(1)) for line in tier1[side]
                    if (m := re.search(r" in ([\d.]+)s", line))]
            record["tier1"][side] = {"passed_line": tier1[side], "wall_s": wall,
                                     "median_wall_s": statistics.median(wall)
                                     if wall else None}
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, entry in record["final_tree"].items():
        for name, summary in entry["metrics"].items():
            print(f"{workload} {name}: {summary['verdict']} (ratio {summary['ratio']}, "
                  f"pair ratio {summary['pair_ratio']['median']})", file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
