"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that each
metric BENCHMARK.json names is emitted with its unit; checks that a corrupted
``report.tsv`` is counted as a failed check rather than passed; and checks
that a directory holding only BENCHMARK.json and the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the benchmark entry point, imported from this directory)

SEED = 1
TIMEOUT_S = 300


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def check_every_metric(spec: dict) -> None:
    for workload in run.spec_workloads(spec):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--scale", "tiny"], ROOT)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, proc.stdout)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in declared}, (workload, trace)
            for m in declared:
                value = metrics[m["name"]]
                assert value["unit"] == m["unit"], (workload, m["name"], value)
                assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
                if trace == 0:
                    assert value["value"] > 0, (workload, m["name"], value)
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} checks")


def check_corruption_counted(spec: dict) -> None:
    from figphm.harness import ExperimentReport, Metrics
    from workloads import desk_report_checks
    overall = {("phmd", "e"): Metrics(5, 5, 5, 5), ("pipeline", "e"): Metrics(6, 2, 4, 8),
               ("feataug", "e"): Metrics(8, 2, 2, 8)}
    text = ExperimentReport(approaches=["phmd", "pipeline", "feataug"], embeddings=["e"],
                            overall=overall, per_disease={}, diseases=[],
                            seed=1, folds=3).to_structured()
    assert all(ok for _, ok in desk_report_checks([text, text])), "intact report must pass"
    for corrupt in (text[:len(text) // 2], text.rsplit("\n", 2)[0] + "\n", ""):
        checks = desk_report_checks([text, corrupt])
        outcome = {"checks": checks, "e2e": {m["name"]: 1.0 for m in spec["end_to_end"]}}
        result = run.result_line(spec, outcome, trace=False)
        assert result["failed"] >= 1 and not result["correct"], (corrupt[-40:], checks)
    print("ok  corrupted report.tsv counted in failed")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "desk-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok  bare directory exits non-zero without a result")


def main() -> int:
    spec = run.load_spec()
    run.import_program()
    check_corruption_counted(spec)
    check_bare_directory_fails()
    check_every_metric(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
