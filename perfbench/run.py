"""figphm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Run from the repository root; the program is imported from ``src/`` next to
this directory. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json and ``--trace 1`` its per-layer metrics (the traced run
alternates untraced and traced passes, so it also reports the tracing
overhead). Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and results are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 170

# ROADMAP-named figures printed per workload (key in Pass.summary -> unit).
SUMMARY_UNITS = {"sweep_s": "s", "train_ms_per_ex": "ms", "train_frozen_ms_per_ex": "ms",
                 "predict_ms_per_ex": "ms", "prep_s": "s", "detector_ms_per_doc": "ms"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no BENCHMARK.json)."""


def import_program():
    """Import figphm from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "figphm" / "__init__.py").is_file():
        raise SetupError(f"no figphm package under {src}")
    sys.path.insert(0, str(src))
    import figphm
    if Path(figphm.__file__).resolve().parent != (src / "figphm").resolve():
        raise SetupError(f"figphm imported from {figphm.__file__}, not {src}")
    return figphm


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found next to {BENCH_DIR.name}/")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# environment

def _blas_threads() -> int | None:
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# one workload in this process

def setup_probe(workload: str, seed: int, scale: str, work: Path) -> float:
    """Wall seconds of a fresh process that imports figphm and does the
    workload's set-up: process start, import and construction."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--scale", scale, "--work", str(work)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    elapsed = perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    from spans import SETUP_RUN, SpanStats, Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    params = workload.scales[scale]
    work = WORK_ROOT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    passes, traced_flags, forward_counts = [], [], []
    checks: list[tuple[str, bool]] = []
    try:
        setup_s = [setup_probe(name, seed, scale, work / f"probe{k}")
                   for k in range(SETUP_REPEATS)]
        if tracer:
            tracer.install(SETUP_RUN)
        try:
            state = workload.setup(work / "main", seed, params)
        finally:
            if tracer:
                tracer.uninstall()
        min_passes = max(workload.min_passes, 2 if trace else 1)
        persistent: list = []
        start = perf_counter()
        # Start another pass only if it should end within --seconds.
        while len(passes) < min_passes or (
                perf_counter() - start + statistics.median(p.pass_s for p in passes) <= seconds):
            index = len(passes)
            traced = bool(tracer) and index % 2 == 1
            if traced:
                before = {id(m): m.forward_count for m in persistent}
                tracer.install(index + 1)
            try:
                result = workload.run_pass(state, index)
            except Exception:  # noqa: BLE001 - a library failure is a failed check
                checks.append((f"pass {index} raised: {traceback.format_exc(limit=3)}", False))
                break
            finally:
                if traced:
                    tracer.uninstall()
            persistent = result.models
            if traced:
                built = [m for run, m in tracer.models if run == index + 1]
                forward_counts.append(
                    sum(m.forward_count - before.get(id(m), 0) for m in persistent)
                    + sum(m.forward_count for m in built
                          if all(m is not p for p in persistent)))
            passes.append(result)
            traced_flags.append(traced)
            checks += result.checks
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()           # only when no other run is using it
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(n for n, _ in checks))

    untraced = [p for p, t in zip(passes, traced_flags) if not t]
    traced_passes = [p for p, t in zip(passes, traced_flags) if t]
    e2e = {
        "pass_s": statistics.median(p.pass_s for p in untraced),
        "fit_us_per_item": statistics.median(x for p in untraced for x in p.fit_us),
        "read_us_per_item": statistics.median(x for p in untraced for x in p.read_us),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {key: statistics.median(p.summary[key] for p in untraced)
               for key in untraced[0].summary}
    out = {"e2e": e2e, "summary": summary, "checks": checks,
           "passes": len(passes), "setup_samples": setup_s}
    if tracer:
        OUT_ROOT.mkdir(exist_ok=True)
        tracer.write(OUT_ROOT / f"spans-{name}.npz")
        stats = SpanStats(tracer, len(traced_passes))
        overhead = (statistics.median(p.pass_s for p in traced_passes)
                    / statistics.median(p.pass_s for p in untraced)) if traced_passes else 0.0
        out["layers"] = layer_metrics(stats, tracer, traced_passes, forward_counts, overhead)
    return out


def layer_metrics(stats, tracer, traced_passes, forward_counts, overhead) -> dict:
    """Per-layer values per traced pass (set-up spans counted once)."""
    import numpy as np
    n = max(1, len(traced_passes))
    v: dict[str, float] = {}
    conv_busy = 0.0
    for base in ("conv1d", "conv1d_backward"):
        for width in range(2, 6):
            name = f"neuralnet.{base}.w{width}"
            v[f"{name}.s"] = stats.busy_s(name)
            v[f"{name}.calls"] = stats.calls(name)
            conv_busy += v[f"{name}.s"]
    for base in ("maxpool1d", "maxpool1d_backward", "make_dropout_mask", "relu",
                 "relu_backward", "dense", "dense_backward", "bce", "adam_step"):
        v[f"neuralnet.{base}.s"] = stats.busy_s(f"neuralnet.{base}")
        v[f"neuralnet.{base}.calls"] = stats.calls(f"neuralnet.{base}")
    gflop = tracer.conv_flop / 1e9 / n
    v["neuralnet.conv.gflop"] = gflop
    v["neuralnet.conv.gflop_per_s"] = gflop / conv_busy if conv_busy else 0.0

    v["phm.loss_and_grad.self_s"] = stats.self_s("phm.loss_and_grad")
    v["phm.loss_and_grad.calls"] = stats.calls("phm.loss_and_grad")
    v["phm.train.s"] = stats.busy_s("phm.train")
    v["phm.predict.s"] = stats.busy_s("phm.predict")
    predict = stats.durations("phm.predict")
    v["phm.predict.p50_ms"] = 1e3 * float(np.percentile(predict, 50)) if predict.size else 0.0
    v["phm.predict.p99_ms"] = 1e3 * float(np.percentile(predict, 99)) if predict.size else 0.0
    v["phm.build.s"] = stats.busy_s("phm.build")
    v["phm.forward_count"] = statistics.mean(forward_counts) if forward_counts else 0.0

    v["embeddings.cosine.calls"] = stats.calls("embeddings.cosine")
    for base in ("load_table", "retrofit", "nearest_neighbors", "random_table", "project_table"):
        v[f"embeddings.{base}.s"] = stats.busy_s(f"embeddings.{base}")
    v["embeddings.nearest_neighbors.calls"] = stats.calls("embeddings.nearest_neighbors")
    sweeps = sum(p.retrofit_sweeps for p in traced_passes) / n
    v["embeddings.retrofit.sweep_s"] = v["embeddings.retrofit.s"] / sweeps if sweeps else 0.0

    v["figurative.detector_init.s"] = stats.busy_s("figurative.detector_init")
    for base in ("verdict", "literal_usage_score", "pos_tag", "extract_features", "lda_estimate"):
        v[f"figurative.{base}.s"] = stats.busy_s(f"figurative.{base}")
    updates = sum(p.lda_token_updates for p in traced_passes) / n
    v["figurative.lda.us_per_token"] = (1e6 * v["figurative.lda_estimate.s"] / updates
                                        if updates else 0.0)
    v["figurative.planted_agreement"] = (statistics.mean(p.planted_agreement
                                                         for p in traced_passes)
                                         if traced_passes else 0.0)

    v["harness.run_experiment.self_s"] = stats.self_s("harness.run_experiment")
    for base in ("stratified_kfold", "build_detector", "build_spec_table"):
        v[f"harness.{base}.s"] = stats.busy_s(f"harness.{base}")
    v["corpus.load_dataset.s"] = stats.busy_s("corpus.load_dataset")
    v["corpus.pad.s"] = stats.busy_s("corpus.pad")
    v["trace_overhead"] = overhead
    return v


def result_line(spec: dict, outcome: dict, trace: bool) -> dict:
    """The final JSON object: every metric BENCHMARK.json names for this mode."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome["layers"] if trace else outcome["e2e"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    failed = sum(1 for _, ok in outcome["checks"] if not ok)
    return {"correct": failed == 0, "attempted": len(outcome["checks"]), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def print_summary(name: str, outcome: dict, spec: dict, env: dict) -> None:
    checks = outcome["checks"]
    failed = sum(1 for _, ok in checks if not ok)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"== {name}: {outcome['passes']} passes, setup samples "
          + ", ".join(f"{s:.3f}" for s in outcome["setup_samples"]) + " s")
    for key, value in outcome["summary"].items():
        print(f"  {key:<24} {value:12.4f} {SUMMARY_UNITS[key]}")
    for key in ("setup_s", "peak_rss_mb"):
        print(f"  {key:<24} {outcome['e2e'][key]:12.4f} {units[key]}")
    print(f"  {'failed_frac':<24} {failed / len(checks):12.4f} ratio ({failed}/{len(checks)} checks)")
    for key in ("pass_s", "fit_us_per_item", "read_us_per_item"):
        print(f"  {key:<24} {outcome['e2e'][key]:12.4f} {units[key]}")
    for check, ok in checks:
        if not ok:
            print(f"  FAILED: {check}")
    print("env " + json.dumps(env, sort_keys=True))


# ---------------------------------------------------------------------------
# every workload, one process each

def run_all(args, spec: dict) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec_workloads(spec):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in spec_workloads(spec):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        workload.setup(args.work, args.seed, workload.scales[args.scale])
        return 0

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    env = environment()
    print_summary(args.workload, outcome, spec, env)
    result = result_line(spec, outcome, bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": env,
              "summary": outcome["summary"], "result": result,
              "failed_checks": [n for n, ok in outcome["checks"] if not ok]}
    (OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
