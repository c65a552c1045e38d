"""End-to-end and per-layer benchmark of the Colza reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grayscott_static --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics. Every workload runs in fresh worker interpreters
(``worker.py``) with NumPy's BLAS held to one thread. The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None

#: Worker processes that measure set-up time in one ``--trace 0`` run
#: (the measuring worker plus set-up-only workers); setup_s is their median.
SETUP_SAMPLES = 3
#: Host seconds one worker may take before the run is abandoned.
WORKER_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, seconds: float, traced: bool,
               setup_only: bool = False, toy: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # String hashing is randomized per process, and with it dict and set
    # layout: worker timings then differ by several percent from one
    # process to the next. The simulation itself is hash-independent.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--traced", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(samples):
    """The highest whole percentile that still has at least ten samples
    above it (nearest-rank), its value, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n


def end_to_end(workload: str, seed: int, seconds: float, toy: bool):
    main = run_worker(workload, seed, seconds, traced=False, toy=toy)
    starts = [main] + [
        run_worker(workload, seed, 0, traced=False, setup_only=True, toy=toy)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    setups = [w["setup_s"] for w in starts]
    pct, tail, n = tail_percentile(main["iter_ms"])
    metrics = {
        "iters_per_s": main["iterations"] / main["timed_s"],
        "iter_wall_ms_p50": statistics.median(main["iter_ms"]),
        "iter_wall_ms_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ops_ok_frac": 1.0 - main["failed"] / main["attempted"],
    }
    raw_p50 = statistics.median(main["iter_raw_ms"])
    notes = {
        "iters_per_s": f"raw {main['iterations'] / main['timed_raw_s']:.4g}",
        "iter_wall_ms_tail": f"p{pct} of {n} samples",
        "iter_wall_ms_p50": f"{n} samples, {main['episodes']} episodes; raw {raw_p50:.4g}",
        "setup_s": (f"median of {len(setups)} worker starts; "
                    f"raw {statistics.median(w['setup_raw_s'] for w in starts):.4g}"),
        "ops_ok_frac": (f"ops_failed_frac = {main['failed'] / main['attempted']:.4g} "
                        f"({main['failed']} of {main['attempted']} attempted)"),
    }
    return [main], metrics, notes, []


def per_layer(workload: str, seed: int, seconds: float, toy: bool):
    plain = run_worker(workload, seed, seconds / 2, traced=False, toy=toy)
    traced = run_worker(workload, seed, seconds / 2, traced=True, toy=toy)
    wrong = []
    shared = sorted(set(plain["exact"]) & set(traced["exact"]))
    differing = [k for k in shared if plain["exact"][k] != traced["exact"][k]]
    if differing or plain["digest"] != traced["digest"]:
        wrong.append(f"traced run perturbed the simulation: {differing or ['IterationTiming']}")
    n = traced["iterations"] or 1
    # Layer self time per timed iteration; apps runs in set-up, so total.
    metrics = {f"{layer}.self_ms": ms if layer == "apps" else ms / n
               for layer, ms in traced["layer_ms"].items()}
    metrics.update(traced["exact"])
    resize_ms = traced["resize_ms"]
    metrics["core.resize_host_ms_p50"] = statistics.median(resize_ms) if resize_ms else 0.0
    metrics["trace_overhead_frac"] = (
        statistics.median(traced["iter_ms"]) / statistics.median(plain["iter_ms"]) - 1)
    return [plain, traced], metrics, {}, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Colza end-to-end / per-layer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if BENCHMARK is None:
        print("BENCHMARK.json not found next to perfbench/", file=sys.stderr)
        return 2
    names = [w["name"] for w in BENCHMARK["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            workers, metrics, notes, wrong = per_layer(args.workload, args.seed, args.seconds, args.toy)
            declared = BENCHMARK["per_layer"]
        else:
            workers, metrics, notes, wrong = end_to_end(args.workload, args.seed, args.seconds, args.toy)
            declared = BENCHMARK["end_to_end"]
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    for worker in workers:
        wrong += worker["wrong"]
        for line in worker["errors"]:
            print(f"failed operation: {line}", file=sys.stderr)
    for line in wrong:
        print(f"wrong output: {line}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    width = max(len(m["name"]) for m in declared)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for m in declared:
        note = notes.get(m["name"], "")
        print(f"{m['name']:<{width}}  {metrics[m['name']]:>14.6g} {m['unit']:<10} {note}".rstrip())
    result = {
        "correct": not wrong,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
