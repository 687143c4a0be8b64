#!/usr/bin/env python3
"""The csma_game benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout of the repository and uses the program in
its ``src/``; nothing is installed. Steps, each in its own fresh process with
one thread per numerical library:

1. ``--trace 0`` only: five set-up probes, two before the worker and three
   after it, each importing ``csma_game`` and generating the inputs;
   ``setup_s`` is their median wall time.
2. The worker (``worker.py``) runs whole rounds of the workload for
   ``--seconds`` and reports the best round's time (each operation's fastest
   call, summed) and its peak RSS; with
   ``--trace 1`` it alternates untraced and traced rounds and reports the
   per-layer metrics instead.
3. The checker (``check.py``) compares the first round's outputs with
   independent reference computations; later rounds must match the first.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. A copy with per-round
times and the checker's findings goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def python(script: str, args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a benchmark script in a fresh interpreter; raises if it fails or times out."""
    return subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "csma_game" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'csma_game'} is missing", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - start)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count if not args.trace else 0):
            t0 = time.perf_counter()
            python("worker.py", [*common, "--setup-only"], remaining())
            setups.append(time.perf_counter() - t0)

    try:
        # Probes before and after the worker see the machine at two moments.
        probe_setup(SETUP_PROBES // 2)
        python("worker.py", [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--work", str(work)], remaining())
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        measured = json.loads((work / "worker.json").read_text())
        verdict = json.loads(python("check.py", [*common, "--work", str(work)], remaining()).stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if measured["mismatched_rounds"]:
        verdict["problems"].append(f"{measured['mismatched_rounds']} rounds did not reproduce the first round")
    rounds = measured["rounds"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = measured["layers"]
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": measured["wall_s"],
                  "peak_rss_mb": measured["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    result = {
        "correct": not verdict["problems"],
        "attempted": measured["ops_per_round"] * rounds,
        "failed": len(verdict["failed"]) * rounds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "setup_probes_s": setups, "worker": measured, "checker": verdict}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    for line in verdict["problems"][:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
