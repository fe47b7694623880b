"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 proxbench/run.py --workload inclusions --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each call starts fresh worker processes with
the BLAS thread counts pinned to 1 before numpy loads.  With --trace 0 it
first starts SETUP_SAMPLES - 1 set-up-only workers, then the measuring
worker, and reports the median set-up time of all of them together with the
measuring worker's throughput, latency and peak memory.  With --trace 1 one
worker reports the per-layer metrics instead.  The last stdout line is the
result; a copy with the environment goes to proxbench/out/.  Uses the
standard library only, so it can report a missing program before importing
anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("inclusions", "radius", "schemes", "cross_check")
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PROXLAB_SEED", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, role, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--scratch", str(OUT / "scratch")]
    proc = subprocess.run(cmd, cwd=str(HERE), env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "proxlab" / "__init__.py").is_file():
        print(f"error: no proxlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(args, "setup", timeout=60)["setup_s"])
        main_run = start_worker(args, "main", timeout=args.seconds + 100)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = main_run["metrics"]
    if not args.trace:
        setups.append(main_run["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {"correct": main_run["correct"], "attempted": main_run["attempted"],
              "failed": main_run["failed"], "metrics": metrics}

    for line in main_run["problems"] + main_run["errors"]:
        print(f"# {line}", file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=main_run["env"], setup_samples=setups,
                  passes=main_run["passes"], timed_ops=main_run["timed_ops"])
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(main_run["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
