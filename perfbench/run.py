"""Benchmark of three gamblets user jobs; prints its metrics as JSON.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): pde1d-mc, pde2d-build, grid32-graph.

Each run starts SETUP_SAMPLES fresh worker processes with the same BLAS
thread count. The first ones only set up and stop; the last one also
runs the jobs for --seconds and checks every job's outputs. setup_s is
the median over those processes of the time from spawning one to its
being ready for the first job. With --trace 0 the last line printed is
{"correct", "attempted", "failed", "metrics"} with run_s, setup_s and
peak_rss_mb; with --trace 1 the metrics are the per-layer ones. The
run's record (jobs, checks and, when traced, every span) is written to
perfbench/out/.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("pde1d-mc", "pde2d-build", "grid32-graph")
# One BLAS thread: with two on a 2-core host, a job's time swings with any
# other load (a grid32-graph job took 13-15 s alone but 47-62 s beside one
# other benchmark process; with one thread, 16-19 s alone and 15.6-17.5 s beside).
BLAS_THREADS = 1
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env["GAMBLET_LOG"] = "WARNING"
    return env


def _spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, int]:
    """Run one worker to its end; its output goes to stderr. Returns (spawn time, exit code)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    try:
        return t0, proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return t0, -9
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the worker is killed and reaped
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "gamblets", "__init__.py")):
        print(f"no gamblets package under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    record_path = os.path.join(OUT, f"{tag}.json")
    os.makedirs(run_dir)
    env = _env()
    base = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", run_dir,
    ]
    setup = []
    try:
        for k in range(SETUP_SAMPLES):
            probe = k < SETUP_SAMPLES - 1
            path = os.path.join(run_dir, f"probe{k}.json") if probe else record_path
            t0, rc = _spawn(base + ["--record", path] + (["--probe"] if probe else []), env, deadline)
            if rc != 0:
                print(f"worker exited with {rc}", file=sys.stderr)
                return 1
            with open(path) as fh:
                record = json.load(fh)
            setup.append(record["ready"] - t0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    jobs = record["jobs"]
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, BLAS threads {BLAS_THREADS}")
    for job in jobs:
        line = f"  job {job['job']}{' traced' if job['traced'] else ''}: {job['run_s']:.3f} s"
        print(line + (" FAILED" if job["failed"] else ""))
        if job["error"]:
            print("    " + job["error"].strip().splitlines()[-1])
        for c in job.get("checks", []):
            if not c["ok"]:
                print(f"    check {c['name']} failed: {c['detail']}")
    if args.trace:
        metrics = record["layer_metrics"]
    else:
        metrics = {
            "run_s": {"value": statistics.median(j["run_s"] for j in jobs), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": record["correct"],
        "attempted": len(jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
