"""One benchmark process: set up a workload, run its jobs, check them.

Started by run.py, never by hand. The process imports gamblets from
the checkout's src/, builds the workload's inputs and notes the time
it became ready (run.py turns that into setup_s). With --probe it
stops there. Otherwise it runs whole jobs until the next one would end
past --seconds, runs the checks and writes a JSON record to --record.
Peak RSS is read when the first job ends: later jobs reuse freed memory
unevenly, so a reading after them would grow with the number of jobs
that fit in the run.

With --trace 1 the jobs alternate: even jobs run bare, odd jobs run
with every wrapped function traced, so one process yields both the
per-layer split and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def _write(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = _args(argv)
    import gamblets

    if not os.path.abspath(gamblets.__file__).startswith(SRC + os.sep):
        print(f"gamblets imported from {gamblets.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS, Tracer
    from workloads import KNOWN_FAULTS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.run_dir)
    tracer = Tracer() if args.trace else None
    ready = time.monotonic()
    if args.probe:
        _write(args.record, {"ready": ready})
        return 0

    jobs, kept = [], []
    start = time.monotonic()
    while True:
        i = len(jobs)
        traced = tracer is not None and i % 2 == 1
        job = {"job": i, "traced": traced, "error": None}
        if traced:
            tracer.install(i)
        t = time.perf_counter()
        try:
            result = wl.job(i)
        except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
            result, job["error"] = None, traceback.format_exc()
        job["run_s"] = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        if i == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kept.append(None)
        if result is not None:
            try:
                kept[i] = wl.capture(i, result)
            except Exception:  # noqa: BLE001
                job["error"] = traceback.format_exc()
        del result
        jobs.append(job)
        if tracer is not None and len(jobs) < 2:
            continue
        if time.monotonic() - start + job["run_s"] > args.seconds:
            break

    ok_jobs = [i for i, k in enumerate(kept) if k is not None]
    for i, checks in zip(ok_jobs, wl.check([kept[i] for i in ok_jobs])):
        jobs[i]["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    correct = True
    for job in jobs:
        bad = [c for c in job.get("checks", []) if not c["ok"]]
        job["failed"] = job["error"] is not None or bool(bad)
        if job["error"] is not None or any(c["name"] not in KNOWN_FAULTS for c in bad):
            correct = False

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ready": ready,
        "correct": correct,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
    }
    if tracer is not None:
        traced = [j for j in jobs if j["traced"]]
        layer = tracer.layer_metrics(
            [j["job"] for j in traced],
            [j["run_s"] for j in traced],
            [j["run_s"] for j in jobs if not j["traced"]],
        )
        record["layer_metrics"] = {n: {"value": layer[n], "unit": u} for n, u in LAYER_METRICS}
        record["spans"] = tracer.dump()
    _write(args.record, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
