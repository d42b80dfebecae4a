"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each function in WRAPPED by a timing wrapper
in every gamblets module namespace that binds it (for example
`cholesky` in numerics, transform, denoise and graphdenoise), so inner
calls that resolve through those names are timed too. `uninstall`
puts the originals back. No file of the package changes.

A span is (name, start_ns, end_ns, parent index, job). Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

MODULES = ("cli", "hierarchy", "operators", "numerics", "transform", "denoise", "graphdenoise")

# (span name, module, attribute). A span name is "<module>.<stem>"; one
# stem may cover several functions (hierarchy.build, operators.assemble).
WRAPPED = (
    ("cli.main", "cli", "main"),
    ("hierarchy.build", "hierarchy", "build_dyadic"),
    ("hierarchy.build", "hierarchy", "build_from_points"),
    ("hierarchy.to_json", "hierarchy", "Hierarchy.to_json"),
    ("hierarchy.from_json", "hierarchy", "hierarchy_from_json"),
    ("operators.assemble", "operators", "assemble_fem"),
    ("operators.assemble", "operators", "grounded_laplacian"),
    ("operators.overlap", "operators", "measurement_overlap"),
    ("numerics.cholesky", "numerics", "cholesky"),
    ("numerics.solve_spd", "numerics", "solve_spd"),
    ("numerics.extreme_eigs", "numerics", "extreme_eigs"),
    ("numerics.dump_matrix_csv", "numerics", "dump_matrix_csv"),
    ("numerics.load_matrix_csv", "numerics", "load_matrix_csv"),
    ("transform.transform", "transform", "transform"),
    ("transform.validate", "transform", "validate_system"),
    ("transform.analyze", "transform", "analyze"),
    ("transform.reconstruct", "transform", "reconstruct"),
    ("transform.energy_norm", "transform", "energy_norm"),
    ("transform.save", "transform", "save_system"),
    ("transform.load", "transform", "load_system"),
    ("denoise.run_trials", "denoise", "run_trials"),
    ("denoise.tune_threshold", "denoise", "tune_threshold"),
    ("denoise.gen_signal", "denoise", "gen_signal"),
    ("denoise.level_filter", "denoise", "level_filter"),
    ("denoise.hard_threshold", "denoise", "hard_threshold"),
    ("denoise.soft_threshold", "denoise", "soft_threshold"),
    ("denoise.regularize", "denoise", "regularize"),
    ("denoise.errors", "denoise", "errors"),
    ("graphdenoise.denoise_graph", "graphdenoise", "denoise_graph"),
    ("graphdenoise.estimate_H_d", "graphdenoise", "estimate_H_d"),
)

TIMED = (
    "cli.main", "hierarchy.build", "hierarchy.to_json", "operators.assemble", "operators.overlap",
    "numerics.extreme_eigs", "numerics.cholesky", "numerics.dump_matrix_csv", "numerics.load_matrix_csv",
    "transform.transform", "transform.validate", "transform.analyze", "transform.reconstruct",
    "transform.energy_norm", "transform.save", "transform.load",
    "denoise.run_trials", "denoise.tune_threshold", "denoise.gen_signal", "denoise.level_filter",
    "denoise.hard_threshold", "denoise.soft_threshold", "denoise.regularize", "denoise.errors",
    "graphdenoise.denoise_graph", "graphdenoise.estimate_H_d",
)
COUNTED = (
    "hierarchy.to_json", "numerics.extreme_eigs", "numerics.solve_spd", "numerics.cholesky",
    "transform.analyze", "transform.reconstruct", "denoise.gen_signal",
)
SIZES = ("transform.system_mb", "transform.save_mb")

# Every per-layer metric, per job, with its unit.
LAYER_METRICS = (
    [(f"{s}_s", "s") for s in TIMED]
    + [(f"{s}_calls", "count") for s in COUNTED]
    + [(s, "MB") for s in SIZES]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("trace.overhead_s", "s")]
)

MB = 2.0**20


def system_bytes(system) -> int:
    """Bytes held in A/B/R/N of every level and in the hierarchy's pi/W."""
    arrays = system.a_levels + system.b_levels + system.r_levels + system.n_levels
    arrays += system.hier.pi + system.hier.w
    return sum(a.nbytes for a in arrays)


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self._job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if name == "transform.transform":
                self._add_size("transform.system_mb", system_bytes(out))
            elif name == "transform.save":
                self._add_size("transform.save_mb", dir_bytes(args[1] if len(args) > 1 else kwargs["dirpath"]))
            return out

        return traced

    def _add_size(self, metric: str, nbytes: int) -> None:
        per_job = self.sizes.setdefault(self._job, {})
        per_job[metric] = per_job.get(metric, 0.0) + nbytes / MB

    def install(self, job: int) -> None:
        """Wrap every function in WRAPPED wherever a gamblets module binds it."""
        self._job = job
        modules = [m for n, m in sys.modules.items() if n == "gamblets" or n.startswith("gamblets.")]
        for name, mod, attr in WRAPPED:
            home = sys.modules[f"gamblets.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._saved.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()
        self._job = -1

    def job_metrics(self, job: int) -> dict[str, float]:
        """Per-layer metrics of one traced job."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s = {m: 0.0 for m in MODULES}
        child_s: dict[int, float] = {}
        for i, (name, start, end, parent, j) in enumerate(self.spans):
            if j != job:
                continue
            dur = (end - start) / 1e9
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + dur
        for i, (name, start, end, parent, j) in enumerate(self.spans):
            if j == job:
                self_s[name.split(".")[0]] += (end - start) / 1e9 - child_s.get(i, 0.0)
        out = {f"{s}_s": total.get(s, 0.0) for s in TIMED}
        out.update({f"{s}_calls": float(calls.get(s, 0)) for s in COUNTED})
        out.update({s: self.sizes.get(job, {}).get(s, 0.0) for s in SIZES})
        out.update({f"{m}.self_s": v for m, v in self_s.items()})
        return out

    def layer_metrics(self, jobs: list[int], traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
        """Median over the traced jobs of each per-layer metric, plus the tracing overhead."""
        per_job = [self.job_metrics(j) for j in jobs]
        out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        return out

    def dump(self) -> list[list]:
        """Spans with times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [[n, (s - t0) / 1e9, (e - t0) / 1e9, p, j] for n, s, e, p, j in self.spans]
