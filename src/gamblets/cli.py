"""Command-line entry point.

Subcommands:

* ``transform`` builds a gamblet system for a PDE problem and stores it
  (skipping the work when the output directory already holds a system
  built from the same configuration and, for a coefficient CSV, the
  same file bytes).
* ``denoise`` runs the estimator comparison on a PDE problem.
* ``graph`` runs the graph pipeline on a file or synthetic grid graph.
  Both write system/, results.csv, realization0.csv and manifest.json
  through one writer; each passes its geometry columns and its extra
  manifest fields.
* ``selftest`` runs four quick checks of the pipeline on small problems:
  the analyze/reconstruct round trip, the multilevel solve against a
  Cholesky solve, a worked level selection and the regularizer's
  stationarity.

Options of ``transform``, ``denoise`` and ``graph`` come from the
defaults, then an optional ``key = value`` config file, then flags;
later sources win. One table, ``OPTIONS``, declares each option once:
its type, the subcommands that read it, its default, its help and its
choices. A subcommand accepts exactly those flags and config keys, a
config value outside the choices is refused as a flag's would be, and
the manifest's ``config`` records exactly those keys with the values
the run used. ``sigma`` and ``sigma_rms``, and ``graph_file`` and
``synthetic_grid``, exclude each other: giving one drops the other's
default, giving both is an error. Every other value is checked by the
library call that reads it, and each subcommand makes that call before
any work. ``selftest`` takes no options. Every output file is written
deterministically (fixed float formatting, sorted JSON keys, no
timestamps), so reruns with identical inputs and the same BLAS thread
count are byte-identical; a different thread count can change the last
digits of the numbers. The ``GAMBLET_LOG`` environment variable sets the
logging level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys as _sys
from typing import NamedTuple

import numpy as np

from . import denoise as dn
from .errors import BadConfig, GambletError
from .graphdenoise import denoise_graph
from .hierarchy import build_dyadic
from .numerics import load_matrix_csv
from .operators import (
    assemble_fem,
    coeff_1d,
    coeff_2d,
    coeff_from_cells,
    coeff_unit,
    load_graph,
    synthetic_grid,
)
from .transform import _file_sha256, save_system, transform, verify_system

log = logging.getLogger("gamblets")

_DIMS = {"pde-1d": 1, "pde-2d": 2}


class _Option(NamedTuple):
    key: str
    type: type
    commands: tuple[str, ...]
    default: object
    help: str
    choices: tuple[str, ...] | None = None


_ALL = ("transform", "denoise", "graph")
_RUNS = ("denoise", "graph")
_PDE = ("transform", "denoise")

# Every option of every subcommand: its flag is --key (with '-' for '_'),
# its config-file key is key, and only the listed subcommands accept it.
# A None default means the option is not given.
OPTIONS = (
    _Option("out", str, _ALL, "out", "output directory"),
    _Option("q", int, _ALL, 4, "number of hierarchy levels"),
    _Option("seed", int, _RUNS, 1, "base seed for all randomness"),
    _Option("trials", int, _RUNS, 8, "number of noise realizations"),
    _Option("sigma", float, _RUNS, 1e-3, "noise standard deviation"),
    _Option("problem", str, _PDE, "pde-1d", "problem kind; graphs go through the graph subcommand", tuple(_DIMS)),
    _Option("coefficient", str, _PDE, "rough", "conductivity: 'rough', 'unit', or a CSV of per-cell values"),
    _Option("bound", float, ("denoise",), 1.0, "prior bound M on the source energy"),
    _Option("signal", str, ("denoise",), None, "signal model, random-sphere if not given", dn.SIGNAL_MODES),
    _Option("methods", str, ("denoise",), None, "comma-separated method subset, all if not given"),
    _Option("t0", float, ("denoise",), None, "fixed threshold base (skips tuning)"),
    _Option("confidence", float, ("denoise",), 0.95, "regularization confidence level"),
    _Option("graph_file", str, ("graph",), None, "plain-text graph file (header 'N M')"),
    _Option("synthetic_grid", int, ("graph",), None, "n for an n x n grid graph"),
    _Option("ground", int, ("graph",), 0, "index of the grounded vertex"),
    _Option("sigma_rms", float, ("graph",), None, "sigma as a multiple of the signal RMS"),
)
_DEFAULTS = {cmd: {o.key: o.default for o in OPTIONS if cmd in o.commands} for cmd in _ALL}
_BY_KEY = {o.key: o for o in OPTIONS}
# Pairs of keys that set one thing two ways; giving both is an error.
_EXCLUSIVE = (("sigma", "sigma_rms"), ("graph_file", "synthetic_grid"))


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadConfig(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            opt = _BY_KEY.get(key)
            if opt is None:
                raise BadConfig(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = opt.type(val)
            except ValueError:
                raise BadConfig(f"{path}:{lineno}: bad value {val!r} for key {key!r}") from None
            if opt.choices is not None and values[key] not in opt.choices:
                raise BadConfig(f"{path}:{lineno}: {key} must be one of {opt.choices}, got {val!r} ({opt.help})")
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand's options: the table defaults, then the config file, then the flags.

    A config key the subcommand does not read raises. Giving either key
    of an exclusive pair drops the other's default; giving both raises.
    """
    cfg = dict(_DEFAULTS[args.command])
    given = parse_config_file(args.config) if args.config else {}
    for key in given:
        if key not in cfg:
            raise BadConfig(f"{args.config}: config key {key!r} is not read by the {args.command} subcommand")
    given.update((key, getattr(args, key)) for key in cfg if getattr(args, key) is not None)
    for pair in _EXCLUSIVE:
        named = [key for key in pair if key in given]
        if len(named) == 2:
            raise BadConfig(f"{pair[0]} and {pair[1]} exclude each other; give one of them")
        if named:
            cfg.update((key, None) for key in pair if key in cfg)
    cfg.update(given)
    return cfg


# ---------------------------------------------------------------------------
# Problem construction.

def _coefficient(name: str, dim: int):
    if name == "unit":
        return coeff_unit(dim)
    if name == "rough":
        return coeff_1d() if dim == 1 else coeff_2d()
    values = load_matrix_csv(name)
    return coeff_from_cells(values if dim == 2 else values.ravel(), dim)


def _build_pde(cfg: dict):
    dim = _DIMS[cfg["problem"]]
    hier = build_dyadic(dim, cfg["q"])
    field = _coefficient(cfg["coefficient"], dim)
    op = assemble_fem(field, hier)
    return field, hier, op


# ---------------------------------------------------------------------------
# Deterministic output helpers.

def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n")


def _write_results_csv(path, stats: dn.TrialStats) -> None:
    names = [f.name for f in dataclasses.fields(dn.MethodStats)]
    rows = ([m, *(_fmt(getattr(stats.stats[m], n)) for n in names)] for m in stats.methods)
    _write_csv(path, ["method", *names], rows)


def _write_realization_csv(path, columns: dict[str, np.ndarray]) -> None:
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    _write_csv(path, list(columns), ([_fmt(v) for v in row] for row in table))


def _stats_record(stats: dn.TrialStats) -> dict:
    record = dataclasses.asdict(stats)
    del record["first_realization"]
    return record


def _print_stats(stats: dn.TrialStats) -> None:
    print(f"level l = {stats.level}, {stats.n_trials} trials, seed {stats.seed}")
    for m in stats.methods:
        s = stats.stats[m]
        print(
            f"  {m:<15s} energy {s.energy_avg:.6e} +- {s.energy_std:.2e}   "
            f"l2 {s.l2_avg:.6e} +- {s.l2_std:.2e}"
        )
    print(
        f"  {'noise':<15s} energy {stats.noise_energy_avg:.6e} +- {stats.noise_energy_std:.2e}"
    )


def _write_run(
    cfg: dict, command: str, system, stats: dn.TrialStats,
    geometry: dict[str, np.ndarray], extra: dict,
) -> None:
    """Write a run's system/, results.csv, realization0.csv and manifest.json.

    realization0.csv holds the geometry columns, then the first trial's
    f, u, eta and its level-filter recovery (the first method's when the
    level filter did not run) with that recovery's error. The manifest
    holds the config, `extra`, the output names and the statistics.
    """
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    save_system(system, os.path.join(out, "system"))
    _write_results_csv(os.path.join(out, "results.csv"), stats)
    real = stats.first_realization
    rec = real["recoveries"].get("level-filter")
    if rec is None:
        rec = real["recoveries"][stats.methods[0]]
    columns = dict(geometry)
    columns.update(
        f=real["f"], u=real["u"], eta=real["eta"], recovery=rec, error=rec - real["u"]
    )
    _write_realization_csv(os.path.join(out, "realization0.csv"), columns)
    _write_json(
        os.path.join(out, "manifest.json"),
        {
            "command": command,
            "config": cfg,
            **extra,
            "results": "results.csv",
            "realization": "realization0.csv",
            "system": "system",
            **_stats_record(stats),
        },
    )
    _print_stats(stats)
    print(f"written to {out}")


# ---------------------------------------------------------------------------
# Subcommands. Each takes the record resolve_config returns.

def _system_key(cfg: dict) -> dict:
    """What the stored system depends on; a coefficient CSV counts by its bytes, not its path."""
    key = {k: cfg[k] for k in ("problem", "q", "coefficient")}
    if cfg["coefficient"] not in ("rough", "unit"):
        key["coefficient_sha256"] = _file_sha256(cfg["coefficient"])
    return key


def cmd_transform(cfg: dict) -> int:
    manifest_path = os.path.join(cfg["out"], "manifest.json")
    sys_dir = os.path.join(cfg["out"], "system")
    key = _system_key(cfg)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as fh:
                prior = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadConfig(f"manifest {manifest_path} is not valid JSON: {exc}") from None
        if prior.get("command") == "transform" and prior.get("system_key") == key:
            verify_system(sys_dir)  # raises if any stored file is missing or damaged
            print(f"cache hit: gamblet system already present in {cfg['out']}")
            return 0
    _, hier, op = _build_pde(cfg)
    sys = transform(op, hier)
    os.makedirs(cfg["out"], exist_ok=True)
    save_system(sys, sys_dir)
    _write_json(
        manifest_path,
        {
            "command": "transform",
            "config": cfg,
            "system_key": key,
            "sizes": hier.sizes,
            "j_sizes": hier.j_sizes,
            "system": "system",
        },
    )
    print(f"built gamblet system: levels {hier.sizes}, details {hier.j_sizes}")
    print(f"written to {sys_dir}")
    return 0


def cmd_denoise(cfg: dict) -> int:
    if cfg["trials"] < 1:
        raise BadConfig(f"trials must be >= 1, got {cfg['trials']}")
    dcfg = dn.DenoiseConfig(
        d=_DIMS[cfg["problem"]],
        **{k: cfg[k] for k in ("q", "sigma", "bound", "confidence", "t0", "signal") if cfg[k] is not None},
    )
    methods = [m.strip() for m in (cfg["methods"] or "").split(",") if m.strip()]
    field, hier, op = _build_pde(cfg)
    sys = transform(op, hier)
    stats = dn.run_trials(
        sys, op, dcfg, cfg["trials"], cfg["seed"],
        methods=None if methods in ([], ["all"]) else methods,
    )
    coords = op.node_coords
    geometry = {"x": coords[:, 0]}
    if hier.dim == 2:
        geometry["y"] = coords[:, 1]
    geometry["a"] = field(*coords.T)
    _write_run(cfg, "denoise", sys, stats, geometry, {})
    return 0


def cmd_graph(cfg: dict) -> int:
    n = cfg["synthetic_grid"]
    if cfg["graph_file"] is not None:
        g = load_graph(cfg["graph_file"], ground=cfg["ground"])
    elif n is not None:
        if n < 2:
            raise BadConfig(f"synthetic grid size must be >= 2, got {n}")
        g = synthetic_grid(n, ground=cfg["ground"])
    else:
        raise BadConfig("give either --graph-file or --synthetic-grid")
    out = denoise_graph(
        g, cfg["q"], sigma=cfg["sigma"], seed=cfg["seed"], trials=cfg["trials"], sigma_rms=cfg["sigma_rms"],
    )
    est = out.estimate
    print(f"H = {est.H:.4f}, d_eff = {est.d_eff:.4f}")
    extra = {
        "H": est.H,
        "d_eff": est.d_eff,
        "h_from_min": est.h_from_min,
        "lambda_max": est.lambda_max,
        "lambda_min": est.lambda_min,
        "sigma": out.sigma,
        "bound": out.bound,
    }
    _write_run(cfg, "graph", out.system, out.stats, {"x": out.coords[:, 0], "y": out.coords[:, 1]}, extra)
    return 0


# ---------------------------------------------------------------------------
# Self test.

def _selftest_checks():
    from .numerics import cholesky, solve_spd
    from .transform import analyze, reconstruct, solve

    def round_trip():
        hier = build_dyadic(1, 4)
        op = assemble_fem(coeff_1d(), hier)
        sys = transform(op, hier)
        rng = np.random.default_rng(7)
        for _ in range(5):
            y = rng.standard_normal(hier.n_fine)
            back = reconstruct(sys, analyze(sys, y))
            assert np.abs(back - y).max() < 1e-9

    def multilevel_solve():
        hier = build_dyadic(1, 4)
        op = assemble_fem(coeff_1d(), hier)
        sys = transform(op, hier)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(hier.n_fine)
        x = solve(sys, f)
        want = solve_spd(cholesky(op.A), f)
        assert np.abs(x - want).max() < 1e-9 * max(1.0, np.abs(want).max())

    def level_choice():
        cfg = dn.DenoiseConfig(d=1, q=10, sigma=1e-3, bound=1.0)
        assert dn.select_level(cfg) == 3

    def regularizer_stationarity():
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12))
        A = m @ m.T + 12 * np.eye(12)
        y = rng.standard_normal(12)
        res = dn.regularize(A, y, sigma=0.1)
        assert res.alpha is not None
        r = (res.recovered - y) + res.alpha * (A @ res.recovered)
        assert np.linalg.norm(r) <= 1e-8

    return [
        ("analyze/reconstruct round trip (1D q=4)", round_trip),
        ("multilevel solve matches Cholesky (1D q=4)", multilevel_solve),
        ("level selection worked example", level_choice),
        ("regularizer stationarity (12x12)", regularizer_stationarity),
    ]


def cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

_COMMANDS = {
    "transform": (cmd_transform, "build and store a gamblet system"),
    "denoise": (cmd_denoise, "run the estimator comparison on a PDE problem"),
    "graph": (cmd_graph, "run the graph pipeline"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gamblets",
        description="operator-adapted multiresolution analysis and de-noising",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="path to a key = value config file")
        for o in OPTIONS:
            if command in o.commands:
                sp.add_argument(
                    "--" + o.key.replace("_", "-"), type=o.type, choices=o.choices,
                    help=o.help if o.default is None else f"{o.help} (default: {o.default})",
                )
        sp.set_defaults(func=func)
    sub.add_parser("selftest", help="run the built-in invariant checks")
    return p


def _setup_logging() -> None:
    name = os.environ.get("GAMBLET_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        return args.func(resolve_config(args))
    except (GambletError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
