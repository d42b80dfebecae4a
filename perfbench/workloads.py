"""The benchmark's three workloads: the timed job, what is kept of its
outputs, and the checks made on them.

A job is one user action, timed whole. Right after it, outside the
timer, `capture` keeps the small arrays the checks need and drops the
rest, so no job's memory outlives it. The checks run once the timed
loop is over, against references built by `reference.py`.

Each check returns (name, ok, detail). A check listed in `KNOWN_FAULTS`
fails today because of a fault in the program; its failure marks the
job as failed but leaves the run correct.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import gamblets
from gamblets import cli

import reference as ref

# Check name -> the fault it exposes. Every job that fails it counts as failed.
KNOWN_FAULTS = {
    "level-choice-near-best": (
        "select_level_graph (graphdenoise.py) compares sigma in u-units with bound = |f| in "
        "source units, so it picks l = 0 and the level filter returns the zero vector"
    ),
}

SOLVE_RTOL = 1e-9  # measured 1e-12 (1D q10) and 2e-14 (2D q6)
ROUND_TRIP_RTOL = 1e-10  # measured 6e-16 and 1e-15
ENERGY_RTOL = 1e-10  # the split is exact to rounding
PROJECTION_RTOL = 1e-8  # measured <= 1.4e-11 at every level of 1D q10
RESIDUAL_RTOL = 1e-10  # measured 7e-13 on the 32 x 32 grid
NEAR_BEST = 1.1  # the level filter's factor over the best level (criterion 7b)


def _read_realization(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def _read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rel(got: np.ndarray, want: np.ndarray, scale: float | None = None) -> float:
    den = np.linalg.norm(want) if scale is None else scale
    return float(np.linalg.norm(got - want) / max(den, 1e-300))


def check_level(name: str, got: int, want: int, source: str) -> tuple[str, bool, str]:
    return name, got == want, f"level {got}, beta argmin {want} from {source}"


def check_projection(name: str, fac, phi: np.ndarray, eta: np.ndarray, recovery: np.ndarray, level: int):
    want = ref.projection(fac, phi, eta)
    err = _rel(recovery, want, max(np.linalg.norm(want), np.linalg.norm(eta)))
    return name, err <= PROJECTION_RTOL, f"recovery vs A-orthogonal projection at l = {level}: rel {err:.2e}"


def check_near_best(A: np.ndarray, fac, phis: list[np.ndarray], u, eta, recovery):
    errs = [ref.energy(A, ref.projection(fac, phi, eta) - u) for phi in phis]
    best = int(np.argmin(errs))
    got = ref.energy(A, recovery - u)
    ok = got <= NEAR_BEST * errs[best]
    detail = (
        f"recovery energy error {got:.4g} vs best projection l = {best}: {errs[best]:.4g} "
        f"(ratio {got / errs[best]:.3f}, limit {NEAR_BEST})"
    )
    if not ok:
        detail += "; known fault: " + KNOWN_FAULTS["level-choice-near-best"]
    return "level-choice-near-best", ok, detail


class Pde1dMonteCarlo:
    """`gamblets denoise` on 1D q10 with 300 trials and all four methods, then load_system."""

    name = "pde1d-mc"
    q, sigma, bound = 10, 1e-3, 1.0

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.run_dir = run_dir
        self.argv = [
            "denoise", "--problem", "pde-1d", "--coefficient", "rough", "--q", str(self.q),
            "--sigma", repr(self.sigma), "--trials", "300", "--seed", str(seed),
        ]

    def job(self, i: int):
        out = os.path.join(self.run_dir, f"job{i}")
        rc = cli.main(self.argv + ["--out", out])
        if rc != 0:
            raise RuntimeError(f"gamblets denoise exited with {rc}")
        return out, gamblets.load_system(os.path.join(out, "system"))

    def capture(self, i: int, result) -> dict:
        out, system = result
        rng = np.random.default_rng([self.seed, 1, i])
        b = rng.standard_normal(system.n_fine)
        y = rng.standard_normal(system.n_fine)
        kept = {
            "manifest": _read_manifest(os.path.join(out, "manifest.json")),
            "real": _read_realization(os.path.join(out, "realization0.csv")),
            "b": b,
            "x": gamblets.solve(system, b),
            "y": y,
            "back": gamblets.reconstruct(system, gamblets.analyze(system, y)),
        }
        shutil.rmtree(out)
        return kept

    def check(self, kept: list[dict]) -> list[list[tuple[str, bool, str]]]:
        A = gamblets.assemble_fem(gamblets.coeff_1d(), gamblets.build_dyadic(1, self.q)).A
        fac = ref.factor(A)
        l_dag = ref.level_choice(self.sigma, self.bound, 0.5, 1.0, 1.0, self.q)
        phi = ref.dyadic_measurements(1, self.q, l_dag)
        return [self._check_one(k, A, fac, l_dag, phi) for k in kept]

    def _check_one(self, k: dict, A, fac, l_dag: int, phi) -> list[tuple[str, bool, str]]:
        man, real = k["manifest"], k["real"]
        out = [
            check_level("level-is-beta-argmin", man["level"], l_dag, "sigma, M, h = 1/2, s = 1, d = 1"),
            check_projection("recovery-is-projection", fac, phi, real["eta"], real["recovery"], l_dag),
        ]
        noise = man["noise_energy_avg"]
        avgs = {m: man["stats"][m]["energy_avg"] for m in man["methods"]}
        ok = len(avgs) == 4 and all(np.isfinite(v) and 0.0 < v < noise for v in avgs.values())
        out.append(("errors-below-noise", ok, f"energy_avg {avgs} vs noise {noise:.4g}"))
        err = _rel(k["x"], ref.dense_solve(fac, k["b"]))
        out.append(("reloaded-solve", err <= SOLVE_RTOL, f"solve vs dense Cholesky: rel {err:.2e}"))
        err = float(np.abs(k["back"] - k["y"]).max() / np.abs(k["y"]).max())
        out.append(("reloaded-round-trip", err <= ROUND_TRIP_RTOL, f"reconstruct(analyze(y)) - y: rel {err:.2e}"))
        return out


class Pde2dBuild:
    """build_dyadic(2, 6), assemble_fem(coeff_2d()) and transform at N = 4096; nothing persisted."""

    name = "pde2d-build"
    q = 6
    n_loads = 3

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.field = gamblets.coeff_2d()

    def job(self, i: int):
        hier = gamblets.build_dyadic(2, self.q)
        op = gamblets.assemble_fem(self.field, hier)
        return op, gamblets.transform(op, hier)

    def capture(self, i: int, result) -> dict:
        op, system = result
        rng = np.random.default_rng([self.seed, 2, i])
        b = rng.standard_normal((system.n_fine, self.n_loads))
        y = rng.standard_normal(system.n_fine)
        c = gamblets.analyze(system, y).levels
        return {
            "sizes": list(system.hier.sizes),
            "b": b,
            "x": np.column_stack([gamblets.solve(system, b[:, j]) for j in range(self.n_loads)]),
            "level_energies": np.array([ck @ system.b_of(j + 1) @ ck for j, ck in enumerate(c)]),
            "yAy": float(y @ op.A @ y),
        }

    def check(self, kept: list[dict]) -> list[list[tuple[str, bool, str]]]:
        A = gamblets.assemble_fem(self.field, gamblets.build_dyadic(2, self.q)).A
        fac = ref.factor(A)
        return [self._check_one(k, fac) for k in kept]

    def _check_one(self, k: dict, fac) -> list[tuple[str, bool, str]]:
        want = [4**j for j in range(1, self.q + 1)]
        out = [("level-sizes", k["sizes"] == want, f"sizes {k['sizes']}")]
        ref_x = ref.dense_solve(fac, k["b"])
        err = max(_rel(k["x"][:, j], ref_x[:, j]) for j in range(self.n_loads))
        out.append(("solve", err <= SOLVE_RTOL, f"solve vs dense Cholesky: max rel {err:.2e}"))
        total = float(k["level_energies"].sum())
        err = abs(total - k["yAy"]) / k["yAy"]
        out.append(("energy-split", err <= ENERGY_RTOL, f"sum of level energies vs y^T A y: rel {err:.2e}"))
        return out


class Grid32Graph:
    """`gamblets graph` on the 32 x 32 grid, q5, sigma_rms = 1, 20 trials."""

    name = "grid32-graph"
    n, q = 32, 5

    def __init__(self, seed: int, run_dir: str):
        self.run_dir = run_dir
        self.argv = [
            "graph", "--synthetic-grid", str(self.n), "--q", str(self.q), "--sigma-rms", "1",
            "--trials", "20", "--seed", str(seed),
        ]

    def job(self, i: int):
        out = os.path.join(self.run_dir, f"job{i}")
        rc = cli.main(self.argv + ["--out", out])
        if rc != 0:
            raise RuntimeError(f"gamblets graph exited with {rc}")
        return out

    def capture(self, i: int, out) -> dict:
        kept = {
            "manifest": _read_manifest(os.path.join(out, "manifest.json")),
            "real": _read_realization(os.path.join(out, "realization0.csv")),
        }
        shutil.rmtree(out)
        return kept

    def check(self, kept: list[dict]) -> list[list[tuple[str, bool, str]]]:
        A, coords, max_degree = ref.grid_laplacian(self.n)
        fac = ref.factor(A)
        phis = [ref.point_measurements(coords, l) for l in range(self.q + 1)]
        return [self._check_one(k, A, fac, coords, max_degree, phis) for k in kept]

    def _check_one(self, k: dict, A, fac, coords, max_degree: int, phis) -> list[tuple[str, bool, str]]:
        man, real = k["manifest"], k["real"]
        xy = np.column_stack((real["x"], real["y"]))
        res = _rel(A @ real["u"], real["f"])
        ok = xy.shape == coords.shape and np.abs(xy - coords).max() <= 1e-12 and res <= RESIDUAL_RTOL
        out = [("u-solves-laplacian", ok, f"|A u - f|/|f| = {res:.2e} with A built from the grid's edges")]
        H, d_eff = man["H"], man["d_eff"]
        l_dag = ref.level_choice(man["sigma"], man["bound"], H, 1.0, d_eff, self.q)
        out.append(check_level("level-is-beta-argmin", man["level"], l_dag, "manifest H, d_eff, sigma, bound"))
        out.append(("scales-in-range", 0.0 < H < 1.0 and d_eff > 0.0, f"H = {H:.4g}, d_eff = {d_eff:.4g}"))
        lam = max(man["lambda_max"])
        limit = 2.0 * max_degree
        out.append(("lambda-max-bound", lam <= limit * (1 + 1e-12), f"max lambda_max(B^(k)) {lam:.6g} <= {limit:g}"))
        out.append(check_projection("recovery-is-projection", fac, phis[l_dag], real["eta"], real["recovery"], l_dag))
        out.append(check_near_best(A, fac, phis, real["u"], real["eta"], real["recovery"]))
        return out


WORKLOADS = {w.name: w for w in (Pde1dMonteCarlo, Pde2dBuild, Grid32Graph)}
