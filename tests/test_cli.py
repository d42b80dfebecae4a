"""Command-line interface, exercised in process through main()."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from gamblets.cli import OPTIONS, main, parse_config_file
from gamblets import BadConfig


def read_csv_lines(path):
    return path.read_text().strip().split("\n")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# transform

def test_transform_builds_then_caches(tmp_path, capsys):
    out = tmp_path / "sys"
    argv = ["transform", "--problem", "pde-1d", "--q", "4", "--out", str(out)]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "levels [2, 4, 8, 16]" in stdout
    assert "details [2, 2, 4, 8]" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "transform"
    assert manifest["sizes"] == [2, 4, 8, 16]
    assert manifest["j_sizes"] == [2, 2, 4, 8]
    assert (out / "system" / "manifest.json").exists()

    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "cache hit" in stdout

    # a different configuration must rebuild rather than reuse
    code, stdout, _ = run(
        ["transform", "--problem", "pde-1d", "--q", "3", "--out", str(out)], capsys
    )
    assert code == 0
    assert "cache hit" not in stdout
    assert "levels [2, 4, 8]" in stdout


def test_transform_detects_damaged_store(tmp_path, capsys):
    out = tmp_path / "sys"
    argv = ["transform", "--problem", "pde-1d", "--q", "3", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    inner = out / "system" / "manifest.json"
    doc = json.loads(inner.read_text())
    del doc["hierarchy_sha256"]
    inner.write_text(json.dumps(doc))
    code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.startswith("error:")
    assert "hierarchy_sha256" in stderr


def test_transform_cache_hit_checks_stored_files(tmp_path, capsys):
    out = tmp_path / "sys"
    argv = ["transform", "--problem", "pde-1d", "--q", "3", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    path = out / "system" / "b_2.npy"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    code, stdout, stderr = run(argv, capsys)
    assert code == 1
    assert "cache hit" not in stdout
    assert stderr.startswith("error:")
    assert "b_2.npy" in stderr


def test_transform_rejects_corrupt_outer_manifest(tmp_path, capsys):
    out = tmp_path / "sys"
    out.mkdir()
    (out / "manifest.json").write_text("{nope")
    code, _, stderr = run(
        ["transform", "--problem", "pde-1d", "--q", "3", "--out", str(out)], capsys
    )
    assert code == 1
    assert "not valid JSON" in stderr


def test_transform_refuses_graph_problem(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = graph\n")
    code, _, stderr = run(["transform", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "graph subcommand" in stderr


def test_transform_with_cell_coefficient_csv(tmp_path, capsys):
    cells = tmp_path / "cells.csv"
    np.savetxt(cells, 1.0 + np.arange(8.0) / 8.0, delimiter=",")
    code, stdout, _ = run(
        ["transform", "--problem", "pde-1d", "--q", "3",
         "--coefficient", str(cells), "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 0
    assert "built gamblet system" in stdout


def test_transform_cache_follows_coefficient_bytes(tmp_path, capsys):
    cells = tmp_path / "a.csv"
    np.savetxt(cells, np.ones(16), delimiter=",")
    out = tmp_path / "sys"
    argv = ["transform", "--problem", "pde-1d", "--q", "4", "--coefficient", str(cells), "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    a4 = np.load(out / "system" / "a_4.npy")

    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "cache hit" in stdout

    np.savetxt(cells, np.full(16, 5.0), delimiter=",")  # same path, new values
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "cache hit" not in stdout
    np.testing.assert_allclose(np.load(out / "system" / "a_4.npy"), 5.0 * a4, rtol=1e-12)


def test_transform_rejects_non_numeric_coefficient_csv(tmp_path, capsys):
    cells = tmp_path / "a.csv"
    cells.write_text("1,2\nx,4\n")
    code, _, stderr = run(
        ["transform", "--problem", "pde-2d", "--q", "1", "--coefficient", str(cells),
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:")
    assert "a.csv" in stderr


# ---------------------------------------------------------------------------
# denoise

def test_denoise_writes_results_and_realization(tmp_path, capsys):
    out = tmp_path / "run"
    argv = [
        "denoise", "--problem", "pde-1d", "--q", "4", "--trials", "3",
        "--sigma", "1e-3", "--seed", "2", "--out", str(out),
    ]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "level l =" in stdout

    lines = read_csv_lines(out / "results.csv")
    assert lines[0] == "method,energy_avg,energy_std,l2_avg,l2_std"
    assert len(lines) == 5
    assert {ln.split(",")[0] for ln in lines[1:]} == {
        "level-filter", "hard-threshold", "soft-threshold", "regularization"
    }

    real = read_csv_lines(out / "realization0.csv")
    assert real[0] == "x,a,f,u,eta,recovery,error"
    assert len(real) == 1 + 16

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "denoise"
    assert manifest["n_trials"] == 3
    assert set(manifest["stats"]) == set(manifest["methods"])
    assert manifest["level"] == 4
    assert "level_histogram" not in manifest

    # reruns are byte-identical where the content does not embed the path
    out2 = tmp_path / "run2"
    code, _, _ = run(argv[:-1] + [str(out2)], capsys)
    assert code == 0
    for name in ("results.csv", "realization0.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_denoise_zero_noise_single_trial(tmp_path, capsys):
    out = tmp_path / "clean"
    with pytest.warns(UserWarning, match="single trial"):
        code = main([
            "denoise", "--problem", "pde-1d", "--q", "4", "--trials", "1",
            "--sigma", "0", "--out", str(out),
        ])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["level"] == 4
    lf = manifest["stats"]["level-filter"]
    assert lf["energy_avg"] < 1e-9
    assert lf["energy_std"] == 0.0


def test_denoise_method_subset_2d(tmp_path, capsys):
    out = tmp_path / "2d"
    code, _, _ = run(
        ["denoise", "--problem", "pde-2d", "--q", "3", "--trials", "2",
         "--sigma", "1e-3", "--methods", "level-filter,regularization",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = read_csv_lines(out / "results.csv")
    assert len(lines) == 3
    real = read_csv_lines(out / "realization0.csv")
    assert real[0] == "x,y,a,f,u,eta,recovery,error"
    assert len(real) == 1 + 64


def test_denoise_empty_method_list_runs_all(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = run(["denoise", "--q", "3", "--trials", "2", "--methods", " , ", "--out", str(out)], capsys)
    assert code == 0
    assert len(read_csv_lines(out / "results.csv")) == 5


# ---------------------------------------------------------------------------
# config files

def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "problem = pde-1d\n"
        "q = 3\n"
        "trials = 2   # trailing comment\n"
        "sigma = 0.0\n"
    )
    out = tmp_path / "o"
    code, _, _ = run(["denoise", "--config", str(cfg), "--q", "4", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["q"] == 4  # flag wins
    assert manifest["config"]["trials"] == 2
    assert manifest["config"]["sigma"] == 0.0


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("q = 3\nsigma = 0.1\nfancy = 1\n")
    code, _, stderr = run(["denoise", "--config", str(bad_key)], capsys)
    assert code == 1
    assert f"{bad_key}:3" in stderr
    assert "unknown config key" in stderr

    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("q = banana\n")
    with pytest.raises(BadConfig, match="bad value"):
        parse_config_file(bad_val)

    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(BadConfig, match="key = value"):
        parse_config_file(bad_line)


def test_rejected_parameter_values(capsys):
    code, _, stderr = run(["denoise", "--q", "0"], capsys)
    assert code == 1
    assert "q must be >= 1" in stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["denoise", "--sigma", "nan"], "sigma"),
        (["denoise", "--bound", "inf"], "bound"),
        (["denoise", "--t0", "nan"], "t0"),
        (["graph", "--synthetic-grid", "8", "--q", "3", "--sigma-rms", "nan"], "sigma_rms"),
    ],
)
def test_rejects_non_finite_numbers(argv, field, tmp_path, capsys):
    code, _, stderr = run(argv + ["--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert f"{field} must be finite" in stderr
    assert not (tmp_path / "o").exists()


# Each subcommand accepts exactly the options its row set in OPTIONS names.

SMALL_RUNS = {
    "transform": ["transform", "--problem", "pde-1d", "--q", "3"],
    "denoise": ["denoise", "--problem", "pde-1d", "--q", "3", "--trials", "2"],
    "graph": ["graph", "--synthetic-grid", "8", "--q", "3", "--sigma-rms", "0.01", "--trials", "2"],
}


@pytest.mark.parametrize(
    "command, line",
    [("graph", "methods = all"), ("denoise", "graph_file = g.txt"), ("transform", "trials = 2")],
)
def test_config_key_the_command_does_not_read(command, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, stderr = run(SMALL_RUNS[command] + ["--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    key = line.split(" =")[0]
    assert f"config key '{key}' is not read by the {command} subcommand" in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["transform", "--seed", "9"], ["graph", "--bound", "2"]])
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_manifest_config_holds_the_keys_read(command, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(SMALL_RUNS[command] + ["--out", str(out)], capsys)[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["config"]) == {o.key for o in OPTIONS if command in o.commands}


@pytest.mark.parametrize(
    "argv, given",
    [
        (["transform"], {}),
        (["denoise"], {}),
        (["graph", "--synthetic-grid", "8", "--q", "3"], {"synthetic_grid": 8, "q": 3}),
    ],
)
def test_bare_run_records_the_option_defaults(argv, given, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    want = {o.key: o.default for o in OPTIONS if argv[0] in o.commands}
    want.update(given, out=str(out))
    assert manifest["config"] == want
    if argv[0] == "graph":  # with neither sigma option, graph runs at the sigma default
        assert manifest["sigma"] == want["sigma"] == 1e-3


@pytest.mark.parametrize("line", ["signal = bogus", "problem = pde-3d"])
def test_config_value_outside_the_choices(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, stderr = run(["denoise", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    key = line.split(" =")[0]
    assert f"{key} must be one of" in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, line, keys",
    [
        (["--sigma", "0.1"], "sigma_rms = 0.01", "sigma and sigma_rms"),
        (["--synthetic-grid", "8"], "graph_file = g.txt", "graph_file and synthetic_grid"),
    ],
)
def test_graph_refuses_both_of_an_exclusive_pair(flag, line, keys, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, stderr = run(
        ["graph", "--q", "3", *flag, "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 1
    assert f"{keys} exclude each other" in stderr
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# graph

def test_graph_synthetic_grid(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run(
        ["graph", "--synthetic-grid", "8", "--q", "3", "--sigma-rms", "0.01",
         "--trials", "2", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "H = " in stdout and "d_eff = " in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["H"] < 1.0
    assert manifest["d_eff"] > 0.0
    assert manifest["sigma"] > 0.0
    assert manifest["config"]["sigma"] is None  # sigma came from sigma_rms
    real = read_csv_lines(out / "realization0.csv")
    assert real[0] == "x,y,f,u,eta,recovery,error"
    assert len(real) == 1 + 63
    lines = read_csv_lines(out / "results.csv")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["level-filter", "hard-threshold"]


def test_graph_with_a_merged_level(tmp_path, capsys):
    """q = 4 on the 8x8 grid merges a degenerate level, so the system has 3 levels to choose from."""
    out = tmp_path / "g"
    code, _, _ = run(
        ["graph", "--synthetic-grid", "8", "--q", "4", "--sigma", "0.01",
         "--trials", "2", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    system_q = json.loads((out / "system" / "manifest.json").read_text())["q"]
    assert system_q == 3
    assert 0 <= json.loads((out / "manifest.json").read_text())["level"] <= system_q


def path_graph_text(n=8):
    rows = [f"{n} {n - 1}"]
    rows += [f"{i} {i / (n - 1):.6f} 0.0" for i in range(n)]
    rows += [f"{i} {i + 1}" for i in range(n - 1)]
    return "\n".join(rows) + "\n"


def test_graph_from_file(tmp_path, capsys):
    gfile = tmp_path / "path.graph"
    gfile.write_text(path_graph_text())
    code, stdout, _ = run(
        ["graph", "--graph-file", str(gfile), "--q", "3", "--sigma", "0.01",
         "--trials", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 0
    assert "written to" in stdout


def test_graph_failure_modes(tmp_path, capsys):
    code, _, stderr = run(
        ["graph", "--graph-file", str(tmp_path / "missing.graph"), "--q", "3",
         "--sigma", "0.01"],
        capsys,
    )
    assert code == 1
    assert "missing.graph" in stderr

    code, _, stderr = run(["graph", "--q", "3", "--sigma", "0.01"], capsys)
    assert code == 1
    assert "--graph-file or --synthetic-grid" in stderr

    gfile = tmp_path / "path.graph"
    gfile.write_text(path_graph_text())
    code, _, stderr = run(
        ["graph", "--graph-file", str(gfile), "--ground", "99", "--q", "3",
         "--sigma", "0.01"],
        capsys,
    )
    assert code == 1
    assert "ground" in stderr


# ---------------------------------------------------------------------------
# regression pins: results of the per-trial harness the block engine replaced

PINNED = {
    "denoise": (
        ["denoise", "--q", "4", "--trials", "8"],
        4,
        {"hard-threshold": 1.5773933612004833e-05, "soft-threshold": 4.619624493555727e-06},
        {
            "level-filter": (0.021201624830824439, 0.0050876309830751943,
                             0.00073109477792554793, 0.00017351823800515527),
            "hard-threshold": (0.017526103792233596, 0.0028002703253935768,
                               0.00074952095288662957, 0.00018346193318493243),
            "soft-threshold": (0.014990401119981251, 0.0022580346194781028,
                               0.00068989387998621889, 0.00016410616548095941),
            "regularization": (0.017973950169905599, 0.0028307761311197688,
                               0.0013353376927825421, 0.00021399823227616946),
        },
    ),
    "graph": (
        ["graph", "--synthetic-grid", "8", "--q", "3", "--sigma-rms", "0.01", "--trials", "3"],
        2,
        {"hard-threshold": 0.8522163418420383},
        {
            "level-filter": (2.2702248577931363, 0.042599314538336437,
                             1.4701898234477078, 0.11985864610361088),
            "hard-threshold": (2.5812945270010181, 0.23326591216402859,
                               1.8671351071199105, 0.30869016394224486),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_match_pinned_numbers(name, tmp_path, capsys):
    argv, level, tuned, rows = PINNED[name]
    out = tmp_path / name
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["level"] == level
    assert manifest["tuned_t0"] == tuned
    lines = read_csv_lines(out / "results.csv")[1:]
    got = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]] for ln in lines}
    assert set(got) == set(rows)
    for method, want in rows.items():
        np.testing.assert_allclose(got[method], want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# selftest and usage

def test_selftest_passes(capsys):
    code, stdout, _ = run(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.count("ok    ") == 4
    assert "all checks passed" in stdout


def test_selftest_takes_no_options():
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--q", "3"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_console_script_installed():
    exe = shutil.which("gamblets")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "selftest"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
