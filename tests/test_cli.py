"""End-to-end CLI contract tests: exit codes, file formats, manifests."""

import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

import iksea
from iksea.cli import _run_points, main
from iksea.config import RunConfig
from iksea.dynamics import dynamical_qfi
from iksea.errors import (ConfigError, DomainError, EvolutionOverflowError,
                          ExceptionalModeError)
from iksea.ground import ground_qfi
from iksea.model import ChainParams, momentum_grid
from iksea.runner import Manifest, run_grid, sha256_file
from iksea.scaling import size_exponent


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


GROUND_CFG = """\
[run]
command = ground-qfi
seed = 3

[model]
h = 1.2
gamma = 0.5
k_ksea = 0.2
n_sites = 8

[grid]
n_values = 8 4
h_values = 1.2 0.4
"""


# ------------------------------------------------------------------ config


def test_config_roundtrip_and_defaults(tmp_path):
    cfg = RunConfig.from_text(GROUND_CFG)
    assert cfg.command == "ground-qfi"
    assert cfg.seed == 3
    assert cfg.prefix == "ground_qfi"      # dashes become underscores
    assert not hasattr(cfg, "version")     # [run] version is not a key
    assert cfg.text == GROUND_CFG
    # typed accessors
    assert cfg.get_float("model", "h") == 1.2
    assert cfg.get_ints("grid", "n_values") == [8, 4]
    assert cfg.get_str("model", "nope", default="x") == "x"
    assert "h_values" in cfg.sections["grid"]
    assert "t_values" not in cfg.sections["grid"]


def test_config_error_cases(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig.from_text("[model]\nh = 1\n")          # no [run]
    with pytest.raises(ConfigError):
        RunConfig.from_text("[run]\ncommand = destroy\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("[run]\ncommand = phase\nseed = -1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("just not an ini file [")
    cfg = RunConfig.from_text("[run]\ncommand = phase\n[model]\nh = abc\n")
    with pytest.raises(ConfigError):
        cfg.get_float("model", "h")
    with pytest.raises(ConfigError):
        cfg.get_str("model", "missing")                  # required, no default
    with pytest.raises(ConfigError):
        RunConfig.from_file("/nonexistent/path.cfg")
    # a config that is not UTF-8 (a Latin-1 byte in a comment) is unreadable
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"[run]\ncommand = phase\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        RunConfig.from_file(str(latin))
    assert main(["phase", "--config", str(latin), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config {str(latin)!r}: 'utf-8' codec")
    # the prefix names files inside --out: no path, no hidden file
    for prefix in ("", " ", ".", "..", "sub/dir", "../x", "/abs", "a\\b"):
        with pytest.raises(ConfigError, match=r"\[run\] prefix must be a plain"):
            RunConfig.from_text(f"[run]\ncommand = phase\nprefix = {prefix}\n")


def test_prefix_with_a_path_is_config_error_before_any_work(tmp_path, capsys):
    # refused before the series is computed, and nothing is written
    cfg_path = write_cfg(tmp_path / "run.cfg", DYN_CFG.replace(
        "command = dyn-qfi", "command = dyn-qfi\nprefix = sub/dir"))
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: [run] prefix must be a plain file name, got 'sub/dir'\n"
    assert not out.exists()


def test_config_empty_list_is_error(tmp_path, capsys):
    cfg = RunConfig.from_text("[run]\ncommand = phase\n[grid]\nn_values =\n"
                              "h_values = 1 x\n")
    with pytest.raises(ConfigError, match=r"\[grid\] n_values is empty"):
        cfg.get_ints("grid", "n_values")
    with pytest.raises(ConfigError, match="is not a list of numbers"):
        cfg.get_floats("grid", "h_values")
    assert cfg.get_ints("grid", "missing", default=None) is None
    # an empty oracle size list used to reach the sampler and crash
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         ORACLE_CFG.replace("sizes = 4", "sizes ="))
    assert main(["oracle-check", "--config", cfg_path,
                 "--out", str(tmp_path)]) == 2
    assert "[oracle] sizes is empty" in capsys.readouterr().err


# -------------------------------------------------------------- ground-qfi


def test_ground_qfi_csv_contract(tmp_path):
    text = "# field scan; comments stay in the manifest\n" + GROUND_CFG
    cfg_path = write_cfg(tmp_path / "run.cfg", text)
    out = tmp_path / "out"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 0

    with open(out / "ground_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "h", "gamma", "K", "phase", "qfi_total",
                       "flag_near_singular"]
    body = rows[1:]
    assert len(body) == 4
    # rows ascend in N, then in h
    key = [(int(r[0]), float(r[1])) for r in body]
    assert key == sorted(key) == [(4, 0.4), (4, 1.2), (8, 0.4), (8, 1.2)]
    for r in body:
        p = ChainParams(h=float(r[1]), gamma=float(r[2]), k_ksea=float(r[3]),
                        n_sites=int(r[0]))
        # cells carry full precision: they parse back to the library value
        assert float(r[5]) == ground_qfi(p).total
        assert r[5] == "%.17g" % ground_qfi(p).total
        assert r[6] in ("true", "false")
        assert r[4] in ("Unbroken", "Broken", "ExceptionalPoint",
                        "ExceptionalLine")

    summary = json.loads((out / "ground_qfi_summary.json").read_text())
    assert summary["rows"] == 4
    assert set(summary["landmarks"]) == {"0.40000000000000002", "1.2"}
    for lm in summary["landmarks"].values():
        assert {"region", "h_c", "h_e", "omega_pm", "at_critical"} <= set(lm)

    manifest = json.loads((out / "ground_qfi_manifest.json").read_text())
    assert manifest["command"] == "ground-qfi"
    assert manifest["seed"] == 3
    assert manifest["config"] == text         # the file as read
    assert {o["path"] for o in manifest["outputs"]} == {
        "ground_qfi.csv", "ground_qfi_summary.json"}
    for entry in manifest["outputs"]:
        path = out / entry["path"]
        assert entry["sha256"] == sha256_file(str(path))
        assert entry["bytes"] == os.path.getsize(path)
    assert all(t["status"] == "ok" for t in manifest["tasks"])


def test_ground_qfi_json_format(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG)
    out = tmp_path / "o"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out),
                 "--format", "json"]) == 0
    body = json.loads((out / "ground_qfi.json").read_text())
    assert isinstance(body, list) and len(body) == 4
    assert set(body[0]) == {"N", "h", "gamma", "K", "phase", "qfi_total",
                            "flag_near_singular"}
    assert isinstance(body[0]["qfi_total"], float)


def test_empty_grid_is_config_error(tmp_path):
    txt = GROUND_CFG.replace("n_values = 8 4", "n_values =")
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 2
    # the run must fail before any data file is written
    assert not (out / "ground_qfi.csv").exists()


def test_defective_point_is_compute_error(tmp_path, capsys):
    # gamma = K with h = -cos(phi_1) puts mode 1 exactly on an exceptional
    # point: exit 3, the message names the angle, and the point's own
    # "error" task is the manifest's one record of it (no "compute" task)
    h = -float(np.cos(np.pi / 4))
    txt = f"""\
[run]
command = ground-qfi

[model]
h = 0.3
gamma = 0.4
k_ksea = 0.4
n_sites = 4

[grid]
h_values = {h!r} 0.3
"""
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 3
    with pytest.raises(ExceptionalModeError) as exc_info:
        ground_qfi(ChainParams(h=h, gamma=0.4, k_ksea=0.4, n_sites=4))
    detail = str(exc_info.value)
    assert "phi=" in detail
    assert capsys.readouterr().err == \
        f"compute error: ground_qfi N=4 h=-0.707107: {detail}\n"
    manifest = json.loads((out / "ground_qfi_manifest.json").read_text())
    assert [(t["name"], t["status"], t["detail"]) for t in manifest["tasks"]] == [
        ("ground_qfi N=4 h=-0.707107", "error", detail),
        ("ground_qfi N=4 h=0.3", "ok", "")]
    assert os.listdir(out) == ["ground_qfi_manifest.json"]


def test_failure_no_point_recorded_is_one_compute_task(tmp_path, capsys):
    # every size succeeds, but gamma = K with h > 1 gives every total 0, so
    # the fit raises: one "compute" task after the three "ok" ones, the CSV
    # but no fits JSON
    cfg_path = write_cfg(tmp_path / "run.cfg", """\
[run]
command = sweep

[model]
h = 1.5
gamma = 0.5
k_ksea = 0.5
n_sites = 8

[sweep]
variable = n_sites
n_values = 8 16 32
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "compute error: power-law fits need strictly positive xs and ys\n"
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert [(t["name"], t["status"], t["detail"]) for t in manifest["tasks"]] == [
        ("sweep N=8", "ok", ""), ("sweep N=16", "ok", ""), ("sweep N=32", "ok", ""),
        ("compute", "error", err[len("compute error: "):-1])]
    assert [o["path"] for o in manifest["outputs"]] == ["sweep.csv"]
    assert sorted(os.listdir(out)) == ["sweep.csv", "sweep_manifest.json"]


def test_command_config_mismatch(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         "[run]\ncommand = phase\n[model]\nh = 1\ngamma = 0.2\n"
                         "k_ksea = 0.5\nn_sites = 8\n")
    assert main(["ground-qfi", "--config", cfg_path,
                 "--out", str(tmp_path)]) == 2


# ------------------------------------------------------------------ dyn-qfi


DYN_CFG = """\
[run]
command = dyn-qfi

[model]
h = 1.5
gamma = 0.5
k_ksea = 0.2
n_sites = 6

[times]
values = 0 1 2
"""


def test_dyn_qfi_above_n_max_is_config_error(tmp_path, capsys):
    # N = 2^50 once ended in numpy's allocation error, a traceback and exit 1
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         DYN_CFG.replace("n_sites = 6", f"n_sites = {2 ** 50}"))
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: invalid [model] parameters: "
                                       f"n_sites must be <= {2 ** 22}, got {2 ** 50}\n")


def test_dyn_qfi_rows(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg", DYN_CFG)
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "dyn_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "N", "qfi", "phase"]
    assert len(rows) == 4
    assert float(rows[1][2]) == 0.0          # t = 0
    assert [r[3] for r in rows[1:]] == ["Unbroken"] * 3
    assert [float(r[0]) for r in rows[1:]] == [0.0, 1.0, 2.0]


def test_dyn_qfi_overflow_rows_skipped(tmp_path):
    # N=2 single broken mode overflows past t ~ 700/|eps|; that row is
    # dropped and the manifest records the skip, exit stays 0
    txt = """\
[run]
command = dyn-qfi

[model]
h = 0.1
gamma = 0.9
k_ksea = 0.1
n_sites = 2

[times]
values = 1 800
"""
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "dyn_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [1.0]
    manifest = json.loads((out / "dyn_qfi_manifest.json").read_text())
    skipped = [t for t in manifest["tasks"] if t["status"] == "skipped"]
    assert len(skipped) == 1 and "t=800" in skipped[0]["name"]
    assert "overflow" in skipped[0]["detail"]


def test_dyn_qfi_time_grid_spacings(tmp_path, capsys):
    txt = DYN_CFG.replace("values = 0 1 2",
                          "start = 1\nstop = 8\ncount = 4\nspacing = geometric")
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "dyn_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    np.testing.assert_allclose([float(r[0]) for r in rows[1:]],
                               [1.0, 2.0, 4.0, 8.0], rtol=1e-12)
    linear = write_cfg(tmp_path / "linear.cfg", DYN_CFG.replace(
        "values = 0 1 2", "start = 0\nstop = 3\ncount = 4\nspacing = linear"))
    assert main(["dyn-qfi", "--config", linear, "--out", str(out)]) == 0
    with open(out / "dyn_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [0.0, 1.0, 2.0, 3.0]
    # a grid the [times] keys do not define is a config error
    for times, message in [
            ("start = 1\nstop = 8\ncount = 4\nspacing = sqrt",
             "[times] spacing must be linear|geometric, got 'sqrt'"),
            ("start = 1\nstop = 8",
             "[times] needs either 'values' or 'start'/'stop'/'count'"),
            ("start = 1\nstop = 8\ncount = 0", "[times] count must be >= 1"),
            # numpy's allocation error (exit 1) once made the grid
            ("start = 1\nstop = 8\ncount = 1000000000000000",
             "[times] count must be <= 65536, got 1000000000000000"),
            ("start = 0\nstop = 8\ncount = 4\nspacing = geometric",
             "[times] geometric spacing needs start, stop > 0"),
            # refused before linspace/geomspace, which warned and listed nan
            ("start = 0.1\nstop = inf\ncount = 4", "[times] stop must be finite, got inf"),
            ("start = nan\nstop = 8\ncount = 4\nspacing = geometric",
             "[times] start must be finite, got nan"),
            ("start = -inf\nstop = inf\ncount = 2",
             "[times] start must be finite, got -inf")]:
        bad = write_cfg(tmp_path / "bad.cfg",
                        DYN_CFG.replace("values = 0 1 2", times))
        assert main(["dyn-qfi", "--config", bad, "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert os.listdir(tmp_path / "bad") == []


def test_dyn_qfi_overflowing_oscillating_time_is_skipped(tmp_path):
    # eps_sq t^2 = inf on the oscillating branch is a contracted overflow
    # skip, like the hyperbolic branch, and the other times keep their rows
    cfg_path = write_cfg(tmp_path / "run.cfg", DYN_CFG.replace(
        "n_sites = 6", "n_sites = 8").replace("values = 0 1 2",
                                              "values = 1 1e200 2"))
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "dyn_qfi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    params = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=8)
    assert [[float(r[0]), float(r[2])] for r in rows[1:]] == \
        [[t, dynamical_qfi(params, t)] for t in (1.0, 2.0)]
    manifest = json.loads((out / "dyn_qfi_manifest.json").read_text())
    assert [(t["name"], t["status"]) for t in manifest["tasks"]] == [
        ("dyn_qfi t=1", "ok"), ("dyn_qfi t=1e+200", "skipped"),
        ("dyn_qfi t=2", "ok")]
    assert manifest["tasks"][1]["detail"].startswith("overflow: ")


def test_dyn_qfi_failed_time_is_compute_error(tmp_path, capsys, monkeypatch):
    # a per-mode value below the clamp floor at t = 1 fails that time only:
    # exit 3, no CSV, its task is the one "error" and stderr names it
    import iksea.dynamics as dyn
    inner = dyn._mode_values

    def corrupt(elements, t):
        vals = inner(elements, t)
        vals[t[:, 0] == 1.0, 1] = -1e-6
        return vals

    monkeypatch.setattr(dyn, "_mode_values", corrupt)
    cfg_path = write_cfg(tmp_path / "run.cfg", DYN_CFG)
    out = tmp_path / "out"
    assert main(["dyn-qfi", "--config", cfg_path, "--out", str(out)]) == 3
    assert os.listdir(out) == ["dyn_qfi_manifest.json"]
    manifest = json.loads((out / "dyn_qfi_manifest.json").read_text())
    assert [(t["name"], t["status"]) for t in manifest["tasks"]] == [
        ("dyn_qfi t=0", "ok"), ("dyn_qfi t=1", "error"), ("dyn_qfi t=2", "ok")]
    detail = manifest["tasks"][1]["detail"]
    phi = momentum_grid(6)[1]
    assert detail == (f"per-mode dynamical QFI -1.000000e-06 < -1e-10 at "
                      f"phi={phi:.12g}, t=1: beyond round-off, indicates a bug")
    assert capsys.readouterr().err == f"compute error: dyn_qfi t=1: {detail}\n"


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_dyn_qfi_non_finite_time_is_config_error(tmp_path, capsys, bad):
    cfg_path = write_cfg(tmp_path / "run.cfg", DYN_CFG.replace(
        "values = 0 1 2", f"values = 1 {bad} 2"))
    assert main(["dyn-qfi", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: invalid [times]: times must be finite")


# ------------------------------------------------------------------- points


def test_run_grid_returns_values_or_errors_in_input_order():
    def fn(x):
        if x == "boom":
            raise ValueError(x)
        if x < 0:
            raise DomainError(f"negative {x}")
        return 2 * x

    got = run_grid(fn, [1, -2, 3, -4, 5])
    assert [type(g) for g in got] == [int, DomainError, int, DomainError, int]
    assert [g if isinstance(g, int) else str(g) for g in got] == \
        [2, "negative -2", 6, "negative -4", 10]
    # only an IkseaError is a point's result; anything else is a bug
    with pytest.raises(ValueError, match="boom"):
        run_grid(fn, [1, "boom", -3])


def test_run_points_records_each_result_and_returns_the_errors():
    manifest = Manifest(RunConfig.from_text("[run]\ncommand = dyn-qfi\n"))
    over, bad = EvolutionOverflowError("too late"), DomainError("bad point")
    done, errors = _run_points(manifest, [1, 2, 3, 4, 5],
                               [1.5, over, bad, 4.5, bad],
                               lambda x: f"point {x}")
    assert done == [(1, 1.5), (4, 4.5)]
    assert errors == [bad, bad]
    assert [(t["name"], t["status"], t["detail"]) for t in manifest.tasks] == [
        ("point 1", "ok", ""), ("point 2", "skipped", "overflow: too late"),
        ("point 3", "error", "bad point"), ("point 4", "ok", ""),
        ("point 5", "error", "bad point")]


# -------------------------------------------------------------------- sweep


SWEEP_CFG = """\
[run]
command = sweep

[model]
h = 1.0
gamma = 0.2
k_ksea = 0.5
n_sites = 128

[sweep]
variable = n_sites
n_values = 128 256 512 1024
"""


def test_sweep_n_sites_and_fit_file(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "qfi_total"]
    ns = [int(r[0]) for r in rows[1:]]
    assert ns == [128, 256, 512, 1024]
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits["variable"] == "n_sites"
    assert 1.9 <= fits["fit"]["exponent"] <= 2.1
    assert fits["fit"]["n_points"] == 4
    assert math.isclose(fits["fit"]["amplitude"],
                        math.exp(fits["fit"]["intercept"]), rel_tol=1e-12)


def test_sweep_leaves_numpy_ma_out(tmp_path):
    # power_law_fit counts distinct xs without np.unique, whose first call
    # imports numpy.ma (some 10 ms and 1 MB on every sweep and fit)
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG)
    code = ("import sys, iksea.cli; "
            f"rc = iksea.cli.main(['sweep', '--config', {cfg_path!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "assert rc == 0, rc; "
            "assert 'numpy.ma' not in sys.modules")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(iksea.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "sweep_fits.json").exists()


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("sweep.csv", "sweep_fits.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_dh_phase_labels(tmp_path):
    txt = """\
[run]
command = sweep

[model]
h = 1.0
gamma = 0.5
k_ksea = 0.2
n_sites = 128

[sweep]
variable = dh
anchor = h_e
dh_values = 0.3 -0.3
n_values = 128 256 512
"""
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dh", "h", "mu", "r_squared", "phase"]
    assert [r[4] for r in rows[1:]] == ["Unbroken", "Broken"]
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]], [1.4, 0.8],
                               rtol=1e-12)
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits["phase_change"] is True
    assert fits["anchor"] == "h_e"
    np.testing.assert_allclose(fits["anchor_value"], 1.1, rtol=1e-12)


def test_sweep_dh_reads_no_model_h(tmp_path, capsys):
    # every point sets its own h = anchor + dh: without [model] h the run
    # exits 0 (it was "config error: missing [model] h") with the same bytes
    body = "[run]\ncommand = sweep\n\n[model]\n{h}gamma = 0.5\nk_ksea = 0.2\n" \
           "n_sites = 128\n\n[sweep]\nvariable = dh\nanchor = h_e\n" \
           "dh_values = 0.3 -0.3\nn_values = 128 256 512\n"
    outs = []
    for i, h in enumerate(("h = 1.0\n", "")):
        cfg_path = write_cfg(tmp_path / f"run{i}.cfg", body.format(h=h))
        outs.append(tmp_path / f"out{i}")
        assert main(["sweep", "--config", cfg_path, "--out", str(outs[-1])]) == 0
    assert capsys.readouterr().err == ""
    for name in ("sweep.csv", "sweep_fits.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_kappa_window_flags(tmp_path):
    txt = """\
[run]
command = sweep

[model]
h = 1.0
gamma = 0.5
k_ksea = 0.5
n_sites = 64

[sweep]
variable = kappa
kappa_values = 1e-2
n_values = 64 128 256
"""
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    fits = json.loads((out / "sweep_fits.json").read_text())
    # pi/N < 10 kappa = 0.1 for N >= 64: every (kappa, N) pair is flagged
    assert fits["out_of_window"] == [[1e-2, 64], [1e-2, 128], [1e-2, 256]]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kappa", "mu", "r_squared"]


BAD_POINT_CFG = """\
[run]
command = {command}

[model]
h = 1.0
gamma = 0.5
k_ksea = 0.2
n_sites = 8

[{section}]
{keys}
"""


@pytest.mark.parametrize("command, section, keys, message", [
    ("ground-qfi", "grid", "n_values = 8 33",
     "invalid [model] parameters: n_sites must be an even integer >= 2, "
     "got 33"),
    ("ground-qfi", "grid", "h_values = 0.5 nan",
     "invalid [model] parameters: h must be finite, got nan"),
    ("sweep", "sweep", "variable = n_sites\nn_values = 8 16 33 64",
     "invalid [model] parameters: n_sites must be an even integer >= 2, "
     "got 33"),
    ("sweep", "sweep", "variable = dh\ndh_values = 0.1 nan\nn_values = 8 16 32",
     "invalid [model] parameters: h must be finite, got nan"),
    ("sweep", "sweep",
     "variable = dh\ndh_values = 0.1\nanchor = h_x\nn_values = 8 16 32",
     "[sweep] unknown anchor 'h_x' (expected 'h_c' or 'h_e')"),
    ("sweep", "sweep",
     "variable = kappa\nkappa_values = 0 1e-3\nn_values = 8 16 32",
     "[sweep] kappa values must be > 0 (kappa = 0 is the exceptional line), "
     "got [0.0, 0.001]"),
    ("sweep", "sweep", "variable = dh\ndh_values = 0.1\nn_values = 8 16",
     "[sweep] n_values needs at least 3 sizes to fit mu for each dh value"),
    ("sweep", "sweep", "variable = kappa\nkappa_values = 1e-3\nn_values = 8",
     "[sweep] n_values needs at least 3 sizes to fit mu for each kappa value"),
    ("sweep", "sweep", "variable = dh\ndh_values = 0.3\nn_values = 64 64 64",
     "[sweep] n_values needs at least 3 sizes to fit mu for each dh value"),
    ("sweep", "sweep", "variable = kappa\nkappa_values = 1e-3\nn_values = 8 16 8 16",
     "[sweep] n_values needs at least 3 sizes to fit mu for each kappa value"),
    # the window flags once divided by N = 0 first (ZeroDivisionError)
    ("sweep", "sweep", "variable = kappa\nkappa_values = 1e-3\nn_values = 0 8 16",
     "invalid [model] parameters: n_sites must be an even integer >= 2, got 0"),
    ("sweep", "sweep", "variable = kappa\nkappa_values = 1e-3\nn_values = 8 16 -2",
     "invalid [model] parameters: n_sites must be an even integer >= 2, got -2"),
], ids=["grid-odd-n", "grid-nan-h", "sweep-odd-n", "sweep-nan-dh",
        "sweep-unknown-anchor", "sweep-zero-kappa", "sweep-dh-two-sizes",
        "sweep-kappa-one-size", "sweep-dh-one-distinct-size",
        "sweep-kappa-two-distinct-sizes", "sweep-kappa-zero-size",
        "sweep-kappa-negative-size"])
def test_bad_point_values_are_config_errors(tmp_path, capsys, command,
                                            section, keys, message):
    # caught before any point runs: exit 2 and no data file, where these
    # used to fail mid-run as compute errors (exit 3)
    cfg_path = write_cfg(tmp_path / "run.cfg", BAD_POINT_CFG.format(
        command=command, section=section, keys=keys))
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert "np.float64" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("variable, keys", [
    ("dh", "dh_values = 0.1"), ("kappa", "kappa_values = 1e-3")])
def test_fit_window_on_dh_or_kappa_sweep_is_config_error(tmp_path, capsys,
                                                         variable, keys):
    # only the n_sites sweep fits through [fit] window_lo/window_hi
    cfg_path = write_cfg(tmp_path / "run.cfg", BAD_POINT_CFG.format(
        command="sweep", section="sweep",
        keys=f"variable = {variable}\n{keys}\nn_values = 8 16 32\n\n"
             f"[fit]\nwindow_lo = 8\nwindow_hi = 32"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: [fit] window_lo/window_hi apply to n_sites sweeps only\n"
    assert os.listdir(out) == []


def test_sweep_n_sites_records_failed_points(tmp_path, capsys):
    # gamma = K and h = -cos(pi/4) put a mode exactly on phi = pi/4, an
    # exceptional point, when pi/4 is on the grid (2p - 1) pi/N: for N = 4
    # and 12, not for N = 8, 16 or 24
    h = -float(np.cos(np.pi / 4))
    for n in (4, 12):
        assert np.any(np.abs(momentum_grid(n) - np.pi / 4) < 1e-15)
    for n in (8, 16, 24):
        assert np.min(np.abs(momentum_grid(n) - np.pi / 4)) > 0.1
    cfg_path = write_cfg(tmp_path / "run.cfg", f"""\
[run]
command = sweep

[model]
h = {h!r}
gamma = 0.4
k_ksea = 0.4
n_sites = 8

[sweep]
variable = n_sites
n_values = 24 4 16 12 8
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "qfi_total"]
    assert [int(r[0]) for r in rows[1:]] == [8, 16, 24]
    for r in rows[1:]:
        p = ChainParams(h=h, gamma=0.4, k_ksea=0.4, n_sites=int(r[0]))
        assert r[1] == "%.17g" % ground_qfi(p).total
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits["fit"]["n_points"] == 3
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    errors = [t for t in manifest["tasks"] if t["status"] == "error"]
    assert [t["name"] for t in errors] == ["sweep N=4", "sweep N=12"]
    assert all("phi=" in t["detail"] for t in errors)
    assert sorted(t["name"] for t in manifest["tasks"]
                  if t["status"] == "ok") == ["sweep N=16", "sweep N=24",
                                              "sweep N=8"]
    assert len(manifest["tasks"]) == 5          # one per size, no "compute"
    # the first failed size's error is named on stderr
    assert capsys.readouterr().err == \
        f"compute error: sweep N=4: {errors[0]['detail']}\n"
    assert {o["path"] for o in manifest["outputs"]} == {"sweep.csv",
                                                        "sweep_fits.json"}


@pytest.mark.parametrize("n_values, lo, hi, message", [
    ("512 64 256 128", "600", "100",
     "[fit] needs finite window_lo <= window_hi, got 600.0, 100.0"),
    ("512 64 256 128", "nan", "1000",
     "[fit] needs finite window_lo <= window_hi, got nan, 1000.0"),
    ("512 64 256 128", "64", "inf",
     "[fit] needs finite window_lo <= window_hi, got 64.0, inf"),
    ("512 64 256 128", "100", "200",
     "[fit] window_lo..window_hi holds fewer than 3 of n_values "
     "[64, 128, 256, 512]"),
    ("64 64 64 128", "64", "64",
     "[fit] window_lo..window_hi holds fewer than 3 of n_values "
     "[64, 64, 64, 128]"),
], ids=["inverted", "nan", "inf", "two-sizes", "one-distinct-size"])
def test_bad_n_sites_fit_window_is_config_error(tmp_path, capsys, n_values, lo,
                                                hi, message):
    # found before any point runs: exit 2 and no data file, where these used
    # to exit 3 after the sweep with sweep.csv but no sweep_fits.json; three
    # copies of one size used to give r^2 = -2.4e270
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG.replace(
        "128 256 512 1024", n_values) +
        f"\n[fit]\nwindow_lo = {lo}\nwindow_hi = {hi}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert os.listdir(out) == []


def test_sweep_dh_records_failed_points(tmp_path, capsys):
    # at h = h_e = sqrt(2) (gamma = 1, K = 0) the tangency angle 3 pi/4 is
    # grid mode p = 2 of N = 4 and p = 5 of N = 12, but not a mode of N = 8:
    # dh = 0 fails at two sizes, and only the two dh = 0.1 entries (one per
    # position in dh_values) get a row and an exponent
    cfg_path = write_cfg(tmp_path / "run.cfg", """\
[run]
command = sweep

[model]
h = 1.0
gamma = 1.0
k_ksea = 0.0
n_sites = 4

[sweep]
variable = dh
anchor = h_e
dh_values = 0.1 0 0.1
n_values = 4 8 12
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert [(t["name"], t["status"]) for t in manifest["tasks"]] == [
        (f"sweep dh={dh} N={n}", "error" if dh == "0" and n != 8 else "ok")
        for dh in ("0.1", "0", "0.1") for n in (4, 8, 12)]
    detail = manifest["tasks"][3]["detail"]
    assert detail.startswith("defective block at mode p=2, ")
    assert capsys.readouterr().err == f"compute error: sweep dh=0 N=4: {detail}\n"
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dh", "h", "mu", "r_squared", "phase"]
    assert [r[0] for r in rows[1:]] == ["0.10000000000000001"] * 2
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert [e["dh"] for e in fits["exponents"]] == [0.1, 0.1]
    he = float(np.sqrt(2.0))
    [(_, fit)] = size_exponent(ChainParams(h=he + 0.1, gamma=1.0, k_ksea=0.0,
                                           n_sites=4), [4, 8, 12]).fits()
    mu = fit.exponent
    assert all(e["mu"] == mu for e in fits["exponents"])
    # phase_change covers every configured value: dh = 0 (ExceptionalPoint)
    # has no row, dh = 0.1 is Unbroken
    assert fits["phase_change"] is True


def test_sweep_n_sites_fits_only_the_points_left_in_its_window(tmp_path):
    # N = 4 and 12 fail (see above); the window holds 4 sizes but only 8 and
    # 16 succeed, so the fit is null, both files are written and exit is 3
    h = -float(np.cos(np.pi / 4))
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG.replace(
        "h = 1.0\ngamma = 0.2\nk_ksea = 0.5", f"h = {h!r}\ngamma = 0.4\n"
        f"k_ksea = 0.4").replace("128 256 512 1024", "24 4 16 12 8") +
        "\n[fit]\nwindow_lo = 4\nwindow_hi = 16\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    with open(out / "sweep.csv", newline="") as fh:
        assert [r[0] for r in csv.reader(fh)] == ["N", "8", "16", "24"]
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits == {"variable": "n_sites", "fit": None}


def test_sweep_n_sites_fit_is_null_below_three_distinct_sizes(tmp_path):
    # three points at two sizes: every row is written, but no exponent
    cfg_path = write_cfg(tmp_path / "run.cfg", SWEEP_CFG.replace(
        "128 256 512 1024", "256 128 128"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert [r[0] for r in csv.reader(fh)] == ["N", "128", "128", "256"]
    fits = json.loads((out / "sweep_fits.json").read_text())
    assert fits == {"variable": "n_sites", "fit": None}


def test_sweep_unknown_variable(tmp_path):
    txt = SWEEP_CFG.replace("variable = n_sites", "variable = disorder")
    cfg_path = write_cfg(tmp_path / "run.cfg", txt)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------- fit


def test_fit_command_on_sweep_output(tmp_path):
    sweep_cfg = write_cfg(tmp_path / "run.cfg", SWEEP_CFG)
    assert main(["sweep", "--config", sweep_cfg, "--out", str(tmp_path)]) == 0
    fit_cfg = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = sweep.csv
x_column = N
y_column = qfi_total
""")
    assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "fit_fit.json").read_text())
    sweep_fit = json.loads((tmp_path / "sweep_fits.json").read_text())["fit"]
    np.testing.assert_allclose(body["exponent"], sweep_fit["exponent"],
                               rtol=1e-12)
    assert body["input"] == "sweep.csv"

    bad = write_cfg(tmp_path / "bad.cfg", """\
[run]
command = fit

[fit]
input = sweep.csv
x_column = N
y_column = no_such_column
""")
    assert main(["fit", "--config", bad, "--out", str(tmp_path)]) == 2
    missing = write_cfg(tmp_path / "missing.cfg", """\
[run]
command = fit

[fit]
input = not_there.csv
x_column = N
y_column = qfi_total
""")
    assert main(["fit", "--config", missing, "--out", str(tmp_path)]) == 2


def test_fit_short_row_is_config_error(tmp_path, capsys):
    # csv.DictReader fills the missing cell of a short row with None
    (tmp_path / "short.csv").write_text("N,qfi_total\n8,1.0\n16\n32,9.0\n",
                                        encoding="utf-8")
    cfg_path = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = short.csv
x_column = N
y_column = qfi_total
""")
    assert main(["fit", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "short.csv" in err
    assert not (tmp_path / "fit_fit.json").exists()


def test_fit_input_not_utf8_is_unreadable_config_error(tmp_path, capsys):
    # a Latin-1 byte is a decoding failure, not "non-numeric data"
    (tmp_path / "latin.csv").write_bytes(b"N,qfi_total\n8,1.0\n16,4.0 \xb5\n")
    cfg_path = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = latin.csv
x_column = N
y_column = qfi_total
""")
    assert main(["fit", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read [fit] input ") and "latin.csv" in err
    assert not (tmp_path / "fit_fit.json").exists()


@pytest.mark.parametrize("lo, hi", [("600", "100"), ("nan", "1000"),
                                    ("-inf", "10")])
def test_fit_bad_window_is_config_error(tmp_path, capsys, lo, hi):
    (tmp_path / "d.csv").write_text("N,qfi_total\n8,1.0\n16,4.0\n32,9.0\n"
                                    "64,16.0\n", encoding="utf-8")
    cfg_path = write_cfg(tmp_path / "fit.cfg", f"""\
[run]
command = fit

[fit]
input = d.csv
x_column = N
y_column = qfi_total
window_lo = {lo}
window_hi = {hi}
""")
    assert main(["fit", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: [fit] needs finite window_lo <= window_hi, got ")
    assert not (tmp_path / "fit_fit.json").exists()


@pytest.mark.parametrize("data, window, message", [
    ("N,qfi_total\n", "",
     "cannot fit [fit] input {src!r}: need at least 3 points inside the fit "
     "window, got 0"),
    ("N,qfi_total\n8,1.0\n16,0.0\n32,9.0\n", "",
     "cannot fit [fit] input {src!r}: power-law fits need strictly positive "
     "xs and ys"),
    ("N,qfi_total\n8,1.0\n16,4.0\n32,9.0\n", "window_lo = 8\nwindow_hi = 16\n",
     "cannot fit [fit] input {src!r}: need at least 3 points inside the fit "
     "window, got 2"),
    ("N,qfi_total\n8,1.0\n16,x\n32,9.0\n", "",
     "non-numeric data in {src!r}: could not convert string to float: 'x'"),
    ("N,qfi_total\n8,1.0\n16,4.0\n32,9.0\n", "window_lo = 8\n",
     "[fit] window_lo and window_hi come as a pair"),
    ("N,qfi_total\n8,1.0\n8,1.5\n16,4.0\n", "",
     "cannot fit [fit] input {src!r}: need at least 3 points inside the fit "
     "window, got 3 (fewer than 3 distinct xs)"),
    # three distinct xs whose logs round to one value: ln x is what is fitted
    (f"N,qfi_total\n1e10,1.0\n{math.nextafter(1e10, 2e10)!r},2.0\n"
     f"{math.nextafter(math.nextafter(1e10, 2e10), 2e10)!r},3.0\n", "",
     "cannot fit [fit] input {src!r}: need at least 3 points inside the fit "
     "window, got 3 (fewer than 3 distinct xs)"),
], ids=["header-only", "zero-value", "two-in-window", "non-numeric",
        "lo-without-hi", "two-distinct-xs", "one-distinct-log"])
def test_fit_input_that_decides_no_fit_is_config_error(tmp_path, capsys, data,
                                                       window, message):
    # the input file and the [fit] keys alone decide these: exit 2, no file
    (tmp_path / "d.csv").write_text(data, encoding="utf-8")
    cfg_path = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = d.csv
x_column = N
y_column = qfi_total
""" + window)
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg_path, "--out", str(out)]) == 2
    src = str(tmp_path / "d.csv")
    assert capsys.readouterr().err == f"config error: {message.format(src=src)}\n"
    assert os.listdir(out) == []


def test_fit_missing_column_names_the_columns(tmp_path, capsys):
    # the column check raises ConfigError, itself a ValueError, inside the
    # try that turns a bad number into "non-numeric data"
    (tmp_path / "d.csv").write_text("N,qfi_total\n8,1.0\n16,4.0\n",
                                    encoding="utf-8")
    cfg_path = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = d.csv
x_column = N
y_column = nope
""")
    assert main(["fit", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: input ")
    assert "lacks columns 'N'/'nope'" in err and "non-numeric" not in err


# ------------------------------------------------------------- oracle-check


ORACLE_CFG = """\
[run]
command = oracle-check
seed = 1

[oracle]
sizes = 4
points = 3
include_dynamics = false
"""


def test_oracle_check_pass(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "run.cfg", ORACLE_CFG)
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[pass]" in stdout and "[FAIL]" not in stdout
    assert "all checks passed" in stdout
    report = json.loads((out / "oracle_check_report.json").read_text())
    assert report["ok"] is True and report["seed"] == 1


def test_oracle_check_detects_corruption(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         ORACLE_CFG + "corrupt_scale = 1.01\n")
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 4
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    report = json.loads((out / "oracle_check_report.json").read_text())
    assert report["ok"] is False
    failed = [r["quantity"] for r in report["rows"] if not r["pass"]]
    assert any("spectrum" in q for q in failed)


def test_oracle_check_seed_override(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "run.cfg", ORACLE_CFG)
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", cfg_path, "--out", str(out),
                 "--seed", "5"]) == 0
    report = json.loads((out / "oracle_check_report.json").read_text())
    assert report["seed"] == 5
    manifest = json.loads((out / "oracle_check_manifest.json").read_text())
    assert manifest["seed"] == 5
    capsys.readouterr()
    assert main(["oracle-check", "--config", cfg_path, "--out", str(tmp_path / "neg"),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be non-negative\n"
    assert not (tmp_path / "neg").exists()


def test_oracle_check_caps_sizes(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         ORACLE_CFG.replace("sizes = 4", "sizes = 16"))
    assert main(["oracle-check", "--config", cfg_path,
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("line, bad", [
    ("sizes = 4", "sizes = 5"), ("sizes = 4", "sizes = 4 0"),
    ("points = 3", "points = -3"),
    ("include_dynamics = false", "corrupt_scale = nan"),
    ("include_dynamics = false", "corrupt_scale = inf"),
    ("include_dynamics = false", "corrupt_scale = -inf"),
    ("include_dynamics = false", "include_dynamics = maybe")])
def test_oracle_check_bad_sizes_or_points_is_config_error(tmp_path, capsys,
                                                          line, bad):
    cfg_path = write_cfg(tmp_path / "run.cfg", ORACLE_CFG.replace(line, bad))
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: [oracle] {bad.split()[0]} ")
    assert "all checks passed" not in captured.out
    assert not (out / "oracle_check_report.json").exists()


@pytest.mark.parametrize("keys, message", [
    ("n_values = 8 11\nh_values = 0.5 nan", "h must be finite, got nan"),
    ("n_values = 7 8\nh_values = 0.5 nan",
     "n_sites must be an even integer >= 2, got 7"),
    ("n_values = 8 10 11\nh_values = 0.5 0.7",
     "n_sites must be an even integer >= 2, got 11")])
def test_ground_qfi_grid_reports_its_first_bad_pair(tmp_path, capsys, keys,
                                                     message):
    # each N and each h is checked once, with the error of the first bad
    # (N, h) pair in grid order, before any point runs
    cfg_path = write_cfg(tmp_path / "run.cfg", BAD_POINT_CFG.format(
        command="ground-qfi", section="grid", keys=keys))
    out = tmp_path / "out"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: invalid [model] parameters: {message}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("old, new, message", [
    ("gamma = 0.5", "gamma = 1e200", "|gamma| must be <= 1e+50, got 1e+200"),
    ("h_values = 1.2 0.4", "h_values = 1.2 1e200", "|h| must be <= 1e+50, got 1e+200"),
    ("h_values = 1.2 0.4", "h_values = 1e100", "|h| must be <= 1e+50, got 1e+100")])
def test_parameters_beyond_the_kernel_bound_are_config_errors(tmp_path, capsys,
                                                              old, new, message):
    # these used to end in an OverflowError traceback, a false defective
    # mode (exit 3) or a numpy overflow warning
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG.replace(old, new))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: invalid [model] parameters: {message}\n"
    assert captured.out == ""
    assert os.listdir(out) == []


@pytest.mark.parametrize("scale, code", [
    ("1.0", 0), ("1.01", 4), ("1e150", 4), ("-1e150", 4),
    ("1e300", 2), ("-1e300", 2), ("1.1e150", 2)])
def test_oracle_check_corrupt_scale_ends_in_a_contracted_outcome(
        tmp_path, capsys, scale, code):
    # a scale whose square overflows is refused before any work; below that
    # bound a corruption fails the suite (exit 4), with no numpy warning
    cfg_path = write_cfg(tmp_path / "run.cfg", ORACLE_CFG.replace(
        "points = 3", "points = 1") + f"corrupt_scale = {scale}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", "--config", cfg_path,
                     "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == (f"config error: [oracle] corrupt_scale must be finite "
                       f"with magnitude <= 1e150, got {float(scale)!r}\n")
        assert not out.exists() or not os.listdir(out)
    else:
        assert err == ""
        report = json.loads((out / "oracle_check_report.json").read_text())
        assert report["ok"] is (code == 0)


def test_oracle_check_overflowing_dense_evolution_fails_quietly(tmp_path,
                                                                capsys):
    # corrupt_scale = 1000 overflows exp(-iHt) of the non-Hermitian dense
    # Hamiltonian: its rows fail (exit 4) with no numpy warning, and the NaN
    # the overflow leaves is written as null, which strict parsers accept
    cfg_path = write_cfg(tmp_path / "run.cfg", ORACLE_CFG.replace(
        "points = 3", "points = 1").replace(
        "include_dynamics = false", "include_dynamics = true")
        + "corrupt_scale = 1000\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", "--config", cfg_path,
                     "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads((out / "oracle_check_report.json").read_text(),
                        parse_constant=refuse)
    nulls = [r for r in report["rows"] if r["rel_err"] is None]
    assert nulls and all(r["oracle"] is None and not r["pass"] for r in nulls)
    for r in nulls:
        assert f"[FAIL] {r['quantity']}: rel_err=nan\n" in captured.out


# ------------------------------------------------------------ phase/workers


def test_phase_prints_json_and_writes_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "run.cfg", """\
[run]
command = phase

[model]
h = 0.5
gamma = 0.5
k_ksea = 0.2
n_sites = 8
""")
    out = tmp_path / "out"
    assert main(["phase", "--config", cfg_path, "--out", str(out)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["region"] == "Broken"
    np.testing.assert_allclose(body["h_e"], 1.1, rtol=1e-12)
    assert len(body["omega_pm"]) == 2
    assert os.listdir(out) == []


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "run.cfg",
                         "[run]\ncommand = phase\n[model]\nh = 0.5\n"
                         "gamma = 0.5\nk_ksea = 0.2\nn_sites = 8\n")
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    assert main(["phase", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create --out ")
    assert repr(str(out)) in err
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_workers_resolution(tmp_path, capsys):
    # the --workers flag, >= 1, else exit 2 before anything is written
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG)
    for workers in ("0", "-3"):
        out = tmp_path / f"out{workers}"
        assert main(["ground-qfi", "--config", cfg_path, "--out", str(out),
                     "--workers", workers]) == 2
        assert capsys.readouterr().err == \
            f"config error: --workers must be >= 1, got {workers}\n"
        assert not out.exists()


def _ground_qfi_run(out, cfg_path, flags):
    # runs ground-qfi into out; returns its manifest and its data files' bytes
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out),
                 *flags]) == 0
    manifest = json.loads((out / "ground_qfi_manifest.json").read_text())
    data = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))
            if not f.endswith("_manifest.json")}
    assert len(data) == 2
    return manifest, data


def test_workers_default_is_one(tmp_path, monkeypatch):
    # no flag writes what --workers 1 writes; the removed IKSEA_WORKERS
    # variable changes nothing
    monkeypatch.setenv("IKSEA_WORKERS", "many")
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG)
    _, default = _ground_qfi_run(tmp_path / "default", cfg_path, [])
    _, one = _ground_qfi_run(tmp_path / "one", cfg_path, ["--workers", "1"])
    assert default == one


def test_workers_flag_recorded_in_manifest(tmp_path):
    # the manifest records no worker count: --workers 2 gives the same
    # manifest fields and data files as no flag
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG)
    m_none, d_none = _ground_qfi_run(tmp_path / "none", cfg_path, [])
    m_two, d_two = _ground_qfi_run(tmp_path / "two", cfg_path,
                                   ["--workers", "2"])
    assert "workers" not in m_two
    assert m_two.keys() == m_none.keys()
    assert m_two["config"] == m_none["config"]
    assert d_two == d_none


def test_manifest_records_versions(tmp_path):
    import iksea
    cfg_path = write_cfg(tmp_path / "run.cfg", GROUND_CFG)
    out = tmp_path / "out"
    assert main(["ground-qfi", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "ground_qfi_manifest.json").read_text())
    assert manifest["package_version"] == iksea.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    # "scipy" names the scipy the process has loaded; this module imports it
    assert "scipy" in sys.modules and manifest["scipy"] == scipy.__version__


def test_manifest_names_scipy_only_once_a_run_loads_it(tmp_path):
    # a fresh interpreter: import iksea.cli loads no scipy module, ground-qfi
    # loads none, and oracle-check's dense evolution loads scipy.linalg
    ground = write_cfg(tmp_path / "ground.cfg", GROUND_CFG)
    oracle = write_cfg(tmp_path / "oracle.cfg",
                       "[run]\ncommand = oracle-check\n[oracle]\nsizes = 4\n"
                       "points = 1\ninclude_dynamics = true\n")
    code = ("import sys, iksea.cli; "
            "assert not [m for m in sys.modules if m.startswith('scipy')]; "
            f"assert iksea.cli.main(['ground-qfi', '--config', {ground!r}, "
            f"'--out', {str(tmp_path / 'ground')!r}]) == 0; "
            "assert not [m for m in sys.modules if m.startswith('scipy')]; "
            f"assert iksea.cli.main(['oracle-check', '--config', {oracle!r}, "
            f"'--out', {str(tmp_path / 'oracle')!r}]) == 0")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(iksea.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    manifests = [json.loads(path.read_text())
                 for path in (*(tmp_path / "ground").glob("*_manifest.json"),
                              *(tmp_path / "oracle").glob("*_manifest.json"))]
    assert [m["command"] for m in manifests] == ["ground-qfi", "oracle-check"]
    assert [m["scipy"] for m in manifests] == [None, scipy.__version__]


# --------------------------------------------------------- shipped configs


REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("command, text, message", [
    ("sweep", BAD_POINT_CFG.format(
        command="sweep", section="sweep",
        keys="variable = dh\ndh_values = 0.1\nanchr = h_e\nn_values = 8 16 32"),
     "[sweep] anchr is not a known key"),
    ("ground-qfi", GROUND_CFG + "\n[gird]\nn_values = 8\n",
     "[gird] n_values is not a known key"),
    ("ground-qfi", GROUND_CFG.replace("seed = 3", "seed = 3\nworkers = 2"),
     "[run] workers is not a known key"),
    ("dyn-qfi", DYN_CFG + "\n[dynamics]\nderivative = analytic\n",
     "[dynamics] derivative is not a known key"),
    ("dyn-qfi", DYN_CFG + "\n[dynamics]\nfd_step = 1e-6\n",
     "[dynamics] fd_step is not a known key"),
    ("sweep", BAD_POINT_CFG.format(
        command="sweep", section="sweep", keys="variable = kappa\n"
        "kappa_values = 1e-3\nn_values = 8 16 32\nenforce_window = false"),
     "[sweep] enforce_window is not a known key"),
    ("ground-qfi", GROUND_CFG.replace("seed = 3", "seed = 3\nversion = 1"),
     "[run] version is not a known key"),
], ids=["misspelt-anchor", "unknown-section", "unknown-run-key",
        "retired-derivative", "retired-fd-step", "retired-enforce-window",
        "retired-version"])
def test_unknown_key_is_config_error(tmp_path, capsys, command, text, message):
    # a misspelt key must not run on the default of the key it meant
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_text(text)
    cfg_path = write_cfg(tmp_path / "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_shipped_and_benchmark_job_configs_parse_clean():
    # every key that the shipped configs and the benchmark's generated jobs
    # carry is one the parser knows
    sys.path.insert(0, os.path.join(REPO, "bench"))
    try:
        import jobs
    finally:
        sys.path.pop(0)
    cfg_dir = os.path.join(REPO, "configs")
    shipped = [f for f in os.listdir(cfg_dir) if f.endswith(".cfg")]
    assert len(shipped) == 8
    for name in shipped:
        RunConfig.from_file(os.path.join(cfg_dir, name))
    for workload in jobs.WORKLOADS:
        made = jobs.make_jobs(workload, 1, cfg_dir, 2)
        assert made
        for job in made:
            assert RunConfig.from_text(job.config).command == job.command


def test_commands_other_than_oracle_check_make_no_lapack_call(tmp_path,
                                                              monkeypatch):
    # every public numpy.linalg function and numpy.polyfit raise; each
    # command but oracle-check still exits 0 with its pinned files
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    with open(os.path.join(REPO, "tests", "data", "shipped_outputs.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name in ("fig1_ground_field_scan", "fig4_dynamical_qfi",
                 "crit2_critical_heisenberg", "fig2_offset_exponent",
                 "crit4_super_heisenberg"):     # n_sites, dh and kappa sweeps
        path = os.path.join(REPO, "configs", name + ".cfg")
        out = tmp_path / name
        assert main([RunConfig.from_file(path).command, "--config", path,
                     "--out", str(out)]) == 0, name
        for fname, digest in pinned[name]["files"].items():
            assert sha256_file(str(out / fname)) == digest, fname
    fit_cfg = write_cfg(tmp_path / "fit.cfg", """\
[run]
command = fit

[fit]
input = crit2_critical_heisenberg/crit2_critical_heisenberg.csv
x_column = N
y_column = qfi_total
""")
    assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path)]) == 0
    phase_cfg = write_cfg(tmp_path / "phase.cfg", "[run]\ncommand = phase\n"
                          "[model]\nh = 1\ngamma = 0.2\nk_ksea = 0.5\nn_sites = 8\n")
    assert main(["phase", "--config", phase_cfg, "--out", str(tmp_path)]) == 0


def test_shipped_configs_match_recorded_digests(tmp_path):
    # tests/data/shipped_outputs.json pins every shipped config's exit code,
    # data-file list, data-file digests and the [name, status] of each
    # manifest task that is not "ok", so any change to a data file byte or to
    # which points fail shows here; tests/data/record_shipped_outputs.py
    # re-records the pins
    with open(os.path.join(REPO, "tests", "data", "shipped_outputs.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)
    cfg_dir = os.path.join(REPO, "configs")
    names = sorted(f[:-4] for f in os.listdir(cfg_dir) if f.endswith(".cfg"))
    assert len(names) == 8 and sorted(pinned) == names
    for name in names:
        path = os.path.join(cfg_dir, name + ".cfg")
        cfg = RunConfig.from_file(path)
        out = tmp_path / name
        code = main([cfg.command, "--config", path, "--out", str(out),
                     "--workers", "1"])
        assert code == pinned[name]["exit"], name
        data = sorted(f for f in os.listdir(out)
                      if not f.endswith("_manifest.json"))
        assert data == sorted(pinned[name]["files"]), name
        for fname, digest in pinned[name]["files"].items():
            assert sha256_file(str(out / fname)) == digest, fname
        manifest = json.loads((out / f"{cfg.prefix}_manifest.json").read_text())
        assert [[t["name"], t["status"]] for t in manifest["tasks"]
                if t["status"] != "ok"] == pinned[name]["failed_tasks"], name
