"""Command-line front end.

    iksea <command> --config run.cfg [--out DIR] [--workers N] [--seed S]
                    [--format csv|json]

Commands: ground-qfi, dyn-qfi, sweep, fit, oracle-check, phase.
Exit codes: 0 success, 2 config error, 3 compute error, 4 oracle-check
failure.

All data files are deterministic for a fixed config and seed: float cells are
formatted with 17 significant digits, rows are emitted in a fixed order, line
endings are '\n', and summation order inside the library is fixed.  The run
manifest (the only file with timestamps) lists every emitted file with its
sha256 digest.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from . import __version__
from .config import COMMANDS, RunConfig
from .dynamics import dynamical_qfi
from .errors import ConfigError, EvolutionOverflowError, IkseaError
from .ground import ground_qfi
from .model import ChainParams, classify_phase
from .oracle import run_oracle_suite
from .runner import Manifest, resolve_workers, run_grid
from .scaling import exponent_vs_offset, kappa_sweep, power_law_fit

__all__ = ["main"]


def _fmt(x) -> str:
    """Canonical cell formatting: 17 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_rows(path: str, header: List[str], rows: List[list],
                fmt: str) -> None:
    """Write rows as RFC-4180 CSV or as a JSON array of objects."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(c) for c in row])
    else:
        body = [dict(zip(header, row)) for row in rows]
        _write_json(path, body)


def _write_json(path: str, body) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(body, fh, indent=1, sort_keys=False)
        fh.write("\n")


def _model_params(cfg: RunConfig, n_sites: Optional[int] = None) -> ChainParams:
    n = n_sites if n_sites is not None else cfg.get_int("model", "n_sites")
    try:
        return ChainParams(
            h=cfg.get_float("model", "h"),
            gamma=cfg.get_float("model", "gamma"),
            k_ksea=cfg.get_float("model", "k_ksea"),
            n_sites=n,
        )
    except IkseaError as exc:
        # bad parameter values in the file are a config problem
        raise ConfigError(f"invalid [model] parameters: {exc}") from exc


def _phase_summary(p: ChainParams) -> dict:
    info = classify_phase(p)
    return {
        "region": info.region,
        "h_c": info.h_c,
        "h_e": info.h_e,
        "omega_pm": None if info.omega_pm is None else list(info.omega_pm),
        "at_critical": info.at_critical,
    }


# ---------------------------------------------------------------- commands


def cmd_ground_qfi(cfg: RunConfig, out_dir: str, workers: int,
                   fmt: str, manifest: Manifest) -> int:
    n_values = cfg.get_ints("grid", "n_values", default=None)
    h_values = cfg.get_floats("grid", "h_values", default=None)
    if n_values is not None and len(n_values) == 0:
        raise ConfigError("[grid] n_values is empty")
    if h_values is not None and len(h_values) == 0:
        raise ConfigError("[grid] h_values is empty")
    base = _model_params(cfg)
    ns = sorted(n_values) if n_values else [base.n_sites]
    hs = sorted(h_values) if h_values else [base.h]
    points = [base.replace(n_sites=n, h=h) for n in ns for h in hs]

    results = run_grid(lambda p: ground_qfi(p), points, workers)
    rows = []
    for p, (status, payload) in zip(points, results):
        if status == "error":
            manifest.task(f"ground_qfi N={p.n_sites} h={p.h:g}", "error",
                          str(payload))
            raise payload
        rec = payload
        rows.append([p.n_sites, p.h, p.gamma, p.k_ksea,
                     classify_phase(p).region, rec.total,
                     rec.flag_near_singular])
        manifest.task(f"ground_qfi N={p.n_sites} h={p.h:g}", "ok")

    ext = "csv" if fmt == "csv" else "json"
    data_path = os.path.join(out_dir, f"{cfg.prefix}.{ext}")
    _write_rows(data_path,
                ["N", "h", "gamma", "K", "phase", "qfi_total",
                 "flag_near_singular"], rows, fmt)
    summary = {
        "command": "ground-qfi",
        "rows": len(rows),
        "landmarks": {_fmt(h): _phase_summary(base.replace(h=h)) for h in hs},
    }
    summary_path = os.path.join(out_dir, f"{cfg.prefix}_summary.json")
    _write_json(summary_path, summary)
    manifest.output(data_path)
    manifest.output(summary_path)
    return 0


def _time_grid(cfg: RunConfig) -> List[float]:
    values = cfg.get_floats("times", "values", default=None)
    if values is not None:
        if not values:
            raise ConfigError("[times] values is empty")
        return values
    start = cfg.get_float("times", "start", default=None)
    stop = cfg.get_float("times", "stop", default=None)
    count = cfg.get_int("times", "count", default=None)
    if start is None or stop is None or count is None:
        raise ConfigError(
            "[times] needs either 'values' or 'start'/'stop'/'count'")
    if count < 1:
        raise ConfigError("[times] count must be >= 1")
    spacing = cfg.get_str("times", "spacing", default="linear")
    if spacing == "linear":
        return list(np.linspace(start, stop, count))
    if spacing == "geometric":
        if start <= 0 or stop <= 0:
            raise ConfigError("[times] geometric spacing needs start, stop > 0")
        return list(np.geomspace(start, stop, count))
    raise ConfigError(f"[times] spacing must be linear|geometric, got {spacing!r}")


def cmd_dyn_qfi(cfg: RunConfig, out_dir: str, workers: int, fmt: str,
                manifest: Manifest) -> int:
    params = _model_params(cfg)
    times = _time_grid(cfg)
    derivative = cfg.get_str("dynamics", "derivative", default="analytic")
    if derivative not in ("analytic", "fd"):
        raise ConfigError(
            f"[dynamics] derivative must be analytic|fd, got {derivative!r}")
    fd_step = cfg.get_float("dynamics", "fd_step", default=1e-6)
    phase = classify_phase(params).region

    def one(t):
        return dynamical_qfi(params, t, derivative=derivative, fd_step=fd_step)

    results = run_grid(one, times, workers)
    rows = []
    for t, (status, payload) in zip(times, results):
        if status == "error":
            if isinstance(payload, EvolutionOverflowError):
                # contracted skip: drop the row, record it in the manifest
                manifest.task(f"dyn_qfi t={t:g}", "skipped",
                              f"overflow: {payload}")
                continue
            manifest.task(f"dyn_qfi t={t:g}", "error", str(payload))
            raise payload
        rows.append([t, params.n_sites, payload, phase])
        manifest.task(f"dyn_qfi t={t:g}", "ok")

    ext = "csv" if fmt == "csv" else "json"
    data_path = os.path.join(out_dir, f"{cfg.prefix}.{ext}")
    _write_rows(data_path, ["t", "N", "qfi", "phase"], rows, fmt)
    manifest.output(data_path)
    return 0


def _sweep_fit_window(cfg: RunConfig):
    lo = cfg.get_float("fit", "window_lo", default=None)
    hi = cfg.get_float("fit", "window_hi", default=None)
    if (lo is None) != (hi is None):
        raise ConfigError("[fit] window_lo and window_hi come as a pair")
    return None if lo is None else (lo, hi)


def cmd_sweep(cfg: RunConfig, out_dir: str, workers: int, fmt: str,
              manifest: Manifest) -> int:
    variable = cfg.get_str("sweep", "variable")
    ext = "csv" if fmt == "csv" else "json"
    data_path = os.path.join(out_dir, f"{cfg.prefix}.{ext}")
    fits_path = os.path.join(out_dir, f"{cfg.prefix}_fits.json")
    failures = 0

    if variable == "n_sites":
        ns = cfg.get_ints("sweep", "n_values")
        if not ns:
            raise ConfigError("[sweep] n_values is empty")
        base = _model_params(cfg, n_sites=min(ns))
        points = sorted(ns)
        results = run_grid(
            lambda n: ground_qfi(base.replace(n_sites=n)).total,
            points, workers)
        rows, xs, ys = [], [], []
        for n, (status, payload) in zip(points, results):
            if status == "error":
                manifest.task(f"sweep N={n}", "error", str(payload))
                failures += 1
                continue
            manifest.task(f"sweep N={n}", "ok")
            rows.append([n, payload])
            xs.append(float(n))
            ys.append(payload)
        _write_rows(data_path, ["N", "qfi_total"], rows, fmt)
        fit_body = {"variable": "n_sites", "fit": None}
        if len(xs) >= 3:
            f = power_law_fit(np.asarray(xs), np.asarray(ys),
                              window=_sweep_fit_window(cfg))
            fit_body["fit"] = {
                "exponent": f.exponent, "intercept": f.intercept,
                "amplitude": f.amplitude, "r_squared": f.r_squared,
                "window": list(f.window), "n_points": f.n_points,
                "low_quality": f.low_quality,
            }
        _write_json(fits_path, fit_body)

    elif variable == "dh":
        dhs = cfg.get_floats("sweep", "dh_values")
        ns = cfg.get_ints("sweep", "n_values")
        if not dhs or not ns:
            raise ConfigError("[sweep] dh_values and n_values must be non-empty")
        anchor = cfg.get_str("sweep", "anchor", default="h_c")
        base = _model_params(cfg, n_sites=min(ns))
        res = exponent_vs_offset(base, dhs, ns, anchor=anchor)
        rows = [[dh, res.metadata["anchor_value"] + dh, mu, r2, ph]
                for dh, mu, r2, ph in zip(res.xs, res.ys,
                                          res.metadata["r_squared"],
                                          res.metadata["phase"])]
        for row in rows:
            manifest.task(f"sweep dh={row[0]:g}", "ok")
        _write_rows(data_path, ["dh", "h", "mu", "r_squared", "phase"], rows, fmt)
        _write_json(fits_path, {
            "variable": "dh", "anchor": anchor,
            "anchor_value": res.metadata["anchor_value"],
            "phase_change": res.metadata["phase_change"],
            "exponents": [{"dh": float(dh), "mu": float(mu), "r_squared": float(r2)}
                          for dh, mu, r2 in zip(res.xs, res.ys,
                                                res.metadata["r_squared"])],
        })

    elif variable == "kappa":
        kappas = cfg.get_floats("sweep", "kappa_values")
        ns = cfg.get_ints("sweep", "n_values")
        if not kappas or not ns:
            raise ConfigError("[sweep] kappa_values and n_values must be non-empty")
        gamma = cfg.get_float("model", "gamma")
        h = cfg.get_float("model", "h", default=1.0)
        enforce = cfg.get_bool("sweep", "enforce_window", default=False)
        res = kappa_sweep(gamma, kappas, ns, h=h, enforce_window=enforce)
        rows = [[kap, mu, r2] for kap, mu, r2
                in zip(res.xs, res.ys, res.metadata["r_squared"])]
        for row in rows:
            manifest.task(f"sweep kappa={row[0]:g}", "ok")
        _write_rows(data_path, ["kappa", "mu", "r_squared"], rows, fmt)
        _write_json(fits_path, {
            "variable": "kappa", "gamma": gamma, "h": h,
            "out_of_window": [[kap, n] for kap, n in res.metadata["out_of_window"]],
            "exponents": [{"kappa": float(kap), "mu": float(mu),
                           "r_squared": float(r2)}
                          for kap, mu, r2 in zip(res.xs, res.ys,
                                                 res.metadata["r_squared"])],
        })

    else:
        raise ConfigError(
            f"[sweep] variable must be n_sites|dh|kappa, got {variable!r}")

    manifest.output(data_path)
    manifest.output(fits_path)
    return 3 if failures else 0


def cmd_fit(cfg: RunConfig, out_dir: str, workers: int, fmt: str,
            manifest: Manifest) -> int:
    src = cfg.get_str("fit", "input")
    x_col = cfg.get_str("fit", "x_column")
    y_col = cfg.get_str("fit", "y_column")
    if cfg.path is not None and not os.path.isabs(src):
        src = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), src)
    try:
        with open(src, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or x_col not in reader.fieldnames \
                    or y_col not in reader.fieldnames:
                raise ConfigError(
                    f"input {src!r} lacks columns {x_col!r}/{y_col!r} "
                    f"(has {reader.fieldnames})")
            xs, ys = [], []
            for rec in reader:
                xs.append(float(rec[x_col]))
                ys.append(float(rec[y_col]))
    except OSError as exc:
        raise ConfigError(f"cannot read [fit] input {src!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {src!r}: {exc}") from exc
    f = power_law_fit(np.asarray(xs), np.asarray(ys),
                      window=_sweep_fit_window(cfg))
    out_path = os.path.join(out_dir, f"{cfg.prefix}_fit.json")
    _write_json(out_path, {
        "input": os.path.basename(src), "x_column": x_col, "y_column": y_col,
        "exponent": f.exponent, "intercept": f.intercept,
        "amplitude": f.amplitude, "r_squared": f.r_squared,
        "window": list(f.window), "n_points": f.n_points,
        "low_quality": f.low_quality,
    })
    manifest.task("fit", "ok")
    manifest.output(out_path)
    return 0


def cmd_oracle_check(cfg: RunConfig, out_dir: str, workers: int, fmt: str,
                     manifest: Manifest, seed_override: Optional[int]) -> int:
    sizes = cfg.get_ints("oracle", "sizes", default=[4, 6, 8])
    n_points = cfg.get_int("oracle", "points", default=20)
    include_dynamics = cfg.get_bool("oracle", "include_dynamics", default=True)
    corrupt_scale = cfg.get_float("oracle", "corrupt_scale", default=1.0)
    if any(n > 14 for n in sizes):
        raise ConfigError("[oracle] sizes must stay <= 14 (dense capacity)")
    seed = seed_override if seed_override is not None else cfg.seed
    # the suite runs its dense jobs one after the other; --workers is unused
    report = run_oracle_suite(sizes=tuple(sizes), n_points=n_points, seed=seed,
                              include_dynamics=include_dynamics,
                              corrupt_scale=corrupt_scale)
    out_path = os.path.join(out_dir, f"{cfg.prefix}_report.json")
    _write_json(out_path, report)
    for row in report["rows"]:
        manifest.task(row["quantity"], "ok" if row["pass"] else "failed",
                      row["detail"])
    manifest.output(out_path)
    for row in report["rows"]:
        mark = "pass" if row["pass"] else "FAIL"
        print(f"[{mark}] {row['quantity']}: rel_err={row['rel_err']:.3e}")
    print(f"oracle-check: {'all checks passed' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 4


def cmd_phase(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    body = _phase_summary(params)
    body["params"] = asdict(params)
    print(json.dumps(body, indent=1))
    return 0


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iksea",
        description="QFI computations for the non-Hermitian KSEA-XY chain")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ground-qfi": "ground-state QFI over an (N, h) grid",
        "dyn-qfi": "dynamical QFI time series",
        "sweep": "scaling sweeps (variable = n_sites | dh | kappa)",
        "fit": "power-law fit of two CSV columns",
        "oracle-check": "cross-check against the dense oracle",
        "phase": "print phase-diagram info for the model parameters",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=descriptions[name])
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
        sp.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
        sp.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker threads (default: IKSEA_WORKERS or 1)")
        sp.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
        sp.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="data file format (default csv)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if cfg.command != args.command:
            raise ConfigError(
                f"config is for {cfg.command!r} but {args.command!r} was invoked")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        workers = resolve_workers(args.workers)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = Manifest(command=cfg.command, config_text=cfg.to_text(),
                        seed=args.seed if args.seed is not None else cfg.seed,
                        workers=workers, version=cfg.version)
    try:
        if cfg.command == "phase":
            return cmd_phase(cfg)
        if cfg.command == "ground-qfi":
            code = cmd_ground_qfi(cfg, out_dir, workers, args.format, manifest)
        elif cfg.command == "dyn-qfi":
            code = cmd_dyn_qfi(cfg, out_dir, workers, args.format, manifest)
        elif cfg.command == "sweep":
            code = cmd_sweep(cfg, out_dir, workers, args.format, manifest)
        elif cfg.command == "fit":
            code = cmd_fit(cfg, out_dir, workers, args.format, manifest)
        else:
            code = cmd_oracle_check(cfg, out_dir, workers, args.format,
                                    manifest, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IkseaError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        manifest.task("compute", "error", str(exc))
        manifest.write(out_dir, cfg.prefix)
        return 3
    manifest.write(out_dir, cfg.prefix)
    return code


if __name__ == "__main__":
    sys.exit(main())
