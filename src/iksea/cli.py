"""Command-line front end.

    iksea <command> --config run.cfg [--out DIR] [--workers N] [--seed S]
                    [--format csv|json]

Commands: ground-qfi, dyn-qfi, sweep, fit, oracle-check, phase.
Exit codes: 0 success, 2 config error (every one is found before any point
runs), 3 compute error, 4 oracle-check failure.

All data files are deterministic for a fixed config and seed: float cells are
formatted with 17 significant digits, rows are emitted in a fixed order, line
endings are '\n', and summation order inside the library is fixed.  The run
manifest (the only file with timestamps) lists every emitted file with its
sha256 digest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Callable, List, Optional

import numpy as np

from . import __version__
from .config import RunConfig
from .dynamics import _qfi_totals
from .errors import ConfigError, DomainError, EvolutionOverflowError, IkseaError, ParameterError
from .ground import _field_rows, ground_qfi  # noqa: F401 (the bench harness test reads it)
from .model import ChainParams, classify_phase
from .oracle import run_oracle_suite
from .runner import Manifest
from .scaling import ScalingFit, exponent_vs_offset, kappa_sweep, power_law_fit, size_exponent

__all__ = ["main"]

#: bound on [times] count: each time is a row and a manifest task, and a
#: dyn-qfi at the bound (N = 8) peaks at 70 MB; 2^20 times took 580 MB
COUNT_MAX = 2 ** 16


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


def _model_params(cfg: RunConfig, **given) -> ChainParams:
    """ChainParams from [model], with the values in given in place of its own."""
    for key in ("h", "gamma", "k_ksea", "n_sites"):
        if key not in given:
            given[key] = (cfg.get_int if key == "n_sites" else cfg.get_float)("model", key)
    try:
        return ChainParams(**given)
    except IkseaError as exc:
        # bad parameter values in the file are a config problem
        raise ConfigError(f"invalid [model] parameters: {exc}") from exc


def _emit(manifest: Manifest, stem: str, fmt: str, suffix: str, body,
          header: Optional[List[str]] = None) -> None:
    """Write <stem><suffix>.<ext> and list it in the manifest.

    With a header, body is a list of rows in data format fmt; without one,
    body is written as JSON.  Commands get this bound to their run as
    emit(suffix, body, header=None).
    """
    path = f"{stem}{suffix}.{fmt if header else 'json'}"
    if header:
        _write_rows(path, header, body, fmt)
    else:
        _write_json(path, body)
    manifest.output(path)


def _run_points(manifest: Manifest, points: list, results: list, name: Callable):
    """Record each point's value or IkseaError as manifest task name(point).

    Returns the (point, value) pairs and the errors, in input order.  An
    EvolutionOverflowError, which only dyn-qfi raises, is a contracted skip.
    """
    done, errors = [], []
    for x, value in zip(points, results):
        if not isinstance(value, IkseaError):
            manifest.task(name(x), "ok")
            done.append((x, value))
        elif isinstance(value, EvolutionOverflowError):
            manifest.task(name(x), "skipped", f"overflow: {value}")
        else:
            manifest.task(name(x), "error", str(value))
            errors.append(value)
    return done, errors


#: ScalingFit attributes written to the fit JSON files, in file order
_FIT_FIELDS = ("exponent", "intercept", "amplitude", "r_squared", "window",
               "n_points", "low_quality")


def _fit_json(f: ScalingFit) -> dict:
    return {name: getattr(f, name) for name in _FIT_FIELDS}


# ---------------------------------------------------------------- commands


def cmd_ground_qfi(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    base = _model_params(cfg)
    ns = sorted(cfg.get_ints("grid", "n_values", default=[base.n_sites]))
    hs = sorted(cfg.get_floats("grid", "h_values", default=[base.h]))
    # every h at the first N, then every N: the first bad (N, h) pair's error
    phases = [classify_phase(_model_params(cfg, n_sites=ns[0], h=h)) for h in hs]
    at_n = [_model_params(cfg, n_sites=n, h=hs[0]) for n in ns]
    points = [(p, h, ph) for p in at_n for h, ph in zip(hs, phases)]
    results = [x for p in at_n for x in _field_rows(p, hs)]
    done, errors = _run_points(manifest, points, results,
                               lambda x: f"ground_qfi N={x[0].n_sites} h={x[1]:g}")
    if errors:
        raise errors[0]
    rows = [[p.n_sites, h, p.gamma, p.k_ksea, ph.region, total, flag]
            for (p, h, ph), (total, flag) in done]
    emit("", rows, ["N", "h", "gamma", "K", "phase", "qfi_total",
                    "flag_near_singular"])
    emit("_summary", {
        "command": "ground-qfi", "rows": len(rows),
        "landmarks": {_fmt(h): asdict(ph) for h, ph in zip(hs, phases)},
    })
    return 0


def _time_grid(cfg: RunConfig) -> List[float]:
    values = cfg.get_floats("times", "values", default=None)
    if values is not None:
        return values
    start = cfg.get_float("times", "start", default=None)
    stop = cfg.get_float("times", "stop", default=None)
    count = cfg.get_int("times", "count", default=None)
    if start is None or stop is None or count is None:
        raise ConfigError(
            "[times] needs either 'values' or 'start'/'stop'/'count'")
    for key, bound in (("start", start), ("stop", stop)):
        if not np.isfinite(bound):
            raise ConfigError(f"[times] {key} must be finite, got {bound!r}")
    if count < 1:
        raise ConfigError("[times] count must be >= 1")
    if count > COUNT_MAX:
        raise ConfigError(f"[times] count must be <= {COUNT_MAX}, got {count}")
    spacing = cfg.get_str("times", "spacing", default="linear")
    if spacing == "linear":
        return list(np.linspace(start, stop, count))
    if spacing == "geometric":
        if start <= 0 or stop <= 0:
            raise ConfigError("[times] geometric spacing needs start, stop > 0")
        return list(np.geomspace(start, stop, count))
    raise ConfigError(f"[times] spacing must be linear|geometric, got {spacing!r}")


def cmd_dyn_qfi(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    params = _model_params(cfg)
    times = _time_grid(cfg)
    phase = classify_phase(params).region
    try:
        totals = _qfi_totals(params, times)
    except ParameterError as exc:
        raise ConfigError(f"invalid [times]: {exc}") from exc

    done, errors = _run_points(manifest, times, totals, lambda t: f"dyn_qfi t={t:g}")
    if errors:
        raise errors[0]
    emit("", [[t, params.n_sites, qfi, phase] for t, qfi in done],
         ["t", "N", "qfi", "phase"])
    return 0


def _fit_window(cfg: RunConfig):
    lo = cfg.get_float("fit", "window_lo", default=None)
    hi = cfg.get_float("fit", "window_hi", default=None)
    if (lo is None) != (hi is None):
        raise ConfigError("[fit] window_lo and window_hi come as a pair")
    if lo is not None and not -np.inf < lo <= hi < np.inf:
        raise ConfigError(f"[fit] needs finite window_lo <= window_hi, got {lo!r}, {hi!r}")
    return None if lo is None else (lo, hi)


def cmd_sweep(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    """Tabulate a scaling.size_exponent, exponent_vs_offset or kappa_sweep
    run: each point becomes a manifest task, then the fits are made."""
    variable = cfg.get_str("sweep", "variable")
    if variable not in ("n_sites", "dh", "kappa"):
        raise ConfigError(
            f"[sweep] variable must be n_sites|dh|kappa, got {variable!r}")
    ns, window = sorted(cfg.get_ints("sweep", "n_values")), _fit_window(cfg)
    if variable == "n_sites":
        lo, hi = window or (0, np.inf)
        if window and len({n for n in ns if lo <= n <= hi}) < 3:
            raise ConfigError(f"[fit] window_lo..window_hi holds fewer than 3 of n_values {ns}")
    elif window is not None:
        raise ConfigError("[fit] window_lo/window_hi apply to n_sites sweeps only")
    elif len(set(ns)) < 3:
        raise ConfigError(f"[sweep] n_values needs at least 3 sizes to fit "
                          f"mu for each {variable} value")
    try:
        if variable == "n_sites":
            res = size_exponent(_model_params(cfg, n_sites=ns[0]), ns, window)
        elif variable == "dh":
            values = cfg.get_floats("sweep", "dh_values")
            anchor = cfg.get_str("sweep", "anchor", default="h_c")
            res = exponent_vs_offset(_model_params(cfg, n_sites=ns[0]), values, ns, anchor)
        else:
            values = cfg.get_floats("sweep", "kappa_values")
            res = kappa_sweep(cfg.get_float("model", "gamma"), values, ns,
                              cfg.get_float("model", "h", default=1.0))
    except DomainError as exc:          # an anchor or kappa outside its domain
        raise ConfigError(f"[sweep] {exc}") from exc
    except ParameterError as exc:       # a point's ChainParams
        raise ConfigError(f"invalid [model] parameters: {exc}") from exc
    label = "" if variable == "n_sites" else variable + "={:g} "
    done, errors = _run_points(manifest, res.points, res.totals,
                               lambda xp: f"sweep {label.format(xp[0])}N={xp[1].n_sites}")
    fits = {"variable": variable, **res.metadata}
    if variable == "n_sites":
        emit("", [[p.n_sites, total] for (_, p), total in done], ["N", "qfi_total"])
        fits["fit"] = next((_fit_json(f) for _, f in res.fits()), None)
    else:
        fitted = res.fits()             # a repeated value keeps both its rows
        fits["exponents"] = [{variable: x, "mu": f.exponent, "r_squared": f.r_squared}
                             for (x, _), f in fitted]
        if variable == "dh":
            emit("", [[x, p.h, f.exponent, f.r_squared, classify_phase(p).region]
                      for (x, p), f in fitted], ["dh", "h", "mu", "r_squared", "phase"])
        else:
            emit("", [[x, f.exponent, f.r_squared] for (x, _), f in fitted],
                 ["kappa", "mu", "r_squared"])
    emit("_fits", fits)
    if errors:
        raise errors[0]
    return 0


def cmd_fit(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    src, window = cfg.get_str("fit", "input"), _fit_window(cfg)
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
    except ConfigError:
        raise
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read [fit] input {src!r}: {exc}") from exc
    except TypeError as exc:
        # csv.DictReader fills the cells missing from a short row with None
        raise ConfigError(
            f"line {reader.line_num} of {src!r} has too few cells") from exc
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {src!r}: {exc}") from exc
    try:
        f = power_law_fit(xs, ys, window=window)
    except IkseaError as exc:     # the input file alone decides these
        raise ConfigError(f"cannot fit [fit] input {src!r}: {exc}") from exc
    emit("_fit", {"input": os.path.basename(src), "x_column": x_col,
                  "y_column": y_col, **_fit_json(f)})
    manifest.task("fit", "ok")
    return 0


def cmd_oracle_check(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    try:
        report = run_oracle_suite(
            sizes=cfg.get_ints("oracle", "sizes", default=[4, 6, 8]),
            n_points=cfg.get_int("oracle", "points", default=20), seed=cfg.seed,
            include_dynamics=cfg.get_bool("oracle", "include_dynamics", default=True),
            corrupt_scale=cfg.get_float("oracle", "corrupt_scale", default=1.0))
    except ParameterError as exc:
        raise ConfigError(f"[oracle] {exc}") from exc
    emit("_report", report)
    for row in report["rows"]:
        manifest.task(row["quantity"], "ok" if row["pass"] else "failed",
                      row["detail"])
        mark = "pass" if row["pass"] else "FAIL"
        rel = np.nan if row["rel_err"] is None else row["rel_err"]
        print(f"[{mark}] {row['quantity']}: rel_err={rel:.3e}")
    print(f"oracle-check: {'all checks passed' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 4


def cmd_phase(cfg: RunConfig, manifest: Manifest, emit: Callable) -> int:
    params = _model_params(cfg)
    print(json.dumps(asdict(classify_phase(params)), indent=1))
    return 0


# ------------------------------------------------------------------- main

#: command name -> (help line, handler); phase prints and writes no files
COMMAND_TABLE = {
    "ground-qfi": ("ground-state QFI over an (N, h) grid", cmd_ground_qfi),
    "dyn-qfi": ("dynamical QFI time series", cmd_dyn_qfi),
    "sweep": ("scaling sweeps (variable = n_sites | dh | kappa)", cmd_sweep),
    "fit": ("power-law fit of two CSV columns", cmd_fit),
    "oracle-check": ("cross-check against the dense oracle", cmd_oracle_check),
    "phase": ("print phase-diagram info for the model parameters", cmd_phase),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iksea",
        description="QFI computations for the non-Hermitian KSEA-XY chain")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMAND_TABLE.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
        sp.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
        sp.add_argument("--workers", type=int, default=1, metavar="N",
                        help="accepted for existing scripts; >= 1, selects "
                             "nothing (the thread count is fixed)")
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
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg.seed = args.seed
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        manifest = Manifest(cfg)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out!r}: {exc}") from exc
        emit = functools.partial(_emit, manifest,
                                 os.path.join(args.out, cfg.prefix), args.format)
        code = COMMAND_TABLE[cfg.command][1](cfg, manifest, emit)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IkseaError as exc:
        # only ConfigError can precede the manifest; a failed point has its task
        task = next((t["name"] + ": " for t in manifest.tasks
                     if t["status"] == "error" and t["detail"] == str(exc)), "")
        if not task:
            manifest.task("compute", "error", str(exc))
        print(f"compute error: {task}{exc}", file=sys.stderr)
        manifest.write(args.out)
        return 3
    if cfg.command != "phase":
        manifest.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
